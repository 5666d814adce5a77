"""Direct dense solvers for Stein, time-limited Stein, and Stein-like
Sylvester equations.

This is the oracle layer: every low-rank result in the package is checked
against it at desk scale.  Every finite-horizon quantity (dense, cross and
projected Gramians and the horizon terms A^tau B) is the defining sum walked
by :func:`window_sum`, so no window Gramian is solved.  At the infinite
horizon a dense Gramian and the Krylov solvers' compressed problems
(:func:`solve_projected_tl`) are summed by squared Smith, a general dense
Stein equation A X A^T - X + W = 0 is :func:`solve_stein_sylvester` with
B = A, and cross Gramians are solved by a Schur recursion or projected onto
the Krylov bases.  Sizes are guarded by the dense cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .config import check_dense_cap
from .exceptions import ConvergenceError, DimensionMismatchError, SolvabilityError
from .system import DiscreteLTISystem, check_horizon, dense_array

_SOLVABILITY_TOL = 1e-10
_SMITH_MAX_DOUBLINGS = 64
RANK_TOL = 1e-12   # eigenvalues of a core below this times its largest are negligible


@dataclass(frozen=True)
class Gramian:
    """A (time-limited) Gramian basis @ core @ basis^T; ``basis`` None means
    the dense matrix ``core`` itself (the identity as basis).

    For the reachability side it is P_tau and ``tl_term`` the standard-form
    (M^{-1}A)^tau M^{-1}B (lifted through the basis for a Krylov solve); for
    the observability side (solved on the adjoint system) it is the
    mass-adjusted Q and ``tl_term`` the adjoint analogue.  ``tl_term`` is
    None for the infinite horizon.  A Krylov solve also fills the solver
    fields: ``deflated_columns`` counts candidate basis directions dropped as
    numerically dependent during the build, ``offspace_fallbacks`` the
    residual evaluations whose off-space factor needed the full QR.  Other
    modules use :meth:`matrix`, :meth:`factor`, :meth:`congruence` and
    ``basis`` only, so no other module needs to know how it is stored.
    """
    basis: np.ndarray | None
    core: np.ndarray
    tl_term: np.ndarray | None
    side: str
    horizon: float
    iterations: int | None = None
    residual: float | None = None
    shifts: list = field(default_factory=list)
    records: list = field(default_factory=list)
    deflated_columns: int = 0
    offspace_fallbacks: int = 0

    @property
    def gramian(self) -> np.ndarray:
        """The dense matrix, as :meth:`matrix`."""
        return self.matrix()

    @property
    def rank(self) -> int:
        """The basis width if factored; if dense, the eigenvalues above RANK_TOL
        times the largest (the rule by which ``lowrank.truncate_factor`` compresses)."""
        if self.basis is not None:
            return self.basis.shape[1]
        lam = np.linalg.eigvalsh(0.5 * (self.core + self.core.T))
        return int(np.sum(lam > RANK_TOL * lam.max(initial=0.0)))

    def matrix(self) -> np.ndarray:
        """The Gramian as a dense matrix (assembled from a basis at desk scale only)."""
        if self.basis is None:
            return self.core
        return self.basis @ self.core @ self.basis.T

    def factor(self) -> np.ndarray:
        """Z with Z Z^T equal to the Gramian, negligible directions dropped."""
        Z = psd_factor(self.core)
        return Z if self.basis is None else self.basis @ Z

    def congruence(self, C: np.ndarray) -> np.ndarray:
        """C P C^T, through the basis when there is one.  On the
        observability side P is the reachability Gramian of the adjoint
        system, whose C is B^T (the mass-adjusted Gramian makes the original
        B correct here)."""
        CQ = C if self.basis is None else C @ self.basis
        return CQ @ self.core @ CQ.T


def psd_factor(P: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Z with Z Z^T = P for symmetric PSD P, discarding negligible directions."""
    lam, U = np.linalg.eigh(0.5 * (P + P.T))
    lmax = float(lam.max(initial=0.0))
    keep = lam > tol * max(lmax, 1e-300)
    return U[:, keep] * np.sqrt(lam[keep])


def _solvability_margin(eigs_a: np.ndarray, eigs_b: np.ndarray) -> float:
    """min |1 - alpha*beta| over eigenvalue pairs."""
    prod = np.abs(1.0 - np.outer(eigs_a, eigs_b))
    return float(prod.min()) if prod.size else math.inf


def solve_stein_sylvester(A: np.ndarray, B: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve A X B^T - X + W = 0 by complex Schur decomposition of both sides;
    with B = A it is the general dense Stein solve, stable or not.

    Unique solvability requires alpha*beta != 1 for all eigenvalue pairs;
    violations are reported as :class:`SolvabilityError`.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    sa, sb = A.shape[0], B.shape[0]
    if A.shape != (sa, sa) or B.shape != (sb, sb) or W.shape != (sa, sb):
        raise DimensionMismatchError(
            f"incompatible shapes A{A.shape}, B{B.shape}, W{W.shape}")
    check_dense_cap(max(sa, sb), "dense Sylvester solve")

    TA, U = sla.schur(A.astype(complex), output="complex")
    TB, V = sla.schur(B.astype(complex), output="complex")
    margin = _solvability_margin(np.diag(TA), np.diag(TB))
    if margin < _SOLVABILITY_TOL:
        raise SolvabilityError(
            f"reciprocal eigenvalue pair within {margin:.2e} of 1; equation not uniquely solvable")

    Wt = U.conj().T @ W @ V.conj()
    X = np.zeros((sa, sb), dtype=complex)
    eye = np.eye(sa, dtype=complex)
    for j in range(sb - 1, -1, -1):
        rhs = -Wt[:, j] - TA @ (X[:, j + 1:] @ TB[j, j + 1:])
        X[:, j] = sla.solve_triangular(TB[j, j] * TA - eye, rhs)
    return (U @ X @ V.T).real


def _smith_squared(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    # X_{k+1} = X_k + A_k X_k A_k^T with A_{k+1} = A_k^2 accumulates
    # sum_j A^j W A^T^j; quadratic convergence for rho(A) < 1.
    X = W.copy()
    Ak = A.copy()
    norm0 = max(float(np.linalg.norm(W)), 1e-300)
    for _ in range(_SMITH_MAX_DOUBLINGS):
        incr = Ak @ X @ Ak.T
        X = X + incr
        if np.linalg.norm(incr) <= 1e-16 * max(norm0, float(np.linalg.norm(X))):
            return X
        Ak = Ak @ Ak
    raise ConvergenceError("Smith doubling iteration failed to converge")


def window_sum(apply, X: np.ndarray, tau: int, apply_hat=None, Xh: np.ndarray | None = None):
    """Walk X_{j+1} = apply(X_j) and Xh_{j+1} = apply_hat(Xh_j) over the window.

    Returns (sum_{j<tau} X_j Xh_j^T, X_tau, Xh_tau); without ``apply_hat``/``Xh``
    the second sequence is X itself.  The sum satisfies the Stein-like equation
    with the horizon terms X_tau, Xh_tau identically, for every spectrum.
    """
    same = apply_hat is None
    S = np.zeros((X.shape[0], X.shape[0] if same else Xh.shape[0]))
    for _ in range(int(tau)):
        S += X @ (X if same else Xh).T
        X = apply(X)
        if not same:
            Xh = apply_hat(Xh)
    return S, X, X if same else Xh


def tl_gramian_dense(sys: DiscreteLTISystem, tau, side: str = "reach") -> Gramian:
    """Dense (time-limited) Gramian of one side.

    Finite tau: direct summation, which satisfies the defining Stein
    equation identically.  tau = inf: squared Smith iteration; requires the
    (M, A) pencil to be stable.  The observability side is computed as the
    reachability side of the adjoint system, so for generalized systems the
    returned matrix is the mass-adjusted Gramian whose trace identities use
    the original C (see the bounds module).
    """
    tau = check_horizon(tau)
    work = sys.side(side)
    check_dense_cap(work.n, "dense Gramian computation")

    B0 = work.input_map()
    if math.isinf(tau):
        rho = sys.spectral_radius()
        if rho >= 1.0 - 1e-12:
            raise SolvabilityError(
                f"infinite-horizon Gramian needs a stable pencil, spectral radius {rho:.6f}")
        Ad = work.dense_dynamics()
        P = _smith_squared(Ad, B0 @ B0.T)
        P = 0.5 * (P + P.T)
        return Gramian(None, P, None, side, tau)

    P, F, _ = window_sum(work.apply_dynamics, B0, tau)
    return Gramian(None, 0.5 * (P + P.T), F, side, tau)


def solve_cross_sylvester(sys: DiscreteLTISystem, rom: DiscreteLTISystem,
                          tau, side: str = "Y", basis: np.ndarray | None = None) -> np.ndarray:
    """Mixed Stein-like equation coupling a full-order and a reduced system.

    Side 'Y' solves  Abar Y Ahat^T - Y + Bbar Bhat^T - Fbar Fhat^T = 0 in
    standard form; side 'Z' is the same equation on the adjoint pair, whose
    solution satisfies trace(B^T Z Bhat) = <S, Shat> with the original B.

    Finite tau: the defining sum of Abar^j Bbar Bhat^T (Ahat^T)^j over
    j < tau, which satisfies the equation identically and exists for every
    pair of spectra; ``basis`` is not used.  tau = inf (the F terms absent):
    with ``basis``, an orthonormal n x k basis Q of the solved side's
    reachable space (the basis of that side's infinite-horizon low-rank
    Gramian), the Galerkin solution Y = Q Yk with
    (Q^T Abar Q) Yk Ahat^T - Yk + Q^T Bbar Bhat^T = 0, a k x r dense solve.
    Without it, the reduced coefficient is Schur-decomposed and the
    full-order side is only touched through r pencil solves of the system.
    Both infinite-horizon paths check the full-order residual and raise
    :class:`SolvabilityError` when it is not small.
    """
    tau = check_horizon(tau)
    if side not in ("Y", "Z"):
        raise ValueError(f"side must be 'Y' or 'Z', got {side!r}")
    if side == "Z":
        return solve_cross_sylvester(sys.dual(), rom.dual(), tau, "Y", basis)
    if rom.m != sys.m:
        raise DimensionMismatchError(
            f"input counts disagree: full {sys.m}, reduced {rom.m}")
    check_dense_cap(rom.n, "reduced coefficient in cross Sylvester solve")

    X = sys.input_map()
    Xh = rom.input_map()
    if not math.isinf(tau):
        return window_sum(sys.apply_dynamics, X, tau, rom.apply_dynamics, Xh)[0]

    Ahat = rom.dense_dynamics()
    W = X @ Xh.T
    if basis is not None:
        AQ = sys.apply_dynamics(basis)
        Yk = solve_stein_sylvester(basis.T @ AQ, Ahat, basis.T @ W)
        Ymat = basis @ Yk
        AY = AQ @ Yk
    else:
        r = rom.n
        TB, V = sla.schur(Ahat.astype(complex), output="complex")
        Wt = W @ V.conj()
        Y = np.zeros((sys.n, r), dtype=complex)
        try:
            for j in range(r - 1, -1, -1):
                rhs = -Wt[:, j] - sys.apply_dynamics(Y[:, j + 1:] @ TB[j, j + 1:])
                Y[:, j] = sys.pencil_solver(TB[j, j], 1)(rhs)
        except np.linalg.LinAlgError as exc:
            raise SolvabilityError(
                f"shifted solve in the cross Sylvester recursion is singular "
                f"(reciprocal eigenvalue pair): {exc}") from exc
        Ymat = (Y @ V.T).real
        AY = sys.apply_dynamics(Ymat)

    # residual check doubles as the solvability guard
    resid = AY @ Ahat.T - Ymat + W
    scale = max(float(np.linalg.norm(W)), 1e-300)
    if np.linalg.norm(resid) > 1e-8 * max(scale, float(np.linalg.norm(Ymat))):
        raise SolvabilityError(
            "cross Sylvester solve failed its residual check; "
            "likely a reciprocal eigenvalue pair near 1")
    return Ymat


def solve_projected_tl(H: np.ndarray, Bk: np.ndarray) -> np.ndarray:
    """Galerkin-projected infinite-horizon Stein equation H Y H^T - Y + Bk Bk^T = 0.

    H must be stable, since the underlying series diverges otherwise; the
    series is summed by squared Smith.  A finite window needs no solve: its
    projected Gramian is the defining sum, :func:`window_sum` on H and Bk.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    Bk = np.atleast_2d(np.asarray(Bk, dtype=float))
    check_dense_cap(H.shape[0], "projected Stein solve")
    rho = float(np.max(np.abs(np.linalg.eigvals(H)))) if H.size else 0.0
    if rho >= 1.0 - 1e-12:
        raise SolvabilityError(
            f"projected infinite-horizon equation with unstable coefficient "
            f"(spectral radius {rho:.6f})")
    Y = _smith_squared(H, Bk @ Bk.T)
    return 0.5 * (Y + Y.T)


def stein_residual_dense(sys: DiscreteLTISystem, pair: Gramian) -> float:
    """Relative residual of the defining (generalized) Stein equation.

    For the reachability side this checks
    A P A^T - M P M^T + B B^T - F_M F_M^T with F_M = M Fbar; the
    observability side checks the adjoint equation.
    """
    work = sys.side(pair.side)
    A = dense_array(work.A)
    M = np.eye(work.n) if work.M is None else dense_array(work.M)
    B = work.B
    P = pair.matrix()
    W = B @ B.T
    if pair.tl_term is not None:
        FM = M @ pair.tl_term
        W = W - FM @ FM.T
    R = A @ P @ A.T - M @ P @ M.T + W
    return float(np.linalg.norm(R) / max(np.linalg.norm(W), 1e-300))
