"""Low-rank Gramian approximation for (time-limited) Stein equations.

Two solvers are provided.  The Smith-Arnoldi method walks the polynomial
block Krylov sequence B, AB, A^2 B, ... and orthonormalizes the stacked walk
once; for a finite horizon tau its first tau blocks are an exact Gramian
factor and the next block is the exact horizon term.  The rational Krylov
subspace method expands a shifted-inverse basis by the system's pencil
solves, solves compressed Galerkin problems, and monitors the equation residual
through a rank-2m compressed form that never assembles an n x n matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dense_stein import solve_projected_tl, window_sum
from .exceptions import BreakdownError, ConvergenceError, SolvabilityError
from .system import DiscreteLTISystem

_DEFLATION_TOL = 1e-13
_REAL_SHIFT_TOL = 1e-14
_THIN_COLUMNS = 4   # widest block that _thin_product splits into gemv calls


@dataclass
class SolverConfig:
    """Tolerances and cadence for the low-rank solvers.

    ``tol`` is the scaled-residual target, ``tl_term_tol`` the relative
    norm-wise change below which the horizon term is considered settled,
    and ``cadence`` how often (in iterations) the projected problem is
    solved.  The returned factors are compressed by :func:`truncate_factor`.
    """
    tol: float = 1e-8
    tl_term_tol: float = 1e-8
    cadence: int = 5
    max_iterations: int = 400

    def __post_init__(self):
        if not (0.0 < self.tl_term_tol <= self.tol < 1.0):
            raise ValueError("need 0 < tl_term_tol <= tol < 1")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class ShiftStrategy:
    """Shift selection policy for the rational Krylov solver.

    'alternating-pm1' cycles +1/-1 so only two shifted factorizations are
    ever needed; 'adaptive-disc' maximizes the current rational node
    function over ``grid_points`` equispaced unit-circle points, emitting
    complex shifts in conjugate pairs.
    """
    kind: str = "alternating-pm1"
    grid_points: int = 200

    def __post_init__(self):
        if self.kind not in ("alternating-pm1", "adaptive-disc"):
            raise ValueError(f"unknown shift strategy {self.kind!r}")
        if self.grid_points < 4:
            raise ValueError("grid must have at least 4 points")


@dataclass
class ConvergenceRecord:
    """One per-iteration row for the convergence CSV."""
    iteration: int
    basis_columns: int
    residual: float | None
    tl_term_change: float | None
    shift: complex | None


@dataclass
class KrylovState:
    """Bookkeeping of a running (rational) Arnoldi process.

    ``basis`` has orthonormal columns; ``projected`` is basis^T A basis in
    standard form; ``offspace_dir``/``offspace_coeff`` factor the part of
    A*basis that leaves the subspace, which is what the compressed residual
    formula consumes.  Inside ``rksm``, ``basis`` and ``image`` are views of
    the filled columns of the solver's growth buffers; columns are written
    once, so a view stays valid, but it keeps its whole buffer alive.
    """
    block_width: int
    basis: np.ndarray | None = None
    image: np.ndarray | None = None        # A @ basis, kept in sync
    projected: np.ndarray | None = None    # basis^T A basis
    offspace_dir: np.ndarray | None = None
    offspace_coeff: np.ndarray | None = None
    shifts: list = field(default_factory=list)

    def ritz_values(self) -> np.ndarray | None:
        if self.projected is None or self.projected.size == 0:
            return None
        return np.linalg.eigvals(self.projected)


@dataclass
class GramianApprox:
    """Low-rank factored Gramian approximation basis @ core @ basis^T.

    ``tl_term`` is the lifted horizon term (approximates the standard-form
    (M^{-1}A)^tau M^{-1}B on the solved side), None for infinite horizons.
    ``deflated_columns`` counts candidate basis directions dropped as
    numerically dependent during the build; ``offspace_fallbacks`` counts
    the residual evaluations whose off-space factor needed the full QR.
    """
    basis: np.ndarray
    core: np.ndarray
    tl_term: np.ndarray | None
    side: str
    horizon: float
    iterations: int
    residual: float
    shifts: list
    records: list
    deflated_columns: int = 0
    offspace_fallbacks: int = 0

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def factor(self) -> np.ndarray:
        """Cholesky-like factor Z with Z Z^T equal to the approximation."""
        lam, U = np.linalg.eigh(0.5 * (self.core + self.core.T))
        keep = lam > 0.0
        return self.basis @ (U[:, keep] * np.sqrt(lam[keep]))

    def matrix(self) -> np.ndarray:
        """Assemble the dense approximation (desk scale only)."""
        return self.basis @ self.core @ self.basis.T


def _shift_solver(work: DiscreteLTISystem, s: complex):
    """Solve closure b -> (M^{-1}A - s I)^{-1} b; a shift that hits an
    eigenvalue is retried once at s(1 + 1e-8) + 1e-8j."""
    for shift in (s.real if abs(s.imag) <= _REAL_SHIFT_TOL else s, s * (1.0 + 1e-8) + 1e-8j):
        try:
            return work.pencil_solver(1.0, shift)
        except np.linalg.LinAlgError as exc:
            error = exc
    raise BreakdownError(
        f"shifted solve at {s} is singular even after perturbation: {error}") from error


def _orth_columns(X: np.ndarray, tol: float = _DEFLATION_TOL, scale: float | None = None):
    """SVD-based orthonormalization with column deflation.

    Returns (Q, R) with Q orthonormal, Q R = X up to dropped directions of
    size below tol relative to ``scale`` (the pre-orthogonalization block
    norm; defaults to the block's own largest singular value).
    """
    if X.size == 0:
        return np.zeros((X.shape[0], 0)), np.zeros((0, X.shape[1]))
    U, svals, Vt = np.linalg.svd(X, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return np.zeros((X.shape[0], 0)), np.zeros((0, X.shape[1]))
    keep = svals > tol * (scale if scale is not None else svals[0])
    U = U[:, keep]
    R = (svals[keep, None] * Vt[keep])
    return U, R


def _thin_product(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X, one gemv per column when X is thin: a gemm with a handful of
    columns runs several times below memory speed, a gemv at it."""
    if not 0 < X.shape[1] <= _THIN_COLUMNS:
        return A @ X
    return np.column_stack([A @ X[:, j] for j in range(X.shape[1])])


def _thin_norm(X: np.ndarray) -> float:
    """2-norm of a thin matrix (n x m, m small) from its m x m Gram matrix."""
    if X.size == 0:
        return 0.0
    return math.sqrt(max(float(np.linalg.eigvalsh(X.T @ X)[-1]), 0.0))


def _gap_norm(U: np.ndarray, V: np.ndarray | None = None) -> float:
    """2-norm of U U^T - V V^T (of U U^T when V is None) for thin U and V.

    With R the triangular factor of the stack [U, V], the nonzero
    eigenvalues of the difference are those of R J R^T, J = diag(I, -I).
    """
    if V is None:
        return _thin_norm(U) ** 2
    R = np.linalg.qr(np.hstack([U, V]), mode="r")
    J = np.concatenate([np.ones(U.shape[1]), -np.ones(V.shape[1])])
    return float(np.abs(np.linalg.eigvalsh((R * J) @ R.T)).max(initial=0.0))


def _append_columns(buf: np.ndarray, used: int, X: np.ndarray):
    """Write X after column ``used`` of the Fortran-ordered buffer ``buf``, doubling
    its capacity if X does not fit; returns the buffer and its filled columns."""
    need = used + X.shape[1]
    if need > buf.shape[1]:
        grown = np.empty((buf.shape[0], max(need, 2 * buf.shape[1])), order="F")
        grown[:, :used] = buf[:, :used]
        buf = grown
    buf[:, used:need] = X
    return buf, buf[:, :need]


def _gram_schmidt_block(Q: np.ndarray | None, X: np.ndarray, tol: float = _DEFLATION_TOL):
    """Classical Gram-Schmidt of the block X against Q: two passes, and a
    third when the second left a direction that needs it.

    Returns (new_block, coeffs, core) with X = Q @ coeffs + new_block @ core
    up to deflated directions, judged against the incoming block norm so a
    fully represented block deflates away entirely.  After two passes the
    remainder is orthogonal to Q up to round-off relative to its norm after
    the first pass, and the SVD that normalizes it errs by as much; so a kept
    direction far below that norm is not orthogonal to Q (Giraud, Langou &
    Rozložník, Comput. Math. Appl. 50 (2005)).  When the smallest kept
    singular value is below half the norm after the first pass, the
    normalized block is orthogonalized against Q once more.
    """
    scale = _thin_norm(X)
    if Q is None or Q.shape[1] == 0:
        nb, core = _orth_columns(X, tol, scale)
        return nb, np.zeros((0, X.shape[1])), core
    c1 = _thin_product(Q.T, X)
    X = X - _thin_product(Q, c1)
    first_norm = _thin_norm(X)
    c2 = _thin_product(Q.T, X)
    X = X - _thin_product(Q, c2)
    nb, core = _orth_columns(X, tol, scale)
    coeffs = c1 + c2
    if nb.shape[1] and np.linalg.norm(core, axis=1).min() < 0.5 * first_norm:
        c3 = _thin_product(Q.T, nb)
        nb = nb - _thin_product(Q, c3)
        nb, fix = _orth_columns(nb, 1e-8)
        coeffs = coeffs + c3 @ core
        core = fix @ core
    return nb, coeffs, core


def next_shift(strategy: ShiftStrategy, state: KrylovState) -> complex:
    """Pick the next rational-Krylov shift.

    Alternating strategy: (-1)^j for step j = 2, 3, ...; adaptive strategy:
    the unit-circle grid point maximizing the rational node function built
    from current Ritz values (numerator) and past shifts (denominator, each
    repeated block-width times).  A complex shift is always followed by its
    conjugate; with no Ritz data available the adaptive strategy starts
    at -1.
    """
    prior = state.shifts
    if prior and abs(prior[-1].imag) > _REAL_SHIFT_TOL:
        last = prior[-1]
        pair_done = len(prior) >= 2 and abs(prior[-2] - last.conjugate()) <= 1e-14 * abs(last)
        if not pair_done:
            return last.conjugate()

    if strategy.kind == "alternating-pm1":
        j = len(prior) + 2
        return complex((-1.0) ** j)

    theta = state.ritz_values()
    if theta is None or theta.size == 0:
        return complex(-1.0)
    hs = strategy.grid_points
    grid = np.exp(2j * np.pi * np.arange(1, hs + 1) / hs)
    # log-domain evaluation of prod |xi - theta_i| / prod |xi - s_j|^m
    score = np.zeros(hs)
    for th in theta:
        score += np.log(np.abs(grid - th) + 1e-300)
    for s_used in prior:
        d = np.abs(grid - s_used)
        score -= state.block_width * np.log(d + 1e-300)
        score[d < 1e-12] = -np.inf  # reusing a pole is meaningless
    best = grid[int(np.argmax(score))]
    if abs(best.imag) <= _REAL_SHIFT_TOL:
        return complex(best.real)
    return complex(best)


def stein_residual_norm(state: KrylovState, core: np.ndarray) -> float:
    """2-norm of the Stein residual for the Galerkin solution ``core``,
    evaluated from the rank-2m compressed form.

    With G = (I - QQ^T) A Q factored as U S, the residual equals
    [U, w] [[S Y S^T, I], [I, 0]] [U, w]^T for w = Q H Y S^T, so its norm
    is read off a small QR factorization.
    """
    if state.basis is None or state.projected is None:
        raise ValueError("state has no basis/projected data")
    U = state.offspace_dir
    Cf = state.offspace_coeff
    if U is None or U.shape[1] == 0:
        return 0.0
    if Cf.shape[1] != core.shape[0]:
        raise ValueError("state and core dimensions disagree")
    w = _thin_product(state.basis, state.projected @ (core @ Cf.T))
    k = U.shape[1]
    inner = np.block([
        [Cf @ core @ Cf.T, np.eye(k)],
        [np.eye(k), np.zeros((k, k))],
    ])
    S = np.linalg.qr(np.hstack([U, w]), mode="r")
    return float(np.linalg.norm(S @ inner @ S.T, 2))


def _offspace_factor(Q: np.ndarray, W: np.ndarray, H: np.ndarray, m: int):
    """Rank-revealing factorization G = (I - QQ^T) A Q = U C; returns (U, C, fell_back).

    G = W - Q H has rank <= m on a rational Krylov basis, so U spans the sketch
    G @ Omega, Omega a fixed-seed Gaussian of width m + 2.  Round-off (clustered
    adaptive shifts) can add rank: the width doubles while U C misses G by more
    than 1e-10 relative, up to the basis width k; then a full QR of G is the fallback.
    """
    G = W - Q @ H
    gnorm = float(np.linalg.norm(G))
    if gnorm == 0.0:
        return np.zeros((Q.shape[0], 0)), np.zeros((0, Q.shape[1])), False
    rng = np.random.default_rng(0)
    width = m + 2
    while True:
        sketch = _thin_product(G, rng.standard_normal((G.shape[1], width)))
        U, _ = _orth_columns(sketch - _thin_product(Q, _thin_product(Q.T, sketch)), tol=1e-12)
        C = _thin_product(W.T, U).T - _thin_product(Q.T, U).T @ H
        if U.shape[1] and np.linalg.norm(G - U @ C) <= 1e-10 * gnorm:
            return U, C, False
        if width >= G.shape[1]:
            break
        width *= 2
    Qg, Rg = np.linalg.qr(G)
    Ur, svals, _ = np.linalg.svd(Rg)
    keep = svals > 1e-13 * svals[0]
    U = Qg @ Ur[:, keep]
    C = U.T @ W - (U.T @ Q) @ H
    return U, C, True


def truncate_factor(approx: GramianApprox, tol: float = 1e-12) -> GramianApprox:
    """Compress a factored approximation by dropping eigenpairs of the core
    below ``tol`` times the largest eigenvalue (negatives included)."""
    Y = 0.5 * (approx.core + approx.core.T)
    if Y.size == 0:
        return approx
    lam, U = np.linalg.eigh(Y)
    keep = lam > tol * float(lam.max(initial=0.0))   # none kept when no eigenvalue is positive
    return replace(approx, basis=approx.basis @ U[:, keep], core=np.diag(lam[keep]))


def _lifted_residual(work: DiscreteLTISystem, Q: np.ndarray, Y: np.ndarray,
                     B0: np.ndarray, F: np.ndarray | None):
    """Exact residual norm of A P A^T - P + B B^T - F F^T for P = Q Y Q^T,
    computed inside the orthonormal extension of [Q, A Q, B, F]."""
    W = work.apply_dynamics(Q)
    extras = [W, B0] + ([F] if F is not None else [])
    E = np.hstack(extras)
    U, _, _ = _gram_schmidt_block(Q, E)
    J = np.hstack([Q, U]) if U.shape[1] else Q
    ell, tot = Q.shape[1], J.shape[1]
    Atil = J.T @ W                         # tot x ell
    Ypad = np.zeros((tot, tot))
    Ypad[:ell, :ell] = Y
    Bt = J.T @ B0
    Rsmall = Atil @ Y @ Atil.T - Ypad + Bt @ Bt.T
    Ft = None
    if F is not None:
        Ft = J.T @ F
        Rsmall -= Ft @ Ft.T
    return float(np.linalg.norm(Rsmall, 2)), _gap_norm(Bt, Ft)


def smith_arnoldi(sys: DiscreteLTISystem, side: str, tau,
                  cfg: SolverConfig | None = None) -> GramianApprox:
    """Polynomial block-Krylov (Smith) factor of a (time-limited) Gramian.

    With X_j = (M^{-1}A)^j M^{-1}B the window Gramian is the sum of
    X_j X_j^T over j < tau, so the stacked walk Z = [X_0, ..., X_{tau-1}]
    is an exact factor and X_tau is the exact horizon term.  For finite tau
    the walk takes tau steps; for tau = inf it stops once the truncation
    residual of the partial sum, ||X_k||_2^2 / ||B B^T||_2, drops below
    cfg.tol, which follows the spectral radius, so it is monitored rather
    than assumed.  Z is orthonormalized once, Z = Q R, giving the basis Q
    and the core R R^T; the walk columns that orthonormalization drops are
    ``deflated_columns``.
    """
    if side not in ("reach", "obs"):
        raise ValueError(f"side must be 'reach' or 'obs', got {side!r}")
    cfg = cfg or SolverConfig()
    work = sys if side == "reach" else sys.dual()
    B0 = work.input_map()
    finite = not math.isinf(tau)
    if finite:
        tau = int(tau)
        if tau < 1:
            raise ValueError("tau must be >= 1 or inf")

    blocks = [B0]
    records: list[ConvergenceRecord] = []
    bb_norm = _gap_norm(B0)
    for steps in range(1, (tau if finite else cfg.max_iterations) + 1):
        X = work.apply_dynamics(blocks[-1])
        res = None if finite else _gap_norm(X) / max(bb_norm, 1e-300)
        records.append(ConvergenceRecord(steps, steps * work.m, res, None, None))
        if (steps == tau) if finite else (res <= cfg.tol):
            break
        blocks.append(X)
    else:
        raise ConvergenceError(
            f"Smith accumulation hit {cfg.max_iterations} steps above tolerance; "
            f"spectral radius is likely too close to 1")

    Z = np.hstack(blocks)
    Q, R = _orth_columns(Z)
    Y = R @ R.T
    F = X if finite else None
    res_abs, res_scale = _lifted_residual(work, Q, Y, B0, F)
    approx = GramianApprox(
        basis=Q, core=Y, tl_term=F, side=side,
        horizon=float(tau) if finite else math.inf,
        iterations=steps, residual=res_abs / max(res_scale, 1e-300),
        shifts=[], records=records, deflated_columns=Z.shape[1] - Q.shape[1])
    return truncate_factor(approx)


def _pad_rows(c: np.ndarray, rows: int) -> np.ndarray:
    if c.shape[0] == rows:
        return c
    out = np.zeros((rows, c.shape[1]))
    out[:c.shape[0]] = c
    return out


def rksm(sys: DiscreteLTISystem, side: str, tau,
         shifts: ShiftStrategy | None = None,
         cfg: SolverConfig | None = None,
         observer=None) -> GramianApprox:
    """Rational Krylov subspace solver for (time-limited) Stein equations.

    At every cadence point the projected problem is solved and the scaled
    residual is evaluated through the compressed formula.  For finite tau
    one walk of H over the window (:func:`window_sum` on H and Q^T B) gives
    both the projected solution and the horizon term H^tau (Q^T B), so no
    projected Stein solve runs; the horizon term must settle (relative
    norm-wise change below cfg.tl_term_tol) before the residual is checked.
    For tau = inf the projected equation is solved by
    :func:`solve_projected_tl`.

    ``observer``, when given, is called as observer(state, core, tl_term,
    absolute_residual) at every evaluation; it exists for diagnostics and
    verification harnesses.
    """
    if side not in ("reach", "obs"):
        raise ValueError(f"side must be 'reach' or 'obs', got {side!r}")
    shifts = shifts or ShiftStrategy()
    cfg = cfg or SolverConfig()
    work = sys if side == "reach" else sys.dual()
    solvers: dict[complex, object] = {}   # shift -> its solve closure
    B0 = work.input_map()
    finite = not math.isinf(tau)
    if finite:
        tau = int(tau)
        if tau < 1:
            raise ValueError("tau must be >= 1 or inf")

    q1, _ = _orth_columns(B0)
    if q1.shape[1] == 0:
        z = np.zeros((work.n, 0))
        return GramianApprox(z, np.zeros((0, 0)), np.zeros((work.n, work.m)) if finite else None,
                             side, float(tau) if finite else math.inf, 0, 0.0, [], [])

    state = KrylovState(block_width=q1.shape[1])
    Qbuf, Q = _append_columns(np.empty((work.n, 0), order="F"), 0, q1)
    Wbuf, W = _append_columns(np.empty((work.n, 0), order="F"), 0, work.apply_dynamics(Q))
    H = Q.T @ W
    state.basis, state.image, state.projected = Q, W, H

    records: list[ConvergenceRecord] = []
    fhat_prev: np.ndarray | None = None
    tl_settled = not finite
    fF: float | None = None
    deflated = fallbacks = 0

    for k in range(1, cfg.max_iterations + 1):
        s = next_shift(shifts, state)
        state.shifts.append(s)
        rhs = Q[:, -min(work.m, Q.shape[1]):]
        if s not in solvers:
            solvers[s] = _shift_solver(work, s)
        g = solvers[s](rhs)
        if abs(s.imag) <= _REAL_SHIFT_TOL:
            cand = np.real(g)
        else:
            # one complex solve yields the whole conjugate pair as two real
            # columns; mark the conjugate shift as consumed
            state.shifts.append(s.conjugate())
            cand = np.hstack([g.real, g.imag])
        nb, _, _ = _gram_schmidt_block(Q, cand)
        deflated += cand.shape[1] - nb.shape[1]
        grew = nb.shape[1] > 0
        if grew:
            Wn = work.apply_dynamics(nb)
            H = np.block([[H, _thin_product(Q.T, Wn)], [_thin_product(W.T, nb).T, nb.T @ Wn]])
            Qbuf, Q = _append_columns(Qbuf, Q.shape[1], nb)
            Wbuf, W = _append_columns(Wbuf, W.shape[1], Wn)
        state.basis, state.image, state.projected = Q, W, H

        evaluate = (k % cfg.cadence == 0) or (k == cfg.max_iterations) or not grew
        if not evaluate:
            records.append(ConvergenceRecord(k, Q.shape[1], None, None, s))
            continue

        Bk = _thin_product(Q.T, B0)
        Fhat = None
        if finite:
            Y, Fhat, _ = window_sum(lambda X: H @ X, Bk, tau)
            if fhat_prev is not None:
                prev = _pad_rows(fhat_prev, Fhat.shape[0])
                denom = max(float(np.linalg.norm(fhat_prev)) ** 2, 1e-300)
                fF = _gap_norm(Fhat, prev) / denom
                tl_settled = fF <= cfg.tl_term_tol
            fhat_prev = Fhat
            if not tl_settled:
                records.append(ConvergenceRecord(k, Q.shape[1], None, fF, s))
                continue
        else:
            try:
                Y = solve_projected_tl(H, Bk)
            except SolvabilityError:
                # transient: Ritz values can stick out of the disc early on
                records.append(ConvergenceRecord(k, Q.shape[1], None, None, s))
                if not grew:
                    raise BreakdownError("basis saturated with unsolvable projected problem")
                continue

        state.offspace_dir, state.offspace_coeff, fell_back = _offspace_factor(Q, W, H, work.m)
        fallbacks += fell_back
        res_abs = stein_residual_norm(state, Y)
        scale = max(_gap_norm(Bk, Fhat), 1e-300)
        res = res_abs / scale
        if observer is not None:
            observer(state, Y, None if Fhat is None else _thin_product(Q, Fhat), res_abs)
        records.append(ConvergenceRecord(k, Q.shape[1], res, fF, s))

        if res <= cfg.tol:
            approx = GramianApprox(
                basis=Q, core=Y, tl_term=None if Fhat is None else _thin_product(Q, Fhat),
                side=side, horizon=float(tau) if finite else math.inf,
                iterations=k, residual=res, shifts=list(state.shifts),
                records=records, deflated_columns=deflated, offspace_fallbacks=fallbacks)
            return truncate_factor(approx)
        if not grew:
            raise BreakdownError(
                f"basis saturated at dimension {Q.shape[1]} with residual {res:.3e} "
                f"above tolerance {cfg.tol:.3e}")

    raise ConvergenceError(
        f"rational Krylov solver exhausted {cfg.max_iterations} iterations")
