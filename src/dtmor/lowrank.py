"""Low-rank Gramian approximation for (time-limited) Stein equations.

Two solvers are provided.  The Smith-Arnoldi method accumulates the block
Krylov sum directly and is exact for finite horizons after tau+1 block
steps.  The rational Krylov subspace method expands a shifted-inverse basis,
solves compressed Galerkin problems, and monitors the equation residual
through a rank-2m compressed form that never assembles an n x n matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dense_stein import solve_projected_tl
from .exceptions import BreakdownError, ConvergenceError, SolvabilityError
from .system import DiscreteLTISystem

_DEFLATION_TOL = 1e-13
_REAL_SHIFT_TOL = 1e-14


@dataclass
class SolverConfig:
    """Tolerances and cadence for the low-rank solvers.

    ``tol`` is the scaled-residual target, ``tl_term_tol`` the relative
    norm-wise change below which the horizon term is considered settled,
    ``cadence`` how often (in iterations) the projected problem is solved,
    and ``truncation_tol`` the relative eigenvalue threshold used when
    compressing the returned factors.
    """
    tol: float = 1e-8
    tl_term_tol: float = 1e-8
    cadence: int = 5
    max_iterations: int = 400
    truncation_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tl_term_tol <= self.tol < 1.0):
            raise ValueError("need 0 < tl_term_tol <= tol < 1")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")


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
    formula consumes.
    """
    block_width: int
    basis: np.ndarray | None = None
    image: np.ndarray | None = None        # A @ basis, kept in sync
    projected: np.ndarray | None = None    # basis^T A basis
    offspace_dir: np.ndarray | None = None
    offspace_coeff: np.ndarray | None = None
    shifts: list = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return 0 if self.basis is None else self.basis.shape[1]

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
    numerically dependent during the build.
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


class _StandardOperator:
    """Implicit standard form of a (possibly generalized) system: applies
    M^{-1}A and solves (M^{-1}A - s I) x = b as (A - s M) x = M b, caching
    one sparse/dense factorization per distinct shift."""

    def __init__(self, sys: DiscreteLTISystem):
        self.sys = sys
        self.n = sys.n
        self.m = sys.m
        self.rhs = sys.input_map()
        self._factors: dict[complex, object] = {}

    def apply(self, X: np.ndarray) -> np.ndarray:
        return self.sys.apply_dynamics(X)

    def _factorize(self, s: complex):
        sys = self.sys
        is_complex = abs(s.imag) > _REAL_SHIFT_TOL
        shift = s if is_complex else s.real
        if sp.issparse(sys.A):
            M = sys.M if sys.M is not None else sp.identity(self.n, format="csr")
            mat = (sys.A - shift * M).tocsc()
            return ("sparse", spla.splu(mat), M, is_complex)
        M = sys.M if sys.M is not None else np.eye(self.n)
        return ("dense", sla.lu_factor(sys.A - shift * M), M, is_complex)

    def solve_shifted(self, s: complex, rhs: np.ndarray) -> np.ndarray:
        s = complex(s)
        if s not in self._factors:
            try:
                self._factors[s] = self._factorize(s)
            except (RuntimeError, sla.LinAlgError):
                # shift hit an eigenvalue; retry once with a tiny perturbation
                try:
                    self._factors[s] = self._factorize(s * (1.0 + 1e-8) + 1e-8j)
                except (RuntimeError, sla.LinAlgError) as exc:
                    raise BreakdownError(
                        f"shifted solve at {s} is singular even after "
                        f"perturbation: {exc}") from exc
        kind, fac, M, is_complex = self._factors[s]
        b = np.asarray(M @ rhs, dtype=complex if is_complex else float)
        if kind == "sparse":
            return fac.solve(b)
        return sla.lu_solve(fac, b)


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


def _gram_schmidt_block(Q: np.ndarray | None, X: np.ndarray, tol: float = _DEFLATION_TOL):
    """Twice-iterated classical Gram-Schmidt of the block X against Q.

    Returns (new_block, coeffs, core) with X = Q @ coeffs + new_block @ core
    up to deflated directions, judged against the incoming block norm so a
    fully represented block deflates away entirely.  Marginal survivors are
    re-orthogonalized once more: a remainder many orders below the input
    norm loses orthogonality under normalization otherwise.
    """
    scale = float(np.linalg.norm(X, 2)) if X.size else 0.0
    if Q is None or Q.shape[1] == 0:
        nb, core = _orth_columns(X, tol, scale)
        return nb, np.zeros((0, X.shape[1])), core
    c1 = Q.T @ X
    X = X - Q @ c1
    c2 = Q.T @ X
    X = X - Q @ c2
    nb, core = _orth_columns(X, tol, scale)
    coeffs = c1 + c2
    if nb.shape[1]:
        c3 = Q.T @ nb
        nb = nb - Q @ c3
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
    w = state.basis @ (state.projected @ (core @ Cf.T))
    k = U.shape[1]
    inner = np.block([
        [Cf @ core @ Cf.T, np.eye(k)],
        [np.eye(k), np.zeros((k, k))],
    ])
    S = np.linalg.qr(np.hstack([U, w]), mode="r")
    return float(np.linalg.norm(S @ inner @ S.T, 2))


def _offspace_factor(Q: np.ndarray, W: np.ndarray, H: np.ndarray, m: int):
    """Rank-revealing factorization of (I - QQ^T) A Q = U * C.

    The out-of-space part has rank at most the block width; try the cheap
    route through the first block column and fall back to a full QR when
    roundoff says otherwise.
    """
    G = W - Q @ H
    gnorm = float(np.linalg.norm(G))
    if gnorm == 0.0:
        return np.zeros((Q.shape[0], 0)), np.zeros((0, Q.shape[1]))
    lead = G[:, :m]
    U, _ = _orth_columns(lead - Q @ (Q.T @ lead), tol=1e-12)
    if U.shape[1]:
        C = U.T @ W - (U.T @ Q) @ H
        if np.linalg.norm(G - U @ C) <= 1e-10 * gnorm:
            return U, C
    Qg, Rg = np.linalg.qr(G)
    Ur, svals, _ = np.linalg.svd(Rg)
    keep = svals > 1e-13 * svals[0]
    U = Qg @ Ur[:, keep]
    C = U.T @ W - (U.T @ Q) @ H
    return U, C


def truncate_factor(approx: GramianApprox, tol: float | None = None) -> GramianApprox:
    """Compress a factored approximation by dropping eigenpairs of the core
    below ``tol`` times the largest eigenvalue (negatives included)."""
    if tol is None:
        tol = 1e-12
    Y = 0.5 * (approx.core + approx.core.T)
    if Y.size == 0:
        return approx
    lam, U = np.linalg.eigh(Y)
    lmax = float(lam.max(initial=0.0))
    if lmax <= 0.0:
        keep = np.zeros_like(lam, dtype=bool)
    else:
        keep = lam > tol * lmax
    basis = approx.basis @ U[:, keep]
    core = np.diag(lam[keep])
    return GramianApprox(
        basis=basis, core=core, tl_term=approx.tl_term, side=approx.side,
        horizon=approx.horizon, iterations=approx.iterations,
        residual=approx.residual, shifts=approx.shifts, records=approx.records,
        deflated_columns=approx.deflated_columns)


def _lifted_residual(op: _StandardOperator, Q: np.ndarray, Y: np.ndarray,
                     B0: np.ndarray, F: np.ndarray | None):
    """Exact residual norm of A P A^T - P + B B^T - F F^T for P = Q Y Q^T,
    computed inside the orthonormal extension of [Q, A Q, B, F]."""
    W = op.apply(Q)
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
    scale_mat = Bt @ Bt.T
    if F is not None:
        Ft = J.T @ F
        Rsmall -= Ft @ Ft.T
        scale_mat = scale_mat - Ft @ Ft.T
    return float(np.linalg.norm(Rsmall, 2)), float(np.linalg.norm(scale_mat, 2))


def smith_arnoldi(sys: DiscreteLTISystem, side: str, tau,
                  cfg: SolverConfig | None = None) -> GramianApprox:
    """Block-Krylov (Smith) accumulation of a (time-limited) Gramian.

    For finite tau the method runs tau+1 block steps (fewer if the Krylov
    space saturates) and is exact up to round-off, with the horizon term
    read off the final coefficient column.  For tau = inf it accumulates
    until the scaled truncation residual drops below cfg.tol; convergence
    follows the spectral radius, so it is monitored rather than assumed.
    """
    if side not in ("reach", "obs"):
        raise ValueError(f"side must be 'reach' or 'obs', got {side!r}")
    cfg = cfg or SolverConfig()
    work = sys if side == "reach" else sys.dual()
    op = _StandardOperator(work)
    B0 = op.rhs
    finite = not math.isinf(tau)
    if finite:
        tau = int(tau)
        if tau < 1:
            raise ValueError("tau must be >= 1 or inf")

    q1, beta = _orth_columns(B0)
    if q1.shape[1] == 0:
        z = np.zeros((op.n, 0))
        return GramianApprox(z, np.zeros((0, 0)), np.zeros((op.n, op.m)) if finite else None,
                             side, float(tau) if finite else math.inf, 0, 0.0, [], [])

    Q = q1
    Hext = np.zeros((q1.shape[1], 0))   # grows to (dim(+ext)) x dim
    coeffs = [beta]                     # coeffs[i] represents (M^-1 A)^i B
    records: list[ConvergenceRecord] = []
    bb_norm = float(np.linalg.norm(beta @ beta.T, 2))
    saturated = False
    deflated = 0
    steps = 0
    max_steps = tau if finite else cfg.max_iterations

    while steps < max_steps:
        steps += 1
        c_prev = coeffs[-1]
        if not saturated:
            last_width = c_prev.shape[0] - Hext.shape[1] if Hext.size else Q.shape[1]
            last_block = Q[:, Q.shape[1] - last_width:] if last_width else Q[:, :0]
            w = op.apply(last_block)
            nb, hc, core = _gram_schmidt_block(Q, w)
            deflated += last_width - nb.shape[1]
            col = np.vstack([hc, core]) if nb.shape[1] else hc
            # grow Hext: new rows of zeros for the new block, then the column
            old_rows, old_cols = Hext.shape
            grown = np.zeros((Q.shape[1] + nb.shape[1], old_cols + last_width))
            grown[:old_rows, :old_cols] = Hext
            grown[:col.shape[0], old_cols:] = col
            Hext = grown
            if nb.shape[1]:
                Q = np.hstack([Q, nb])
            else:
                saturated = True
        c_next = Hext @ _pad_rows(c_prev, Hext.shape[1])
        coeffs.append(c_next)
        if finite:
            records.append(ConvergenceRecord(steps, Q.shape[1], None, None, None))
        else:
            # truncation residual of the partial sum is ||A^k B||^2
            res = float(np.linalg.norm(c_next, 2) ** 2) / max(bb_norm, 1e-300)
            records.append(ConvergenceRecord(steps, Q.shape[1], res, None, None))
            if res <= cfg.tol:
                break
    else:
        if not finite:
            raise ConvergenceError(
                f"Smith accumulation hit {cfg.max_iterations} steps above tolerance; "
                f"spectral radius is likely too close to 1")

    dim = Q.shape[1]
    used = coeffs[:tau] if finite else coeffs[:-1]
    Cmat = np.hstack([_pad_rows(c, dim) for c in used])
    Y = Cmat @ Cmat.T
    F = Q @ _pad_rows(coeffs[tau], dim) if finite else None

    res_abs, res_scale = _lifted_residual(op, Q, Y, B0, F)
    approx = GramianApprox(
        basis=Q, core=Y, tl_term=F, side=side,
        horizon=float(tau) if finite else math.inf,
        iterations=steps, residual=res_abs / max(res_scale, 1e-300),
        shifts=[], records=records, deflated_columns=deflated)
    return truncate_factor(approx, cfg.truncation_tol)


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

    At every cadence point the projected equation is solved with the current
    horizon-term approximation H^tau (Q^T B), computed by binary powering,
    and the scaled residual is evaluated through the compressed formula.
    The horizon term must settle (relative norm-wise change below
    cfg.tl_term_tol) before projected solves begin.

    ``observer``, when given, is called as observer(state, core, tl_term,
    absolute_residual) at every evaluation; it exists for diagnostics and
    verification harnesses.
    """
    if side not in ("reach", "obs"):
        raise ValueError(f"side must be 'reach' or 'obs', got {side!r}")
    shifts = shifts or ShiftStrategy()
    cfg = cfg or SolverConfig()
    work = sys if side == "reach" else sys.dual()
    op = _StandardOperator(work)
    B0 = op.rhs
    finite = not math.isinf(tau)
    if finite:
        tau = int(tau)
        if tau < 1:
            raise ValueError("tau must be >= 1 or inf")

    q1, _ = _orth_columns(B0)
    if q1.shape[1] == 0:
        z = np.zeros((op.n, 0))
        return GramianApprox(z, np.zeros((0, 0)), np.zeros((op.n, op.m)) if finite else None,
                             side, float(tau) if finite else math.inf, 0, 0.0, [], [])

    state = KrylovState(block_width=q1.shape[1])
    Q = q1
    W = op.apply(Q)
    H = Q.T @ W
    state.basis, state.image, state.projected = Q, W, H

    records: list[ConvergenceRecord] = []
    fhat_prev: np.ndarray | None = None
    tl_settled = not finite
    fF: float | None = None
    deflated = 0

    for k in range(1, cfg.max_iterations + 1):
        s = next_shift(shifts, state)
        state.shifts.append(s)
        rhs = Q[:, -min(op.m, Q.shape[1]):]
        g = op.solve_shifted(s, rhs)
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
            Wn = op.apply(nb)
            H = np.block([[H, Q.T @ Wn], [nb.T @ W, nb.T @ Wn]])
            Q = np.hstack([Q, nb])
            W = np.hstack([W, Wn])
        state.basis, state.image, state.projected = Q, W, H

        evaluate = (k % cfg.cadence == 0) or (k == cfg.max_iterations) or not grew
        if not evaluate:
            records.append(ConvergenceRecord(k, Q.shape[1], None, None, s))
            continue

        Bk = Q.T @ B0
        Fhat = None
        if finite:
            Fhat = np.linalg.matrix_power(H, tau) @ Bk
            if fhat_prev is not None:
                prev = _pad_rows(fhat_prev, Fhat.shape[0])
                denom = max(float(np.linalg.norm(fhat_prev)) ** 2, 1e-300)
                fF = float(np.linalg.norm(Fhat @ Fhat.T - prev @ prev.T, 2)) / denom
                tl_settled = fF <= cfg.tl_term_tol
            fhat_prev = Fhat
        if not tl_settled:
            records.append(ConvergenceRecord(k, Q.shape[1], None, fF, s))
            continue

        try:
            Y = solve_projected_tl(H, Bk, Fhat)
        except SolvabilityError:
            # transient: Ritz values can stick out of the disc early on
            records.append(ConvergenceRecord(k, Q.shape[1], None, fF, s))
            if not grew:
                raise BreakdownError("basis saturated with unsolvable projected problem")
            continue

        state.offspace_dir, state.offspace_coeff = _offspace_factor(Q, W, H, op.m)
        res_abs = stein_residual_norm(state, Y)
        scale_mat = Bk @ Bk.T if Fhat is None else Bk @ Bk.T - Fhat @ Fhat.T
        scale = max(float(np.linalg.norm(scale_mat, 2)), 1e-300)
        res = res_abs / scale
        if observer is not None:
            observer(state, Y, None if Fhat is None else Q @ Fhat, res_abs)
        records.append(ConvergenceRecord(k, Q.shape[1], res, fF, s))

        if res <= cfg.tol:
            approx = GramianApprox(
                basis=Q, core=Y, tl_term=None if Fhat is None else Q @ Fhat,
                side=side, horizon=float(tau) if finite else math.inf,
                iterations=k, residual=res, shifts=list(state.shifts),
                records=records, deflated_columns=deflated)
            return truncate_factor(approx, cfg.truncation_tol)
        if not grew:
            raise BreakdownError(
                f"basis saturated at dimension {Q.shape[1]} with residual {res:.3e} "
                f"above tolerance {cfg.tol:.3e}")

    raise ConvergenceError(
        f"rational Krylov solver exhausted {cfg.max_iterations} iterations")
