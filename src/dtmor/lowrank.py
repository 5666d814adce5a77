"""Low-rank Gramian approximation for (time-limited) Stein equations.

Both solvers drive one block rational Krylov walk and read its residual
through one rank-2m compressed form that never assembles an n x n matrix.
The rational Krylov subspace method expands the basis by the system's pencil
solves and solves compressed Galerkin problems; it also serves the Smith
entry at tau = inf, with +-1 poles.  The Smith-Arnoldi method walks a finite
window with every pole at infinity, the polynomial block Krylov space, on
which one evaluation gives the exact Gramian and horizon term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dense_stein import RANK_TOL, Gramian, solve_projected_tl, window_sum
from .exceptions import BreakdownError, ConvergenceError, SolvabilityError
from .system import DiscreteLTISystem, check_horizon

_DEFLATION_TOL = 1e-13
_REAL_SHIFT_TOL = 1e-14
_THIN_COLUMNS = 4   # widest block that _thin_product reorders for a wide product
_CHECK_WIDTH = 10   # probe columns of the off-space factor's check
_SHIFT_GRID = 200   # equispaced unit-circle points the adaptive shifts score


@dataclass
class SolverConfig:
    """Tolerances and cadence for the low-rank solvers.

    ``tol`` is the scaled-residual target, ``tl_term_tol`` the relative
    norm-wise change below which the horizon term is considered settled,
    and ``cadence`` how often (in steps) the projected problem is solved;
    ``max_iterations`` caps the steps.  These settings steer ``rksm`` alone:
    a Smith window walk takes tau - 1 steps, and its tau = inf solve is
    ``rksm``'s.  The returned factors are compressed by :func:`truncate_factor`.
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

    'alternating-pm1' applies both +1 and -1 in every step, so only two
    shifted factorizations are ever needed; 'adaptive-disc' maximizes the
    current rational node function over ``_SHIFT_GRID`` equispaced
    unit-circle points, emitting complex shifts in conjugate pairs.
    """
    kind: str = "alternating-pm1"

    def __post_init__(self):
        if self.kind not in ("alternating-pm1", "adaptive-disc"):
            raise ValueError(f"unknown shift strategy {self.kind!r}")


@dataclass
class ConvergenceRecord:
    """One per-iteration row for the convergence CSV."""
    iteration: int
    basis_columns: int
    residual: float | None
    tl_term_change: float | None
    shift: complex | None


@dataclass(slots=True)
class KrylovState:
    """Bookkeeping of a running (rational) Arnoldi process.

    ``basis`` has orthonormal columns; ``dynamics`` applies the standard-form
    state map A (M^{-1}A of a generalized system) as (X, trans=False) -> A X,
    or A^T X with ``trans``, like ``DiscreteLTISystem.apply_dynamics``;
    ``projected`` is basis^T A basis for a leading block of the basis,
    extended to the whole basis by :meth:`current_projected` where it is read
    (evaluations, and the Ritz values of adaptive shifts); ``offspace_dir``
    and ``offspace_coeff`` are U and C in G = A basis - basis @ projected =
    U C, the part of A*basis that leaves the subspace, which is what the
    compressed residual formula consumes.  U has about block-width columns,
    and neither A*basis nor G is stored, so ``basis`` is the only array with
    n rows and k columns.  Inside a solver's walk it is a view of the written
    columns of the walk's reservation, which no returned Gramian keeps.
    """
    block_width: int
    basis: np.ndarray | None = None
    dynamics: Callable[..., np.ndarray] | None = None
    projected: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    offspace_dir: np.ndarray | None = None
    offspace_coeff: np.ndarray | None = None
    shifts: list = field(default_factory=list)

    def current_projected(self) -> np.ndarray:
        """Extend ``projected`` to the whole basis and return it; with Q = [Q0, Q1]
        split at its order, it gains Q0^T A Q1, Q1^T A Q1 and (Q0^T A^T Q1)^T,
        so A is applied to the new columns alone, once forward and once
        transposed."""
        Q, H = self.basis, self.projected
        h = H.shape[0]
        if Q is not None and h < Q.shape[1]:
            Q0, Q1 = Q[:, :h], Q[:, h:]
            AQ1 = self.dynamics(Q1)
            right, corner = _thin_product(Q0.T, AQ1), Q1.T @ AQ1
            del AQ1
            below = _thin_product(Q0.T, self.dynamics(Q1, trans=True)).T
            self.projected = np.block([[H, right], [below, corner]])
        return self.projected

    def ritz_values(self) -> np.ndarray | None:
        H = self.current_projected()
        return np.linalg.eigvals(H) if H.size else None


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
    if not X.any():   # empty or zero
        return np.zeros((X.shape[0], 0)), np.zeros((0, X.shape[1]))
    U, svals, Vt = np.linalg.svd(X, full_matrices=False)
    keep = svals > tol * (scale if scale is not None else svals[0])
    return U[:, keep], svals[keep, None] * Vt[keep]


def _thin_product(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X in the form that runs at memory speed when X is thin: a plain
    gemm with a handful of columns runs well below it.  One or two columns
    take one gemv each; a tall A (a basis times coefficients) is multiplied
    as (X^T A^T)^T at any width, into a Fortran-ordered array of its own; a
    wide A (a basis transposed) takes one gemm on a Fortran-ordered X of up
    to ``_THIN_COLUMNS`` columns."""
    w = X.shape[1]
    if w == 0:
        return A @ X
    if w <= 2:
        return np.column_stack([A @ X[:, j] for j in range(w)])
    if A.shape[0] > A.shape[1]:
        out = np.empty((A.shape[0], w), order="F")
        np.matmul(X.T, A.T, out=out.T)
        return out
    if w <= _THIN_COLUMNS:
        return A @ np.asfortranarray(X)
    return A @ X


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


def _gram_schmidt_step(Q: np.ndarray, P: np.ndarray, X: np.ndarray):
    """One step of a low-synchronization block Gram-Schmidt, which reads Q twice.

    P is the pending block: orthonormal and projected once against Q.  One
    reduction S = Q^T [P, X] and one update [P, X] - Q S give P its second
    pass and X its first.  With s = Q^T P and G = P^T P - s^T s = R^T R
    (Cholesky), the finished block is (P - Q s) R^{-1}, and X is projected
    against it through P^T X, so no third read of Q is needed (Świrydowicz,
    Langou, Ananthan, Yang & Thomas, Numer. Linear Algebra Appl. 28 (2021);
    Carson, Lund, Rozložník & Thomas, Linear Algebra Appl. 638 (2022)).
    When lambda_min(G) < 1/4 the second pass removed more than half of a
    direction of P, so P - Q s is projected against Q once more and
    orthonormalized, as the third pass of two-pass Gram-Schmidt does.
    The projected X is normalized by :func:`_orth_columns`, its deflation
    judged against its incoming norm, and becomes the next pending block.

    Returns (finished, pending, core) with X = Q c + finished d + pending @ core
    up to deflated directions.
    """
    w = P.shape[1]
    scale = _thin_norm(X)
    V = np.hstack([P, X])
    S = _thin_product(Q.T, V)
    PV = P.T @ V
    V -= _thin_product(Q, S)
    finished, X = V[:, :w], V[:, w:]
    if w:
        s = S[:, :w]
        G = PV[:, :w] - s.T @ s
        if np.linalg.eigvalsh(G)[0] >= 0.25:
            T = np.linalg.solve(np.linalg.cholesky(G).T, np.eye(w))   # R^{-1}
            finished = finished @ T
            d = T.T @ (PV[:, w:] - s.T @ S[:, w:])
        else:
            finished = finished - _thin_product(Q, _thin_product(Q.T, finished))
            finished, _ = _orth_columns(finished, 1e-8)
            d = finished.T @ X
        X = X - finished @ d
    pending, core = _orth_columns(X, _DEFLATION_TOL, scale)
    return finished, pending, core


def next_shift(strategy: ShiftStrategy, state: KrylovState) -> complex:
    """Pick the next rational-Krylov shift.

    Alternating strategy: (-1)^j for shift j = 2, 3, ..., so +1 at the start
    of every paired step of ``rksm``; adaptive strategy:
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
    hs = _SHIFT_GRID
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


def stein_residual_norm(state: KrylovState, core: np.ndarray, offspace_term=None) -> float:
    """2-norm of the Stein residual for the Galerkin solution ``core``,
    evaluated from the rank-2m compressed form.

    With G = (I - QQ^T) A Q factored as U S, the residual equals
    [U, w] [[S Y S^T, I], [I, 0]] [U, w]^T for w = Q H Y S^T, so its norm
    is read off a small QR factorization.  ``offspace_term`` (f, g) is a
    horizon term F = Q f + U g with a part off the basis (a polynomial
    walk's): then w = Q (H Y S^T - f g^T) and the corner is S Y S^T - g g^T.
    """
    if state.basis is None or state.projected is None:
        raise ValueError("state has no basis/projected data")
    U = state.offspace_dir
    Cf = state.offspace_coeff
    if U is None or U.shape[1] == 0:
        return 0.0
    if Cf.shape[1] != core.shape[0]:
        raise ValueError("state and core dimensions disagree")
    cross, corner = state.current_projected() @ (core @ Cf.T), Cf @ core @ Cf.T
    if offspace_term is not None:
        f, g = offspace_term
        cross, corner = cross - f @ g.T, corner - g @ g.T
    w = _thin_product(state.basis, cross)
    k = U.shape[1]
    inner = np.block([
        [corner, np.eye(k)],
        [np.eye(k), np.zeros((k, k))],
    ])
    S = np.linalg.qr(np.hstack([U, w]), mode="r")
    return float(np.linalg.norm(S @ inner @ S.T, 2))


def _offspace_factor(Q: np.ndarray, dynamics, H: np.ndarray, m: int):
    """Rank-revealing factorization G = (I - QQ^T) A Q = U C, with A applied
    by ``dynamics`` as (X, trans=False) -> A X or A^T X; returns (U, C, fell_back).

    G = A Q - Q H has rank <= m on a rational Krylov basis, so U spans the
    sketch G Omega = A (Q Omega) - Q (H Omega), Omega a fixed-seed Gaussian of
    width m + 2, and C = (A^T U)^T Q - (U^T Q) H.  Round-off (clustered
    adaptive shifts) can add rank: the width doubles while U C misses G, up
    to the basis width k; then a full QR of G, which forms A Q while it runs,
    is the fallback.  The miss is judged at O(nk) per column on a second
    fixed-seed Gaussian sketch of width 10 (Halko, Martinsson & Tropp, SIAM
    Rev. 53 (2011), Sec. 4.3): U C is kept when ||(G - U C) Omega2||_F <=
    1e-10 ||G Omega2||_F.  Both sides estimate sqrt(10) times the Frobenius
    norms of the exact check, at its level; a U C missing G by 14 times the
    level passes with probability about 4e-10 at rank one (an F(10, 10) tail).
    """
    k = Q.shape[1]
    check = np.random.default_rng(1).standard_normal((k, _CHECK_WIDTH))
    gcheck = dynamics(_thin_product(Q, check))
    gcheck -= _thin_product(Q, H @ check)
    gnorm = np.linalg.norm(gcheck)
    if gnorm == 0.0:
        return np.zeros((Q.shape[0], 0)), np.zeros((0, k)), False
    rng = np.random.default_rng(0)
    width = m + 2
    while True:
        omega = rng.standard_normal((k, width))
        sketch = dynamics(_thin_product(Q, omega)) - _thin_product(Q, H @ omega)
        U, _ = _orth_columns(sketch - _thin_product(Q, _thin_product(Q.T, sketch)), tol=1e-12)
        C = _thin_product(Q.T, dynamics(U, trans=True)).T - _thin_product(Q.T, U).T @ H
        miss = U @ (C @ check)
        miss -= gcheck
        if np.linalg.norm(miss) <= 1e-10 * gnorm:
            return U, C, False
        if width >= k:
            break
        width *= 2
    G = dynamics(Q)
    G -= Q @ H
    Qg, Rg = np.linalg.qr(G)
    del G
    Ur, svals, _ = np.linalg.svd(Rg)
    keep = svals > 1e-13 * svals[0]
    U = Qg @ Ur[:, keep]
    C = (dynamics(U, trans=True).T @ Q) - (U.T @ Q) @ H
    return U, C, True


def truncate_factor(approx: Gramian, tol: float = RANK_TOL) -> Gramian:
    """Compress a factored approximation by dropping eigenpairs of the core
    below ``tol`` times the largest eigenvalue (negatives included)."""
    Y = 0.5 * (approx.core + approx.core.T)
    lam, U = np.linalg.eigh(Y)
    keep = lam > tol * float(lam.max(initial=0.0))   # none kept when no eigenvalue is positive
    return replace(approx, basis=_thin_product(approx.basis, U[:, keep]), core=np.diag(lam[keep]))


class _Walk:
    """A block rational Krylov walk of one side of a system from its
    orthonormalized input map: Q in a Fortran-ordered reservation, the
    pending block (Q's next columns, projected once), and in ``state`` Q, H
    and the poles.  A step expands each pole from its continuation block by
    the pole's pencil solve, or for a pole at infinity by the dynamics
    itself, so poles at infinity span the polynomial block Krylov space
    (Berljafa & Güttel, SIAM J. Matrix Anal. Appl. 36 (2015)).

    The reservation, n x min(n, m ``blocks``) for m the input map's width,
    is allocated once; Q is written into it in place, never regrown or
    copied.  Only written pages are resident, but all of it is address
    space (128 MB at n = 10^4 for ``rksm``'s defaults and m = 2).
    """

    def __init__(self, sys: DiscreteLTISystem, side: str, blocks: int):
        self.work, self.side = sys.side(side), side
        self.B0 = self.work.input_map()
        q1, _ = _orth_columns(self.B0)
        self.buf = np.empty((self.work.n, min(self.work.n, blocks * self.work.m)), order="F")
        self.state = KrylovState(q1.shape[1], basis=self.buf[:, :0], dynamics=self.work.apply_dynamics)
        self.append(q1)
        self.pending = np.zeros((self.work.n, 0))
        self.solvers: dict = {}   # pole -> its solve
        self.newest: dict = {}    # pole of the last grown step -> (that step's new block, its core columns)
        self.deflated = self.fallbacks = 0

    def expand(self, pole):
        """The pole's candidate columns: its solve continued from the pole's own
        newest directions (the left singular vectors of its columns of the last
        Gram-Schmidt core), or from the newest basis columns for a new pole."""
        self.state.shifts.append(pole)
        if pole not in self.solvers:
            self.solvers[pole] = (self.work.apply_dynamics if pole == math.inf
                                  else _shift_solver(self.work, pole))
        Q = self.state.basis
        if pole in self.newest:
            block, part = self.newest[pole]
            start = block @ np.linalg.svd(part, full_matrices=False)[0]
        else:
            start = Q[:, -min(self.work.m, Q.shape[1]):]
        g = self.solvers[pole](start)
        if abs(pole.imag) <= _REAL_SHIFT_TOL:
            return np.real(g)
        # one complex solve yields the whole conjugate pair as two real
        # columns; mark the conjugate shift as consumed
        self.state.shifts.append(pole.conjugate())
        return np.hstack([g.real, g.imag])

    def step(self, poles) -> bool:
        """Expand every pole and append all their columns by one Gram-Schmidt
        step: a rational Krylov space depends only on its poles (Berljafa &
        Güttel, SIAM J. Sci. Comput. 39 (2017)).  Returns whether Q grew."""
        blocks = [self.expand(pole) for pole in poles]
        core = self.grow(np.hstack(blocks))
        grew = self.pending.shape[1] > 0
        if grew:
            cores = np.split(core, np.cumsum([b.shape[1] for b in blocks[:-1]]), axis=1)
            self.newest = {pole: (self.pending, c) for pole, c in zip(poles, cores)}
        return grew

    def append(self, X):
        """Write X into the reservation after Q's columns."""
        k = self.state.basis.shape[1]
        self.buf[:, k:k + X.shape[1]] = X
        self.state.basis = self.buf[:, :k + X.shape[1]]

    def grow(self, X):
        """Append the finished pending block to Q, make X, projected once, the
        pending block, and return X's core."""
        done, nb, core = _gram_schmidt_step(self.state.basis, self.pending, X)
        self.deflated += self.pending.shape[1] + X.shape[1] - done.shape[1] - nb.shape[1]
        self.append(done)
        self.pending = nb
        return core

    def finish(self):
        """Finish the pending block, before Q is read."""
        if self.pending.shape[1]:
            self.grow(self.pending[:, :0])

    def project(self):
        """Finish the pending block; return H and Q^T B."""
        self.finish()
        return self.state.current_projected(), _thin_product(self.state.basis.T, self.B0)

    def factor_offspace(self):
        """Factor G = A Q - Q H = U C into ``state``, after :meth:`project`;
        returns U and C."""
        st = self.state
        st.offspace_dir, st.offspace_coeff, fell_back = _offspace_factor(
            st.basis, st.dynamics, st.projected, self.work.m)
        self.fallbacks += fell_back
        return st.offspace_dir, st.offspace_coeff

    def gramian(self, core, tl_term, horizon, **stats) -> Gramian:
        """Q core Q^T with the walk's poles and counts, truncated."""
        return truncate_factor(Gramian(
            self.state.basis, core, tl_term, self.side, horizon, shifts=list(self.state.shifts),
            deflated_columns=self.deflated, offspace_fallbacks=self.fallbacks, **stats))


def smith_arnoldi(sys: DiscreteLTISystem, side: str, tau,
                  cfg: SolverConfig | None = None) -> Gramian:
    """Polynomial block-Krylov (Smith) factor of a time-limited Gramian.

    With X_j = (M^{-1}A)^j M^{-1}B the window Gramian is the sum of X_j X_j^T
    over j < tau.  The walk takes tau - 1 steps with one pole at infinity
    each, or stops where a step adds no column (an invariant space), so Q
    spans X_0, ..., X_{tau-1} and Q H^j Q^T B = X_j for j < tau (Saad, SIAM
    J. Numer. Anal. 29 (1992), Lemma 3.1).  One evaluation follows:
    :func:`window_sum` on H and Q^T B gives the core, and with G = A Q - Q H
    = U C the exact horizon term is X_tau = Q H^tau Q^T B + U C H^{tau-1}
    Q^T B, whose U part enters the residual.  The walk reads no ``cfg``; at
    tau = inf it would only truncate a series, so the solve is :func:`rksm`
    with +-1 poles under ``cfg``.
    """
    tau = check_horizon(tau)
    if math.isinf(tau):
        return rksm(sys, side, tau, ShiftStrategy(), cfg)
    walk, steps, records = _Walk(sys, side, int(tau)), int(tau), []   # a step adds <= m columns
    for k in range(1, steps):
        grew = walk.step([math.inf])
        records.append(ConvergenceRecord(
            k, walk.state.basis.shape[1] + walk.pending.shape[1], None, None, math.inf))
        if not grew:
            break
    H, Bk = walk.project()
    Y, X, _ = window_sum(lambda Z: H @ Z, Bk, steps - 1)
    Y += X @ X.T   # the sum's last term, with X = H^{tau-1} Q^T B
    Fhat = H @ X
    U, C = walk.factor_offspace()
    g = C @ X
    res = stein_residual_norm(walk.state, Y, (Fhat, g)) / max(
        _gap_norm(np.vstack([Bk, np.zeros_like(g)]), np.vstack([Fhat, g])), 1e-300)
    Q = walk.state.basis
    records.append(ConvergenceRecord(steps, Q.shape[1], res, None, None))
    return walk.gramian(Y, _thin_product(Q, Fhat) + U @ g, tau, iterations=steps,
                        residual=res, records=records)


def rksm(sys: DiscreteLTISystem, side: str, tau,
         shifts: ShiftStrategy | None = None,
         cfg: SolverConfig | None = None,
         observer=None) -> Gramian:
    """Rational Krylov subspace solver for (time-limited) Stein equations.

    A step of the walk applies one pole, a conjugate pair (one complex
    solve), or with ``alternating-pm1`` both +1 and -1, whose new block stays
    pending until the basis is read (an evaluation, an adaptive pole); both
    poles enter ``shifts``, and a record keeps the first and counts the
    pending columns.

    At every cadence point the projected problem is solved and the scaled
    residual is evaluated through the compressed formula.  For finite tau
    the horizon term H^tau (Q^T B) must settle (relative norm-wise change
    below cfg.tl_term_tol) before the residual is checked; once it has, one
    walk of H over the window (:func:`window_sum` on H and Q^T B) gives the
    projected solution, so no projected Stein solve runs.
    For tau = inf the projected equation is solved by
    :func:`solve_projected_tl`.

    ``observer``, when given, is called as observer(state, core, tl_term,
    absolute_residual) at every evaluation; it exists for diagnostics and
    verification harnesses.  ``state.basis`` (a view of the reservation, with
    room for the 2m columns of each of ``cfg.max_iterations`` steps) is the
    walk's only array with n rows: A Q is not kept, and ``state.dynamics``
    applies A where it is needed.
    """
    tau = check_horizon(tau)
    shifts = shifts or ShiftStrategy()
    cfg = cfg or SolverConfig()
    finite = not math.isinf(tau)
    walk = _Walk(sys, side, 1 + 2 * cfg.max_iterations)   # a step adds at most 2m columns
    state = walk.state
    if state.basis.shape[1] == 0:
        z = np.zeros((walk.work.n, walk.work.m)) if finite else None
        return walk.gramian(np.zeros((0, 0)), z, tau, iterations=0, residual=0.0)

    records, fhat_prev, fF, tl_settled = [], None, None, not finite

    for k in range(1, cfg.max_iterations + 1):
        if shifts.kind == "adaptive-disc":
            walk.finish()   # the pole reads the Ritz values of H over every built column
        s = next_shift(shifts, state)
        grew = walk.step([s, -s] if shifts.kind == "alternating-pm1" else [s])   # a +-1 step applies both
        evaluate = (k % cfg.cadence == 0) or (k == cfg.max_iterations) or not grew
        if not evaluate:
            records.append(ConvergenceRecord(
                k, state.basis.shape[1] + walk.pending.shape[1], None, None, s))
            continue

        H, Bk = walk.project()
        Q, Fhat = state.basis, None
        if finite:
            Fhat = Bk
            for _ in range(int(tau)):   # the horizon term alone, as window_sum walks it
                Fhat = H @ Fhat
            if fhat_prev is not None:
                prev = np.vstack([fhat_prev, np.zeros_like(Fhat[fhat_prev.shape[0]:])])
                fF = _gap_norm(Fhat, prev) / max(float(np.linalg.norm(fhat_prev)) ** 2, 1e-300)
                tl_settled = fF <= cfg.tl_term_tol
            fhat_prev = Fhat
            if not tl_settled:
                records.append(ConvergenceRecord(k, Q.shape[1], None, fF, s))
                continue
            Y = window_sum(lambda X: H @ X, Bk, tau)[0]
        else:
            try:
                Y = solve_projected_tl(H, Bk)
            except SolvabilityError:
                # transient: Ritz values can stick out of the disc early on
                records.append(ConvergenceRecord(k, Q.shape[1], None, None, s))
                if not grew:
                    raise BreakdownError("basis saturated with unsolvable projected problem")
                continue

        walk.factor_offspace()
        res_abs = stein_residual_norm(state, Y)
        res = res_abs / max(_gap_norm(Bk, Fhat), 1e-300)
        if observer is not None:
            observer(state, Y, None if Fhat is None else _thin_product(Q, Fhat), res_abs)
        records.append(ConvergenceRecord(k, Q.shape[1], res, fF, s))

        if res <= cfg.tol:
            return walk.gramian(Y, None if Fhat is None else _thin_product(Q, Fhat), tau,
                                iterations=k, residual=res, records=records)
        if not grew:
            raise BreakdownError(
                f"basis saturated at dimension {Q.shape[1]} with residual {res:.3e} "
                f"above tolerance {cfg.tol:.3e}")

    raise ConvergenceError(
        f"rational Krylov solver exhausted {cfg.max_iterations} iterations")
