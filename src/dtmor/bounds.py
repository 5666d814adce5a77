"""Output error bounds for (time-limited) balanced truncation.

Implements the time-limited h2 inner product and norm, the general output
bound valid for any reduced model (stable or not), the exact error-norm
expression for models produced by time-limited balancing, its asymptotic
upper bound driven by matrix-power envelopes, and the doubled
neglected-HSV sum.

Trace expressions are always evaluated from both the reachability and the
observability side; following the computing recipe used throughout, the two
sides are averaged and an absolute value is applied before square roots,
with the raw sides kept for cancellation diagnostics.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .balancing import BalancedRealization, HankelSpectrum
from .dense_stein import (
    DenseGramianPair,
    solve_cross_sylvester,
    solve_stein_dense,
    tl_gramian_dense,
)
from .exceptions import DimensionMismatchError, EstimationError, SolvabilityError
from .lowrank import GramianApprox
from .system import DiscreteLTISystem

CROUZEIX_PALENCIA = 1.0 + math.sqrt(2.0)
_SIDE_AGREE_TOL = 1e-6


# ---------------------------------------------------------------------------
# trace helpers, polymorphic over dense pairs and low-rank approximations

def _trace_output_gram(C: np.ndarray, gram) -> float:
    """trace(C P C^T) for a reachability-side Gramian."""
    if isinstance(gram, GramianApprox):
        CQ = C @ gram.basis
        return float(np.trace(CQ @ gram.core @ CQ.T))
    P = gram.gramian if isinstance(gram, DenseGramianPair) else gram
    return float(np.trace(C @ P @ C.T))


def _trace_input_gram(B: np.ndarray, gram) -> float:
    """trace(B^T Q B) for an observability-side Gramian (mass-adjusted for
    generalized systems, which is exactly what makes the original B correct
    here)."""
    if isinstance(gram, GramianApprox):
        QB = gram.basis.T @ B
        return float(np.trace(QB.T @ gram.core @ QB))
    Q = gram.gramian if isinstance(gram, DenseGramianPair) else gram
    return float(np.trace(B.T @ Q @ B))


def _relative_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


# ---------------------------------------------------------------------------
# TL h2 inner product and norm

def tl_h2_inner(s1: DiscreteLTISystem, s2: DiscreteLTISystem, tau) -> float:
    """Time-limited h2 inner product sum_{j<=tau} trace(h1(j) h2(j)^T),
    evaluated through the mixed cross Gramian."""
    if s1.m != s2.m or s1.p != s2.p:
        raise DimensionMismatchError("systems must share input and output counts")
    Y = solve_cross_sylvester(s1, s2, tau, "Y").matrix
    return float(np.trace(s1.C @ Y @ s2.C.T))


def tl_h2_norm(sys: DiscreteLTISystem, tau) -> float:
    """Time-limited h2 norm via the Gramian traces (both sides averaged)."""
    reach = tl_gramian_dense(sys, tau, "reach")
    obs = tl_gramian_dense(sys, tau, "obs")
    tc = _trace_output_gram(sys.C, reach)
    tb = _trace_input_gram(sys.B, obs)
    return math.sqrt(abs(0.5 * (tc + tb)))


# ---------------------------------------------------------------------------
# Output bound for arbitrary reduced models

@dataclass
class OutputErrorBound:
    """Bound constant for the worst output deviation over the window.

    For any input, max_{k<=tau} ||y(k) - yhat(k)||_2 is bounded by
    ``epsilon`` times the root input energy over the window; the constant is
    the TL h2 norm of the error system and holds for unstable models too.
    """
    epsilon: float
    horizon: float
    trace_c_side: float
    trace_b_side: float
    sides_relative_gap: float
    averaged_sides: bool
    absolute_value_applied: bool
    large_scale_approximate: bool

    @property
    def epsilon_squared(self) -> float:
        return self.epsilon ** 2

    @property
    def sides_disagree(self) -> bool:
        return self.sides_relative_gap > _SIDE_AGREE_TOL

    def input_energy(self, u) -> float:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if not math.isinf(self.horizon):
            u = u[: int(self.horizon) + 1]
        return float(np.sqrt(np.sum(u ** 2)))

    def bound_for_input(self, u) -> float:
        """Pointwise bound level epsilon * sqrt(sum_j ||u(j)||^2)."""
        return self.epsilon * self.input_energy(u)


def bound_output_tl(sys: DiscreteLTISystem, rom: DiscreteLTISystem, tau,
                    reach=None, obs=None) -> OutputErrorBound:
    """Output error bound for an arbitrary reduced-order model.

    ``reach``/``obs`` may carry precomputed full-order Gramians (dense pairs
    or low-rank approximations); when low-rank factors are used the result
    is flagged approximate, since solver tolerances propagate into the
    traces.  tau = inf is allowed for stable system/model pairs and yields
    the infinite-horizon error norm.
    """
    if rom.m != sys.m or rom.p != sys.p:
        raise DimensionMismatchError("reduced model must share input/output counts")
    approximate = isinstance(reach, GramianApprox) or isinstance(obs, GramianApprox)
    if reach is None:
        reach = tl_gramian_dense(sys, tau, "reach")
    if obs is None:
        obs = tl_gramian_dense(sys, tau, "obs")
    rom_reach = tl_gramian_dense(rom, tau, "reach")
    rom_obs = tl_gramian_dense(rom, tau, "obs")
    Y = solve_cross_sylvester(sys, rom, tau, "Y").matrix
    Z = solve_cross_sylvester(sys, rom, tau, "Z").matrix

    tc = (_trace_output_gram(sys.C, reach)
          + _trace_output_gram(rom.C, rom_reach)
          - 2.0 * float(np.trace(sys.C @ Y @ rom.C.T)))
    tb = (_trace_input_gram(sys.B, obs)
          + _trace_input_gram(rom.B, rom_obs)
          - 2.0 * float(np.trace(sys.B.T @ Z @ rom.B)))
    return OutputErrorBound(
        epsilon=math.sqrt(abs(0.5 * (tc + tb))),
        horizon=float(tau) if not math.isinf(tau) else math.inf,
        trace_c_side=tc, trace_b_side=tb, sides_relative_gap=_relative_gap(tc, tb),
        averaged_sides=True, absolute_value_applied=True,
        large_scale_approximate=approximate)


# ---------------------------------------------------------------------------
# Expressions on balanced realizations

@dataclass
class BalancedErrorExpression:
    """Both evaluations of the squared error norm of a truncated balanced
    system, with the per-term breakdown (averaged over the two sides)."""
    value: float
    c_side: float
    b_side: float
    residual_term: float          # time-limited residual term, C-side form
    residual_term_dual: float
    terms: dict
    sides_relative_gap: float


def _balanced_error_terms(bal: BalancedRealization, r: int) -> tuple[dict, dict]:
    """C-side and B-side trace terms of the squared error norm of truncating
    ``bal`` at order r over its own horizon: the neglected block, the
    coupling through the cross Gramians and the ROM-Gramian gap, plus the
    horizon residual when ``bal`` is time-limited.  Each side sums to the
    squared norm."""
    tau = bal.horizon
    part = bal.partition(r)
    full = DiscreteLTISystem(bal.a, bal.b, bal.c)
    rom = bal.reduced_system(r)
    Y = solve_cross_sylvester(full, rom, tau, "Y").matrix
    Z = solve_cross_sylvester(full, rom, tau, "Z").matrix
    rom_reach = tl_gramian_dense(rom, tau, "reach")
    rom_obs = tl_gramian_dense(rom, tau, "obs")

    S1 = np.diag(part.sigma1)
    c = {
        "neglected_block": float(np.trace((part.C2 * part.sigma2) @ part.C2.T)),
        "coupling": 2.0 * float(np.trace((part.A12 * part.sigma2) @ bal.a[:, r:].T @ Z)),
        "rom_gramian_gap": float(np.trace(part.C1 @ (rom_reach.gramian - S1) @ part.C1.T)),
    }
    b = {
        "neglected_block": float(np.trace(part.B2.T @ (part.sigma2[:, None] * part.B2))),
        "coupling": 2.0 * float(np.trace(
            part.A21.T @ (part.sigma2[:, None] * (bal.a[r:, :] @ Y)))),
        "rom_gramian_gap": float(np.trace(part.B1.T @ (rom_obs.gramian - S1) @ part.B1)),
    }
    if bal.tl_b is not None:
        Fh = rom_reach.tl_term          # Ahat^tau Bhat
        Gh = rom_obs.tl_term.T          # Chat Ahat^tau, from the adjoint side
        c["tl_residual"] = 2.0 * (float(np.trace(S1 @ part.G1.T @ Gh))
                                  - float(np.trace(part.F1 @ bal.tl_b.T @ Z)))
        b["tl_residual"] = 2.0 * (float(np.trace(S1 @ part.F1 @ Fh.T))
                                  - float(np.trace(part.G1.T @ bal.tl_c @ Y)))
    return c, b


def error_expr_tlbt(bal: BalancedRealization, r: int) -> BalancedErrorExpression:
    """Exact squared TL error norm of time-limited balanced truncation,
    expressed through the balanced blocks, the neglected singular values,
    and the horizon terms.  Equals the directly summed squared impulse
    error; the equality is the module's central correctness test."""
    if bal.tl_b is None:
        raise ValueError("needs a time-limited balanced realization")
    c, b = _balanced_error_terms(bal, r)
    c_side, b_side = sum(c.values()), sum(b.values())
    return BalancedErrorExpression(
        value=abs(0.5 * (c_side + b_side)), c_side=c_side, b_side=b_side,
        residual_term=c["tl_residual"], residual_term_dual=b["tl_residual"],
        terms={name: 0.5 * (c[name] + b[name]) for name in c},
        sides_relative_gap=_relative_gap(c_side, b_side))


@dataclass
class InfiniteHorizonBound:
    """Squared infinite-horizon h2 error norm of balanced truncation and
    its simplified upper variant (the ROM-Gramian gap term dropped, valid
    because that term is nonpositive for stable systems)."""
    value_sq: float
    upper_sq: float
    c_side: float
    b_side: float
    sides_relative_gap: float


def bound_inf_horizon(bal: BalancedRealization, r: int) -> InfiniteHorizonBound:
    """Infinite-horizon error expression from the balanced blocks."""
    if bal.tl_b is not None:
        raise ValueError("needs an infinite-horizon balanced realization")
    c, b = _balanced_error_terms(bal, r)
    c_side, b_side = sum(c.values()), sum(b.values())
    upper = 0.5 * ((c["neglected_block"] + c["coupling"])
                   + (b["neglected_block"] + b["coupling"]))
    return InfiniteHorizonBound(
        value_sq=abs(0.5 * (c_side + b_side)), upper_sq=abs(upper),
        c_side=c_side, b_side=b_side, sides_relative_gap=_relative_gap(c_side, b_side))


# ---------------------------------------------------------------------------
# Matrix power envelopes

def numerical_radius(A, tol: float = 1e-6) -> float:
    """Largest modulus over the field of values, via the largest eigenvalue
    of the Hermitian part of exp(i theta) A over a refined angle grid.

    Dense inputs below the iterative threshold use full Hermitian
    eigensolves; large or sparse inputs fall back to a Lanczos extreme
    eigenvalue per angle, so the matrix is only touched through products.
    """
    dense = not sp.issparse(A) and A.shape[0] <= 400
    if dense:
        Ad = np.asarray(A)

        def lam_max(theta: float) -> float:
            H = 0.5 * (np.exp(1j * theta) * Ad + np.exp(-1j * theta) * Ad.conj().T)
            return float(np.linalg.eigvalsh(H)[-1])
    else:
        import scipy.sparse.linalg as spla

        n = A.shape[0]
        AH = A.conj().T

        def lam_max(theta: float) -> float:
            phase = np.exp(1j * theta)

            def mv(v):
                return 0.5 * (phase * (A @ v) + np.conj(phase) * (AH @ v))
            op = spla.LinearOperator((n, n), matvec=mv, dtype=complex)
            val = spla.eigsh(op, k=1, which="LA", return_eigenvectors=False,
                             tol=1e-9)
            return float(val[0].real)

    count = 64
    thetas = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    vals = np.array([lam_max(t) for t in thetas])
    best = float(vals.max())
    width = 2.0 * np.pi / count
    center = float(thetas[int(np.argmax(vals))])
    while True:
        local = np.linspace(center - width, center + width, 9)
        lv = np.array([lam_max(t) for t in local])
        new_best = float(lv.max())
        center = float(local[int(np.argmax(lv))])
        width /= 4.0
        if new_best <= best * (1.0 + tol) and width < 1e-8:
            return max(best, new_best)
        best = max(best, new_best)


@dataclass(frozen=True)
class AsymptoticConstants:
    """One-sided envelope ||A^k||_2 <= scale * rate^k."""
    scale: float
    rate: float
    method: str

    def power_bound(self, k: float) -> float:
        if math.isinf(k):
            return 0.0 if self.rate < 1.0 else math.inf
        return self.scale * self.rate ** k


def asymptotic_constants(A, method: str = "eigen") -> AsymptoticConstants:
    """Envelope constants for powers of A.

    'eigen' uses the spectral radius as the rate and the eigenvector
    condition number as the scale (exactly 1 for normal matrices);
    'numerical-radius' always uses 1 + sqrt(2) with the numerical radius,
    which bounds every power by the Crouzeix-Palencia theorem.
    """
    A = A.toarray() if sp.issparse(A) else np.asarray(A, dtype=float)
    if method == "eigen":
        w, X = np.linalg.eig(A)
        cond = float(np.linalg.cond(X))
        if not np.isfinite(cond) or cond > 1e13:
            raise EstimationError(
                "matrix is numerically non-diagonalizable; use the "
                "numerical-radius method")
        commutator = A @ A.T - A.T @ A
        if np.linalg.norm(commutator) <= 1e-13 * max(np.linalg.norm(A) ** 2, 1e-300):
            cond = 1.0  # normal matrix: unitary eigenbasis, the bound is exact
        return AsymptoticConstants(scale=max(cond, 1.0), rate=float(np.max(np.abs(w))),
                                   method="eigen")
    if method == "numerical-radius":
        return AsymptoticConstants(scale=CROUZEIX_PALENCIA, rate=numerical_radius(A),
                                   method="numerical-radius")
    raise ValueError(f"unknown constants method {method!r}")


@dataclass
class Theorem32Bound:
    """Upper bound J * sigma_{r+1} + J_TL on the squared TL error norm."""
    j_term: float
    j_tl_term: float
    total: float
    sigma_next: float
    path: str                      # 'asymptotic' or 'explicit'
    full_constants: AsymptoticConstants
    reduced_constants: AsymptoticConstants


def _pow_or_zero(x: float, tau) -> float:
    if math.isinf(tau):
        return 0.0 if x < 1.0 else math.inf
    return x ** float(tau)


def bound_theorem32(bal: BalancedRealization, r: int, tau,
                    consts: tuple[AsymptoticConstants, AsymptoticConstants]) -> Theorem32Bound:
    """Asymptotic upper bound splitting the TL error into a part linear in
    the largest neglected singular value and a horizon-term part.

    When either envelope rate reaches 1 the asymptotic form is invalid and
    an explicit variant is used instead, bounding the same trace terms with
    computed norms of the cross solution and the ROM Gramian gap.
    """
    cf, cr = consts
    part = bal.partition(r)
    n = bal.order
    p, m = bal.c.shape[0], bal.b.shape[1]
    sigma_next = float(part.sigma2[0]) if r < n else 0.0
    sigma_1 = float(bal.sigma[0])

    def nrm(X):
        return float(np.linalg.norm(X, 2)) if X.size else 0.0

    nA12, nAc2 = nrm(part.A12), nrm(bal.a[:, r:])
    nC, nC1, nC2 = nrm(bal.c), nrm(part.C1), nrm(part.C2)
    nB, nB1 = nrm(bal.b), nrm(part.B1)

    c, lam = cf.scale, cf.rate
    ch, lamh = cr.scale, cr.rate

    if lam < 1.0 and lamh < 1.0:
        lt = _pow_or_zero(lam, tau)
        lth = _pow_or_zero(lamh, tau)
        mix = c * ch * lt * lth
        j = p * nC2 ** 2 + (2.0 * r * c * ch * (1.0 + mix) / (1.0 - lam * lamh)) \
            * nA12 * nAc2 * nC * nC1
        # ||F1||, ||F|| <= c lam^tau ||B|| etc.; squares on the input norms
        # are required for a valid product bound
        j_tl = (p * ch ** 2 / (1.0 - lamh ** 2)) * nC1 ** 2 \
            * (c ** 2 * lt ** 2 * nB ** 2 + ch ** 2 * lth ** 2 * nB1 ** 2) \
            + 2.0 * p * sigma_1 * mix * nC * nC1 \
            + (2.0 * m * c * ch / (1.0 - lam * lamh)) * c ** 2 * lt ** 2 * nB ** 2 \
            * nC * nC1 * (1.0 + mix)
        path = "asymptotic"
    else:
        full = DiscreteLTISystem(bal.a, bal.b, bal.c)
        rom = bal.reduced_system(r)
        Z = solve_cross_sylvester(full, rom, tau, "Z").matrix
        nZ = nrm(Z)
        if math.isinf(tau):
            rom_reach = solve_stein_dense(part.A11, part.B1 @ part.B1.T)
            nF1 = nF = nG1 = nGh = 0.0
        else:
            rom_reach = tl_gramian_dense(rom, tau, "reach").gramian
            nF1, nF = nrm(part.F1), nrm(bal.tl_b)
            nG1 = nrm(part.G1)
            nGh = nrm(part.C1 @ np.linalg.matrix_power(part.A11, int(tau)))
        gap = nrm(rom_reach - np.diag(part.sigma1))
        j = p * nC2 ** 2 + 2.0 * r * nA12 * nAc2 * nZ
        j_tl = p * nC1 ** 2 * gap + 2.0 * p * sigma_1 * nG1 * nGh + 2.0 * m * nZ * nF1 * nF
        path = "explicit"

    return Theorem32Bound(j_term=j, j_tl_term=j_tl, total=j * sigma_next + j_tl,
                          sigma_next=sigma_next, path=path,
                          full_constants=cf, reduced_constants=cr)


def hsv_tail_bound(spectrum: HankelSpectrum, r: int) -> float:
    """Twice the sum of the neglected (time-limited) Hankel singular values."""
    if r >= len(spectrum.values):
        return 0.0
    return spectrum.tail_sum(r)


# ---------------------------------------------------------------------------
# Aggregated report

@dataclass
class BoundReport:
    """Everything the pipeline knows about one reduced model's error bounds."""
    method: str
    tau: float
    r: int
    rom_spectral_radius: float
    hsv_tail: float
    prop23_epsilon: float | None = None
    prop23_trace_c: float | None = None
    prop23_trace_b: float | None = None
    prop23_sides_gap: float | None = None
    inf_horizon_sq: float | None = None
    inf_horizon_upper_sq: float | None = None
    inf_horizon_gap: float | None = None
    inf_horizon_backend: str | None = None     # 'dense' or 'low-rank'
    thm31_value: float | None = None
    thm31_terms: dict | None = None
    thm31_residual_term: float | None = None
    thm32_j: float | None = None
    thm32_j_tl: float | None = None
    thm32_total: float | None = None
    thm32_path: str | None = None
    thm32_constants: dict | None = None
    flags: dict = field(default_factory=dict)

    def bound_level(self) -> float | None:
        """Output-bound constant used for plotting: the TL bound for
        time-limited reductions, the infinite-horizon error norm otherwise."""
        if self.method == "bt" and self.inf_horizon_sq is not None:
            return math.sqrt(self.inf_horizon_sq)
        return self.prop23_epsilon

    def to_dict(self) -> dict:
        def clean(x):
            if isinstance(x, float) and math.isinf(x):
                return "inf"
            return x
        out = {
            "method": self.method,
            "tau": clean(self.tau),
            "r": self.r,
            "rom_spectral_radius": self.rom_spectral_radius,
            "hsv_tail": self.hsv_tail,
            "prop23": {
                "epsilon": self.prop23_epsilon,
                "trace_c_side": self.prop23_trace_c,
                "trace_b_side": self.prop23_trace_b,
                "sides_relative_gap": self.prop23_sides_gap,
            },
            "inf_horizon": {
                "value_sq": self.inf_horizon_sq,
                "upper_sq": self.inf_horizon_upper_sq,
                "sides_relative_gap": self.inf_horizon_gap,
                "backend": self.inf_horizon_backend,
            },
            "thm31": {
                "value": self.thm31_value,
                "terms": self.thm31_terms,
                "residual_term": self.thm31_residual_term,
            },
            "thm32": {
                "j": self.thm32_j,
                "j_tl": self.thm32_j_tl,
                "total": self.thm32_total,
                "path": self.thm32_path,
                "constants": self.thm32_constants,
            },
            "flags": dict(sorted(self.flags.items())),
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_header(self) -> list[str]:
        return ["method", "tau", "r", "rho", "hsv_tail", "prop23_epsilon",
                "inf_horizon", "thm31_value", "thm32_total"]

    def csv_row(self) -> list:
        inf_h = math.sqrt(self.inf_horizon_sq) if self.inf_horizon_sq is not None else None
        return [self.method, self.tau, self.r, self.rom_spectral_radius,
                self.hsv_tail, self.prop23_epsilon, inf_h, self.thm31_value,
                self.thm32_total]


def inf_horizon_applies(sys: DiscreteLTISystem, rom, tau) -> bool:
    """Whether :func:`build_bound_report` adds the infinite-horizon error
    norm at a finite window, for which it needs the system's
    infinite-horizon Gramians: both the system and the model are stable."""
    return (not math.isinf(tau) and rom.spectral_radius() < 1.0
            and sys.spectral_radius() < 1.0)


def build_bound_report(sys: DiscreteLTISystem, rom, tau,
                       reach=None, obs=None, inf_reach=None, inf_obs=None,
                       bal: BalancedRealization | None = None,
                       bal_inf: BalancedRealization | None = None,
                       constants_method: str | None = None) -> BoundReport:
    """Assemble the bound report for one reduced model.

    ``rom`` is a ReducedOrderModel from the balancing module.  The general
    output bound is always computed, from the window Gramians
    ``reach``/``obs``; the infinite-horizon error norm is added whenever
    both the system and the model are stable, from ``inf_reach``/``inf_obs``
    (dense or low-rank, computed densely when absent); the balanced
    expressions are added when dense balanced realizations are supplied
    (``bal`` at the window, ``bal_inf`` at infinite horizon for the
    simplified upper variant).
    """
    rsys = rom.system
    rho = rom.spectral_radius()
    report = BoundReport(
        method=rom.method, tau=float(tau) if not math.isinf(tau) else math.inf,
        r=rom.r, rom_spectral_radius=rho, hsv_tail=rom.hsv_tail())

    ob = bound_output_tl(sys, rsys, tau, reach=reach, obs=obs)
    report.prop23_epsilon = ob.epsilon
    report.prop23_trace_c = ob.trace_c_side
    report.prop23_trace_b = ob.trace_b_side
    report.prop23_sides_gap = ob.sides_relative_gap
    report.flags = {
        "averaged_sides": ob.averaged_sides,
        "absolute_value_applied": ob.absolute_value_applied,
        "large_scale_approximate": ob.large_scale_approximate,
        "sides_disagree": ob.sides_disagree,
        "rom_unstable": rho >= 1.0,
    }

    ob_inf = ob if math.isinf(report.tau) else None
    if inf_horizon_applies(sys, rom, tau):
        try:
            ob_inf = bound_output_tl(sys, rsys, math.inf, reach=inf_reach, obs=inf_obs)
        except SolvabilityError:
            pass
    if ob_inf is not None:
        report.inf_horizon_sq = ob_inf.epsilon_squared
        report.inf_horizon_gap = ob_inf.sides_relative_gap
        report.inf_horizon_backend = "low-rank" if ob_inf.large_scale_approximate else "dense"

    if bal_inf is not None and bal_inf.tl_b is None and rom.r <= bal_inf.order:
        try:
            inf_expr = bound_inf_horizon(bal_inf, rom.r)
            report.inf_horizon_sq = inf_expr.value_sq
            report.inf_horizon_upper_sq = inf_expr.upper_sq
            report.inf_horizon_gap = inf_expr.sides_relative_gap
            report.inf_horizon_backend = "dense"
        except SolvabilityError:
            pass

    if bal is not None and bal.tl_b is not None:
        expr = error_expr_tlbt(bal, rom.r)
        report.thm31_value = expr.value
        report.thm31_terms = expr.terms
        report.thm31_residual_term = expr.residual_term
        if constants_method:
            cf = asymptotic_constants(bal.a, constants_method)
            cr = asymptotic_constants(bal.partition(rom.r).A11, constants_method)
            t32 = bound_theorem32(bal, rom.r, tau, (cf, cr))
            report.thm32_j = t32.j_term
            report.thm32_j_tl = t32.j_tl_term
            report.thm32_total = t32.total
            report.thm32_path = t32.path
            report.thm32_constants = {
                "c": cf.scale, "lambda": cf.rate,
                "c_hat": cr.scale, "lambda_hat": cr.rate,
                "method": cf.method,
            }
    return report

