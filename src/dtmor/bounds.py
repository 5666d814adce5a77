"""Output error bounds for (time-limited) balanced truncation.

Implements the time-limited h2 inner product and norm, the general output
bound valid for any reduced model (stable or not), the exact error-norm
expression for models produced by time-limited balancing, its asymptotic
upper bound driven by matrix-power envelopes, and the doubled
neglected-HSV sum.

The output bound over a finite window is the impulse-response sum of the
error system, which has no cancellation and needs no Gramian.  Every trace
expression (the infinite-horizon output bound, the TL h2 norm, and the
balanced error expression over a realization's own horizon: thm31 at a
window, the BT expression at infinite horizon) is evaluated from both the
reachability and the observability side by one rule, :func:`_two_sided`:
the two sides are averaged and an absolute value is applied before square
roots, with the raw sides, their relative gap and the cancellation ratio
kept for diagnostics.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .balancing import BalancedRealization
from .config import check_dense_cap
from .dense_stein import solve_cross_sylvester, solve_projected_tl, tl_gramian_dense
from .exceptions import DimensionMismatchError, EstimationError, SolvabilityError
from .system import DiscreteLTISystem, check_horizon, dense_array, impulse_sequence

CROUZEIX_PALENCIA = 1.0 + math.sqrt(2.0)
_SIDE_AGREE_TOL = 1e-6
_NUMERICAL_RADIUS_TOL = 1e-6


# ---------------------------------------------------------------------------
# trace helpers.  A Gramian, dense or low-rank, gives its own C P C^T as
# congruence(C) and its Krylov basis (None when dense) as ``basis``, so
# this module never asks how it is stored.

def _two_sided(c_terms, b_terms):
    """The one evaluation of a trace expression from its C-side and B-side
    terms: (value, c, b, gap, cancellation), where c and b are the side
    sums, value |(c + b) / 2|, gap their relative gap and cancellation the
    largest term's magnitude over value."""
    c, b = sum(c_terms), sum(b_terms)
    value = abs(0.5 * (c + b))
    cancellation = max(abs(t) for t in (*c_terms, *b_terms)) / max(value, 1e-300)
    return value, c, b, abs(c - b) / max(abs(c), abs(b), 1e-300), cancellation


# ---------------------------------------------------------------------------
# TL h2 inner product and norm

def tl_h2_inner(s1: DiscreteLTISystem, s2: DiscreteLTISystem, tau) -> float:
    """Time-limited h2 inner product sum_{j<=tau} trace(h1(j) h2(j)^T),
    evaluated through the mixed cross Gramian."""
    if s1.m != s2.m or s1.p != s2.p:
        raise DimensionMismatchError("systems must share input and output counts")
    Y = solve_cross_sylvester(s1, s2, tau, "Y")
    return float(np.trace(s1.C @ Y @ s2.C.T))


def tl_h2_norm(sys: DiscreteLTISystem, tau) -> float:
    """Time-limited h2 norm via the Gramian traces (both sides averaged)."""
    reach = tl_gramian_dense(sys, tau, "reach")
    obs = tl_gramian_dense(sys, tau, "obs")
    return math.sqrt(_two_sided([float(np.trace(reach.congruence(sys.C)))],
                                [float(np.trace(obs.congruence(sys.B.T)))])[0])


# ---------------------------------------------------------------------------
# Output bound for arbitrary reduced models

@dataclass
class OutputErrorBound:
    """Bound constant for the worst output deviation over the window.

    For any input, max_{k<=tau} ||y(k) - yhat(k)||_2 is bounded by
    ``epsilon`` times the root input energy over the window; the constant is
    the TL h2 norm of the error system and holds for unstable models too.

    ``backend`` says how it was computed: 'summation' (finite tau, the
    impulse-response sum; both trace fields hold that sum and the gap is 0),
    'dense' or 'low-rank' (tau = inf, the trace form with dense or low-rank
    full-order Gramians).  ``cancellation`` is the largest trace term's
    magnitude over epsilon^2, 1 for the sum.
    """
    epsilon: float
    horizon: float
    trace_c_side: float
    trace_b_side: float
    sides_relative_gap: float
    backend: str
    cancellation: float

    @property
    def epsilon_squared(self) -> float:
        return self.epsilon ** 2

    @property
    def large_scale_approximate(self) -> bool:
        return self.backend == "low-rank"

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


def _inf_horizon_terms(sys: DiscreteLTISystem, rom: DiscreteLTISystem, reach):
    """The C-side terms trace(C P C^T), trace(Chat Phat Chat^T) and
    -2 trace(C Y Chat^T) of the infinite-horizon squared error norm.  P is
    ``reach``, solved densely when absent; Y is projected on its Krylov basis
    when it has one.  On the adjoint pair (sys.dual(), rom.dual(), obs) the
    same terms are the B side."""
    if reach is None:
        reach = tl_gramian_dense(sys, math.inf, "reach")
    rom_reach = tl_gramian_dense(rom, math.inf, "reach")
    Y = solve_cross_sylvester(sys, rom, math.inf, "Y", reach.basis)
    return (float(np.trace(reach.congruence(sys.C))),
            float(np.trace(rom_reach.congruence(rom.C))),
            -2.0 * float(np.trace(sys.C @ Y @ rom.C.T)))


def bound_output_tl(sys: DiscreteLTISystem, rom: DiscreteLTISystem, tau,
                    reach=None, obs=None) -> OutputErrorBound:
    """Output error bound for an arbitrary reduced-order model.

    Finite tau: epsilon^2 = sum_{k=1..tau} ||h(k) - hhat(k)||_F^2, one walk of
    each system's impulse response; exact for every pair of spectra, and
    ``reach``/``obs`` are not used.

    tau = inf (stable system/model pairs): the trace form, evaluated from both
    sides, averaged, with an absolute value applied before the square root.
    ``reach``/``obs`` may carry the full-order infinite-horizon Gramians
    (dense pairs or low-rank approximations, computed densely when absent);
    a Gramian of a finite horizon raises ValueError.  A low-rank side also
    supplies the Krylov basis its cross Gramian is projected onto, and the
    result is flagged approximate, since solver tolerances propagate into
    the traces.
    """
    if rom.m != sys.m or rom.p != sys.p:
        raise DimensionMismatchError("reduced model must share input/output counts")
    tau = check_horizon(tau)
    if not math.isinf(tau):
        diff = impulse_sequence(sys, int(tau)) - impulse_sequence(rom, int(tau))
        eps_sq = float(np.sum(diff ** 2))
        return OutputErrorBound(
            epsilon=math.sqrt(eps_sq), horizon=tau, trace_c_side=eps_sq,
            trace_b_side=eps_sq, sides_relative_gap=0.0, backend="summation",
            cancellation=1.0)

    for gram in (reach, obs):
        if gram is not None and not math.isinf(gram.horizon):
            raise ValueError(f"the tau=inf bound needs infinite-horizon Gramians, "
                             f"got a {gram.side} Gramian at tau={gram.horizon:g}")
    low_rank = any(gram is not None and gram.basis is not None for gram in (reach, obs))
    eps_sq, tc, tb, gap, cancellation = _two_sided(
        _inf_horizon_terms(sys, rom, reach), _inf_horizon_terms(sys.dual(), rom.dual(), obs))
    return OutputErrorBound(
        epsilon=math.sqrt(eps_sq), horizon=math.inf, trace_c_side=tc, trace_b_side=tb,
        sides_relative_gap=gap, backend="low-rank" if low_rank else "dense",
        cancellation=cancellation)


# ---------------------------------------------------------------------------
# Expressions on balanced realizations

@dataclass
class BalancedErrorExpression:
    """Both evaluations of the squared error norm of a truncated balanced
    system over the realization's own horizon, with the per-term breakdown
    (averaged over the two sides).  At a window it is thm31, whose
    ``residual_term`` is the horizon residual (C-side form); at infinite
    horizon it is the BT expression, with ``residual_term`` None and
    ``upper_sq`` the simplified upper variant (the ROM-Gramian gap term
    dropped, valid because that term is nonpositive for stable systems)."""
    value: float
    c_side: float
    b_side: float
    residual_term: float | None
    terms: dict
    sides_relative_gap: float
    cancellation: float
    upper_sq: float | None
    c_solves: tuple = field(default=(), repr=False, compare=False)   # Z, P^ - Sigma1, Gh of the C side
    backend = "dense"

    @property
    def epsilon_squared(self) -> float:
        return self.value


def _rom_gramian_gap(part, rom: DiscreteLTISystem, tau) -> np.ndarray:
    """The ROM-Gramian gap P^ - Sigma1 of the truncated model ``rom`` of a
    realization balanced over ``tau`` (``part`` its partition).  At infinite
    horizon the gap solves the Stein equation driven by -A12 Sigma2 A12^T
    (the leading block of the balanced Lyapunov equation), so it is not
    formed by subtracting Sigma1."""
    if math.isinf(tau):
        return -solve_projected_tl(rom.A, part.A12 * np.sqrt(part.sigma2))
    return tl_gramian_dense(rom, tau, "reach").matrix() - np.diag(part.sigma1)


def _balanced_side_terms(bal: BalancedRealization, r: int):
    """C-side trace terms of the squared error norm of truncating ``bal`` at
    order r over its own horizon: the neglected block, the coupling through
    the cross Gramian Z and the ROM-Gramian gap P^ - Sigma1, plus the
    horizon residual when ``bal`` is time-limited.  They sum to the squared
    norm.  Returns the terms and the solves they took: Z, the gap and the
    model's obs horizon term (Chat Ahat^tau)^T (None at infinite horizon).
    A window realization without its horizon terms raises ValueError."""
    tau = bal.horizon
    if not math.isinf(tau):
        bal.require_horizon_terms("the balanced error expression")
    part = bal.partition(r)
    rom = bal.reduced_system(r)
    Z = solve_cross_sylvester(DiscreteLTISystem(bal.a, bal.b, bal.c), rom, tau, "Z")
    gap = _rom_gramian_gap(part, rom, tau)
    Gh = None
    terms = {
        "neglected_block": float(np.trace((part.C2 * part.sigma2) @ part.C2.T)),
        "coupling": 2.0 * float(np.trace((part.A12 * part.sigma2) @ bal.a[:, r:].T @ Z)),
        "rom_gramian_gap": float(np.trace(part.C1 @ gap @ part.C1.T)),
    }
    if not math.isinf(tau):
        S1 = np.diag(part.sigma1)
        Gh = tl_gramian_dense(rom, tau, "obs").tl_term
        terms["tl_residual"] = 2.0 * (float(np.trace(S1 @ part.G1.T @ Gh.T))
                                      - float(np.trace(part.F1 @ bal.tl_b.T @ Z)))
    return terms, (Z, gap, Gh)


def error_expr_tlbt(bal: BalancedRealization, r: int) -> BalancedErrorExpression:
    """Exact squared error norm of truncating ``bal`` at order r over its own
    horizon, expressed through the balanced blocks, the neglected singular
    values and, at a window, the horizon terms (thm31); at infinite horizon
    it is the BT expression with its upper variant.  Equals the directly
    summed squared impulse error; the equality is the module's central
    correctness test.  The B side is the C side of ``bal.dual()``."""
    (c, solves), (b, _) = _balanced_side_terms(bal, r), _balanced_side_terms(bal.dual(), r)
    value, c_side, b_side, gap, cancellation = _two_sided(c.values(), b.values())
    upper = None
    if math.isinf(bal.horizon):
        upper = _two_sided([c["neglected_block"], c["coupling"]],
                           [b["neglected_block"], b["coupling"]])[0]
    return BalancedErrorExpression(
        value=value, c_side=c_side, b_side=b_side, residual_term=c.get("tl_residual"),
        terms={name: 0.5 * (c[name] + b[name]) for name in c},
        sides_relative_gap=gap, cancellation=cancellation, upper_sq=upper, c_solves=solves)


# ---------------------------------------------------------------------------
# Matrix power envelopes

def numerical_radius(A) -> float:
    """Largest modulus over the field of values, via the largest eigenvalue
    of the Hermitian part of exp(i theta) A over a refined angle grid, one
    dense Hermitian eigensolve per angle; a sparse A is densified, and the
    size is guarded by the dense cap.  The refinement stops once the maximum
    settles to 1e-6 relative on an angle width below 1e-8.
    """
    check_dense_cap(A.shape[0], "numerical radius")
    Ad = dense_array(A)

    def lam_max(theta: float) -> float:
        H = 0.5 * (np.exp(1j * theta) * Ad + np.exp(-1j * theta) * Ad.conj().T)
        return float(np.linalg.eigvalsh(H)[-1])

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
        if new_best <= best * (1.0 + _NUMERICAL_RADIUS_TOL) and width < 1e-8:
            return max(best, new_best)
        best = max(best, new_best)


def _pow_or_zero(x: float, tau) -> float:
    if math.isinf(tau):
        return 0.0 if x < 1.0 else math.inf
    return x ** float(tau)


@dataclass(frozen=True)
class AsymptoticConstants:
    """One-sided envelope ||A^k||_2 <= scale * rate^k."""
    scale: float
    rate: float
    method: str


def asymptotic_constants(A, method: str = "eigen") -> AsymptoticConstants:
    """Envelope constants for powers of A.

    'eigen' uses the spectral radius as the rate and the eigenvector
    condition number as the scale (exactly 1 for normal matrices);
    'numerical-radius' always uses 1 + sqrt(2) with the numerical radius,
    which bounds every power by the Crouzeix-Palencia theorem.
    """
    A = np.asarray(dense_array(A), dtype=float)
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
    path: str                      # 'asymptotic' or 'explicit'


def bound_theorem32(bal: BalancedRealization, r: int, tau,
                    consts: tuple[AsymptoticConstants, AsymptoticConstants]) -> Theorem32Bound:
    """Asymptotic upper bound splitting the TL error into a part linear in
    the largest neglected singular value and a horizon-term part.

    When either envelope rate reaches 1 the asymptotic form is invalid and
    an explicit variant is used instead, bounding the same trace terms with
    computed norms of the cross solution, the ROM Gramian gap and the
    horizon terms; at tau = inf it needs a stable reduced block.  ``tau``
    must be the horizon ``bal`` was balanced over (ValueError otherwise).
    """
    return _theorem32(bal, r, tau, consts, ())


def _theorem32(bal: BalancedRealization, r: int, tau, consts, solves: tuple) -> Theorem32Bound:
    """:func:`bound_theorem32`, whose explicit path takes its solves from
    ``solves`` (thm31's ``c_solves``) and solves them when it is empty."""
    if check_horizon(tau) != bal.horizon:
        raise ValueError(f"tau {float(tau):g} is not the balancing horizon {bal.horizon:g}")
    cf, cr = consts
    part = bal.partition(r)
    n = bal.order
    p, m = bal.c.shape[0], bal.b.shape[1]
    sigma_next = float(part.sigma2[0]) if r < n else 0.0
    sigma_1 = float(bal.sigma[0])

    def nrm(X):
        return float(np.linalg.norm(X, 2)) if X is not None and X.size else 0.0

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
        Z, gap, Gh = solves or _balanced_side_terms(bal, r)[1]
        nZ, gap = nrm(Z), nrm(gap)
        j = p * nC2 ** 2 + 2.0 * r * nA12 * nAc2 * nZ
        j_tl = (p * nC1 ** 2 * gap + 2.0 * p * sigma_1 * nrm(part.G1) * nrm(Gh)
                + 2.0 * m * nZ * nrm(part.F1) * nrm(bal.tl_b))
        path = "explicit"

    return Theorem32Bound(j_term=j, j_tl_term=j_tl, total=j * sigma_next + j_tl, path=path)


# ---------------------------------------------------------------------------
# Aggregated report

@dataclass
class BoundReport:
    """Everything the pipeline knows about one reduced model's error bounds.

    ``prop23`` is the general output bound over ``tau``.  ``inf_horizon`` is
    the infinite-horizon error norm: from the balanced blocks
    (:class:`BalancedErrorExpression` of an infinite-horizon realization),
    the trace form (:class:`OutputErrorBound`), or None, then with the
    message of a failed solve in ``inf_horizon_error``.
    ``thm31``, ``thm32`` and the envelope ``constants`` (full, reduced) that
    thm32 used come from a time-limited balanced realization.
    """
    method: str
    tau: float
    r: int
    rom_spectral_radius: float
    hsv_tail: float
    prop23: OutputErrorBound
    inf_horizon: BalancedErrorExpression | OutputErrorBound | None = None
    inf_horizon_error: str | None = None
    thm31: BalancedErrorExpression | None = None
    thm32: Theorem32Bound | None = None
    constants: tuple[AsymptoticConstants, AsymptoticConstants] | None = None

    @property
    def flags(self) -> dict:
        traced = self.prop23.backend != "summation"  # the trace form averages and takes |.|
        return {
            "averaged_sides": traced,
            "absolute_value_applied": traced,
            "large_scale_approximate": self.prop23.large_scale_approximate,
            "sides_disagree": self.prop23.sides_disagree,
            "rom_unstable": self.rom_spectral_radius >= 1.0,
        }

    def bound_level(self) -> float | None:
        """Output-bound constant used for plotting: the TL bound for
        time-limited reductions, the infinite-horizon error norm otherwise."""
        if self.method == "bt" and self.inf_horizon is not None:
            return math.sqrt(self.inf_horizon.epsilon_squared)
        return self.prop23.epsilon

    def to_dict(self) -> dict:
        def section(result, *names, **renamed):
            # JSON key -> attribute of ``result``; a missing section is all nulls
            keys = dict(zip(names, names), **renamed)
            return {key: None if result is None else getattr(result, attr)
                    for key, attr in keys.items()}
        inf = self.inf_horizon
        constants = None
        if self.constants is not None:
            cf, cr = self.constants
            constants = {"c": cf.scale, "lambda": cf.rate, "c_hat": cr.scale,
                         "lambda_hat": cr.rate, "method": cf.method}
        return {
            "method": self.method,
            "tau": "inf" if math.isinf(self.tau) else self.tau,
            "r": self.r,
            "rom_spectral_radius": self.rom_spectral_radius,
            "hsv_tail": self.hsv_tail,
            "prop23": section(self.prop23, "epsilon", "trace_c_side", "trace_b_side",
                              "sides_relative_gap", "backend"),
            # only the balanced-block expression has an upper variant
            "inf_horizon": section(inf, "sides_relative_gap", "backend", "cancellation",
                                   value_sq="epsilon_squared")
            | {"upper_sq": getattr(inf, "upper_sq", None)}
            | ({"error": self.inf_horizon_error} if self.inf_horizon_error else {}),
            "thm31": section(self.thm31, "value", "terms", "residual_term"),
            "thm32": section(self.thm32, "total", "path", j="j_term", j_tl="j_tl_term")
            | {"constants": constants},
            "flags": dict(sorted(self.flags.items())),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def build_bound_report(sys: DiscreteLTISystem, rom, tau, pair=None,
                       bal: BalancedRealization | None = None,
                       constants_method: str | None = None) -> BoundReport:
    """Assemble the bound report for one reduced model.

    ``rom`` is a ReducedOrderModel from the balancing module.  ``pair`` is
    the job's ``pair(tau) -> (reach, obs)`` of the system's Gramians (dense
    or low-rank); the report asks it for the tau = inf pair only where it
    uses that pair, and without ``pair`` that pair is solved densely there.
    The general output bound is always computed: at a finite window as the
    impulse response sum, which needs no Gramian; at tau = inf from the
    tau = inf pair.

    ``bal``, when given, is the model's own balanced realization.  A
    time-limited one adds the exact expression thm31 and, with
    ``constants_method``, the Theorem-3.2 bound.  An infinite-horizon one
    gives the infinite-horizon error norm and its upper variant from the
    balanced blocks.  Otherwise that norm is the trace form from the
    tau = inf pair: the output bound itself at tau = inf, and at a finite
    window only when both the system and the model are stable.
    """
    tau = check_horizon(tau)
    rsys = rom.system
    rho = rom.spectral_radius()
    balanced_inf = bal is not None and math.isinf(bal.horizon)
    uses_pair = math.isinf(tau) or (
        not balanced_inf and rho < 1.0 and sys.spectral_radius() < 1.0)
    reach = obs = None
    if uses_pair and pair is not None:
        reach, obs = pair(math.inf)   # unguarded: a failing solve fails the report
    prop23 = bound_output_tl(sys, rsys, tau, reach, obs)

    inf, inf_error = (prop23 if math.isinf(tau) else None), None
    try:
        if balanced_inf:
            inf = error_expr_tlbt(bal, rom.r)
        elif uses_pair and inf is None:
            inf = bound_output_tl(sys, rsys, math.inf, reach, obs)
    except SolvabilityError as exc:
        inf_error = str(exc)

    thm31 = thm32 = constants = None
    if bal is not None and not balanced_inf:
        thm31 = error_expr_tlbt(bal, rom.r)
        if constants_method:
            constants = (asymptotic_constants(bal.a, constants_method),
                         asymptotic_constants(bal.partition(rom.r).A11, constants_method))
            thm32 = _theorem32(bal, rom.r, tau, constants, thm31.c_solves)
    return BoundReport(method=rom.method, tau=tau, r=rom.r, rom_spectral_radius=rho,
                       hsv_tail=rom.hsv_tail(), prop23=prop23, inf_horizon=inf,
                       inf_horizon_error=inf_error, thm31=thm31, thm32=thm32, constants=constants)
