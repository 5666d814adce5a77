"""Square-root balancing of a Gramian pair at its numerical rank, balanced
truncation as the leading block of that realization, adaptive order
selection, and the time-limited stability certificate.

Generalized systems are balanced through their standard form: the factor
product is weighted by the mass matrix and the resulting reduced model has
an identity mass matrix by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense_stein import psd_factor
from .exceptions import BalancingError, DimensionMismatchError
from .system import DiscreteLTISystem, check_horizon, write_system

_KERNEL_TOL = 1e-12
_VERIFY_TOL = 1e-8   # relative diagonalization error balance accepts


@dataclass(frozen=True)
class HankelSpectrum:
    """Nonincreasing (time-limited) Hankel singular values."""
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or (v.size > 1 and np.any(np.diff(v) > 1e-12 * max(v[0], 1.0))):
            raise BalancingError("Hankel singular values must be a nonincreasing vector")
        if v.size and v[-1] < -1e-12 * max(v[0], 1.0):
            raise BalancingError("Hankel singular values must be nonnegative")

    def tail_sum(self, r: int) -> float:
        """2 * sum of the singular values beyond index r."""
        return 2.0 * float(np.sum(self.values[r:]))


def adaptive_order(spectrum: HankelSpectrum, hsv_tol: float) -> int:
    """Smallest r with twice the neglected singular-value sum below hsv_tol."""
    for r in range(len(spectrum.values) + 1):
        if spectrum.tail_sum(r) <= hsv_tol:
            return max(r, 1)
    return len(spectrum.values)


@dataclass
class BalancedPartition:
    """Named blocks of a balanced realization split at order r."""
    A11: np.ndarray
    A12: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    F1: np.ndarray | None
    G1: np.ndarray | None


@dataclass
class BalancedRealization:
    """Balanced standard-form realization of the numerically nonzero Hankel
    singular values of a Gramian pair, with its projectors.

    ``a``, ``b``, ``c`` are the balanced coefficient matrices of order k,
    ``hsv`` the full Hankel spectrum of the pair (``sigma``, its leading k
    values, are the kept ones), ``transform`` (k x n) and ``transform_inv``
    (n x k) the projectors, and ``tl_b``/``tl_c`` the horizon terms A^tau B
    and C A^tau of the original system in the balanced coordinates: None at
    infinite horizon, and for a pair given as raw factors, which carry none.
    """
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    hsv: HankelSpectrum
    transform: np.ndarray
    transform_inv: np.ndarray
    horizon: float
    tl_b: np.ndarray | None
    tl_c: np.ndarray | None

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def sigma(self) -> np.ndarray:
        return self.hsv.values[:self.order]

    def require_horizon_terms(self, what: str) -> None:
        """Raise ValueError unless this realization is time-limited with its horizon terms."""
        if math.isinf(self.horizon) or self.tl_b is None:
            raise ValueError(f"{what} needs a time-limited balanced realization with its "
                             f"horizon terms (raw factors carry none), got tau={self.horizon:g}")

    def dual(self) -> "BalancedRealization":
        """Adjoint realization (a^T, c^T, b^T): the same spectrum, the projectors
        and the horizon terms swapped and transposed.  Its C-side quantities
        are the B-side quantities of this realization."""
        def t(X):
            return None if X is None else X.T.copy()
        return BalancedRealization(
            a=t(self.a), b=t(self.c), c=t(self.b), hsv=self.hsv,
            transform=t(self.transform_inv), transform_inv=t(self.transform),
            horizon=self.horizon, tl_b=t(self.tl_c), tl_c=t(self.tl_b))

    def partition(self, r: int) -> BalancedPartition:
        n = self.order
        if not 0 < r <= n:
            raise ValueError(f"partition order r={r} out of range 1..{n}")
        return BalancedPartition(
            A11=self.a[:r, :r], A12=self.a[:r, r:], B1=self.b[:r],
            C1=self.c[:, :r], C2=self.c[:, r:],
            sigma1=self.sigma[:r], sigma2=self.sigma[r:],
            F1=None if self.tl_b is None else self.tl_b[:r],
            G1=None if self.tl_c is None else self.tl_c[:, :r],
        )

    def reduced_system(self, r: int, meta: dict | None = None) -> DiscreteLTISystem:
        part = self.partition(r)
        return DiscreteLTISystem(part.A11.copy(), part.B1.copy(), part.C1.copy(), meta=meta)

    def model(self, r: int, sys: DiscreteLTISystem, method: str | None = None) -> ReducedOrderModel:
        """The order-r balanced truncation of ``sys``, the system this
        realization balances: the leading r x r block and the leading r
        columns of the projectors, copied so that the order-k arrays can be
        freed."""
        if not 0 < r <= self.order:
            raise BalancingError(f"requested order {r} exceeds the numerical rank "
                                 f"{self.order} of the factor product")
        meta = {"kind": "reduced", "seed": sys.meta.get("seed"),
                "generator-version": sys.meta.get("generator-version")}
        return ReducedOrderModel(
            system=self.reduced_system(r, meta), projector_v=self.transform_inv[:, :r].copy(),
            projector_w=self.transform[:r].T.copy(), hsv=self.hsv, r=r, horizon=self.horizon,
            method=method or ("bt" if math.isinf(self.horizon) else "tlbt"))


@dataclass
class ReducedOrderModel:
    """Projected model plus the data needed to audit it.

    ``projector_v``/``projector_w`` satisfy W^T V = I_r; for generalized
    originals W absorbs the mass matrix so that the reduced model is in
    standard form.
    """
    system: DiscreteLTISystem
    projector_v: np.ndarray
    projector_w: np.ndarray
    hsv: HankelSpectrum
    r: int
    horizon: float
    method: str

    def hsv_tail(self) -> float:
        return self.hsv.tail_sum(self.r)

    def spectral_radius(self) -> float:
        return self.system.spectral_radius()


def _gramian_side(obj):
    """The factor Z, the congruence X -> X P X^T and the horizon term of a
    Gramian P (anything with ``factor()``), or of P = Z Z^T for a raw factor
    Z, which has no horizon term."""
    if hasattr(obj, "factor"):
        return obj.factor(), obj.congruence, obj.tl_term
    Z = np.asarray(obj, dtype=float)
    if Z.ndim != 2:
        raise DimensionMismatchError("Gramian factor must be a matrix")

    def congruence(X):
        XZ = X @ Z
        return XZ @ XZ.T
    return Z, congruence, None


def _fix_svd_signs(U: np.ndarray, V: np.ndarray):
    """Deterministic sign convention: first significant entry of each left
    singular vector positive."""
    for j in range(U.shape[1]):
        col = U[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))[0]
        if nz.size and col[nz[0]] < 0:
            U[:, j] = -col
            V[:, j] = -V[:, j]
    return U, V


def balance(sys: DiscreteLTISystem, reach, obs, tau=math.inf) -> BalancedRealization:
    """Square-root balanced realization of the Gramian pair (``reach``,
    ``obs``) at its numerical rank k.

    The Hankel spectrum is the singular-value set of ZQ^T M ZP (M absent
    means identity), taken once; every singular value above the kernel
    threshold is kept, so a non-minimal pair (P_tau has rank at most tau*m)
    is balanced at rank k (Tombs & Postlethwaite, Int. J. Control 46 (1987)).
    ``reach`` and ``obs`` are Gramians or their raw factors.  Both
    diagonalization identities T P T^T = Sigma and (M T^-1)^T Q (M T^-1) =
    Sigma are checked against each Gramian as stored, at O(n k^2) for a
    factored one.  At a finite ``tau`` the horizon terms are the Gramians'
    ``tl_term`` A^tau B and C A^tau in the balanced coordinates; raw factors
    give none.  Nothing here is dense in n, so no dense cap applies.
    """
    horizon = check_horizon(tau)
    ZP, reach_congruence, F = _gramian_side(reach)
    ZQ, obs_congruence, G = _gramian_side(obs)
    if ZP.shape[0] != sys.n or ZQ.shape[0] != sys.n:
        raise DimensionMismatchError("factors must have n rows")
    if ZP.shape[1] == 0 or ZQ.shape[1] == 0:
        raise BalancingError("zero Gramian factor")

    U, svals, Vt = np.linalg.svd(ZQ.T @ sys.apply_mass(ZP), full_matrices=False)
    U, V = _fix_svd_signs(U, Vt.T)
    k = int(np.sum(svals > _KERNEL_TOL * max(svals[0], 1e-300)))
    if k == 0:
        raise BalancingError("zero Gramian factor product")

    # each n-row array is dropped once used, so that at most three are live
    scale = svals[:k] ** -0.5
    Tinv = ZP @ (V[:, :k] * scale)
    del ZP
    Wgen = ZQ @ (U[:, :k] * scale)
    del ZQ
    a, b = Wgen.T @ (sys.A @ Tinv), Wgen.T @ sys.B
    T = sys.apply_mass(Wgen, trans=True).T
    del Wgen
    Sig = np.diag(svals[:k])
    err_p = np.linalg.norm(reach_congruence(T) - Sig, 2) / svals[0]
    err_q = np.linalg.norm(obs_congruence(sys.apply_mass(Tinv).T) - Sig, 2) / svals[0]
    if max(err_p, err_q) > _VERIFY_TOL:
        raise BalancingError(
            f"balancing verification failed: diagonalization errors {err_p:.2e}, {err_q:.2e}")

    tl_b = tl_c = None
    if not math.isinf(horizon) and F is not None and G is not None:
        tl_b = T @ F
        # C A^tau = (G^T M) T^-1 in the standard form, G^T M row-major as a dense
        # product is: thm31's cancelling horizon residual shows this rounding
        tl_c = np.ascontiguousarray(sys.apply_mass(G, trans=True).T) @ Tinv
    return BalancedRealization(a=a, b=b, c=sys.C @ Tinv, hsv=HankelSpectrum(svals),
                               transform=T, transform_inv=Tinv, horizon=horizon,
                               tl_b=tl_b, tl_c=tl_c)


def square_root_truncate(ZP, ZQ, sys: DiscreteLTISystem, tau,
                         order: int | None = None,
                         hsv_tol: float | None = None,
                         method: str | None = None) -> tuple[ReducedOrderModel, HankelSpectrum]:
    """Square-root balanced truncation from Gramians or their factors: the
    leading block of :func:`balance`.

    The reduced order is either fixed or the smallest r whose doubled
    neglected-HSV sum is below hsv_tol, at most the numerical rank.
    """
    if (order is None) == (hsv_tol is None):
        raise ValueError("exactly one of order / hsv_tol must be given")
    bal = balance(sys, ZP, ZQ, tau)
    r = int(order) if order is not None else min(adaptive_order(bal.hsv, hsv_tol), bal.order)
    return bal.model(r, sys, method), bal.hsv


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the time-limited stability certificate.

    ``holds`` is sufficient, not necessary: a False verdict says nothing.
    ``consistent`` cross-checks that a True verdict indeed comes with a
    stable reduced block.
    """
    holds: bool
    q_min_eigenvalue: float
    reach_rank: int
    spectral_radius: float
    consistent: bool


def stability_certificate(bal: BalancedRealization, r: int,
                          psd_tol: float = 1e-10,
                          rank_tol: float = 1e-10) -> CertificateResult:
    """Sufficient stability test for the time-limited reduced model.

    Checks that Q = A12 Sigma2 A12^T + B1 B1^T - F1 F1^T is PSD (within
    psd_tol relative) and that the pair (A11, Q) is controllable via the
    numerical rank of the reachability matrix of (A11, Q^(1/2)).
    """
    bal.require_horizon_terms("the certificate")
    part = bal.partition(r)
    Qc = (part.A12 * part.sigma2) @ part.A12.T + part.B1 @ part.B1.T - part.F1 @ part.F1.T
    Qc = 0.5 * (Qc + Qc.T)
    lam = np.linalg.eigvalsh(Qc)
    lmin = float(lam[0])
    lscale = max(float(np.abs(lam).max(initial=0.0)), 1e-300)
    psd_ok = lmin >= -psd_tol * lscale

    # reachability matrix of (A11, Q^{1/2}); full numerical rank means the
    # pair is controllable
    Xsq = psd_factor(Qc)
    blocks = []
    K = Xsq
    for _ in range(r):
        blocks.append(K)
        K = part.A11 @ K
    reach = np.hstack(blocks) if blocks else np.zeros((r, 0))
    if reach.size:
        svals = np.linalg.svd(reach, compute_uv=False)
        rank = int(np.sum(svals > rank_tol * max(svals[0], 1e-300)))
    else:
        rank = 0
    ctrb_ok = rank == r

    rho = float(np.max(np.abs(np.linalg.eigvals(part.A11)))) if r else 0.0
    holds = bool(psd_ok and ctrb_ok)
    return CertificateResult(
        holds=holds, q_min_eigenvalue=lmin, reach_rank=rank, spectral_radius=rho,
        consistent=(not holds) or rho < 1.0)


def export_rom(rom: ReducedOrderModel, path) -> None:
    """Write a reduced model in the shared system format with a provenance
    block recording how it was produced."""
    write_system(rom.system, path, extra_manifest={
        "provenance": {
            "method": rom.method,
            "tau": None if math.isinf(rom.horizon) else int(rom.horizon),
            "r": rom.r,
            "hsv-tail": rom.hsv_tail(),
            "spectral-radius": rom.spectral_radius(),
        }
    })
