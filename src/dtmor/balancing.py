"""Square-root balanced truncation from Gramian factors, dense balancing
with the full transform, adaptive order selection, and the time-limited
stability certificate.

Generalized systems are balanced through their standard form: the factor
product is weighted by the mass matrix and the resulting reduced model has
an identity mass matrix by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import check_dense_cap
from .dense_stein import DenseGramianPair
from .exceptions import BalancingError, DimensionMismatchError
from .lowrank import GramianApprox
from .system import DiscreteLTISystem, write_system

_KERNEL_TOL = 1e-12


@dataclass(frozen=True)
class HankelSpectrum:
    """Nonincreasing (time-limited) Hankel singular values."""
    values: np.ndarray
    horizon: float

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
    r: int
    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    A22: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    F1: np.ndarray | None
    F2: np.ndarray | None
    G1: np.ndarray | None
    G2: np.ndarray | None


@dataclass
class BalancedRealization:
    """Fully balanced standard-form realization with its transform.

    ``a``, ``b``, ``c`` are the balanced coefficient matrices, ``sigma`` the
    Hankel singular values, and ``tl_b``/``tl_c`` the horizon terms
    A^tau B and C A^tau of the balanced system (None at infinite horizon).
    """
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma: np.ndarray
    transform: np.ndarray
    transform_inv: np.ndarray
    horizon: float
    tl_b: np.ndarray | None
    tl_c: np.ndarray | None

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def spectrum(self) -> HankelSpectrum:
        return HankelSpectrum(self.sigma.copy(), self.horizon)

    def partition(self, r: int) -> BalancedPartition:
        n = self.order
        if not 0 < r <= n:
            raise ValueError(f"partition order r={r} out of range 1..{n}")
        return BalancedPartition(
            r=r,
            A11=self.a[:r, :r], A12=self.a[:r, r:],
            A21=self.a[r:, :r], A22=self.a[r:, r:],
            B1=self.b[:r], B2=self.b[r:],
            C1=self.c[:, :r], C2=self.c[:, r:],
            sigma1=self.sigma[:r], sigma2=self.sigma[r:],
            F1=None if self.tl_b is None else self.tl_b[:r],
            F2=None if self.tl_b is None else self.tl_b[r:],
            G1=None if self.tl_c is None else self.tl_c[:, :r],
            G2=None if self.tl_c is None else self.tl_c[:, r:],
        )

    def reduced_system(self, r: int) -> DiscreteLTISystem:
        part = self.partition(r)
        return DiscreteLTISystem(part.A11.copy(), part.B1.copy(), part.C1.copy())


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


def _as_factor(obj) -> np.ndarray:
    """Accept a raw factor, a GramianApprox, or a DenseGramianPair."""
    if isinstance(obj, GramianApprox):
        return obj.factor()
    if isinstance(obj, DenseGramianPair):
        return psd_factor(obj.gramian)
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError("Gramian factor must be a matrix")
    return arr


def psd_factor(P: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Z with Z Z^T = P for symmetric PSD P, discarding negligible directions."""
    lam, U = np.linalg.eigh(0.5 * (P + P.T))
    lmax = float(lam.max(initial=0.0))
    keep = lam > tol * max(lmax, 1e-300)
    return U[:, keep] * np.sqrt(lam[keep])


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


def square_root_truncate(ZP, ZQ, sys: DiscreteLTISystem, tau,
                         order: int | None = None,
                         hsv_tol: float | None = None,
                         method: str | None = None) -> tuple[ReducedOrderModel, HankelSpectrum]:
    """Square-root balanced truncation from Gramian factors.

    The Hankel spectrum is the singular-value set of ZQ^T M ZP (M absent
    means identity); the reduced order is either fixed or the smallest r
    whose doubled neglected-HSV sum is below hsv_tol.
    """
    if (order is None) == (hsv_tol is None):
        raise ValueError("exactly one of order / hsv_tol must be given")
    ZP = _as_factor(ZP)
    ZQ = _as_factor(ZQ)
    if ZP.shape[0] != sys.n or ZQ.shape[0] != sys.n:
        raise DimensionMismatchError("factors must have n rows")
    if ZP.shape[1] == 0 or ZQ.shape[1] == 0:
        raise BalancingError("zero Gramian factor")

    MZP = ZP if sys.M is None else sys.M @ ZP
    U, svals, Vt = np.linalg.svd(ZQ.T @ MZP, full_matrices=False)
    V = Vt.T
    U, V = _fix_svd_signs(U, V)
    rank = int(np.sum(svals > _KERNEL_TOL * max(svals[0], 1e-300)))
    horizon = float(tau) if not math.isinf(tau) else math.inf
    spectrum = HankelSpectrum(svals.copy(), horizon)

    if order is not None:
        r = int(order)
        if not 0 < r <= rank:
            raise BalancingError(
                f"requested order {r} exceeds the numerical rank {rank} of the factor product")
    else:
        r = min(adaptive_order(spectrum, hsv_tol), rank)

    scale = svals[:r] ** -0.5
    Vproj = ZP @ (V[:, :r] * scale)
    Wgen = ZQ @ (U[:, :r] * scale)
    A, B, C = sys.A, sys.B, sys.C
    Ahat = Wgen.T @ (A @ Vproj)
    Bhat = Wgen.T @ B
    Chat = C @ Vproj
    Wleft = Wgen if sys.M is None else sys.M.T @ Wgen

    rom_sys = DiscreteLTISystem(Ahat, Bhat, Chat, meta={
        "kind": "reduced", "seed": sys.meta.get("seed"),
        "generator-version": sys.meta.get("generator-version")})
    tag = method or ("bt" if math.isinf(horizon) else "tlbt")
    rom = ReducedOrderModel(system=rom_sys, projector_v=Vproj, projector_w=Wleft,
                            hsv=spectrum, r=r, horizon=horizon, method=tag)
    return rom, spectrum


def balance_dense(sys: DiscreteLTISystem, P, Q, tau=math.inf,
                  verify_tol: float = 1e-8) -> BalancedRealization:
    """Compute the full balancing transform of a dense system from a pair of
    dense Gramians, verify both diagonalization identities, and attach the
    horizon terms of the balanced coordinates.

    P and Q must be symmetric positive definite up to the kernel-removal
    threshold; a singular product beyond it raises BalancingError.
    """
    check_dense_cap(sys.n, "dense balancing")
    std = sys.to_standard()
    Pm = P.gramian if isinstance(P, DenseGramianPair) else np.asarray(P, dtype=float)
    Qm = Q.gramian if isinstance(Q, DenseGramianPair) else np.asarray(Q, dtype=float)
    if sys.is_generalized:
        # the observability-side solution is mass-adjusted; undo for the
        # standard coordinates used here
        M = sys.M.toarray() if sp.issparse(sys.M) else sys.M
        Qm = M.T @ Qm @ M

    ZP = psd_factor(Pm)
    ZQ = psd_factor(Qm)
    U, svals, Vt = np.linalg.svd(ZQ.T @ ZP, full_matrices=False)
    V = Vt.T
    U, V = _fix_svd_signs(U, V)
    if svals.size < sys.n or svals[-1] <= _KERNEL_TOL * svals[0]:
        raise BalancingError(
            "Gramian product is numerically singular; remove unreachable/unobservable "
            "states before dense balancing")

    scale = svals ** -0.5
    T = (U * scale).T @ ZQ.T
    Tinv = ZP @ (V * scale)
    Ab = T @ std.A @ Tinv
    Bb = T @ std.B
    Cb = std.C @ Tinv
    Sig = np.diag(svals)

    err_p = np.linalg.norm(T @ Pm @ T.T - Sig, 2) / svals[0]
    err_q = np.linalg.norm(Tinv.T @ Qm @ Tinv - Sig, 2) / svals[0]
    if max(err_p, err_q) > verify_tol:
        raise BalancingError(
            f"balancing verification failed: diagonalization errors {err_p:.2e}, {err_q:.2e}")

    tl_b = tl_c = None
    if not math.isinf(tau):
        X = Bb.copy()
        for _ in range(int(tau)):
            X = Ab @ X
        tl_b = X
        Xc = Cb.copy()
        for _ in range(int(tau)):
            Xc = Xc @ Ab
        tl_c = Xc
    return BalancedRealization(a=Ab, b=Bb, c=Cb, sigma=svals, transform=T,
                               transform_inv=Tinv, horizon=float(tau) if not math.isinf(tau) else math.inf,
                               tl_b=tl_b, tl_c=tl_c)


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
    rank_required: int
    psd_tol: float
    rank_tol: float
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
    if bal.tl_b is None:
        raise ValueError("certificate needs a time-limited balanced realization")
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
        holds=holds, q_min_eigenvalue=lmin, reach_rank=rank, rank_required=r,
        psd_tol=psd_tol, rank_tol=rank_tol, spectral_radius=rho,
        consistent=(not holds) or rho < 1.0)


def export_rom(rom: ReducedOrderModel, path,
               certificate: CertificateResult | None = None) -> None:
    """Write a reduced model in the shared system format with a provenance
    block recording how it was produced (and, when available, the outcome
    of the stability certificate)."""
    cert_doc = None
    if certificate is not None:
        cert_doc = {
            "holds": certificate.holds,
            "q-min-eigenvalue": certificate.q_min_eigenvalue,
            "reach-rank": certificate.reach_rank,
            "spectral-radius": certificate.spectral_radius,
        }
    write_system(rom.system, path, extra_manifest={
        "provenance": {
            "method": rom.method,
            "tau": None if math.isinf(rom.horizon) else int(rom.horizon),
            "r": rom.r,
            "hsv-tail": rom.hsv_tail(),
            "spectral-radius": rom.spectral_radius(),
            "certificate": cert_doc,
        }
    })
