"""Discrete-time LTI systems: model type, simulation, generated test systems, I/O.

A system is ``M x(k+1) = A x(k) + B u(k)``, ``y(k) = C x(k)`` with ``x(0) = 0``
and nonsingular mass matrix ``M`` (identity when absent).  All computations
reduce the generalized form to the standard one implicitly through a cached
factorization of ``M``, and every pencil solve goes through :func:`factorize`;
``M`` is never inverted densely unless the caller asks for an explicit
standard-form conversion.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import scipy.io
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .config import check_dense_cap
from .exceptions import (
    DimensionMismatchError,
    EstimationError,
    SingularMassMatrixError,
    SystemIOError,
)

GENERATOR_VERSION = "numpy-pcg64/1"

_EXAMPLE_KINDS = ("jacobi", "gauss-seidel", "random-stable", "laplacian-grid")


def check_horizon(tau, name: str = "tau") -> float:
    """The horizon of a solve request as a float: a whole number of steps
    >= 1, or ``math.inf``; anything else raises ValueError, whose message
    calls the value ``name``."""
    t = float(tau)
    if not (t == math.inf or (t >= 1 and t.is_integer())):
        raise ValueError(f"{name} must be a whole number >= 1 or inf, got {t:g}")
    return t


def _as_dense_2d(name: str, mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be a matrix, got ndim={arr.ndim}")
    return arr


class DiscreteLTISystem:
    """State-space model with coefficient matrices A (n x n), B (n x m),
    C (p x n) and optional mass matrix M (n x n, nonsingular).

    A and M may be scipy sparse matrices or dense arrays; B and C are dense.
    Instances are immutable after construction and safe to share read-only;
    the spectral radius and the factors of the unit pencils A - M and A + M are
    computed on first use and kept privately, each in one memo shared with
    the adjoints built by :meth:`dual`.
    """

    def __init__(self, A, B, C, M=None, meta: dict | None = None):
        self.A = A.tocsr() if sp.issparse(A) else _as_dense_2d("A", A)
        self.B = _as_dense_2d("B", B)
        self.C = _as_dense_2d("C", C)
        self.M = M.tocsr() if sp.issparse(M) else (None if M is None else _as_dense_2d("M", M))
        self.meta = dict(meta) if meta else {}

        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionMismatchError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise DimensionMismatchError(
                f"B has {self.B.shape[0]} rows, expected n={n}")
        if self.C.shape[1] != n:
            raise DimensionMismatchError(
                f"C has {self.C.shape[1]} columns, expected n={n}")
        if self.M is not None and self.M.shape != (n, n):
            raise DimensionMismatchError(f"M must be {n}x{n}, got {self.M.shape}")
        self.n = n
        self.m = self.B.shape[1]
        self.p = self.C.shape[0]
        self._mass_solve = None
        self._rho = [None]  # one memo cell, shared with every adjoint
        # the unit-pencil memo, shared with every adjoint: beta = +-1 -> the
        # factor of A - beta M, the pencil of the system that made the memo,
        # and whether this system is that one's adjoint
        self._units = ({}, (self.A, self.M), False)
        if self.M is not None:
            try:
                self._mass_solve = factorize(self.M)
            except np.linalg.LinAlgError as exc:
                raise SingularMassMatrixError(f"M is numerically singular: {exc}") from exc
            cond = _condition_estimate(self.M, self._mass_solve)
            if not cond <= 1e14:
                raise SingularMassMatrixError(
                    f"M is numerically singular: 1-norm condition estimate {cond:.1e}")

    @property
    def is_generalized(self) -> bool:
        return self.M is not None

    def mass_solve(self, X: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solve M Z = X, or M^T Z = X with ``trans``, for Z through the one
        factor of M (identity passthrough when M is absent)."""
        if self._mass_solve is None:
            return X
        return self._mass_solve(X, trans=trans)

    def apply_mass(self, X: np.ndarray, trans: bool = False) -> np.ndarray:
        """M X, or M^T X with ``trans`` (X itself when M is absent)."""
        if self.M is None:
            return X
        return (self.M.T if trans else self.M) @ X

    def apply_dynamics(self, X: np.ndarray, trans: bool = False) -> np.ndarray:
        """Apply the standard-form state map M^{-1} A, or with ``trans`` its
        transpose A^T M^{-T}, to the columns of X."""
        if trans:
            return self.A.T @ self.mass_solve(X, trans=True)
        return self.mass_solve(self.A @ X)

    def pencil_solver(self, alpha, beta):
        """Solve closure b -> (alpha A - beta M)^{-1} M b = (alpha M^{-1}A - beta I)^{-1} b
        (M = I when absent) from one :func:`factorize` of the pencil; raises
        ``np.linalg.LinAlgError`` if the pencil is exactly singular.  Without
        M the solve of that factor is the closure itself.

        The unit pencils A - M and A + M (alpha = 1, beta = +-1, the poles of
        every +-1 walk) are factored once for a system and all its adjoints:
        the memo always factors the pencil of the system that made it, and an
        adjoint solves through that factor's transpose, so a solve's bits do
        not depend on which side asked first.  Every other pencil is factored
        per call."""
        if alpha == 1 and beta in (1, -1):
            memo, (A, M), adjoint = self._units
            if beta not in memo:
                memo[beta] = factorize(_pencil(A, M, 1.0, beta))
            solve = memo[beta]
            if adjoint:
                solve = partial(solve, trans=True)
        else:
            solve = factorize(_pencil(self.A, self.M, alpha, beta))
        if self.M is None:
            return solve
        return lambda b: solve(self.apply_mass(b))

    def input_map(self) -> np.ndarray:
        """Standard-form input matrix M^{-1} B."""
        return self.mass_solve(self.B)

    def dual(self) -> "DiscreteLTISystem":
        """Adjoint system (A^T, C^T, B^T, M^T).

        Its reachability-side quantities are the observability-side
        quantities of the original system.  It solves with M^T through the
        transpose of this system's one LU of M, and shares its spectral-radius
        and unit-pencil memos, so whichever of the two is asked first computes
        them for both.
        """
        AT = self.A.T.tocsr() if sp.issparse(self.A) else self.A.T.copy()
        adj = DiscreteLTISystem(AT, self.C.T.copy(), self.B.T.copy())
        if self.M is not None:
            adj.M = self.M.T.tocsr() if sp.issparse(self.M) else self.M.T.copy()
            solve = self._mass_solve
            adj._mass_solve = lambda X, trans=False: solve(X, trans=not trans)
        adj._rho = self._rho  # same spectrum
        memo, pencil, adjoint = self._units
        adj._units = (memo, pencil, not adjoint)   # the transposed unit pencils
        return adj

    def side(self, name: str) -> "DiscreteLTISystem":
        """The system whose reachability quantities are this system's ``name``
        side: itself for 'reach', the adjoint :meth:`dual` for 'obs'."""
        if name == "reach":
            return self
        if name == "obs":
            return self.dual()
        raise ValueError(f"side must be 'reach' or 'obs', got {name!r}")

    def dense_dynamics(self) -> np.ndarray:
        """Dense standard-form state matrix M^{-1} A."""
        return self.mass_solve(np.asarray(dense_array(self.A), dtype=float))

    def to_standard(self) -> "DiscreteLTISystem":
        """Explicit dense standard form (M eliminated)."""
        if not self.is_generalized:
            return self
        return DiscreteLTISystem(
            self.dense_dynamics(), self.input_map(), self.C.copy(), meta=self.meta)

    def spectral_radius(self) -> float:
        """Spectral radius of the (M, A) pencil, computed once per system and
        its adjoints.

        Sparse A (n >= 3): ARPACK on M^{-1}A applied through
        :meth:`apply_dynamics`, from a fixed start vector so that reruns
        agree bit for bit; non-convergence raises :class:`EstimationError`.
        Dense A: dense eigensolve, guarded by the dense cap.
        """
        if self._rho[0] is None:
            if sp.issparse(self.A) and self.n >= 3:
                self._rho[0] = self._arpack_radius()
            else:
                check_dense_cap(self.n, "dense spectral radius")
                self._rho[0] = float(np.max(np.abs(np.linalg.eigvals(self.dense_dynamics()))))
        return self._rho[0]

    def _arpack_radius(self) -> float:
        op = spla.LinearOperator((self.n, self.n), matvec=self.apply_dynamics,
                                 dtype=float)
        v0 = np.random.default_rng(0).standard_normal(self.n)
        try:
            vals = spla.eigs(op, k=1, which="LM", tol=0, v0=v0,
                             return_eigenvectors=False)
        except spla.ArpackNoConvergence as exc:
            raise EstimationError(
                f"ARPACK did not converge to the spectral radius (n={self.n})") from exc
        return float(np.abs(vals[0]))

    def __repr__(self) -> str:
        tag = "generalized " if self.is_generalized else ""
        return f"DiscreteLTISystem({tag}n={self.n}, m={self.m}, p={self.p})"


def _pencil(A, M, alpha, beta):
    """alpha A - beta M in A's storage, M = I when absent."""
    if M is None:
        M = sp.identity(A.shape[0], format="csr") if sp.issparse(A) else np.eye(A.shape[0])
    return alpha * A - beta * M


def dense_array(mat) -> np.ndarray:
    """A sparse or dense matrix as a dense array."""
    return mat.toarray() if sp.issparse(mat) else np.asarray(mat)


def _triangles(csc) -> tuple[bool, bool]:
    """Whether the sparse matrix has no entry above, and whether it has none
    below, its diagonal."""
    cols = np.repeat(np.arange(csc.shape[1]), np.diff(csc.indptr))
    return bool((csc.indices >= cols).all()), bool((csc.indices <= cols).all())


def factorize(mat):
    """Solve closure (X, trans=False) -> mat^{-1} X, or mat^{-T} X with ``trans``,
    from one LU of a sparse (SuperLU) or dense (LAPACK), real or complex matrix;
    a complex X against a real sparse factor is solved as its real and
    imaginary parts.  An exactly zero pivot raises ``np.linalg.LinAlgError``.

    A sparse matrix is ordered for fill.  A triangular one (the Jacobi and
    Gauss-Seidel M) keeps its natural order, in which it factors with no
    fill at all.  Any other is ordered by minimum degree on A^T + A: the
    pencils of the grid systems have a symmetric pattern, on which that
    order gives about 0.6 times the factor entries of SuperLU's default
    COLAMD, which orders A^T A, and solves about twice as fast.  A real
    diagonal one (the Jacobi M) is factored for SuperLU's pivot check only:
    it solves by dividing by its diagonal, which is what SuperLU's solve
    computes, bit for bit, at a quarter of its cost plain and an eighth
    transposed, where SuperLU solves column by column.
    """
    dtype = complex if mat.dtype.kind == "c" else float
    if sp.issparse(mat):
        csc = mat.tocsc()
        lower, upper = _triangles(csc)
        order = "NATURAL" if lower or upper else "MMD_AT_PLUS_A"
        try:  # SuperLU rejects an exactly zero pivot itself
            lu = spla.splu(csc, permc_spec=order)
        except RuntimeError as exc:
            raise np.linalg.LinAlgError(f"sparse LU failed: {exc}") from exc

        if lower and upper and dtype is float:
            diagonal = csc.diagonal()

            def solve(X, trans=False):   # a diagonal is its own transpose
                X = np.asarray(X)
                if np.iscomplexobj(X):
                    return solve(X.real) + 1j * solve(X.imag)
                # Fortran order, as SuperLU returns it
                return np.divide(X, diagonal.reshape((-1,) + (1,) * (X.ndim - 1)),
                                 out=np.empty(X.shape, order="F"))
            return solve

        def solve(X, trans=False):
            X = np.asarray(X)
            t = "T" if trans else "N"
            if np.iscomplexobj(X) and dtype is float:
                return lu.solve(X.real, trans=t) + 1j * lu.solve(X.imag, trans=t)
            return lu.solve(np.asarray(X, dtype=dtype), trans=t)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zero pivots are detected below
            lu, piv = sla.lu_factor(mat)
        if lu.size == 0 or not np.diag(lu).all():
            raise np.linalg.LinAlgError("matrix is numerically singular")

        def solve(X, trans=False):
            X = np.asarray(X)
            return sla.lu_solve((lu, piv), X if np.iscomplexobj(X) else X.astype(dtype),
                                trans=int(trans))
    return solve


def _condition_estimate(mat, solve) -> float:
    """1-norm condition number of a real matrix: ||mat||_1 times the
    Hager-Higham estimate of ||mat^{-1}||_1 from the solves of its factor
    (one block column, as LAPACK's gecon), whatever its storage or pivot order."""
    inv = spla.LinearOperator(mat.shape, matvec=solve, dtype=float,
                              rmatvec=lambda x: solve(x, trans=True))
    return float(abs(mat).sum(axis=0).max()) * spla.onenormest(inv, t=1)


def build_system(A, B, C, M=None) -> DiscreteLTISystem:
    """Validate coefficient matrices and assemble a system.

    Raises
    ------
    DimensionMismatchError
        if the shapes are inconsistent.
    SingularMassMatrixError
        if M is present but numerically singular.
    """
    return DiscreteLTISystem(A, B, C, M)


@dataclass(frozen=True)
class SimulationTrace:
    """Input and output sequences over k = 0..horizon."""
    inputs: np.ndarray   # (horizon+1, m)
    outputs: np.ndarray  # (horizon+1, p)
    horizon: int

    def __post_init__(self):
        if len(self.inputs) != self.horizon + 1 or len(self.outputs) != self.horizon + 1:
            raise DimensionMismatchError("trace length must equal horizon + 1")


def impulse_sequence(sys: DiscreteLTISystem, horizon: int) -> np.ndarray:
    """Stack h(0), ..., h(horizon) into an array of shape (horizon+1, p, m):
    h(0) = 0 and h(k) = C (M^{-1}A)^{k-1} M^{-1}B for k >= 1."""
    out = np.zeros((horizon + 1, sys.p, sys.m))
    if horizon == 0:
        return out
    X = sys.input_map()
    for k in range(1, horizon + 1):
        out[k] = sys.C @ X
        if k < horizon:
            X = sys.apply_dynamics(X)
    return out


def simulate(sys: DiscreteLTISystem, u, horizon: int | None = None) -> SimulationTrace:
    """Run the state recursion from x(0) = 0 under the input sequence u.

    u is an array of shape (K+1, m) (a 1-D array is accepted for m = 1).
    One sparse solve with M is performed per step for generalized systems.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if horizon is None:
        horizon = len(u) - 1
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if u.shape != (horizon + 1, sys.m):
        raise DimensionMismatchError(
            f"input sequence must have shape ({horizon + 1}, {sys.m}), got {u.shape}")
    y = np.zeros((horizon + 1, sys.p))
    x = np.zeros(sys.n)
    for k in range(horizon + 1):
        y[k] = sys.C @ x
        if k < horizon:
            x = sys.mass_solve(sys.A @ x + sys.B @ u[k])
    return SimulationTrace(inputs=u.copy(), outputs=y, horizon=horizon)


@dataclass(frozen=True)
class ExampleSpec:
    """Recipe for a generated test system.

    kind is one of 'jacobi', 'gauss-seidel', 'random-stable',
    'laplacian-grid'; size is the grid width N for grid kinds (n = N^2)
    and the state order for 'random-stable'.
    """
    kind: str
    size: int
    inputs: int = 1
    outputs: int = 1
    seed: int = 0
    target_radius: float = 0.95


def _grid_laplacian(N: int) -> sp.csr_matrix:
    """5-point finite-difference Laplacian on the interior of an (N+2)^2 grid."""
    T = sp.diags([-np.ones(N - 1), 2.0 * np.ones(N), -np.ones(N - 1)], (-1, 0, 1))
    eye = sp.identity(N)
    return (sp.kron(eye, T) + sp.kron(T, eye)).tocsr()


def generate_example(spec: ExampleSpec) -> DiscreteLTISystem:
    """Build one of the named test systems, deterministically from the seed.

    Splitting-iteration kinds use S = L + U + D for the square-grid
    Laplacian: 'jacobi' takes A = L + U, M = D and 'gauss-seidel' takes the
    strictly-triangular/triangular split.  Input and output maps are drawn
    i.i.d. uniform on [0, 1) from a PCG64 stream (B first, then C).
    """
    if spec.kind not in _EXAMPLE_KINDS:
        raise ValueError(f"unknown example kind {spec.kind!r}; expected one of {_EXAMPLE_KINDS}")
    if spec.inputs < 1 or spec.outputs < 1:
        raise ValueError("inputs and outputs must be positive")
    if spec.kind == "random-stable":
        if spec.size < 1:
            raise ValueError("random-stable order must be >= 1")
    elif spec.size < 2:
        raise ValueError(f"{spec.kind} grid size must be >= 2")

    rng = np.random.default_rng(spec.seed)
    meta = {
        "kind": spec.kind,
        "seed": spec.seed,
        "generator-version": GENERATOR_VERSION,
    }

    if spec.kind == "random-stable":
        n = spec.size
        raw = rng.standard_normal((n, n))
        rho = float(np.max(np.abs(np.linalg.eigvals(raw)))) if n > 1 else abs(raw[0, 0])
        A = raw if rho == 0.0 else raw * (spec.target_radius / rho)
        B = rng.random((n, spec.inputs))
        C = rng.random((spec.outputs, n))
        return DiscreteLTISystem(A, B, C, meta=meta)

    N = spec.size
    S = _grid_laplacian(N)
    n = N * N
    B = rng.random((n, spec.inputs))
    C = rng.random((spec.outputs, n))
    if spec.kind == "jacobi":
        D = sp.diags(S.diagonal())
        A = (S - D).tocsr()
        return DiscreteLTISystem(A, B, C, D.tocsr(), meta=meta)
    if spec.kind == "gauss-seidel":
        A = sp.triu(S, k=1).tocsr()
        M = sp.tril(S, k=0).tocsr()
        return DiscreteLTISystem(A, B, C, M, meta=meta)
    # laplacian-grid: damped explicit diffusion step, standard form
    A = (sp.identity(n) - S / 4.0).tocsr()
    return DiscreteLTISystem(A, B, C, meta=meta)


_MANIFEST_NAME = "manifest.json"
_MATRIX_FILES = {"A": "A.mtx", "B": "B.mtx", "C": "C.mtx", "M": "M.mtx"}


def write_system(sys: DiscreteLTISystem, path, extra_manifest: dict | None = None) -> None:
    """Serialize a system to a directory of Matrix Market files plus manifest."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
        scipy.io.mmwrite(path / _MATRIX_FILES["A"], sys.A, precision=17)
        scipy.io.mmwrite(path / _MATRIX_FILES["B"], sys.B, precision=17)
        scipy.io.mmwrite(path / _MATRIX_FILES["C"], sys.C, precision=17)
        if sys.M is not None:
            scipy.io.mmwrite(path / _MATRIX_FILES["M"], sys.M, precision=17)
        manifest = {
            "format": "dtmor-system",
            "version": 1,
            "n": sys.n,
            "m": sys.m,
            "p": sys.p,
            "generalized": sys.is_generalized,
            "kind": sys.meta.get("kind"),
            "seed": sys.meta.get("seed"),
            "generator-version": sys.meta.get("generator-version"),
        }
        if extra_manifest:
            manifest.update(extra_manifest)
        with open(path / _MANIFEST_NAME, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise SystemIOError(f"failed to write system to {path}: {exc}") from exc


def _read_matrix(path: Path):
    try:
        mat = scipy.io.mmread(path)
    except OSError as exc:
        raise SystemIOError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise SystemIOError(f"malformed Matrix Market file {path}: {exc}") from exc
    if sp.issparse(mat):
        return mat.tocsr()
    return np.asarray(mat, dtype=float)


def read_system(path) -> DiscreteLTISystem:
    """Load a system written by :func:`write_system`, validating the manifest."""
    path = Path(path)
    mpath = path / _MANIFEST_NAME
    try:
        with open(mpath, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise SystemIOError(f"cannot read manifest {mpath}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemIOError(f"malformed manifest {mpath}: {exc}") from exc

    A = _read_matrix(path / _MATRIX_FILES["A"])
    B = _read_matrix(path / _MATRIX_FILES["B"])
    C = _read_matrix(path / _MATRIX_FILES["C"])
    B, C = dense_array(B), dense_array(C)
    M = None
    if (path / _MATRIX_FILES["M"]).exists() or manifest.get("generalized"):
        M = _read_matrix(path / _MATRIX_FILES["M"])

    n, m, p = manifest.get("n"), manifest.get("m"), manifest.get("p")
    if A.shape != (n, n) or B.shape != (n, m) or C.shape != (p, n):
        raise SystemIOError(
            f"manifest dimensions (n={n}, m={m}, p={p}) disagree with matrix shapes "
            f"A{A.shape}, B{B.shape}, C{C.shape}")
    meta = {k: manifest[k] for k in ("kind", "seed", "generator-version")
            if manifest.get(k) is not None}
    try:
        return DiscreteLTISystem(A, B, C, M, meta=meta)
    except DimensionMismatchError as exc:
        raise SystemIOError(str(exc)) from exc
