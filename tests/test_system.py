import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from conftest import random_stable_system
import dtmor.lowrank
import dtmor.system
from dtmor import (
    DenseCapError,
    DimensionMismatchError,
    DiscreteLTISystem,
    EstimationError,
    ExampleSpec,
    SingularMassMatrixError,
    SystemIOError,
    generate_example,
    impulse_sequence,
    read_system,
    simulate,
    write_system,
)
from dtmor.balancing import square_root_truncate
from dtmor.bounds import bound_output_tl, tl_h2_inner, tl_h2_norm
from dtmor.dense_stein import solve_cross_sylvester, tl_gramian_dense
from dtmor.lowrank import rksm, smith_arnoldi


class TestSpectralRadius:
    @pytest.mark.parametrize("kind", ["jacobi", "gauss-seidel", "laplacian-grid"])
    def test_arpack_matches_dense_eigvals(self, kind):
        s = generate_example(ExampleSpec(kind=kind, size=20, seed=1))
        dense = np.max(np.abs(np.linalg.eigvals(s.dense_dynamics())))
        assert s.spectral_radius() == pytest.approx(dense, rel=1e-12)

    def test_fresh_systems_agree_bitwise(self):
        spec = ExampleSpec(kind="gauss-seidel", size=15, seed=4)
        assert generate_example(spec).spectral_radius() == \
            generate_example(spec).spectral_radius()

    def test_memo_and_dual_reuse(self, monkeypatch):
        s = generate_example(ExampleSpec(kind="jacobi", size=10, seed=2))
        rho = s.spectral_radius()

        def fail(*args, **kwargs):
            raise AssertionError("spectral radius recomputed")
        monkeypatch.setattr(dtmor.system.spla, "eigs", fail)
        monkeypatch.setattr(dtmor.system.np.linalg, "eigvals", fail)
        assert s.spectral_radius() == rho
        assert s.dual().spectral_radius() == rho
        assert "_spectral_radius" not in s.meta

    @pytest.mark.parametrize("first", ["system", "adjoint"])
    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_one_eigensolve_per_adjoint_pair(self, monkeypatch, first, storage):
        # a system and its adjoint share one memo, whichever is asked first
        if storage == "sparse":
            s = generate_example(ExampleSpec(kind="jacobi", size=6, seed=2))
            owner, name = dtmor.system.DiscreteLTISystem, "_arpack_radius"
        else:
            s = random_stable_system(4, 8, radius=0.7)
            owner, name = dtmor.system.np.linalg, "eigvals"
        calls = []
        solve = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
        adj = s.dual()
        asked = (s, adj) if first == "system" else (adj, s)
        radii = [sys_.spectral_radius() for sys_ in (*asked, adj.dual())]
        assert len(calls) == 1
        assert radii[0] == radii[1] == radii[2]

    def test_arpack_failure_raises(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise dtmor.system.spla.ArpackNoConvergence("no convergence", [], [])
        monkeypatch.setattr(dtmor.system.spla, "eigs", no_convergence)
        s = generate_example(ExampleSpec(kind="jacobi", size=5, seed=2))
        with pytest.raises(EstimationError):
            s.spectral_radius()

    def test_dense_matrix_respects_cap(self, monkeypatch):
        monkeypatch.setenv("DTMOR_DENSE_CAP", "10")
        with pytest.raises(DenseCapError):
            random_stable_system(3, 12).spectral_radius()
        sparse = generate_example(ExampleSpec(kind="jacobi", size=5, seed=2))
        assert sparse.spectral_radius() == pytest.approx(np.cos(np.pi / 6), rel=1e-12)


class TestBuildSystem:
    def test_scalar_construction(self):
        s = DiscreteLTISystem([[0.5]], [[1.0]], [[1.0]])
        assert (s.n, s.m, s.p) == (1, 1, 1)
        assert not s.is_generalized

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteLTISystem(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))

    def test_generalized_diagonal_mass(self):
        s = DiscreteLTISystem(np.eye(2), [[1.0], [1.0]], [[1.0, 0.0]], M=2 * np.eye(2))
        assert (s.n, s.m, s.p) == (2, 1, 1)
        assert s.is_generalized

    def test_singular_mass_rejected(self):
        with pytest.raises(SingularMassMatrixError):
            DiscreteLTISystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                               M=np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_singular_sparse_mass_rejected(self):
        M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMassMatrixError):
            DiscreteLTISystem(sp.identity(2, format="csr"), np.ones((2, 1)), np.ones((1, 2)), M=M)

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_numerically_singular_mass_rejected(self, storage):
        # no pivot is exactly zero: the relative pivot rule rejects 1e-17
        with pytest.raises(SingularMassMatrixError, match="numerically singular"):
            DiscreteLTISystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                               M=storage(np.diag([1.0, 1e-17])))


    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    @pytest.mark.parametrize("M", [
        np.array([[1e-9, 1.0], [1.1e-17, 1e-9]]),
        np.array([[1.0, 1e-9], [1e-9, 1.1e-17]]),   # its column swap
    ])
    def test_ill_conditioned_mass_rejected_in_either_storage(self, storage, M):
        # condition 1e17 with no small pivot in one of the two column orders
        with pytest.raises(SingularMassMatrixError, match="numerically singular"):
            DiscreteLTISystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), M=storage(M))

    @pytest.mark.parametrize("kind", ["jacobi", "gauss-seidel"])
    def test_grid_mass_condition_estimate(self, kind):
        s = generate_example(ExampleSpec(kind=kind, size=12, seed=1))
        cond = dtmor.system._condition_estimate(s.M, dtmor.system.factorize(s.M))
        assert cond == pytest.approx(np.linalg.cond(s.M.toarray(), 1), rel=1e-12)
        assert cond < 10


class TestFactorize:
    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_exactly_zero_pivot_raises(self, storage):
        with pytest.raises(np.linalg.LinAlgError):
            dtmor.system.factorize(storage(np.diag([2.0, 0.0, 1.0])))

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_real_factor_solves_complex_rhs(self, storage):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        got = dtmor.system.factorize(storage(mat))(X)
        assert np.linalg.norm(mat @ got - X) <= 1e-13 * np.linalg.norm(X)

    def test_diagonal_factor_solves_as_superlu_does(self):
        # a real sparse diagonal solves by division: SuperLU's own solve of
        # the same matrix bit for bit, plain and transposed, in its order
        rng = np.random.default_rng(12)
        mat = sp.diags(rng.uniform(0.1, 10.0, 50)).tocsr()
        solve = dtmor.system.factorize(mat)
        lu = dtmor.system.spla.splu(mat.tocsc(), permc_spec="NATURAL")
        X = rng.standard_normal((50, 3))
        for rhs in (X, X[:, 0], np.asfortranarray(X), X + 1j * rng.standard_normal((50, 3))):
            for trans in ("N", "T"):
                got = solve(rhs, trans=trans == "T")
                want = lu.solve(rhs.real, trans=trans)
                if np.iscomplexobj(rhs):
                    want = want + 1j * lu.solve(rhs.imag, trans=trans)
                assert np.array_equal(got, want)
                assert got.flags.f_contiguous == want.flags.f_contiguous

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_pencil_solver(self, storage):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        s = DiscreteLTISystem(storage(A), np.ones((4, 1)), np.ones((1, 4)), M=storage(M))
        b = rng.standard_normal((4, 2))
        alpha, beta = 0.3 - 0.2j, 1.5
        x = s.pencil_solver(alpha, beta)(b)
        assert np.linalg.norm((alpha * A - beta * M) @ x - M @ b) <= 1e-13 * np.linalg.norm(M @ b)

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_pencil_solver_without_mass_is_the_pencil_solve(self, storage):
        # no identity product per solve and no identity held: the only n x n
        # array the closure reaches is the LU of a dense pencil
        n = 30
        rng = np.random.default_rng(8)
        A = storage(rng.standard_normal((n, n)))
        s = DiscreteLTISystem(A, np.ones((n, 1)), np.ones((1, n)))
        eye = np.eye(n) if storage is np.asarray else sp.identity(n, format="csr")
        b = rng.standard_normal((n, 2))
        for alpha, beta in ((1.0, 1.0), (0.3 - 0.2j, 1.5)):
            solver = s.pencil_solver(alpha, beta)
            want = dtmor.system.factorize(alpha * s.A - beta * eye)(b)
            assert np.array_equal(solver(b), want)
            held, todo = [], [solver]
            while todo:
                for cell in todo.pop().__closure__ or ():
                    value = cell.cell_contents
                    if callable(value) and hasattr(value, "__closure__"):
                        todo.append(value)
                    elif (isinstance(value, np.ndarray) or sp.issparse(value)) \
                            and value.shape == (n, n):
                        held.append(value)
            assert len(held) == (1 if storage is np.asarray else 0)

    @staticmethod
    def _record_orders(monkeypatch):
        orders = []
        splu = dtmor.system.spla.splu

        def recording(mat, *args, permc_spec=None, **kwargs):
            orders.append(permc_spec)
            return splu(mat, *args, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(dtmor.system.spla, "splu", recording)
        return orders

    def test_triangular_mass_keeps_natural_order(self, monkeypatch):
        orders = self._record_orders(monkeypatch)
        for kind in ("jacobi", "gauss-seidel"):
            s = generate_example(ExampleSpec(kind=kind, size=10, seed=1))
            assert orders == ["NATURAL"]
            s.pencil_solver(1.0, 1.0)
            assert orders == ["NATURAL", "MMD_AT_PLUS_A"]
            orders.clear()

    @pytest.mark.parametrize("kind", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("shift", [1.0, -1.0, 0.3 + 0.9j])
    def test_grid_pencils_solve_plain_and_transposed(self, kind, shift):
        s = generate_example(ExampleSpec(kind=kind, size=20, seed=1))
        pencil = s.A - shift * s.M
        solve = dtmor.system.factorize(pencil)
        b = np.random.default_rng(5).standard_normal((s.n, 2))
        for op, trans in ((pencil, False), (pencil.T, True)):
            x = solve(b, trans=trans)
            assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_transposed_solve_of_real_factor_with_complex_rhs(self, storage):
        rng = np.random.default_rng(6)
        mat = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        X = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        got = dtmor.system.factorize(storage(mat))(X, trans=True)
        assert np.linalg.norm(mat.T @ got - X) <= 1e-13 * np.linalg.norm(X)

    @pytest.mark.parametrize("M, order", [
        (np.diag([1.0, 1e-17]), "NATURAL"),
        # not triangular; its second pivot is about 1e-15 in either column order
        (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), "MMD_AT_PLUS_A"),
    ])
    def test_relative_pivot_rule_under_either_order(self, monkeypatch, M, order):
        orders = self._record_orders(monkeypatch)
        with pytest.raises(SingularMassMatrixError, match="numerically singular"):
            DiscreteLTISystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), M=sp.csr_matrix(M))
        assert orders == [order]

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_dual_solves_with_the_one_mass_factor(self, monkeypatch, storage):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        s = DiscreteLTISystem(storage(rng.standard_normal((5, 5))), np.ones((5, 2)),
                               np.ones((1, 5)), M=storage(M))

        def refuse(*args, **kwargs):
            raise AssertionError("mass matrix factored again")

        monkeypatch.setattr(dtmor.system, "factorize", refuse)
        X = rng.standard_normal((5, 3))
        adj = s.dual()
        assert np.linalg.norm(M.T @ adj.mass_solve(X) - X) <= 1e-13 * np.linalg.norm(X)
        assert np.linalg.norm(M @ adj.dual().mass_solve(X) - X) <= 1e-13 * np.linalg.norm(X)
        assert np.array_equal(adj.M.toarray() if sp.issparse(adj.M) else adj.M, M.T)


class TestUnitPencilMemo:
    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    @pytest.mark.parametrize("mass", [False, True])
    def test_adjoint_solves_through_the_system_factor(self, storage, mass):
        # the memo factors the system's own A -+ M whichever side asks first,
        # so the adjoint's solve has the same bits either way
        rng = np.random.default_rng(13)
        n = 6
        A = rng.standard_normal((n, n))
        M = rng.standard_normal((n, n)) + 4 * np.eye(n) if mass else None
        Md = np.eye(n) if M is None else M
        b = rng.standard_normal((n, 2))
        got = []
        for adjoint_first in (True, False):
            s = DiscreteLTISystem(storage(A), np.ones((n, 1)), np.ones((1, n)),
                                   M=None if M is None else storage(M))
            adj = s.dual()
            if not adjoint_first:
                s.pencil_solver(1.0, -1.0)
            for beta in (1.0, -1.0):
                x = s.pencil_solver(1.0, beta)(b)
                assert np.linalg.norm((A - beta * Md) @ x - Md @ b) <= 1e-12 * np.linalg.norm(b)
                y = adj.pencil_solver(1.0, beta)(b)
                assert np.linalg.norm((A - beta * Md).T @ y - Md.T @ b) <= 1e-12 * np.linalg.norm(b)
                got.append(y)
            assert sorted(s._units[0]) == [-1.0, 1.0] and adj._units[0] is s._units[0]
        assert all(np.array_equal(x, y) for x, y in zip(got[:2], got[2:]))

    def test_other_pencils_are_factored_per_call(self, monkeypatch):
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=6, seed=1))
        factorize, calls = dtmor.system.factorize, []
        monkeypatch.setattr(dtmor.system, "factorize",
                            lambda mat: calls.append(mat) or factorize(mat))
        for alpha, beta in ((1.0, 1.0), (1.0, 0.5 + 0.5j), (1.0, 1.0), (0.5, 1.0),
                            (1.0, 0.5 + 0.5j), (1.0, -1.0)):
            s.dual().pencil_solver(alpha, beta)
        assert len(calls) == 5 and sorted(s._units[0]) == [-1.0, 1.0]


class TestTransposedMaps:
    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    @pytest.mark.parametrize("mass", [False, True])
    def test_dynamics_and_mass_solve_match_dense(self, storage, mass):
        # M^{-1}A, (M^{-1}A)^T = A^T M^{-T}, M^{-1} and M^{-T} on a system, its
        # adjoint (A^T, M^T) and the adjoint's adjoint
        rng = np.random.default_rng(11)
        n = 6
        A = rng.standard_normal((n, n))
        M = rng.standard_normal((n, n)) + 5 * np.eye(n) if mass else np.eye(n)
        s = DiscreteLTISystem(storage(A), np.ones((n, 2)), np.ones((1, n)),
                               M=storage(M) if mass else None)
        X = rng.standard_normal((n, 3))
        for sys_, Ad, Md in ((s, A, M), (s.dual(), A.T, M.T), (s.dual().dual(), A, M)):
            dyn = np.linalg.solve(Md, Ad)
            for got, want in ((sys_.apply_dynamics(X), dyn @ X),
                              (sys_.apply_dynamics(X, trans=True), dyn.T @ X),
                              (sys_.mass_solve(X), np.linalg.solve(Md, X)),
                              (sys_.mass_solve(X, trans=True), np.linalg.solve(Md.T, X))):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestImpulseResponse:
    def test_scalar_sequence(self, scalar_system):
        vals = impulse_sequence(scalar_system, 3)[:, 0, 0]
        assert vals == pytest.approx([0.0, 1.0, 0.5, 0.25])

    def test_k_zero_is_zero(self, jacobi_small):
        h = impulse_sequence(jacobi_small, 0)
        assert h.shape == (1, jacobi_small.p, jacobi_small.m) and np.all(h[0] == 0.0)

    def test_matches_dense_power_oracle(self, gs_small):
        for s, k in [(random_stable_system(42, 8, 2, 2), 5)] + [(gs_small, k) for k in (1, 4, 7)]:
            ref = oracles.impulse_coeff(*oracles.dense_standard(s), k)
            got = impulse_sequence(s, k)[k]
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestSimulate:
    def test_scalar_impulse(self, scalar_system):
        u = np.array([1.0, 0.0, 0.0, 0.0])
        trace = simulate(scalar_system, u)
        assert trace.outputs[:, 0] == pytest.approx([0.0, 1.0, 0.5, 0.25])

    def test_zero_input_zero_output(self, jacobi_small):
        trace = simulate(jacobi_small, np.zeros((9, 2)))
        assert np.all(trace.outputs == 0.0)

    def test_matches_convolution_oracle(self):
        s = random_stable_system(3, 10, 3, 2)
        rng = np.random.default_rng(5)
        u = rng.standard_normal((51, 3))
        got = simulate(s, u).outputs
        h = oracles.impulse_seq(*oracles.dense_standard(s), 50)
        ref = oracles.convolve_output(h, u)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_input_length_mismatch(self, scalar_system):
        with pytest.raises(DimensionMismatchError):
            simulate(scalar_system, np.zeros((3, 1)), horizon=5)

    def test_impulse_input_reproduces_impulse_response(self, gs_small):
        # includes the generalized path: one mass solve per step
        K = 12
        h = impulse_sequence(gs_small, K)
        for i in range(gs_small.m):
            u = np.zeros((K + 1, gs_small.m))
            u[0, i] = 1.0
            y = simulate(gs_small, u).outputs
            assert np.linalg.norm(y - h[:, :, i]) <= 1e-12 * max(np.linalg.norm(h), 1.0)


class TestGenerateExample:
    def test_jacobi_structure(self):
        s = generate_example(ExampleSpec(kind="jacobi", size=3, seed=0))
        assert s.n == 9
        M = s.M.toarray()
        assert np.allclose(M, 4.0 * np.eye(9))
        assert np.all(s.A.diagonal() == 0.0)

    def test_jacobi_spectral_radius(self):
        # classical Jacobi rate for the 5-point grid: cos(pi/(N+1))
        s = generate_example(ExampleSpec(kind="jacobi", size=3, seed=0))
        assert s.spectral_radius() == pytest.approx(np.cos(np.pi / 4), abs=1e-12)

    def test_gauss_seidel_spectral_radius(self):
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=3, seed=0))
        assert s.spectral_radius() == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind", ["jacobi", "gauss-seidel", "laplacian-grid"])
    @pytest.mark.parametrize("N", [3, 5, 8, 12])
    def test_pencil_stable(self, kind, N):
        s = generate_example(ExampleSpec(kind=kind, size=N, seed=1))
        eigs = np.linalg.eigvals(s.dense_dynamics())
        assert np.max(np.abs(eigs)) < 1.0

    def test_random_stable_radius(self):
        s = generate_example(ExampleSpec(kind="random-stable", size=12, seed=9,
                                         target_radius=0.8))
        assert s.spectral_radius() == pytest.approx(0.8, rel=1e-10)

    def test_deterministic(self):
        spec = ExampleSpec(kind="gauss-seidel", size=4, inputs=2, outputs=3, seed=77)
        a, b = generate_example(spec), generate_example(spec)
        assert np.array_equal(a.B, b.B) and np.array_equal(a.C, b.C)
        assert (a.A != b.A).nnz == 0

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            generate_example(ExampleSpec(kind="nope", size=3))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_example(ExampleSpec(kind="jacobi", size=1))

    def test_generalized_matches_standard_form(self, gs_small):
        std = gs_small.to_standard()
        u = np.random.default_rng(0).standard_normal((21, gs_small.m))
        yg = simulate(gs_small, u).outputs
        ys = simulate(std, u).outputs
        assert np.linalg.norm(yg - ys) <= 1e-10 * max(np.linalg.norm(ys), 1.0)


class TestSystemIO:
    def test_scalar_roundtrip(self, tmp_path, scalar_system):
        write_system(scalar_system, tmp_path / "sys")
        back = read_system(tmp_path / "sys")
        assert np.array_equal(back.A, scalar_system.A)
        assert np.array_equal(back.B, scalar_system.B)
        assert np.array_equal(back.C, scalar_system.C)

    def test_sparse_roundtrip_preserves_stencil(self, tmp_path):
        N = 10
        s = generate_example(ExampleSpec(kind="jacobi", size=N, seed=3))
        write_system(s, tmp_path / "sys")
        back = read_system(tmp_path / "sys")
        # interior 5-point stencil: 2 * 2 * N * (N-1) off-diagonal entries
        assert back.A.nnz == 4 * N * (N - 1)
        assert (back.A != s.A).nnz == 0
        assert (back.M != s.M).nnz == 0
        assert back.meta["kind"] == "jacobi" and back.meta["seed"] == 3

    def test_manifest_dimension_disagreement(self, tmp_path, jacobi_small):
        write_system(jacobi_small, tmp_path / "sys")
        mpath = tmp_path / "sys" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["n"] = manifest["n"] + 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SystemIOError):
            read_system(tmp_path / "sys")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SystemIOError):
            read_system(tmp_path / "nothing-here")

    def test_malformed_matrix(self, tmp_path, scalar_system):
        write_system(scalar_system, tmp_path / "sys")
        (tmp_path / "sys" / "A.mtx").write_text("%%MatrixMarket garbage\n1 1\n")
        with pytest.raises(SystemIOError):
            read_system(tmp_path / "sys")


def _module_names(path: Path) -> set:
    """Every name, attribute and dotted import part a module's source spells."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            dotted = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            names |= {part for name in dotted for part in name.split(".") if part}
    return names


_SRC_MODULES = sorted(Path(dtmor.system.__file__).parent.glob("*.py"))


def test_only_system_module_names_a_factorization():
    # the storage rule: system.factorize is the one sparse-or-dense LU
    banned = {"splu", "spilu", "factorized", "spsolve", "lu_factor", "lu_solve",
              "cho_factor", "cho_solve", "inv"}
    for path in _SRC_MODULES:
        if path.name != "system.py":
            names = _module_names(path)
            assert not names & banned, f"{path.name} names {sorted(names & banned)}"


def test_only_system_module_knows_sparse_storage():
    # the storage rule: system.py alone asks whether a matrix is sparse and
    # densifies one (system.dense_array)
    banned = {"sparse", "issparse", "toarray"}
    for path in _SRC_MODULES:
        if path.name != "system.py":
            names = _module_names(path)
            assert not names & banned, f"{path.name} names {sorted(names & banned)}"


def test_only_system_module_knows_matrix_market():
    # the storage rule: system.py alone writes and reads Matrix Market files
    # (system.write_matrix, system.read_system)
    banned = {"mmwrite", "mmread"}
    for path in _SRC_MODULES:
        if path.name != "system.py":
            names = _module_names(path)
            assert not names & banned, f"{path.name} names {sorted(names & banned)}"


def test_importing_the_package_loads_no_matrix_market_reader():
    # scipy.io is imported by system.py's file I/O on first use, not by `import dtmor`
    code = ("import sys, dtmor, dtmor.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.io')))")
    src = str(Path(dtmor.system.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.stdout.strip() == "[]"


def test_low_rank_solvers_apply_a_system_through_its_methods():
    # the storage rule: lowrank.py reads no system's A or M, nor its mass
    # factor, so M^{-1}A and its transpose are applied by system.py
    # (DiscreteLTISystem.apply_dynamics, forward or with trans=True)
    tree = ast.parse(Path(dtmor.lowrank.__file__).read_text(encoding="utf-8"))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read = attributes & {"A", "M", "_mass_solve"}
    assert not read, f"lowrank.py reads {sorted(read)}"
    assert "apply_dynamics" in attributes


def test_only_the_solver_modules_name_a_gramian_type():
    # the Gramian rule: how a Gramian is stored is known by dense_stein and
    # lowrank only; other modules use its factor(), matrix(), congruence(C)
    # and basis
    banned = {"Gramian", "GramianApprox", "DenseGramianPair"}
    for path in _SRC_MODULES:
        if path.name not in ("dense_stein.py", "lowrank.py", "__init__.py"):
            names = _module_names(path)
            assert not names & banned, f"{path.name} names {sorted(names & banned)}"


def _truncate(s, tau):
    pair = tl_gramian_dense(s, 5), tl_gramian_dense(s, 5, "obs")
    return square_root_truncate(*pair, s, tau, order=1)


# every entry that takes a horizon tau, called on a system and a tau
_HORIZON_ENTRIES = {
    "smith_arnoldi": lambda s, tau: smith_arnoldi(s, "reach", tau),
    "rksm": lambda s, tau: rksm(s, "reach", tau),
    "tl_gramian_dense": lambda s, tau: tl_gramian_dense(s, tau),
    "solve_cross_sylvester_Y": lambda s, tau: solve_cross_sylvester(s, s, tau, "Y"),
    "solve_cross_sylvester_Z": lambda s, tau: solve_cross_sylvester(s, s, tau, "Z"),
    "tl_h2_inner": lambda s, tau: tl_h2_inner(s, s, tau),
    "tl_h2_norm": tl_h2_norm,
    "bound_output_tl": lambda s, tau: bound_output_tl(s, s, tau),
    "square_root_truncate": _truncate,
}


class TestSolveRequest:
    @pytest.mark.parametrize("entry", sorted(_HORIZON_ENTRIES))
    def test_horizon_rule_at_every_entry(self, entry):
        # a whole number of steps >= 1, or inf; nothing is rounded or summed to 0
        s = random_stable_system(5, 4, radius=0.5)
        call = _HORIZON_ENTRIES[entry]
        for tau in (0, -3, 2.5):
            with pytest.raises(ValueError, match="tau must be a whole number >= 1 or inf"):
                call(s, tau)
        for tau in (1, 50.0, math.inf):
            call(s, tau)

    def test_side_rule_at_every_gramian_solver(self):
        s = random_stable_system(5, 4, radius=0.5)
        messages = set()
        for solve in (smith_arnoldi, rksm, tl_gramian_dense):
            with pytest.raises(ValueError) as info:
                solve(s, tau=5, side="bogus")
            messages.add(str(info.value))
        assert messages == {"side must be 'reach' or 'obs', got 'bogus'"}

    def test_side_lookup(self):
        s = random_stable_system(5, 4, radius=0.5)
        assert s.side("reach") is s
        adj = s.side("obs")
        assert np.array_equal(adj.A, s.A.T) and np.array_equal(adj.B, s.C.T)


def test_only_system_module_compares_side_names():
    # the side rule: DiscreteLTISystem.side is the one map from 'reach'/'obs'
    # to the system whose reachability quantities a side asks for
    def constants(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {item.value for item in items if isinstance(item, ast.Constant)}

    for path in _SRC_MODULES:
        if path.name == "system.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    assert not constants(operand) & {"reach", "obs"}, \
                        f"{path.name}:{node.lineno} compares a side name"
