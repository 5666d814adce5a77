import json

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from conftest import random_stable_system
import dtmor.system
from dtmor import (
    DenseCapError,
    DimensionMismatchError,
    EstimationError,
    ExampleSpec,
    SingularMassMatrixError,
    SystemIOError,
    build_system,
    generate_example,
    impulse_response,
    impulse_sequence,
    read_system,
    simulate,
    write_system,
)


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
        s = build_system([[0.5]], [[1.0]], [[1.0]])
        assert (s.n, s.m, s.p) == (1, 1, 1)
        assert not s.is_generalized

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_system(np.eye(2), np.ones((3, 1)), np.ones((1, 2)))

    def test_generalized_diagonal_mass(self):
        s = build_system(np.eye(2), [[1.0], [1.0]], [[1.0, 0.0]], M=2 * np.eye(2))
        assert (s.n, s.m, s.p) == (2, 1, 1)
        assert s.is_generalized

    def test_singular_mass_rejected(self):
        with pytest.raises(SingularMassMatrixError):
            build_system(np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                         M=np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_singular_sparse_mass_rejected(self):
        M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMassMatrixError):
            build_system(sp.identity(2, format="csr"), np.ones((2, 1)), np.ones((1, 2)), M=M)

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_numerically_singular_mass_rejected(self, storage):
        # no pivot is exactly zero: the relative pivot rule rejects 1e-17
        with pytest.raises(SingularMassMatrixError, match="numerically singular"):
            build_system(np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                         M=storage(np.diag([1.0, 1e-17])))


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

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_pencil_solver(self, storage):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((4, 4))
        M = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        s = build_system(storage(A), np.ones((4, 1)), np.ones((1, 4)), M=storage(M))
        b = rng.standard_normal((4, 2))
        alpha, beta = 0.3 - 0.2j, 1.5
        x = s.pencil_solver(alpha, beta)(b)
        assert np.linalg.norm((alpha * A - beta * M) @ x - M @ b) <= 1e-13 * np.linalg.norm(M @ b)

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
            build_system(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), M=sp.csr_matrix(M))
        assert orders == [order]

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_dual_solves_with_the_one_mass_factor(self, monkeypatch, storage):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        s = build_system(storage(rng.standard_normal((5, 5))), np.ones((5, 2)),
                         np.ones((1, 5)), M=storage(M))

        def refuse(*args, **kwargs):
            raise AssertionError("mass matrix factored again")

        monkeypatch.setattr(dtmor.system, "factorize", refuse)
        X = rng.standard_normal((5, 3))
        adj = s.dual()
        assert np.linalg.norm(M.T @ adj.mass_solve(X) - X) <= 1e-13 * np.linalg.norm(X)
        assert np.linalg.norm(M @ adj.dual().mass_solve(X) - X) <= 1e-13 * np.linalg.norm(X)
        assert np.array_equal(adj.M.toarray() if sp.issparse(adj.M) else adj.M, M.T)


class TestImpulseResponse:
    def test_scalar_sequence(self, scalar_system):
        vals = [impulse_response(scalar_system, k)[0, 0] for k in range(4)]
        assert vals == pytest.approx([0.0, 1.0, 0.5, 0.25])

    def test_k_zero_is_zero(self, jacobi_small):
        assert np.all(impulse_response(jacobi_small, 0) == 0.0)

    def test_matches_dense_power_oracle(self):
        s = random_stable_system(42, 8, 2, 2)
        ref = oracles.impulse_coeff(*oracles.dense_standard(s), 5)
        got = impulse_response(s, 5)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_sequence_consistent(self, gs_small):
        seq = impulse_sequence(gs_small, 7)
        for k in (0, 1, 4, 7):
            assert np.allclose(seq[k], impulse_response(gs_small, k), atol=1e-14)


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
