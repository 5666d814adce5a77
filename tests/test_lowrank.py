import math

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from conftest import random_stable_system
from dtmor import (
    ConvergenceError,
    ExampleSpec,
    GramianApprox,
    KrylovState,
    ShiftStrategy,
    SolverConfig,
    build_system,
    dense_stein,
    generate_example,
    lowrank,
    next_shift,
    rksm,
    smith_arnoldi,
    solve_projected_tl,
    stein_residual_norm,
    tl_gramian_dense,
    truncate_factor,
)

TIGHT = SolverConfig(tol=1e-10, tl_term_tol=1e-11, cadence=1, max_iterations=600)


class TestSmithArnoldi:
    def test_scalar_exact(self, scalar_system):
        a = smith_arnoldi(scalar_system, "reach", 2)
        assert a.matrix()[0, 0] == pytest.approx(1.25, rel=1e-14)
        assert a.tl_term[0, 0] == pytest.approx(0.25, rel=1e-14)
        assert a.residual <= 1e-12

    def test_unstable_unit_pole(self):
        s = build_system([[1.0]], [[1.0]], [[1.0]])
        a = smith_arnoldi(s, "reach", 3)
        assert a.matrix()[0, 0] == pytest.approx(3.0, rel=1e-13)
        assert a.tl_term[0, 0] == pytest.approx(1.0, rel=1e-13)

    def test_jacobi_matches_dense_oracle(self):
        from dtmor import ExampleSpec, generate_example
        s = generate_example(ExampleSpec(kind="jacobi", size=8, inputs=2, outputs=2, seed=2))
        tau = 20
        a = smith_arnoldi(s, "reach", tau)
        ref = tl_gramian_dense(s, tau, "reach")
        rel = np.linalg.norm(a.matrix() - ref.gramian) / np.linalg.norm(ref.gramian)
        assert rel <= 1e-8
        assert np.linalg.norm(a.tl_term - ref.tl_term) <= 1e-8 * np.linalg.norm(ref.tl_term)

    def test_exactness_at_tau_plus_one_steps(self):
        s = random_stable_system(31, 30, 2, 2)
        tau = 10  # m * tau < n: no saturation, tau+1 blocks exactly
        a = smith_arnoldi(s, "reach", tau)
        assert a.iterations == tau
        P, _ = oracles.gramian_sum(s.A, s.B, tau)
        assert np.linalg.norm(a.matrix() - P) <= 1e-10 * np.linalg.norm(P)

    def test_exactness_with_saturation(self):
        # m * tau far beyond n forces deflation and coefficient-only steps
        s = random_stable_system(32, 20, 4, 2)
        tau = 50
        a = smith_arnoldi(s, "reach", tau)
        P, F = oracles.gramian_sum(s.A, s.B, tau)
        assert np.linalg.norm(a.matrix() - P) <= 1e-10 * np.linalg.norm(P)
        assert np.linalg.norm(a.tl_term - F) <= 1e-8 * max(np.linalg.norm(F), 1e-300)
        assert a.deflated_columns > 0  # deflation is surfaced, not silent

    def test_infinite_horizon_converges(self):
        s = random_stable_system(33, 25, 2, 2, radius=0.7)
        a = smith_arnoldi(s, "reach", math.inf, SolverConfig(tol=1e-9, tl_term_tol=1e-10))
        ref = oracles.gramian_inf(s.A, s.B)
        assert np.linalg.norm(a.matrix() - ref) <= 1e-7 * np.linalg.norm(ref)
        assert a.tl_term is None

    def test_iteration_cap(self):
        s = random_stable_system(34, 10, 1, 1, radius=0.999)
        with pytest.raises(ConvergenceError):
            smith_arnoldi(s, "reach", math.inf,
                          SolverConfig(tol=1e-12, tl_term_tol=1e-13, max_iterations=5))

    def test_basis_orthonormal(self, jacobi_small):
        a = smith_arnoldi(jacobi_small, "obs", 15)
        Q = a.basis
        assert np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])) <= 1e-10

    @pytest.mark.parametrize("side", ["reach", "obs"])
    def test_generalized_pencil_matches_dense_oracle(self, side):
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=20, inputs=2,
                                         outputs=2, seed=1))
        assert s.M is not None
        a = smith_arnoldi(s, side, 50)
        ref = tl_gramian_dense(s, 50, side)
        assert np.linalg.norm(a.matrix() - ref.gramian) <= 1e-10 * np.linalg.norm(ref.gramian)
        assert np.linalg.norm(a.tl_term - ref.tl_term) <= 1e-12 * np.linalg.norm(ref.tl_term)
        # the walk width is steps * m, and the one orthonormalization drops the rest
        assert a.records[-1].basis_columns == 50 * 2
        assert 0 < a.deflated_columns <= 50 * 2 - a.rank
        # rho(M^-1 A) ~ 0.978 needs about 400 steps to reach the default tolerance
        a = smith_arnoldi(s, side, math.inf, SolverConfig(max_iterations=800))
        ref = tl_gramian_dense(s, math.inf, side)
        assert np.linalg.norm(a.matrix() - ref.gramian) <= 1e-7 * np.linalg.norm(ref.gramian)

    @pytest.mark.parametrize("tau", [7, math.inf])
    def test_zero_input_gives_empty_basis(self, tau):
        s = build_system(np.diag([0.5, -0.3, 0.2]), np.zeros((3, 2)), np.ones((1, 3)))
        a = smith_arnoldi(s, "reach", tau)
        assert a.basis.shape == (3, 0) and a.core.shape == (0, 0)
        assert a.residual == 0.0
        if math.isinf(tau):
            assert a.tl_term is None
        else:
            assert a.tl_term.shape == (3, 2) and not a.tl_term.any()

    def test_bitwise_reproducible(self, jacobi_small):
        for tau in (12, math.inf):
            a = smith_arnoldi(jacobi_small, "reach", tau)
            b = smith_arnoldi(jacobi_small, "reach", tau)
            assert np.array_equal(a.basis, b.basis) and np.array_equal(a.core, b.core)
            assert a.residual == b.residual
            if a.tl_term is not None:
                assert np.array_equal(a.tl_term, b.tl_term)


class TestRksm:
    def test_scalar_infinite(self, scalar_system):
        a = rksm(scalar_system, "reach", math.inf)
        assert a.matrix()[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_diagonal_closed_form(self):
        s = build_system(np.diag([0.5, -0.5]), np.ones((2, 1)), np.ones((1, 2)))
        a = rksm(s, "reach", math.inf, cfg=TIGHT)
        assert a.matrix() == pytest.approx(np.array([[4 / 3, 0.8], [0.8, 4 / 3]]), rel=1e-8)

    def test_gauss_seidel_adaptive_matches_dense(self):
        from dtmor import ExampleSpec, generate_example
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=12, inputs=2, outputs=2, seed=6))
        tau = 150
        cfg = SolverConfig(tol=1e-8, tl_term_tol=1e-8, cadence=5, max_iterations=400)
        a = rksm(s, "reach", tau, ShiftStrategy("adaptive-disc"), cfg)
        assert a.residual <= 1e-8
        ref = tl_gramian_dense(s, tau, "reach")
        rel = np.linalg.norm(a.matrix() - ref.gramian) / np.linalg.norm(ref.gramian)
        assert rel <= 1e-6

    @pytest.mark.parametrize("kind", ["alternating-pm1", "adaptive-disc"])
    def test_shift_strategies_agree_with_oracle(self, kind):
        s = random_stable_system(41, 40, 2, 2)
        tau = 30
        a = rksm(s, "reach", tau, ShiftStrategy(kind), TIGHT)
        P, _ = oracles.gramian_sum(s.A, s.B, tau)
        assert np.linalg.norm(a.matrix() - P) <= 10 * TIGHT.tol * np.linalg.norm(P)

    def test_tl_term_quality(self):
        s = random_stable_system(42, 36, 2, 2)
        tau = 40
        a = rksm(s, "reach", tau, cfg=TIGHT)
        _, F = oracles.gramian_sum(s.A, s.B, tau)
        assert np.linalg.norm(a.tl_term - F) <= 10 * TIGHT.tl_term_tol * np.linalg.norm(F)

    def test_generalized_system(self, gs_small):
        tau = 25
        a = rksm(gs_small, "reach", tau, cfg=TIGHT)
        ref = tl_gramian_dense(gs_small, tau, "reach")
        assert np.linalg.norm(a.matrix() - ref.gramian) <= 1e-8 * np.linalg.norm(ref.gramian)

    def test_dense_mass_matrix_matches_sparse(self, gs_small):
        # a dense M runs the dense solve closure of the mass factorization
        # and the dense shifted factorizations
        dense = build_system(gs_small.A.toarray(), gs_small.B, gs_small.C,
                             gs_small.M.toarray())
        tau = 25
        ref = tl_gramian_dense(gs_small, tau, "reach")
        got = tl_gramian_dense(dense, tau, "reach")
        assert np.linalg.norm(got.gramian - ref.gramian) <= 1e-13 * np.linalg.norm(ref.gramian)
        assert np.linalg.norm(got.tl_term - ref.tl_term) <= 1e-13 * np.linalg.norm(ref.tl_term)
        for t in (tau, math.inf):
            P = rksm(gs_small, "reach", t, cfg=TIGHT).matrix()
            Pd = rksm(dense, "reach", t, cfg=TIGHT).matrix()
            assert np.linalg.norm(Pd - P) <= 1e-12 * np.linalg.norm(P)

    def test_shift_on_an_eigenvalue_dense_matches_sparse(self):
        # the -1 shift hits an eigenvalue; both storages retry it perturbed
        A = np.diag([-1.0, 0.5, 0.3])
        dense = build_system(A, np.ones((3, 1)), np.ones((1, 3)))
        sparse = build_system(sp.csr_matrix(A), np.ones((3, 1)), np.ones((1, 3)))
        strategy = ShiftStrategy("alternating-pm1")
        a = rksm(sparse, "reach", 5, strategy)
        b = rksm(dense, "reach", 5, strategy)
        assert (b.iterations, b.rank) == (a.iterations, a.rank)
        assert np.linalg.norm(b.matrix() - a.matrix()) <= 1e-12 * np.linalg.norm(a.matrix())

    def test_max_iterations_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=0)

    @pytest.mark.parametrize("tau", [20, math.inf])
    def test_zero_input_gives_empty_basis(self, tau):
        s = build_system(np.diag([0.5, -0.3, 0.2]), np.zeros((3, 2)), np.ones((1, 3)))
        a = rksm(s, "reach", tau)
        assert a.basis.shape == (3, 0) and a.core.shape == (0, 0)
        assert a.residual == 0.0
        if math.isinf(tau):
            assert a.tl_term is None
        else:
            assert a.tl_term.shape == (3, 2) and not a.tl_term.any()

    @pytest.mark.parametrize("kind", ["jacobi", "gauss-seidel"])
    @pytest.mark.parametrize("strategy", ["alternating-pm1", "adaptive-disc"])
    def test_offspace_factor_without_qr_fallback(self, kind, strategy):
        s = generate_example(ExampleSpec(kind=kind, size=20, inputs=2, outputs=2, seed=1))
        for side in ("reach", "obs"):
            a = rksm(s, side, 50, ShiftStrategy(strategy))
            assert a.residual <= SolverConfig().tol
            assert a.offspace_fallbacks == 0

    @pytest.mark.parametrize("strategy", ["alternating-pm1", "adaptive-disc"])
    def test_finite_window_runs_no_projected_solve(self, monkeypatch, strategy):
        # the window walk gives the projected solution; only tau = inf solves
        solve = lowrank.solve_projected_tl
        calls = []

        def refuse(*args):
            raise AssertionError("projected Stein solve at a finite window")

        monkeypatch.setattr(lowrank, "solve_projected_tl", refuse)
        monkeypatch.setattr(dense_stein, "solve_stein_dense", refuse)
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        for side in ("reach", "obs"):
            a = rksm(s, side, 50, ShiftStrategy(strategy))
            assert a.residual <= SolverConfig().tol
        monkeypatch.setattr(lowrank, "solve_projected_tl",
                            lambda *args: calls.append(args) or solve(*args))
        a = rksm(s, "reach", math.inf, ShiftStrategy(strategy))
        assert a.residual <= SolverConfig().tol and calls

    def test_records_written(self):
        s = random_stable_system(43, 16, 2, 2)
        a = rksm(s, "reach", 10, cfg=SolverConfig(tol=1e-9, tl_term_tol=1e-10, cadence=2))
        assert a.records and a.records[-1].residual is not None
        assert any(r.shift is not None for r in a.records)


class TestResidualFormula:
    def test_compressed_equals_explicit_every_iteration(self):
        s = random_stable_system(51, 60, 2, 2, radius=0.85)
        Ad, Bd, _ = oracles.dense_standard(s)
        checked = []

        def observer(state, core, tl_term, res_abs):
            Q = state.basis
            P = Q @ core @ Q.T
            R = Ad @ P @ Ad.T - P + Bd @ Bd.T
            if tl_term is not None:
                R = R - tl_term @ tl_term.T
            exact = np.linalg.norm(R, 2)
            checked.append((exact, res_abs))

        for tau in (20, math.inf):
            checked.clear()
            rksm(s, "reach", tau, ShiftStrategy("adaptive-disc"),
                 SolverConfig(tol=1e-9, tl_term_tol=1e-9, cadence=1, max_iterations=300),
                 observer=observer)
            assert checked
            for exact, got in checked:
                assert abs(exact - got) <= 1e-8 * exact + 1e-12

    def test_exact_solution_gives_zero(self, scalar_system):
        state = KrylovState(block_width=1)
        state.basis = np.array([[1.0]])
        state.image = np.array([[0.5]])
        state.projected = np.array([[0.5]])
        state.offspace_dir = np.zeros((1, 0))
        state.offspace_coeff = np.zeros((0, 1))
        Y = solve_projected_tl(state.projected, np.array([[1.0]]), np.array([[0.25]]))
        assert stein_residual_norm(state, Y) <= 1e-10

    def test_scalar_one_step_matches_hand_residual(self):
        # 2-state system, 1-dim basis: residual must equal the assembled one
        s = random_stable_system(52, 2, 1, 1)
        Ad = s.A
        b = s.B / np.linalg.norm(s.B)
        state = KrylovState(block_width=1)
        state.basis = b
        state.image = Ad @ b
        state.projected = b.T @ Ad @ b
        G = state.image - state.basis @ state.projected
        U, _ = np.linalg.qr(G)
        state.offspace_dir = U
        state.offspace_coeff = U.T @ state.image
        bk = b.T @ s.B
        fk = np.linalg.matrix_power(state.projected, 2) @ bk
        Y = solve_projected_tl(state.projected, bk, fk)
        got = stein_residual_norm(state, Y)
        P = state.basis @ Y @ state.basis.T
        F = state.basis @ fk
        R = Ad @ P @ Ad.T - P + s.B @ s.B.T - F @ F.T
        assert got == pytest.approx(np.linalg.norm(R, 2), rel=1e-10)


class TestNextShift:
    def test_alternating_sequence(self):
        state = KrylovState(block_width=1)
        strat = ShiftStrategy("alternating-pm1")
        s2 = next_shift(strat, state)
        state.shifts.append(s2)
        s3 = next_shift(strat, state)
        assert s2 == 1.0 and s3 == -1.0

    def test_adaptive_four_point_grid(self):
        # |xi-0.5|/|xi-0.9| on {1, i, -1, -i} is maximized at xi = 1
        state = KrylovState(block_width=1)
        state.projected = np.array([[0.5]])
        state.shifts = [complex(0.9)]
        strat = ShiftStrategy("adaptive-disc", grid_points=4)
        assert next_shift(strat, state) == pytest.approx(1.0)

    def test_conjugate_pairing_contract(self):
        state = KrylovState(block_width=1)
        state.projected = np.array([[0.5]])
        xi = complex(np.exp(1j * 0.7))
        state.shifts = [xi]
        got = next_shift(ShiftStrategy("adaptive-disc"), state)
        assert got == pytest.approx(xi.conjugate())

    def test_adaptive_fallback_without_ritz(self):
        state = KrylovState(block_width=1)
        assert next_shift(ShiftStrategy("adaptive-disc"), state) == -1.0

    def test_used_grid_points_masked(self):
        state = KrylovState(block_width=1)
        state.projected = np.array([[0.5]])
        state.shifts = [complex(1.0)]
        got = next_shift(ShiftStrategy("adaptive-disc", grid_points=4), state)
        assert got != pytest.approx(1.0)


class TestTruncateFactor:
    def _approx(self, Q, Y):
        return GramianApprox(basis=Q, core=Y, tl_term=None, side="reach",
                             horizon=math.inf, iterations=0, residual=0.0,
                             shifts=[], records=[])

    def test_threshold_drop(self):
        a = self._approx(np.eye(2), np.diag([1.0, 1e-20]))
        t = truncate_factor(a, 1e-12)
        assert t.rank == 1
        assert t.core[0, 0] == pytest.approx(1.0)

    def test_identity_unchanged(self):
        a = self._approx(np.eye(3), np.eye(3))
        assert truncate_factor(a, 1e-12).rank == 3

    def test_negative_eigenvalues_dropped(self):
        a = self._approx(np.eye(2), np.diag([1.0, -1e-15]))
        assert truncate_factor(a, 1e-12).rank == 1

    def test_residual_still_small_after_truncation(self):
        s = random_stable_system(61, 40, 2, 2)
        tau = 60
        cfg = SolverConfig(tol=1e-8, tl_term_tol=1e-9, cadence=2)
        a = rksm(s, "reach", tau, cfg=cfg)  # already truncated at 1e-12
        t = truncate_factor(a, 1e-10)
        assert t.rank <= a.rank
        P = t.basis @ t.core @ t.basis.T
        R = s.A @ P @ s.A.T - P + s.B @ s.B.T - t.tl_term @ t.tl_term.T
        scale = np.linalg.norm(s.B @ s.B.T - t.tl_term @ t.tl_term.T, 2)
        assert np.linalg.norm(R, 2) / scale <= 2 * cfg.tol


class TestInvariants:
    def test_state_recurrence_consistent(self):
        s = random_stable_system(71, 30, 2, 2)
        seen = []

        def observer(state, core, tl_term, res_abs):
            AQ = s.A @ state.basis
            modeled = state.basis @ state.projected + state.offspace_dir @ state.offspace_coeff
            seen.append(np.linalg.norm(AQ - modeled) / np.linalg.norm(AQ))

        rksm(s, "reach", 15, cfg=SolverConfig(tol=1e-9, tl_term_tol=1e-10, cadence=1),
             observer=observer)
        assert seen and max(seen) <= 1e-10

    def test_galerkin_consistency(self):
        # basis covering K_{tau+1} makes the lifted projected solution exact
        s = random_stable_system(72, 40, 2, 2)
        tau = 8
        a = smith_arnoldi(s, "reach", tau)
        ref = tl_gramian_dense(s, tau, "reach")
        # lift a fresh projected solve through the returned basis
        Q = a.basis
        H = Q.T @ s.A @ Q
        Bk = Q.T @ s.B
        Fk = np.linalg.matrix_power(H, tau) @ Bk
        Y = solve_projected_tl(H, Bk, Fk)
        lifted = Q @ Y @ Q.T
        assert np.linalg.norm(lifted - ref.gramian) <= 1e-9 * np.linalg.norm(ref.gramian)

    def test_core_psd_after_solve(self):
        s = random_stable_system(73, 24, 2, 2)
        a = rksm(s, "reach", 12, cfg=TIGHT)
        lam = np.linalg.eigvalsh(0.5 * (a.core + a.core.T))
        assert lam.min() >= -1e-12 * max(lam.max(), 1e-300)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=1e-8, tl_term_tol=1e-6)
        with pytest.raises(ValueError):
            SolverConfig(cadence=0)
        with pytest.raises(ValueError):
            ShiftStrategy("bogus")


class TestGrowthBuffers:
    def test_rerun_bitwise_and_basis_off_the_buffer(self):
        # n=400 and 72 columns: the buffers regrow several times mid-solve
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        seen = []

        def observer(state, core, tl_term, res_abs):
            Q, W = state.basis, state.image
            seen.append((np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])),
                         np.linalg.norm(s.apply_dynamics(Q) - W) / np.linalg.norm(W)))

        a = rksm(s, "reach", 50, observer=observer)
        b = rksm(s, "reach", 50)
        assert seen and max(max(pair) for pair in seen) <= 1e-10
        for x, y in ((a.basis, b.basis), (a.core, b.core), (a.tl_term, b.tl_term)):
            assert np.array_equal(x, y)
        assert a.basis.base is None


class TestThinNorms:
    @staticmethod
    def _inputs():
        rng = np.random.default_rng(8)
        U = rng.standard_normal((30, 2))
        V = rng.standard_normal((30, 2))
        deficient = np.hstack([U[:, :1], 3.0 * U[:, :1]])
        yield U, V
        yield U, deficient
        yield deficient, np.hstack([V[:, :1], -2.0 * V[:, :1]])
        yield np.zeros((30, 2)), V
        yield np.zeros((30, 2)), np.zeros((30, 2))
        yield U[:3], V[:3]   # fewer rows than the stack has columns

    def test_helpers_match_the_assembled_two_norm(self):
        for U, V in self._inputs():
            for got, mat in ((lowrank._thin_norm(U), U),
                             (lowrank._gap_norm(U), U @ U.T),
                             (lowrank._gap_norm(U, V), U @ U.T - V @ V.T)):
                want = np.linalg.norm(mat, 2)
                assert abs(got - want) <= 1e-12 * want


class TestGramSchmidtBlock:
    @staticmethod
    def _run(monkeypatch, Q, X):
        calls = []
        orth = lowrank._orth_columns
        monkeypatch.setattr(lowrank, "_orth_columns",
                            lambda *args: calls.append(args) or orth(*args))
        nb, coeffs, core = lowrank._gram_schmidt_block(Q, X)
        assert nb.shape[1] == X.shape[1]
        assert np.linalg.norm(Q.T @ nb) <= 1e-13
        assert np.linalg.norm(X - Q @ coeffs - nb @ core) <= 1e-12 * np.linalg.norm(X)
        return len(calls)

    @staticmethod
    def _basis_and_block():
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((500, 40)))
        return Q, Q @ rng.standard_normal((40, 2)), rng.standard_normal((500, 2))

    def test_generic_block_skips_the_third_pass(self, monkeypatch):
        Q, inside, outside = self._basis_and_block()
        assert self._run(monkeypatch, Q, inside + outside) == 1

    def test_remainder_far_below_its_input_gets_the_third_pass(self, monkeypatch):
        # the remainders of the two columns agree but for 1e-10 of the input, so
        # one kept direction is 1e-10 of the block: two passes and the SVD
        # leave it about 1e-6 off orthogonal to Q
        Q, inside, outside = self._basis_and_block()
        r, s = outside[:, :1], outside[:, 1:]
        assert self._run(monkeypatch, Q, inside + np.hstack([r, r + 1e-10 * s])) == 2
