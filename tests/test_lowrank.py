import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from conftest import random_stable_system
from dtmor import (
    ConvergenceError,
    ExampleSpec,
    Gramian,
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
    system,
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

    @pytest.mark.parametrize("side", ["reach", "obs"])
    def test_infinite_horizon_is_the_pm1_rksm_solve(self, side):
        # past a window the walk only truncates a series: tau = inf is rksm's
        # +-1 solve under the same settings, bit for bit
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=6, inputs=2,
                                         outputs=2, seed=1))
        cfg = SolverConfig(tol=1e-9, tl_term_tol=1e-10, cadence=2)
        a = smith_arnoldi(s, side, math.inf, cfg)
        b = rksm(s, side, math.inf, ShiftStrategy(), cfg)
        assert np.array_equal(a.basis, b.basis) and np.array_equal(a.core, b.core)
        assert a.records == b.records and a.shifts == b.shifts and a.shifts
        assert a.residual == b.residual and a.tl_term is None

    def test_iteration_cap(self):
        # the cap is rksm's: at max_iterations=5 the +-1 steps span all of
        # n = 10 and the solve converges, so 2 steps are asked for
        s = random_stable_system(34, 10, 1, 1, radius=0.999)
        with pytest.raises(ConvergenceError):
            smith_arnoldi(s, "reach", math.inf,
                          SolverConfig(tol=1e-12, tl_term_tol=1e-13, max_iterations=2))

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
        # the walk keeps at most tau * m columns, and truncation keeps the rank
        # that the SVD of the stacked walk kept (33), the dense Gramian's
        assert a.records[-1].basis_columns <= 50 * 2
        assert a.rank == ref.rank == 33
        # at tau = inf the entry runs the +-1 rksm solve
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

    @pytest.mark.parametrize("side", ["reach", "obs"])
    @pytest.mark.parametrize("tau", [1, 5, 50])
    def test_horizon_term_is_the_dense_walks(self, tau, side):
        # X_tau = Q H^tau Q^T B + U C H^{tau-1} Q^T B: the walk's projected
        # term plus the part of A X_{tau-1} that leaves its basis
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=12, inputs=2,
                                         outputs=2, seed=1))
        F = smith_arnoldi(s, side, tau).tl_term
        ref = tl_gramian_dense(s, tau, side).tl_term
        assert np.linalg.norm(F - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_window_walk_factors_only_the_mass_matrix(self, monkeypatch):
        # poles at infinity apply M^{-1}A: the one factorization is M's, made
        # when the system is built
        factored = []
        factorize = system.factorize
        monkeypatch.setattr(system, "factorize",
                            lambda mat: factored.append(mat) or factorize(mat))
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=12, inputs=2,
                                         outputs=2, seed=1))
        assert len(factored) == 1 and factored[0] is s.M
        for side in ("reach", "obs"):
            a = smith_arnoldi(s, side, 30)
            assert a.residual <= 1e-12 and set(a.shifts) == {math.inf}
        assert len(factored) == 1

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
        state.projected = np.array([[0.5]])
        state.offspace_dir = np.zeros((1, 0))
        state.offspace_coeff = np.zeros((0, 1))
        Y = solve_projected_tl(state.projected, np.array([[1.0]]), np.array([[0.25]]))
        assert stein_residual_norm(state, Y) <= 1e-10

    def test_krylov_state_rejects_unknown_fields(self):
        # slots: a field the state does not declare raises instead of being added
        state = KrylovState(block_width=1)
        with pytest.raises(AttributeError):
            state.image = np.zeros((1, 1))

    def test_scalar_one_step_matches_hand_residual(self):
        # 2-state system, 1-dim basis: residual must equal the assembled one
        s = random_stable_system(52, 2, 1, 1)
        Ad = s.A
        b = s.B / np.linalg.norm(s.B)
        state = KrylovState(block_width=1)
        state.basis = b
        AQ = Ad @ b
        state.projected = b.T @ Ad @ b
        G = AQ - state.basis @ state.projected
        U, _ = np.linalg.qr(G)
        state.offspace_dir = U
        state.offspace_coeff = U.T @ AQ
        bk = b.T @ s.B
        fk = np.linalg.matrix_power(state.projected, 2) @ bk
        Y = solve_projected_tl(state.projected, bk, fk)
        got = stein_residual_norm(state, Y)
        P = state.basis @ Y @ state.basis.T
        F = state.basis @ fk
        R = Ad @ P @ Ad.T - P + s.B @ s.B.T - F @ F.T
        assert got == pytest.approx(np.linalg.norm(R, 2), rel=1e-10)

    def test_offspace_horizon_term_matches_hand_residual(self):
        # on a polynomial Krylov basis with the window sum as core, the
        # residual of a horizon term Q f + U g is the compressed form with
        # g's corner and cross terms, for the exact g and for any other
        s = random_stable_system(53, 30, 2, 2)
        tau = 4
        Q, _ = np.linalg.qr(np.hstack([np.linalg.matrix_power(s.A, j) @ s.B for j in range(tau)]))
        state = KrylovState(block_width=2, basis=Q, projected=Q.T @ s.A @ Q)
        H = state.projected
        U = np.linalg.svd(s.A @ Q - Q @ H)[0][:, :2]   # G has rank m = 2
        state.offspace_dir, state.offspace_coeff = U, U.T @ (s.A @ Q)
        Bk = Q.T @ s.B
        Y, X, _ = dense_stein.window_sum(lambda Z: H @ Z, Bk, tau - 1)
        Y += X @ X.T
        f = H @ X
        for g in (state.offspace_coeff @ X, np.random.default_rng(5).standard_normal((U.shape[1], 2))):
            F = Q @ f + U @ g
            P = Q @ Y @ Q.T
            R = s.A @ P @ s.A.T - P + s.B @ s.B.T - F @ F.T
            got = stein_residual_norm(state, Y, (f, g))
            assert got == pytest.approx(np.linalg.norm(R, 2), rel=1e-10)


class TestNextShift:
    def test_alternating_sequence(self):
        state = KrylovState(block_width=1)
        strat = ShiftStrategy("alternating-pm1")
        s2 = next_shift(strat, state)
        state.shifts.append(s2)
        s3 = next_shift(strat, state)
        assert s2 == 1.0 and s3 == -1.0

    def test_adaptive_four_point_grid(self, monkeypatch):
        # |xi-0.5|/|xi-0.9| on {1, i, -1, -i} is maximized at xi = 1
        monkeypatch.setattr(lowrank, "_SHIFT_GRID", 4)
        state = KrylovState(block_width=1)
        state.projected = np.array([[0.5]])
        state.shifts = [complex(0.9)]
        strat = ShiftStrategy("adaptive-disc")
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

    def test_used_grid_points_masked(self, monkeypatch):
        monkeypatch.setattr(lowrank, "_SHIFT_GRID", 4)
        state = KrylovState(block_width=1)
        state.projected = np.array([[0.5]])
        state.shifts = [complex(1.0)]
        got = next_shift(ShiftStrategy("adaptive-disc"), state)
        assert got != pytest.approx(1.0)


class TestTruncateFactor:
    def _approx(self, Q, Y):
        return Gramian(basis=Q, core=Y, tl_term=None, side="reach",
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

    def test_dense_and_low_rank_storage_agree(self):
        # the Gramian interface: the same P stored either way gives the same
        # factor product and output trace
        s = random_stable_system(62, 30, 2, 3)
        a = smith_arnoldi(s, "reach", 12)
        d = dense_stein.Gramian(None, a.matrix(), a.tl_term, a.side, a.horizon)
        assert a.basis is not None and d.basis is None
        P = a.matrix()
        for g in (a, d):
            Z = g.factor()
            assert np.linalg.norm(Z @ Z.T - P) <= 1e-12 * np.linalg.norm(P)
        assert a.output_trace(s.C) == pytest.approx(d.output_trace(s.C), rel=1e-12)

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
            Q, H = state.basis, state.projected
            seen.append((np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1])),
                         np.linalg.norm(Q.T @ s.apply_dynamics(Q) - H) / np.linalg.norm(H)))

        a = rksm(s, "reach", 50, observer=observer)
        b = rksm(s, "reach", 50)
        assert seen and max(max(pair) for pair in seen) <= 1e-10
        for x, y in ((a.basis, b.basis), (a.core, b.core), (a.tl_term, b.tl_term)):
            assert np.array_equal(x, y)
        assert a.basis.base is None

    def test_regrowth_peak_near_one_buffer_pair(self):
        # n=2500 and 142 columns in a reservation of 1602 (the budget of 400
        # +-1 steps); Q is the only n-row array of the walk and is never
        # regrown, so the peak is the reservation and little else (a second
        # n x k array beside Q adds at least Q's written bytes)
        s = generate_example(ExampleSpec(kind="jacobi", size=50, inputs=2, outputs=2, seed=1))
        tracemalloc.start()
        try:
            a = rksm(s, "reach", 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = a.records[-1].basis_columns
        reservation = 8 * s.n * min(s.n, 2 * (1 + 2 * SolverConfig().max_iterations))
        assert columns == 142
        assert peak - reservation < 8 * s.n * columns

    def test_walks_fill_at_most_their_budget(self, monkeypatch):
        # the reservation holds the most columns a walk can write: m at the
        # start and 2m per +-1 step or complex pair for rksm, m per step of a
        # Smith window; a walk with nothing to deflate fills it exactly
        walks = []

        class Recorded(lowrank._Walk):
            def __init__(self, *args):
                super().__init__(*args)
                walks.append(self)
        monkeypatch.setattr(lowrank, "_Walk", Recorded)

        def filled():
            walk = walks.pop()
            assert walk.buf.flags.f_contiguous and np.shares_memory(walk.state.basis, walk.buf)
            return walk.state.basis.shape[1], walk.buf.shape
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        with pytest.raises(ConvergenceError):
            rksm(s, "reach", 50, ShiftStrategy("alternating-pm1"), SolverConfig(max_iterations=10))
        assert filled() == (42, (s.n, 42))
        disc = rksm(s, "reach", math.inf, ShiftStrategy("adaptive-disc"),
                    SolverConfig(max_iterations=60))
        assert any(abs(z.imag) > 0 for z in disc.shifts)
        columns, shape = filled()
        assert shape == (s.n, 2 * (1 + 2 * 60)) and columns <= 2 * (1 + 2 * disc.iterations)
        smith_arnoldi(s, "obs", 12)
        assert filled() == (24, (s.n, 24))
        gs = generate_example(ExampleSpec(kind="gauss-seidel", size=8, inputs=2, outputs=2, seed=1))
        rksm(gs, "reach", 30)
        columns, shape = filled()
        assert shape == (gs.n, gs.n) and columns <= gs.n

    def test_basis_stays_in_place_and_no_result_keeps_it(self):
        # every evaluation reads Q at the reservation's address; the returned
        # factors own their data, so no Gramian keeps the reservation alive
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        results, walks = [], []
        for tau in (50, math.inf):
            for kind in ("alternating-pm1", "adaptive-disc"):
                addresses = []
                walks.append(addresses)

                def observer(state, core, tl_term, res_abs):
                    addresses.append(state.basis.__array_interface__["data"][0])
                results.append(rksm(s, "reach", tau, ShiftStrategy(kind), TIGHT, observer=observer))
        assert max(map(len, walks)) > 1 and all(len(set(a)) == 1 for a in walks)
        zero = build_system(np.diag([0.5, -0.3, 0.2]), np.zeros((3, 2)), np.ones((1, 3)))
        results += [rksm(zero, "reach", tau) for tau in (5, math.inf)]
        results += [smith_arnoldi(s, "reach", 12), smith_arnoldi(zero, "reach", 5)]
        assert results[-3].basis.shape == (3, 0)
        for g in results:
            assert g.basis.base is None

    def test_truncation_peak_within_one_buffer_pair(self, monkeypatch):
        # n=1600 and 122 columns in a reservation of all n columns:
        # truncate_factor starts with the reservation and k x k matrices
        # held, and no second n x k array; inside it, only the truncated
        # basis (rank 40) joins them (a truncated basis formed from an n x k
        # product adds at least Q's written bytes)
        s = generate_example(ExampleSpec(kind="jacobi", size=40, inputs=2, outputs=2, seed=1))
        real, held, peaks = lowrank.truncate_factor, [], []

        def traced(approx):
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            out = real(approx)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out
        monkeypatch.setattr(lowrank, "truncate_factor", traced)
        tracemalloc.start()
        try:
            a = rksm(s, "reach", 50)
        finally:
            tracemalloc.stop()
        assert a.records[-1].basis_columns == 122 and a.basis.shape[1] == 40
        reservation, written = 8 * s.n * s.n, 8 * s.n * 122
        assert held[0] - reservation < 0.5 * written
        assert peaks[0] - held[0] < 8 * s.n * 40 + 0.5 * written


class TestLazyProjection:
    def test_projected_current_at_every_evaluation(self):
        # the mass solve enters A; H = Q^T M^{-1} A Q is extended only when read
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=12, inputs=2, outputs=2, seed=1))
        Ad, _, _ = oracles.dense_standard(s)
        seen = []

        def observer(state, core, tl_term, res_abs):
            Q, H = state.basis, state.projected
            assert H.shape == (Q.shape[1], Q.shape[1])
            ref = Q.T @ Ad @ Q
            seen.append(np.linalg.norm(H - ref) / np.linalg.norm(ref))

        for tau in (30, math.inf):
            rksm(s, "reach", tau, ShiftStrategy("alternating-pm1"), SolverConfig(cadence=5),
                 observer=observer)
        assert seen and max(seen) <= 1e-12

    def test_basis_wide_products_per_step(self, monkeypatch):
        # per step (both poles, one 2m-column block): one reduction and one
        # update, which finish the pending block and project the new one, and
        # two more for a fallback; per evaluation: two to finish the pending
        # block, two to extend H, one for Q^T B, eight for the off-space factor
        # at one sketch width and one for the residual; one to truncate the
        # factor.  H is not extended between evaluations, and a pole's
        # continuation reads only the new block.
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        count = dict(products=0, orth=0, thirds=0, evaluations=0)
        product, orth = lowrank._thin_product, lowrank._orth_columns
        gram_schmidt = lowrank._gram_schmidt_step
        solve = lowrank.solve_projected_tl

        def counted_product(A, X):
            count["products"] += s.n in A.shape
            return product(A, X)

        def counted_orth(*args, **kw):
            count["orth"] += 1
            return orth(*args, **kw)

        def counted_gram_schmidt(*args):
            before = count["orth"]
            out = gram_schmidt(*args)
            count["thirds"] += count["orth"] - before - 1   # one orthonormalization per fallback
            return out

        def counted_solve(*args):
            count["evaluations"] += 1
            return solve(*args)

        monkeypatch.setattr(lowrank, "_thin_product", counted_product)
        monkeypatch.setattr(lowrank, "_orth_columns", counted_orth)
        monkeypatch.setattr(lowrank, "_gram_schmidt_step", counted_gram_schmidt)
        monkeypatch.setattr(lowrank, "solve_projected_tl", counted_solve)
        a = rksm(s, "reach", math.inf, ShiftStrategy("alternating-pm1"), SolverConfig(cadence=5))
        assert a.residual <= SolverConfig().tol and a.offspace_fallbacks == 0
        assert count["evaluations"] == math.ceil(a.iterations / 5)
        assert count["products"] <= (2 * a.iterations + 2 * count["thirds"]
                                     + 14 * count["evaluations"] + 1)

    def test_dynamics_applied_only_at_evaluations(self, monkeypatch):
        # a +-1 step makes its two pencil solves and no product with M^{-1}A:
        # the forward and the transposed map run where H is extended and the
        # off-space factor is formed, at every evaluation and nowhere else
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        dynamics, gram_schmidt = type(s).apply_dynamics, lowrank._gram_schmidt_step
        steps, calls = [0], []

        def counted_gram_schmidt(Q, P, X):
            steps[0] += X.shape[1] > 0   # an evaluation finishes the pending block alone
            return gram_schmidt(Q, P, X)

        def counted_dynamics(self, X, trans=False):
            calls.append((steps[0], trans))
            return dynamics(self, X, trans)

        monkeypatch.setattr(type(s), "apply_dynamics", counted_dynamics)
        monkeypatch.setattr(lowrank, "_gram_schmidt_step", counted_gram_schmidt)
        for side in ("reach", "obs"):
            for tau in (50, math.inf):
                steps[0] = 0
                calls.clear()
                a = rksm(s, side, tau, ShiftStrategy("alternating-pm1"), SolverConfig(cadence=5))
                assert a.residual <= SolverConfig().tol and steps[0] == a.iterations
                evaluations = set(range(5, a.iterations + 1, 5)) | {a.iterations}
                assert {k for k, _ in calls} == evaluations
                for k in evaluations:
                    assert {trans for j, trans in calls if j == k} == {False, True}


class TestTwoReadSteps:
    """A step reads the basis twice; the newest block is finished where the basis is read."""

    # (kind, tau) -> (iterations, basis columns) of both sides, as the
    # four-pass Gram-Schmidt step walked them
    WALKS = {("jacobi", 50): (20, 82), ("jacobi", math.inf): (20, 82),
             ("gauss-seidel", 50): (20, 82), ("gauss-seidel", math.inf): (15, 62)}

    @pytest.mark.parametrize("kind, tau", sorted(WALKS, key=str))
    @pytest.mark.parametrize("side", ["reach", "obs"])
    def test_pm1_walks_keep_their_steps_and_an_orthonormal_basis(self, kind, tau, side):
        s = generate_example(ExampleSpec(kind=kind, size=20, inputs=2, outputs=2, seed=1))
        loss = []

        def observer(state, core, tl_term, res_abs):
            Q = state.basis
            loss.append(np.linalg.norm(Q.T @ Q - np.eye(Q.shape[1]), 2))

        a = rksm(s, side, tau, ShiftStrategy("alternating-pm1"), observer=observer)
        assert (a.iterations, a.records[-1].basis_columns) == self.WALKS[kind, tau]
        assert [r.basis_columns for r in a.records] == [2 + 4 * k for k in range(1, a.iterations + 1)]
        assert a.deflated_columns == a.offspace_fallbacks == 0
        assert loss and max(loss) <= 1e-12

    def test_adaptive_poles_read_every_built_column(self, monkeypatch):
        # the Ritz values that pick a pole come from H over the whole basis,
        # the newest block included
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=12, inputs=2, outputs=2, seed=1))
        ritz, seen = lowrank.KrylovState.ritz_values, []

        def recorded(state):
            values = ritz(state)
            seen.append((state.basis.shape[1], state.projected.shape[0]))
            return values

        monkeypatch.setattr(lowrank.KrylovState, "ritz_values", recorded)
        a = rksm(s, "reach", 30, ShiftStrategy("adaptive-disc"))
        assert len(seen) == a.iterations
        built = [2] + [r.basis_columns for r in a.records[:-1]]
        assert seen == [(k, k) for k in built]

    def test_adaptive_walk_is_reproducible_under_round_off(self):
        # an adaptive pole continues from the newest m columns; a finished
        # block keeps the column order of its SVD, so a B scaled by round-off
        # walks as many steps (the third pass of two-pass Gram-Schmidt once
        # re-rotated them: 60, 70 and 50 steps at these scales)
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        steps = {rksm(build_system(s.A, scale * s.B, s.C, s.M), "reach", 50,
                      ShiftStrategy("adaptive-disc")).iterations
                 for scale in (1.0, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -50)}
        assert len(steps) == 1

    def test_complex_poles_leave_no_factor_on_the_system(self):
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=12, inputs=2, outputs=2, seed=1))
        a = rksm(s, "reach", 30, ShiftStrategy("adaptive-disc"))
        assert any(abs(p.imag) > 0 for p in a.shifts)
        assert set(s._units[0]) <= {1.0, -1.0}


class TestPairedSteps:
    """A +-1 step applies both poles, each continued from its own newest directions."""

    def test_basis_spans_the_rational_krylov_space(self):
        # the space depends only on the poles: after j steps the basis spans
        # [B, (A - I)^-1 B, (A + I)^-1 B, ..., (A - I)^-j B, (A + I)^-j B]
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=8, inputs=2, outputs=2, seed=1))
        Ad, Bd, _ = oracles.dense_standard(s)
        bases = {}

        def observer(state, core, tl_term, res_abs):
            bases[len(state.shifts) // 2] = state.basis.copy()

        with pytest.raises(ConvergenceError):
            rksm(s, "reach", math.inf, ShiftStrategy("alternating-pm1"),
                 SolverConfig(tol=1e-12, tl_term_tol=1e-12, cadence=1, max_iterations=4),
                 observer=observer)
        assert sorted(bases) == [1, 2, 3, 4]
        blocks, plus, minus = [Bd], Bd, Bd
        for j in range(1, 5):
            plus = np.linalg.solve(Ad - np.eye(s.n), plus)
            minus = np.linalg.solve(Ad + np.eye(s.n), minus)
            blocks += [plus / np.linalg.norm(plus, axis=0), minus / np.linalg.norm(minus, axis=0)]
            K = np.linalg.svd(np.hstack(blocks), full_matrices=False)[0]
            Q = bases[j]
            assert Q.shape == K.shape == (s.n, 2 + 4 * j)
            assert np.linalg.norm(Q - K @ (K.T @ Q), 2) <= 1e-8   # sine of the largest angle

    def test_two_factorizations_and_two_solves_per_step(self, monkeypatch):
        s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
        shift_solver, gram_schmidt = lowrank._shift_solver, lowrank._gram_schmidt_step
        count = dict(factorizations=0, solves=0)
        widths = []

        def counted_shift_solver(work, pole):
            count["factorizations"] += 1
            solve = shift_solver(work, pole)

            def counted_solve(b):
                count["solves"] += 1
                return solve(b)
            return counted_solve

        def recorded_gram_schmidt(Q, P, X):
            if X.shape[1]:   # an evaluation finishes the pending block alone
                widths.append(X.shape[1])
            return gram_schmidt(Q, P, X)

        monkeypatch.setattr(lowrank, "_shift_solver", counted_shift_solver)
        monkeypatch.setattr(lowrank, "_gram_schmidt_step", recorded_gram_schmidt)
        m = 2
        for side in ("reach", "obs"):
            for tau in (50, math.inf):
                count.update(factorizations=0, solves=0)
                widths.clear()
                a = rksm(s, side, tau, ShiftStrategy("alternating-pm1"))
                assert a.residual <= SolverConfig().tol and a.deflated_columns == 0
                assert count == dict(factorizations=2, solves=2 * a.iterations)
                assert widths == [2 * m] * a.iterations
                assert a.records[-1].basis_columns == m + 2 * m * a.iterations
                assert a.shifts == [1.0, -1.0] * a.iterations
                assert all(r.shift == 1.0 for r in a.records)


class TestThinProduct:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 40])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_plain_product(self, width, order):
        rng = np.random.default_rng(10)
        n, k = 700, 40
        Q = np.asfortranarray(np.linalg.qr(rng.standard_normal((n, k)))[0])
        for A, rows in ((Q, k), (Q.T, n)):
            X = np.asarray(rng.standard_normal((rows, width)), order=order)
            want = A @ X
            got = lowrank._thin_product(A, X)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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


class TestGramSchmidtStep:
    """``_gram_schmidt_step`` finishes a pending block and projects a new one."""

    @staticmethod
    def _run(monkeypatch, Q, P, X):
        calls = []
        orth = lowrank._orth_columns
        monkeypatch.setattr(lowrank, "_orth_columns",
                            lambda *args: calls.append(args) or orth(*args))
        done, pending, core = lowrank._gram_schmidt_step(Q, P, X)
        assert done.shape == P.shape and pending.shape == X.shape
        assert np.linalg.norm(Q.T @ done) <= 1e-13
        assert np.linalg.norm(done.T @ done - np.eye(P.shape[1])) <= 1e-13
        rest = P - Q @ (Q.T @ P)   # the finished block spans what P adds to Q
        assert np.linalg.norm(rest - done @ (done.T @ rest)) <= 1e-12 * np.linalg.norm(rest)
        assert np.linalg.norm(np.hstack([Q, done]).T @ pending) <= 1e-12
        rest = X - Q @ (Q.T @ X) - done @ (done.T @ X)
        assert np.linalg.norm(rest - pending @ core) <= 1e-12 * np.linalg.norm(X)
        return len(calls)

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((500, 40)))
        draw = rng.standard_normal
        return Q, draw((40, 4)), draw((500, 4)), draw((500, 4))

    def test_pending_block_of_one_pass_is_finished_by_its_gram_matrix(self, monkeypatch):
        Q, inside, outside, X = self._inputs()
        Y = Q @ inside + outside
        P, _ = lowrank._orth_columns(Y - Q @ (Q.T @ Y))
        assert self._run(monkeypatch, Q, P, X) == 1
        assert self._run(monkeypatch, Q, P, X[:, :0]) == 1   # finished alone, as at an evaluation

    def test_pending_block_almost_inside_the_basis_takes_the_fallback(self, monkeypatch):
        # P is orthonormal but nine tenths inside span(Q): lambda_min(P^T P - s^T s)
        # is about 0.01, below 1/4, so P - Q s is projected once more
        Q, inside, outside, X = self._inputs()
        P, _ = lowrank._orth_columns(Q @ inside + 0.1 * outside)
        s = Q.T @ P
        assert np.linalg.eigvalsh(P.T @ P - s.T @ s)[0] < 0.25
        assert self._run(monkeypatch, Q, P, X) == 2


class TestOffspaceFactor:
    """``_offspace_factor`` against G = W - Q H formed densely, for an
    operator that maps Q to W: X -> W (Q^T X), transposed X -> Q (W^T X)."""

    @staticmethod
    def _inputs(n, k, rank, seed=5):
        # orthonormal Q, projected H, and W = Q H + G with G of the given rank
        # orthogonal to Q
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        H = rng.standard_normal((k, k))
        X = rng.standard_normal((n, rank))
        X -= Q @ (Q.T @ X)
        W = Q @ H + X @ rng.standard_normal((rank, k))
        return np.asfortranarray(Q), np.asfortranarray(W), H

    @staticmethod
    def _operator(Q, W):
        return lambda X, trans=False: Q @ (W.T @ X) if trans else W @ (Q.T @ X)

    @pytest.mark.parametrize("n", [300, 2500])
    @pytest.mark.parametrize("rank", [2, 5])     # m, then 2m + 1: the width must double
    def test_factor_reproduces_dense_g(self, n, rank):
        m = 2
        Q, W, H = self._inputs(n, 40, rank)
        U, C, fell_back = lowrank._offspace_factor(Q, self._operator(Q, W), H, m)
        G = W - Q @ H
        assert np.linalg.norm(G - U @ C) <= 1e-10 * np.linalg.norm(G)
        assert U.shape == (n, rank) and C.shape == (rank, 40)
        assert not fell_back

    @pytest.mark.parametrize("n", [300, 2500])
    def test_zero_offspace_part_gives_empty_factor(self, n):
        # Q holds coordinate vectors, so W = Q H is exact and G is exactly 0
        k = 12
        Q = np.asfortranarray(np.eye(n, k))
        H = np.random.default_rng(6).standard_normal((k, k))
        W = np.asfortranarray(Q @ H)
        assert not (W - Q @ H).any()
        U, C, fell_back = lowrank._offspace_factor(Q, self._operator(Q, W), H, 2)
        assert U.shape == (n, 0) and C.shape == (0, k) and not fell_back

    @pytest.mark.parametrize("eps, accepted", [(1e-12, True), (1e-8, False)])
    def test_check_boundary(self, eps, accepted):
        # G is rank m plus a full-rank tail of relative size eps, so the factor
        # from the first sketch width (m + 2) misses G by about eps: the check
        # keeps it at 1e-12 and rejects it at 1e-8, after which the width grows
        # until the sketch holds the whole of G
        n, k, m = 300, 40, 2
        rng = np.random.default_rng(7)
        Q, W, H = self._inputs(n, k, m)
        tail = rng.standard_normal((n, k))
        tail -= Q @ (Q.T @ tail)
        G = W - Q @ H
        W = np.asfortranarray(W + eps * np.linalg.norm(G) / np.linalg.norm(tail) * tail)
        G = W - Q @ H
        U, C, fell_back = lowrank._offspace_factor(Q, self._operator(Q, W), H, m)
        miss = np.linalg.norm(G - U @ C) / np.linalg.norm(G)
        assert not fell_back
        if accepted:
            assert U.shape[1] <= m + 2 and 0.1 * eps <= miss <= 10 * eps
        else:
            assert U.shape[1] > m + 2 and miss <= 1e-10

    def test_peak_memory_below_half_an_n_by_k_array(self):
        n, k, m = 20000, 64, 2
        Q, W, H = self._inputs(n, k, m)
        tracemalloc.start()
        try:
            U, C, fell_back = lowrank._offspace_factor(Q, self._operator(Q, W), H, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert U.shape[1] == m and not fell_back
        assert peak < n * k * 8 / 2
