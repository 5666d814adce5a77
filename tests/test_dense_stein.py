import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_stable_system
from dtmor import (
    DenseCapError,
    ExampleSpec,
    Gramian,
    ShiftStrategy,
    SolvabilityError,
    build_system,
    generate_example,
    rksm,
    smith_arnoldi,
    solve_cross_sylvester,
    solve_projected_tl,
    solve_stein_dense,
    solve_stein_sylvester,
    square_root_truncate,
    stein_residual_dense,
    tl_gramian_dense,
)
from dtmor.config import DENSE_CAP_ENV
from dtmor.dense_stein import window_sum


class TestSolveSteinDense:
    def test_scalar_geometric(self):
        X = solve_stein_dense(np.array([[0.5]]), np.array([[1.0]]))
        assert X[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_diagonal_closed_form(self):
        A = np.diag([0.5, -0.5])
        B = np.ones((2, 1))
        X = solve_stein_dense(A, B @ B.T)
        assert X == pytest.approx(np.array([[4 / 3, 0.8], [0.8, 4 / 3]]), rel=1e-13)

    def test_nilpotent(self):
        W = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert solve_stein_dense(np.zeros((2, 2)), W) == pytest.approx(W)

    def test_unstable_but_solvable(self):
        # eigenvalues 2 and 0.3: no reciprocal pair, Schur backend handles it
        A = np.diag([2.0, 0.3])
        W = np.eye(2)
        X = solve_stein_dense(A, W)
        assert np.linalg.norm(A @ X @ A.T - X + W) <= 1e-12 * np.linalg.norm(W)

    def test_solvability_violation(self):
        with pytest.raises(SolvabilityError):
            solve_stein_dense(np.array([[1.0]]), np.array([[1.0]]))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setenv(DENSE_CAP_ENV, "4")
        with pytest.raises(DenseCapError):
            solve_stein_dense(np.eye(5) * 0.5, np.eye(5))

    def test_symmetry_and_residual_seeded(self):
        s = random_stable_system(21, 30, 2, 2)
        Ad = s.A
        W = s.B @ s.B.T
        X = solve_stein_dense(Ad, W)
        assert np.allclose(X, X.T, atol=1e-12 * np.abs(X).max())
        assert np.linalg.norm(Ad @ X @ Ad.T - X + W) <= 1e-12 * np.linalg.norm(W)


class TestSteinSylvester:
    def test_nonsymmetric_pair(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((7, 7)) * 0.2
        B = rng.standard_normal((4, 4)) * 0.3
        W = rng.standard_normal((7, 4))
        X = solve_stein_sylvester(A, B, W)
        assert np.linalg.norm(A @ X @ B.T - X + W) <= 1e-12 * np.linalg.norm(W)


class TestTlGramianDense:
    def test_scalar_two_terms(self, scalar_system):
        pair = tl_gramian_dense(scalar_system, 2, "reach")
        assert pair.gramian[0, 0] == pytest.approx(1.25)
        assert pair.tl_term[0, 0] == pytest.approx(0.25)
        # defining equation: a P a - P + b^2 - F^2 = 0
        assert 0.25 * 1.25 - 1.25 + 1.0 - 0.0625 == pytest.approx(0.0, abs=1e-15)

    def test_unstable_finite_horizon_exists(self):
        from dtmor import build_system
        s = build_system([[1.0]], [[1.0]], [[1.0]])
        pair = tl_gramian_dense(s, 3, "reach")
        assert pair.gramian[0, 0] == pytest.approx(3.0)
        assert pair.tl_term[0, 0] == pytest.approx(1.0)

    def test_tau_one(self, jacobi_small):
        pair = tl_gramian_dense(jacobi_small, 1, "reach")
        B0 = jacobi_small.input_map()
        assert np.allclose(pair.gramian, B0 @ B0.T, atol=1e-14)
        assert np.allclose(pair.tl_term, jacobi_small.apply_dynamics(B0), atol=1e-14)

    def test_infinite_on_unstable_raises(self):
        from dtmor import build_system
        s = build_system([[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(SolvabilityError):
            tl_gramian_dense(s, math.inf, "reach")

    @pytest.mark.parametrize("tau", [1, 5, 50])
    def test_matches_brute_force_sum(self, tau):
        s = random_stable_system(100 + tau, 40, 3, 2)
        pair = tl_gramian_dense(s, tau, "reach")
        P, F = oracles.gramian_sum(s.A, s.B, tau)
        assert np.linalg.norm(pair.gramian - P) <= 1e-10 * np.linalg.norm(P)
        assert np.linalg.norm(pair.tl_term - F) <= 1e-10 * max(np.linalg.norm(F), 1e-300)

    def test_monotone_and_convergent(self):
        s = random_stable_system(7, 20, 2, 2, radius=0.85)
        Pinf = tl_gramian_dense(s, math.inf, "reach").gramian
        prev_gap = None
        for tau in (5, 10, 20, 40):
            P = tl_gramian_dense(s, tau, "reach").gramian
            P_next = tl_gramian_dense(s, tau + 1, "reach").gramian
            assert np.linalg.eigvalsh(P_next - P).min() >= -1e-12 * np.linalg.norm(P)
            gap = np.linalg.norm(Pinf - P)
            if prev_gap is not None:
                # doubling tau squares the geometric factor, modulo constant
                assert gap <= prev_gap * (0.85 ** tau) * 10
            prev_gap = gap

    def test_residual_invariant_generalized(self, gs_small):
        for side in ("reach", "obs"):
            pair = tl_gramian_dense(gs_small, 12, side)
            assert stein_residual_dense(gs_small, pair) <= 1e-12

    def test_one_gramian_type_for_every_solver(self, gs_small):
        # a dense Gramian is the factored type without a basis
        dense = tl_gramian_dense(gs_small, 12, "reach")
        smith = smith_arnoldi(gs_small, "reach", 12)
        krylov = rksm(gs_small, "reach", 12)
        assert type(dense) is type(smith) is type(krylov) is Gramian
        assert dense.basis is None and smith.basis is not None and krylov.basis is not None

    def test_dense_rank_and_gramian_alias(self, gs_small):
        pair = tl_gramian_dense(gs_small, 12, "obs")
        P = pair.matrix()
        assert pair.gramian is P
        # the 1e-12 eigenvalue rule of truncate_factor, on the dense matrix
        lam = np.linalg.eigvalsh(0.5 * (P + P.T))
        assert pair.rank == int(np.sum(lam > 1e-12 * lam.max(initial=0.0)))
        assert 0 < pair.rank <= gs_small.n

    def test_obs_side_matches_dual_sum(self, jacobi_small):
        pair = tl_gramian_dense(jacobi_small, 9, "obs")
        dual = jacobi_small.dual()
        ref, _ = oracles.gramian_sum(*oracles.dense_standard(dual)[:2], 9)
        assert np.linalg.norm(pair.gramian - ref) <= 1e-10 * np.linalg.norm(ref)


class TestCrossSylvester:
    def test_self_cross_equals_gramian(self, scalar_system):
        Y = solve_cross_sylvester(scalar_system, scalar_system, 2, "Y")
        assert Y[0, 0] == pytest.approx(1.25, rel=1e-12)

    def test_nilpotent_reduced_side(self, scalar_system):
        from dtmor import build_system
        rom = build_system([[0.0]], [[1.0]], [[1.0]])
        Y = solve_cross_sylvester(scalar_system, rom, 2, "Y")
        assert Y[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_matches_direct_sum(self):
        s = random_stable_system(12, 12, 2, 2)
        rom = random_stable_system(13, 4, 2, 2, radius=0.7)
        Y = solve_cross_sylvester(s, rom, 30, "Y")
        ref = oracles.cross_sum(s.A, s.B, rom.A, rom.B, 30)
        assert np.linalg.norm(Y - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_trace_identity_between_sides(self):
        s = random_stable_system(17, 10, 2, 3)
        rom = random_stable_system(18, 3, 2, 3, radius=0.6)
        Y = solve_cross_sylvester(s, rom, 25, "Y")
        Z = solve_cross_sylvester(s, rom, 25, "Z")
        lhs = np.trace(s.C @ Y @ rom.C.T)
        rhs = np.trace(s.B.T @ Z @ rom.B)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_generalized_equals_standard(self, gs_small):
        rom = random_stable_system(19, 3, gs_small.m, gs_small.p, radius=0.5)
        Yg = solve_cross_sylvester(gs_small, rom, 15, "Y")
        Ys = solve_cross_sylvester(gs_small.to_standard(), rom, 15, "Y")
        assert np.linalg.norm(Yg - Ys) <= 1e-10 * np.linalg.norm(Ys)

    def test_infinite_horizon(self):
        s = random_stable_system(23, 9, 2, 2, radius=0.7)
        rom = random_stable_system(24, 3, 2, 2, radius=0.6)
        Y = solve_cross_sylvester(s, rom, math.inf, "Y")
        ref = oracles.cross_sum(s.A, s.B, rom.A, rom.B, 400)
        assert np.linalg.norm(Y - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shifts", ["alternating-pm1", "adaptive-disc"])
    @pytest.mark.parametrize("kind", ["jacobi", "gauss-seidel"])
    def test_galerkin_on_krylov_basis_matches_recursion(self, kind, shifts):
        # N=20 (n=400), m=p=2, seed 1: the order-10 BT model of the run's own
        # infinite-horizon low-rank Gramians, whose bases the cross Gramians
        # are projected onto; the recursion solves the full-order equation
        s = generate_example(ExampleSpec(kind=kind, size=20, inputs=2, outputs=2, seed=1))
        strategy = ShiftStrategy(shifts)
        reach = rksm(s, "reach", math.inf, strategy)
        obs = rksm(s, "obs", math.inf, strategy)
        rom = square_root_truncate(reach, obs, s, math.inf, order=10, method="bt")[0].system
        Y = solve_cross_sylvester(s, rom, math.inf, "Y", reach.basis)
        Z = solve_cross_sylvester(s, rom, math.inf, "Z", obs.basis)
        Yr = solve_cross_sylvester(s, rom, math.inf, "Y")
        Zr = solve_cross_sylvester(s, rom, math.inf, "Z")
        assert np.trace(s.C @ Y @ rom.C.T) == pytest.approx(np.trace(s.C @ Yr @ rom.C.T),
                                                             rel=1e-10)
        assert np.trace(s.B.T @ Z @ rom.B) == pytest.approx(np.trace(s.B.T @ Zr @ rom.B),
                                                             rel=1e-10)
        W = s.input_map() @ rom.input_map().T
        resid = s.apply_dynamics(Y) @ rom.dense_dynamics().T - Y + W
        assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(W), np.linalg.norm(Y))

    def test_infinite_horizon_reciprocal_pair_raises(self):
        # 2 * 0.5 = 1: the infinite-horizon equation has no unique solution
        s = build_system(np.diag([2.0, 0.3]), np.ones((2, 1)), np.ones((1, 2)))
        rom = build_system([[0.5]], [[1.0]], [[1.0]])
        with pytest.raises(SolvabilityError):
            solve_cross_sylvester(s, rom, math.inf, "Y")

    @given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 12), r=st.integers(1, 4),
           tau=st.integers(1, 40), radius=st.floats(0.3, 0.99),
           generalized=st.booleans(), grid=st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_finite_horizon_solves_stein_like_equation(self, seed, n, r, tau, radius,
                                                       generalized, grid):
        # a Gauss-Seidel pencil like gs_small, at N = 2 or 3 (n = 4 or 9)
        if generalized:
            s = generate_example(ExampleSpec(kind="gauss-seidel", size=grid,
                                             inputs=2, outputs=2, seed=seed))
        else:
            s = random_stable_system(seed, n, 2, 2, radius)
        rom = random_stable_system(seed + 1, r, 2, 2, radius)
        for side, full, red in (("Y", s, rom), ("Z", s.dual(), rom.dual())):
            X = solve_cross_sylvester(s, rom, tau, side)
            Ad, Bd, _ = oracles.dense_standard(full)
            Ah, Bh = red.A, red.B
            F = np.linalg.matrix_power(Ad, tau) @ Bd
            Fh = np.linalg.matrix_power(Ah, tau) @ Bh
            W = Bd @ Bh.T - F @ Fh.T
            resid = Ad @ X @ Ah.T - X + W
            assert np.linalg.norm(resid) <= 1e-10 * max(np.linalg.norm(X), np.linalg.norm(W))
            ref = oracles.cross_sum(Ad, Bd, Ah, Bh, tau)
            assert np.linalg.norm(X - ref) <= 1e-10 * np.linalg.norm(ref)


class TestProjectedTl:
    def test_scalar_tl(self):
        Y = solve_projected_tl(np.array([[0.5]]), np.array([[1.0]]), np.array([[0.25]]))
        assert Y[0, 0] == pytest.approx(1.25, rel=1e-14)

    def test_scalar_infinite(self):
        Y = solve_projected_tl(np.array([[0.5]]), np.array([[1.0]]))
        assert Y[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_unstable_infinite_raises(self):
        with pytest.raises(SolvabilityError):
            solve_projected_tl(np.array([[1.1]]), np.array([[1.0]]))

    @given(seed=st.integers(0, 2 ** 16), k=st.integers(1, 10), m=st.integers(1, 3),
           tau=st.integers(1, 40), radius=st.floats(0.3, 1.3))
    @settings(max_examples=60, deadline=None)
    def test_window_walk_solves_projected_equation(self, seed, k, m, tau, radius):
        # stable or not, the walked pair (Y, Fk) solves the projected equation,
        # and it is the solution wherever that solution is unique
        rng = np.random.default_rng(seed)
        H = rng.standard_normal((k, k))
        H *= radius / max(abs(np.linalg.eigvals(H)))
        Bk = rng.standard_normal((k, m))
        Y, Fk, _ = window_sum(lambda X: H @ X, Bk, tau)
        W = Bk @ Bk.T - Fk @ Fk.T
        resid = H @ Y @ H.T - Y + W
        scale = np.linalg.norm(H, 2) ** 2 * np.linalg.norm(Y) + np.linalg.norm(W)
        assert np.linalg.norm(resid) <= 1e-10 * scale
        eigs = np.linalg.eigvals(H)
        margin = float(np.abs(1.0 - np.outer(eigs, eigs)).min())
        assume(margin > 1e-10)
        ref = solve_projected_tl(H, Bk, Fk)
        assert np.linalg.norm(Y - ref) <= 1e-10 * np.linalg.norm(Y) / min(margin, 1.0)
