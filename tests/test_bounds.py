import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_stable_system
from dtmor import (
    AsymptoticConstants,
    DiscreteLTISystem,
    EstimationError,
    ExampleSpec,
    ShiftStrategy,
    SolvabilityError,
    SolverConfig,
    HankelSpectrum,
    asymptotic_constants,
    balance,
    bound_output_tl,
    bound_theorem32,
    build_bound_report,
    error_expr_tlbt,
    generate_example,
    impulse_sequence,
    numerical_radius,
    rksm,
    simulate,
    square_root_truncate,
    tl_gramian_dense,
    tl_h2_inner,
    tl_h2_norm,
)
from dtmor import bounds
from dtmor.bounds import _balanced_side_terms
from dtmor.dense_stein import psd_factor, solve_cross_sylvester, solve_projected_tl

SQRT2P1 = 1.0 + math.sqrt(2.0)


def _balanced(seed, n, m, p, tau, radius=0.8):
    s = random_stable_system(seed, n, m, p, radius)
    bal = balance(s, tl_gramian_dense(s, tau, "reach"),
                  tl_gramian_dense(s, tau, "obs"), tau)
    return s, bal


def _lowrank_bt_jacobi():
    """Jacobi N=20 (n=400), m=p=2, seed 1, with its low-rank
    infinite-horizon Gramians and the BT model of order 10 built from them."""
    s = generate_example(ExampleSpec(kind="jacobi", size=20, inputs=2, outputs=2, seed=1))
    shifts = ShiftStrategy("alternating-pm1")
    reach = rksm(s, "reach", math.inf, shifts, SolverConfig())
    obs = rksm(s, "obs", math.inf, shifts, SolverConfig())
    rom, _ = square_root_truncate(reach, obs, s, math.inf, order=10, method="bt")
    return s, reach, obs, rom


class TestH2InnerAndNorm:
    def test_nilpotent_second_system(self, scalar_system):
        s2 = DiscreteLTISystem([[0.0]], [[1.0]], [[1.0]])
        assert tl_h2_inner(scalar_system, s2, 2) == pytest.approx(1.0, rel=1e-12)

    def test_norm_consistency(self, scalar_system):
        assert tl_h2_inner(scalar_system, scalar_system, 2) == pytest.approx(1.25, rel=1e-12)
        assert tl_h2_norm(scalar_system, 2) == pytest.approx(math.sqrt(1.25), rel=1e-12)

    def test_inner_matches_direct_sum(self):
        s1 = random_stable_system(1, 10, 2, 2)
        s2 = random_stable_system(2, 3, 2, 2, radius=0.6)
        tau = 40
        got = tl_h2_inner(s1, s2, tau)
        h1 = oracles.impulse_seq(s1.A, s1.B, s1.C, tau)
        h2 = oracles.impulse_seq(s2.A, s2.B, s2.C, tau)
        ref = sum(float(np.sum(h1[j] * h2[j])) for j in range(tau + 1))
        assert got == pytest.approx(ref, rel=1e-10)

    def test_zero_output_map(self):
        s = DiscreteLTISystem([[0.5]], [[1.0]], [[0.0]])
        assert tl_h2_norm(s, 5) == 0.0

    def test_norm_gramian_path_matches_impulse_sum(self):
        from dtmor import ExampleSpec, generate_example
        s = generate_example(ExampleSpec(kind="jacobi", size=6, inputs=2, outputs=2, seed=8))
        tau = 30
        got = tl_h2_norm(s, tau)
        h = impulse_sequence(s, tau)
        ref = math.sqrt(float(np.sum(h ** 2)))
        assert got == pytest.approx(ref, rel=1e-9)

    def test_norm_squared_equals_self_inner(self):
        for seed in range(5):
            s = random_stable_system(30 + seed, 8, 2, 2)
            tau = 15
            assert tl_h2_norm(s, tau) ** 2 == pytest.approx(
                tl_h2_inner(s, s, tau), rel=1e-12)


class TestOutputBound:
    def test_identity_reduction_zero(self):
        # the squared bound cancels to round-off; epsilon itself can only be
        # as small as the square root of that noise
        s = random_stable_system(3, 8, 2, 2)
        ob = bound_output_tl(s, s, 12)
        scale = float(np.trace(s.C @ tl_gramian_dense(s, 12, "reach").gramian @ s.C.T))
        assert ob.epsilon_squared <= 1e-12 * scale
        assert ob.epsilon <= 1e-6

    def test_zero_model_gives_system_norm(self, scalar_system):
        zero = DiscreteLTISystem([[0.0]], [[0.0]], [[0.0]])
        ob = bound_output_tl(scalar_system, zero, 2)
        assert ob.epsilon == pytest.approx(tl_h2_norm(scalar_system, 2), rel=1e-10)

    def test_inf_bound_rejects_window_gramians(self):
        # Gauss-Seidel N=8, m=p=2, seed 1, BT order 4: a tau=20 pair in place
        # of the tau=inf pair gave eps^2 = 5.88 instead of 5.37e-3
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=8, inputs=2,
                                         outputs=2, seed=1))
        reach = tl_gramian_dense(s, math.inf, "reach")
        obs = tl_gramian_dense(s, math.inf, "obs")
        rom, _ = square_root_truncate(reach, obs, s, math.inf, order=4, method="bt")
        given = bound_output_tl(s, rom.system, math.inf, reach, obs)
        assert given.epsilon_squared == pytest.approx(
            bound_output_tl(s, rom.system, math.inf).epsilon_squared, rel=1e-10)
        window = tl_gramian_dense(s, 20, "reach"), tl_gramian_dense(s, 20, "obs")
        for pair in (window, (reach, window[1]), (window[0], None)):
            with pytest.raises(ValueError, match="infinite-horizon"):
                bound_output_tl(s, rom.system, math.inf, *pair)
        # a finite window sums the impulse response and ignores the Gramians
        assert bound_output_tl(s, rom.system, 20, *window).backend == "summation"

    def test_dominates_simulation(self):
        s = random_stable_system(4, 20, 2, 2)
        tau = 30
        reach = tl_gramian_dense(s, tau, "reach")
        obs = tl_gramian_dense(s, tau, "obs")
        rom, _ = square_root_truncate(reach, obs, s, tau, order=8)
        ob = bound_output_tl(s, rom.system, tau)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal((tau + 1, s.m))
            y = simulate(s, u).outputs
            yh = simulate(rom.system, u).outputs
            assert np.linalg.norm(y - yh, axis=1).max() <= ob.bound_for_input(u) + 1e-12

    def test_sides_agree_with_exact_gramians(self):
        s = random_stable_system(5, 14, 2, 3)
        rom, _ = square_root_truncate(tl_gramian_dense(s, 25, "reach"),
                                      tl_gramian_dense(s, 25, "obs"), s, 25, order=5)
        ob = bound_output_tl(s, rom.system, 25)
        assert ob.sides_relative_gap <= 1e-8

    def test_unstable_model_supported(self):
        s = random_stable_system(6, 10, 2, 2)
        rng = np.random.default_rng(7)
        bad = rng.standard_normal((3, 3))
        bad *= 1.05 / max(abs(np.linalg.eigvals(bad)))
        rom = DiscreteLTISystem(bad, rng.random((3, 2)), rng.random((2, 3)))
        ob = bound_output_tl(s, rom, 15)
        assert np.isfinite(ob.epsilon) and ob.epsilon > 0

    def test_direct_sum_fallback_on_reciprocal_pair(self):
        # alpha * beta = 1 between system and model spectra: the matrix
        # equation has no unique solution, the finite-horizon sum still does
        sys_ = DiscreteLTISystem(np.diag([2.0, 0.3]), np.ones((2, 1)), np.ones((1, 2)))
        rom = DiscreteLTISystem([[0.5]], [[1.0]], [[1.0]])
        tau = 6
        ob = bound_output_tl(sys_, rom, tau)
        h = oracles.impulse_seq(sys_.A, sys_.B, sys_.C, tau)
        hr = oracles.impulse_seq(rom.A, rom.B, rom.C, tau)
        ref = math.sqrt(float(np.sum((h - hr) ** 2)))
        assert ob.epsilon == pytest.approx(ref, rel=1e-10)

    def test_desk_dense_epsilon_matches_impulse_sum(self):
        # Gauss-Seidel N=20 (n=400), m=p=2, seed 1, tau=50, r=10, dense: the
        # trace terms cancel to about 1e-4 of each, so cross Gramians that
        # are not summed like the window Gramians show up in epsilon
        from dtmor.cli import JobConfig, run_pipeline
        cfg = JobConfig(example=ExampleSpec(kind="gauss-seidel", size=20, inputs=2,
                                            outputs=2, seed=1),
                        tau=50, methods=("bt", "tlbt"), order=10, solver="dense")
        bundle = run_pipeline(cfg)
        Ad, Bd, C = oracles.dense_standard(bundle.system)
        for method, rom in bundle.roms.items():
            r = rom.system
            ref = math.sqrt(oracles.h2_error_sq(Ad, Bd, C, r.A, r.B, r.C, 50))
            assert bundle.reports[method].prop23.epsilon == pytest.approx(ref, rel=1e-5)

    def test_finite_window_epsilon_is_impulse_sum_with_lowrank_gramians(self):
        # the desk-dense system (Gauss-Seidel N=20, m=p=2, seed 1, tau=50,
        # r=10) reduced from rksm Gramians: the window bound is summed, so
        # solver tolerances do not reach it
        from dtmor.cli import JobConfig, run_pipeline
        cfg = JobConfig(example=ExampleSpec(kind="gauss-seidel", size=20, inputs=2,
                                            outputs=2, seed=1),
                        tau=50, methods=("bt", "tlbt"), order=10, solver="rksm-pm1")
        bundle = run_pipeline(cfg)
        Ad, Bd, C = oracles.dense_standard(bundle.system)
        for method, rom in bundle.roms.items():
            r = rom.system
            ref = oracles.h2_error_sq(Ad, Bd, C, r.A, r.B, r.C, 50)
            report = bundle.reports[method]
            assert report.prop23.backend == "summation"
            assert report.prop23.epsilon ** 2 == pytest.approx(ref, rel=1e-12)

    def test_large_scale_flag_with_lowrank_gramians(self):
        from dtmor import rksm, SolverConfig, ShiftStrategy
        s = random_stable_system(8, 30, 2, 2)
        tau = 20
        cfg = SolverConfig(tol=1e-10, tl_term_tol=1e-11, cadence=1)
        reach = rksm(s, "reach", tau, cfg=cfg)
        obs = rksm(s, "obs", tau, cfg=cfg)
        rom, _ = square_root_truncate(reach, obs, s, tau, order=8)
        ob_lr = bound_output_tl(s, rom.system, tau, reach=reach, obs=obs)
        ob_dn = bound_output_tl(s, rom.system, tau)
        assert not ob_lr.large_scale_approximate and not ob_dn.large_scale_approximate
        assert ob_lr.epsilon == pytest.approx(ob_dn.epsilon, rel=1e-12)


class TestInfiniteHorizon:
    def test_full_order_zero(self):
        s, bal = _balanced(9, 8, 2, 2, math.inf)
        ib = error_expr_tlbt(bal, 8)
        assert ib.value <= 1e-10

    def test_matches_impulse_sum(self):
        s, bal = _balanced(10, 10, 2, 2, math.inf, radius=0.75)
        r = 5
        ib = error_expr_tlbt(bal, r)
        ref = oracles.h2_error_sq(bal.a, bal.b, bal.c,
                                  bal.a[:r, :r], bal.b[:r], bal.c[:, :r], 2000)
        assert ib.value == pytest.approx(ref, rel=1e-9)

    def test_rank_deficient_grid_matches_impulse_sum(self):
        # Gauss-Seidel N=20 (n=400), m=p=2, seed 1, BT at r=10: the pair is
        # balanced at its numerical rank, and the ROM-Gramian gap must not be
        # formed against sigma_1 ~ 1.7e3 when the error is 6.8e-5
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=20, inputs=2,
                                         outputs=2, seed=1))
        reach = tl_gramian_dense(s, math.inf, "reach")
        obs = tl_gramian_dense(s, math.inf, "obs")
        bal = balance(s, reach, obs)
        assert bal.order < s.n
        rom, _ = square_root_truncate(reach, obs, s, math.inf, order=10, method="bt")
        Ad, Bd, C = oracles.dense_standard(s)
        r = rom.system
        ref = oracles.h2_error_sq(Ad, Bd, C, r.A, r.B, r.C, 3000)
        assert error_expr_tlbt(bal, 10).value == pytest.approx(ref, rel=1e-8)

    def test_upper_variant_dominates(self):
        for seed in range(15):
            try:
                _, bal = _balanced(1500 + seed, 10, 2, 2, math.inf, radius=0.85)
            except Exception:
                continue
            ib = error_expr_tlbt(bal, 5)
            assert ib.upper_sq >= ib.value - 1e-12 * max(ib.upper_sq, 1.0)

    def test_two_state_diagonal(self):
        # decoupled balanced system: truncation error is the dropped mode
        A = np.diag([0.5, 0.2])
        B = np.array([[1.0], [0.5]])
        s = DiscreteLTISystem(A, B, B.T.copy())
        P = np.diag(B[:, 0] ** 2 / (1 - np.diag(A) ** 2))
        bal = balance(s, psd_factor(P), psd_factor(P), math.inf)
        ib = error_expr_tlbt(bal, 1)
        ref = oracles.h2_error_sq(bal.a, bal.b, bal.c,
                                  bal.a[:1, :1], bal.b[:1], bal.c[:, :1], 4000)
        assert ib.value == pytest.approx(ref, rel=1e-10)

    def test_balanced_expression_over_an_infinite_horizon_is_the_bt_expression(self):
        # error_expr_tlbt evaluates over the realization's own horizon: at
        # tau = inf it has no horizon residual and carries the upper variant
        s = generate_example(ExampleSpec(kind="gauss-seidel", size=6, inputs=2,
                                         outputs=2, seed=1))
        bal = balance(s, tl_gramian_dense(s, math.inf, "reach"),
                      tl_gramian_dense(s, math.inf, "obs"))
        r = 4
        expr = error_expr_tlbt(bal, r)
        assert expr.residual_term is None and expr.upper_sq >= expr.value
        rom = bal.reduced_system(r)
        Ad, Bd, C = oracles.dense_standard(s)
        ref = oracles.h2_error_sq(Ad, Bd, C, rom.A, rom.B, rom.C, 3000)
        assert expr.value == pytest.approx(ref, rel=1e-8)

    def test_window_expression_has_no_upper_variant(self):
        _, bal = _balanced(12, 10, 2, 2, 20)
        assert error_expr_tlbt(bal, 6).upper_sq is None


    def test_lowrank_gramians_match_dense_oracle(self):
        s, reach, obs, rom = _lowrank_bt_jacobi()
        low = bound_output_tl(s, rom.system, math.inf, reach, obs)
        dense = bound_output_tl(s, rom.system, math.inf)
        assert low.large_scale_approximate and not dense.large_scale_approximate
        assert low.epsilon_squared == pytest.approx(dense.epsilon_squared, rel=1e-4)


class TestTlbtErrorExpression:
    def test_full_order_zero(self):
        _, bal = _balanced(11, 8, 2, 2, 10)
        assert error_expr_tlbt(bal, 8).value <= 1e-9

    def test_scalar_residual_cancels_at_full_order(self, scalar_system):
        bal = balance(scalar_system,
                      tl_gramian_dense(scalar_system, 4, "reach"),
                      tl_gramian_dense(scalar_system, 4, "obs"), 4)
        expr = error_expr_tlbt(bal, 1)
        assert abs(expr.residual_term) <= 1e-12
        assert expr.value <= 1e-12

    def test_matches_impulse_sum(self):
        _, bal = _balanced(12, 10, 2, 2, 20)
        r = 6
        expr = error_expr_tlbt(bal, r)
        ref = oracles.h2_error_sq(bal.a, bal.b, bal.c,
                                  bal.a[:r, :r], bal.b[:r], bal.c[:, :r], 20)
        assert expr.value == pytest.approx(ref, rel=1e-8)
        assert expr.c_side == pytest.approx(expr.b_side, rel=1e-8)

    def test_terms_sum_to_value(self):
        _, bal = _balanced(13, 8, 2, 2, 12)
        expr = error_expr_tlbt(bal, 4)
        assert abs(sum(expr.terms.values())) == pytest.approx(expr.value, abs=1e-10)

    def test_residual_term_decays_with_horizon(self):
        s = random_stable_system(14, 10, 2, 2, radius=0.7)
        vals = []
        for tau in (8, 16, 32):
            bal = balance(s, tl_gramian_dense(s, tau, "reach"),
                          tl_gramian_dense(s, tau, "obs"), tau)
            vals.append(abs(error_expr_tlbt(bal, 5).residual_term))
        assert vals[1] <= vals[0] * (0.7 ** 8) * 1.1 + 1e-14
        assert vals[2] <= vals[1] * (0.7 ** 16) * 1.1 + 1e-14


def _explicit_b_side(bal, r):
    """The B-side (observability) terms of truncating ``bal`` at order r,
    written out on the balanced blocks: trace(B2^T S2 B2), the coupling
    2 trace(A21^T S2 a[r:, :] Y), the ROM-Gramian gap Q^ - S1 (solved at
    tau = inf, subtracted at a window) and the horizon residual
    2 (trace(S1 F1 Fh^T) - trace(G1^T tl_c Y))."""
    tau, a = bal.horizon, bal.a
    s1, s2 = bal.sigma[:r], bal.sigma[r:]
    A21, B1, B2 = a[r:, :r], bal.b[:r], bal.b[r:]
    full = DiscreteLTISystem(a, bal.b, bal.c)
    rom = DiscreteLTISystem(a[:r, :r], B1, bal.c[:, :r])
    Y = solve_cross_sylvester(full, rom, tau, "Y")
    if math.isinf(tau):
        gap = -solve_projected_tl(rom.A.T, A21.T * np.sqrt(s2))
    else:
        gap = tl_gramian_dense(rom, tau, "obs").gramian - np.diag(s1)
    ref = {
        "neglected_block": np.trace(B2.T @ (s2[:, None] * B2)),
        "coupling": 2.0 * np.trace(A21.T @ (s2[:, None] * (a[r:, :] @ Y))),
        "rom_gramian_gap": np.trace(B1.T @ gap @ B1),
    }
    if not math.isinf(tau):
        Fh = tl_gramian_dense(rom, tau, "reach").tl_term
        G1 = bal.tl_c[:, :r]
        ref["tl_residual"] = 2.0 * (np.trace(np.diag(s1) @ bal.tl_b[:r] @ Fh.T)
                                    - np.trace(G1.T @ bal.tl_c @ Y))
    return ref


class TestBalancedErrorTermsBSide:
    @pytest.mark.parametrize("kind", ["random-stable", "gauss-seidel"])
    @pytest.mark.parametrize("tau", [12, math.inf])
    def test_b_side_matches_explicit_formulas(self, kind, tau):
        if kind == "random-stable":
            s = random_stable_system(21, 10, 2, 2, radius=0.8)
        else:
            s = generate_example(ExampleSpec(kind="gauss-seidel", size=6, inputs=2,
                                             outputs=2, seed=1))
        bal = balance(s, tl_gramian_dense(s, tau, "reach"),
                      tl_gramian_dense(s, tau, "obs"), tau)
        k = bal.order
        for r in (k // 2, k):
            ref = _explicit_b_side(bal, r)
            b = _balanced_side_terms(bal.dual(), r)[0]
            assert sorted(b) == sorted(ref)
            scale = max(abs(v) for v in ref.values())
            for name, value in ref.items():
                assert abs(b[name] - value) <= 1e-12 * scale, (kind, tau, r, name)


class TestAsymptoticConstants:
    def test_symmetric_gives_exact_constants(self):
        rng = np.random.default_rng(15)
        A = rng.standard_normal((8, 8))
        A = 0.4 * (A + A.T) / 2
        c = asymptotic_constants(A, "eigen")
        assert c.scale == pytest.approx(1.0)
        assert c.rate == pytest.approx(max(abs(np.linalg.eigvals(A))))

    def test_numerical_radius_constant(self):
        A = np.diag([0.5, -0.2])
        c = asymptotic_constants(A, "numerical-radius")
        assert c.scale == pytest.approx(SQRT2P1, rel=1e-12)

    def test_defective_matrix_rejected(self):
        A = np.array([[0.5, 1.0], [0.0, 0.5]])  # Jordan block
        with pytest.raises(EstimationError):
            asymptotic_constants(A, "eigen")

    @pytest.mark.parametrize("method", ["eigen", "numerical-radius"])
    def test_power_envelope(self, method):
        rng = np.random.default_rng(16)
        A = rng.standard_normal((50, 50))
        A *= 0.9 / max(abs(np.linalg.eigvals(A)))
        c = asymptotic_constants(A, method)
        X = A.copy()
        for k in range(1, 101):
            assert np.linalg.norm(X, 2) <= c.power_bound(k) * (1 + 1e-12)
            X = X @ A

    def test_numerical_radius_of_sparse_equals_dense_copy(self):
        A = generate_example(ExampleSpec(kind="gauss-seidel", size=5, seed=1)).A
        assert sp.issparse(A)
        assert numerical_radius(A) == numerical_radius(A.toarray())

    def test_numerical_radius_brackets(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            A = rng.standard_normal((12, 12))
            r = numerical_radius(A)
            assert max(abs(np.linalg.eigvals(A))) <= r * (1 + 1e-8)
            assert r <= np.linalg.norm(A, 2) * (1 + 1e-8)


class TestTheorem32:
    def test_full_order_infinite_horizon_vanishes(self):
        _, bal = _balanced(18, 8, 2, 2, math.inf, radius=0.7)
        cf = asymptotic_constants(bal.a, "eigen")
        t32 = bound_theorem32(bal, 8, math.inf, (cf, cf))
        assert t32.total == 0.0

    def test_explicit_infinite_horizon_path_needs_no_dense_rom_gramian(self, monkeypatch):
        # at tau = inf the ROM-Gramian gap is solved from -A12 Sigma2 A12^T,
        # as in the balanced error expressions, not by subtracting Sigma1
        _, bal = _balanced(18, 8, 2, 2, math.inf, radius=0.7)
        dense = bounds.tl_gramian_dense

        def finite_only(sys, tau, side="reach"):
            assert not math.isinf(tau), "tau = inf dense Gramian asked for"
            return dense(sys, tau, side)

        monkeypatch.setattr(bounds, "tl_gramian_dense", finite_only)
        c = AsymptoticConstants(1.0, 1.0, "eigen")
        t32 = bound_theorem32(bal, 4, math.inf, (c, c))
        assert t32.path == "explicit"
        assert t32.total >= error_expr_tlbt(bal, 4).value

    def test_tau_must_match_the_balancing_horizon(self):
        # the tau = inf gap is solved from the balanced Lyapunov equation, which
        # holds only for a realization balanced at infinite horizon
        _, bal = _balanced(18, 8, 2, 2, 12, radius=0.7)
        c = AsymptoticConstants(1.0, 1.0, "eigen")
        with pytest.raises(ValueError, match="balancing horizon"):
            bound_theorem32(bal, 4, math.inf, (c, c))
        bound_theorem32(bal, 4, 12.0, (c, c))

    def test_dominates_error_expression(self):
        for seed in range(10):
            _, bal = _balanced(1900 + seed, 10, 3, 3, 12)
            r = 5
            value = error_expr_tlbt(bal, r).value
            for method in ("eigen", "numerical-radius"):
                try:
                    cf = asymptotic_constants(bal.a, method)
                    cr = asymptotic_constants(bal.partition(r).A11, method)
                except EstimationError:
                    continue
                t32 = bound_theorem32(bal, r, 12, (cf, cr))
                assert t32.total >= value

    def test_explicit_path_for_unstable_reduced_block(self):
        # a time-limited reduction with an unstable leading block pushes the
        # eigen-method rate above 1: the explicit variant takes over and must
        # still dominate
        s = random_stable_system(8006, 16, 2, 2, radius=0.97)
        tau, r = 8, 6
        bal = balance(s, tl_gramian_dense(s, tau, "reach"),
                      tl_gramian_dense(s, tau, "obs"), tau)
        cr = asymptotic_constants(bal.partition(r).A11, "eigen")
        assert cr.rate >= 1.0  # the instance is chosen for this
        cf = asymptotic_constants(bal.a, "eigen")
        t32 = bound_theorem32(bal, r, tau, (cf, cr))
        assert t32.path == "explicit"
        assert t32.total >= error_expr_tlbt(bal, r).value

    def test_explicit_path_in_a_report_reuses_the_solves_of_thm31(self, monkeypatch):
        # the explicit path's Z, ROM-Gramian gap and obs horizon term are the
        # C-side solves of thm31: the report solves nothing more for thm32,
        # and its thm32 equals the standalone bound that solves them itself
        s = random_stable_system(8006, 16, 2, 2, radius=0.97)
        tau, r = 8, 6
        reach, obs = tl_gramian_dense(s, tau, "reach"), tl_gramian_dense(s, tau, "obs")
        bal = balance(s, reach, obs, tau)
        rom, _ = square_root_truncate(reach, obs, s, tau, order=r)
        calls = {"solve_cross_sylvester": 0, "tl_gramian_dense": 0}
        for name in calls:
            def counted(*args, _real=getattr(bounds, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(bounds, name, counted)
        error_expr_tlbt(bal, r)
        thm31_calls = dict(calls)
        assert thm31_calls == {"solve_cross_sylvester": 2, "tl_gramian_dense": 4}
        report = build_bound_report(s, rom, tau, bal=bal, constants_method="eigen")
        assert report.thm32.path == "explicit"
        assert calls == {name: 2 * count for name, count in thm31_calls.items()}
        assert report.thm32 == bound_theorem32(bal, r, tau, report.constants)


class TestHsvTail:
    def test_examples(self):
        sp = HankelSpectrum(np.array([3.0, 1.0, 0.1]))
        assert sp.tail_sum(2) == pytest.approx(0.2)
        assert sp.tail_sum(3) == 0.0
        assert HankelSpectrum(np.array([1.25])).tail_sum(0) == pytest.approx(2.5)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=14))
    @settings(max_examples=50, deadline=None)
    def test_tail_monotone_property(self, values, r):
        vals = np.sort(np.array(values))[::-1]
        sp = HankelSpectrum(vals)
        tail = sp.tail_sum(r)
        assert tail >= 0.0
        assert tail <= sp.tail_sum(max(r - 1, 0)) + 1e-12


class TestBoundReport:
    def test_report_fields_and_json(self):
        s = random_stable_system(21, 10, 2, 2)
        tau = 20
        reach = tl_gramian_dense(s, tau, "reach")
        obs = tl_gramian_dense(s, tau, "obs")
        rom, _ = square_root_truncate(reach, obs, s, tau, order=4)
        bal = balance(s, reach, obs, tau)
        inf_reach = tl_gramian_dense(s, math.inf, "reach")
        inf_obs = tl_gramian_dense(s, math.inf, "obs")
        report = build_bound_report(s, rom, tau, lambda t: (inf_reach, inf_obs), bal=bal,
                                    constants_method="eigen")
        doc = report.to_dict()
        assert doc["prop23"]["epsilon"] >= 0
        assert doc["inf_horizon"]["value_sq"] >= 0
        assert doc["thm31"]["value"] >= 0
        assert doc["thm32"]["total"] >= doc["thm31"]["value"]
        assert doc["hsv_tail"] >= 0
        assert set(doc["flags"]) >= {"averaged_sides", "absolute_value_applied",
                                     "large_scale_approximate"}
        text = report.to_json()
        import json
        assert json.loads(text)["method"] == "tlbt"

    def test_report_asks_for_the_inf_pair_where_it_uses_it(self):
        # the tau=inf pair feeds only the trace form: the output bound at
        # tau = inf, and the tau=inf norm of a stable model without a BT bal
        def counted(s):
            calls = []

            def pair(tau):
                calls.append(tau)
                return tl_gramian_dense(s, tau, "reach"), tl_gramian_dense(s, tau, "obs")
            return pair, calls

        def reduce(s, tau, method):
            grams = counted(s)[0](tau)
            return square_root_truncate(*grams, s, tau, order=4, method=method)[0]

        s = random_stable_system(21, 10, 2, 2)
        bt, tlbt = reduce(s, math.inf, "bt"), reduce(s, 20, "tlbt")
        # the first unstable TLBT model of the criterion-10 family
        unstable = random_stable_system(8006, 16, 2, 2, radius=0.97)
        unstable_tlbt = reduce(unstable, 8, "tlbt")
        assert tlbt.spectral_radius() < 1.0 <= unstable_tlbt.spectral_radius()
        bal = balance(s, *counted(s)[0](math.inf))
        for system, rom, tau, rom_bal, asks in ((s, bt, math.inf, None, 1),
                                                (s, tlbt, 20, None, 1),
                                                (unstable, unstable_tlbt, 8, None, 0),
                                                (s, bt, 20, bal, 0)):
            pair, calls = counted(system)
            report = build_bound_report(system, rom, tau, pair, bal=rom_bal)
            assert calls == [math.inf] * asks
            assert report.inf_horizon is not None or rom is unstable_tlbt

    def test_prop23_equals_thm31_for_tlbt(self):
        # the tailored expression evaluates the same squared norm
        s, bal = _balanced(22, 10, 2, 2, 15)
        r = 5
        expr = error_expr_tlbt(bal, r)
        bsys = DiscreteLTISystem(bal.a, bal.b, bal.c)
        ob = bound_output_tl(bsys, bal.reduced_system(r), 15)
        assert ob.epsilon_squared == pytest.approx(expr.value, rel=1e-8)

    def test_inf_horizon_reuses_given_gramians(self):
        s, inf_reach, inf_obs, rom = _lowrank_bt_jacobi()
        tau = 50
        meta = dict(s.meta)
        low = build_bound_report(s, rom, tau, lambda t: (inf_reach, inf_obs))
        ref = bound_output_tl(s, rom.system, math.inf, inf_reach, inf_obs)
        assert low.inf_horizon.epsilon_squared == ref.epsilon_squared
        inf = low.to_dict()["inf_horizon"]
        assert inf["backend"] == "low-rank"
        assert inf["sides_relative_gap"] == ref.sides_relative_gap
        dense = build_bound_report(s, rom, tau).to_dict()
        assert dense["inf_horizon"]["backend"] == "dense"
        assert s.meta == meta

    def test_dropped_inf_horizon_says_why(self, monkeypatch):
        # a stable model whose tau=inf norm fails to solve: the report keeps
        # the message beside the null value; a report that solved it has no
        # error key, so its JSON is unchanged
        s = random_stable_system(21, 10, 2, 2)
        tau = 20
        rom, _ = square_root_truncate(tl_gramian_dense(s, tau, "reach"),
                                      tl_gramian_dense(s, tau, "obs"), s, tau, order=4)
        solved = build_bound_report(s, rom, tau).to_dict()["inf_horizon"]
        assert solved["value_sq"] is not None and "error" not in solved

        def unsolvable(*args, **kw):
            raise SolvabilityError("cross Sylvester pencil is singular")
        monkeypatch.setattr(bounds, "solve_cross_sylvester", unsolvable)
        report = build_bound_report(s, rom, tau)
        assert report.inf_horizon is None and not report.flags["rom_unstable"]
        doc = report.to_dict()["inf_horizon"]
        assert doc["error"] == "cross Sylvester pencil is singular"
        assert doc["value_sq"] is None and doc["backend"] is None
        assert report.prop23.epsilon >= 0
