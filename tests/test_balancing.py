import dataclasses
import math

import numpy as np
import pytest

import oracles
from conftest import random_stable_system
from dtmor import (
    BalancingError,
    DiscreteLTISystem,
    ExampleSpec,
    HankelSpectrum,
    ShiftStrategy,
    adaptive_order,
    balance,
    bound_inf_horizon,
    build_bound_report,
    error_expr_tlbt,
    export_rom,
    generate_example,
    impulse_sequence,
    read_system,
    rksm,
    square_root_truncate,
    stability_certificate,
    tl_gramian_dense,
)
from dtmor.balancing import psd_factor


def _balanced(seed, n, m, p, tau, radius=0.8):
    s = random_stable_system(seed, n, m, p, radius)
    reach = tl_gramian_dense(s, tau, "reach")
    obs = tl_gramian_dense(s, tau, "obs")
    return s, balance(s, reach, obs, tau)


class TestSquareRootTruncate:
    def test_scalar_self_reduction(self, scalar_system):
        reach = tl_gramian_dense(scalar_system, 2, "reach")
        obs = tl_gramian_dense(scalar_system, 2, "obs")
        rom, spectrum = square_root_truncate(reach, obs, scalar_system, 2, order=1)
        assert spectrum.values[0] == pytest.approx(1.25, rel=1e-12)
        h = impulse_sequence(rom.system, 5)
        href = impulse_sequence(scalar_system, 5)
        assert np.allclose(h, href, atol=1e-12)

    def test_adaptive_order_arithmetic(self):
        spectrum = HankelSpectrum(np.array([3.0, 1.0, 0.1]))
        assert adaptive_order(spectrum, 0.25) == 2

    def test_matches_reference_bt(self):
        s = random_stable_system(5, 30, 2, 2, radius=0.85)
        reach = tl_gramian_dense(s, math.inf, "reach")
        obs = tl_gramian_dense(s, math.inf, "obs")
        rom, _ = square_root_truncate(reach, obs, s, math.inf, order=10)
        Ar, Br, Cr, _ = oracles.reference_bt(s.A, s.B, s.C, reach.gramian, obs.gramian, 10)
        h = oracles.impulse_seq(rom.system.A, rom.system.B, rom.system.C, 60)
        href = oracles.impulse_seq(Ar, Br, Cr, 60)
        assert np.linalg.norm(h - href) <= 1e-8 * np.linalg.norm(href)

    def test_projector_biorthogonality(self):
        s = random_stable_system(6, 12, 2, 2)
        reach = tl_gramian_dense(s, 15, "reach")
        obs = tl_gramian_dense(s, 15, "obs")
        rom, _ = square_root_truncate(reach, obs, s, 15, order=5)
        assert np.linalg.norm(rom.projector_w.T @ rom.projector_v - np.eye(5)) <= 1e-10

    def test_projector_biorthogonality_generalized(self, gs_small):
        reach = tl_gramian_dense(gs_small, 20, "reach")
        obs = tl_gramian_dense(gs_small, 20, "obs")
        rom, _ = square_root_truncate(reach, obs, gs_small, 20, order=6)
        assert np.linalg.norm(rom.projector_w.T @ rom.projector_v - np.eye(6)) <= 1e-10
        # generalized reduction agrees with reducing the standard form
        rom2, _ = square_root_truncate(
            tl_gramian_dense(gs_small.to_standard(), 20, "reach"),
            tl_gramian_dense(gs_small.to_standard(), 20, "obs"),
            gs_small.to_standard(), 20, order=6)
        h1 = impulse_sequence(rom.system, 25)
        h2 = impulse_sequence(rom2.system, 25)
        assert np.linalg.norm(h1 - h2) <= 1e-8 * max(np.linalg.norm(h2), 1e-300)

    def test_full_order_is_equivalent_realization(self):
        s = random_stable_system(7, 10, 2, 2, radius=0.8)
        reach = tl_gramian_dense(s, math.inf, "reach")
        obs = tl_gramian_dense(s, math.inf, "obs")
        rom, _ = square_root_truncate(reach, obs, s, math.inf, order=10)
        h = impulse_sequence(rom.system, 20)
        href = impulse_sequence(s, 20)
        assert np.linalg.norm(h - href) <= 1e-9 * np.linalg.norm(href)

    def test_bt_stability_preserved(self):
        for seed in range(20):
            s = random_stable_system(800 + seed, 14, 2, 2, radius=0.95)
            reach = tl_gramian_dense(s, math.inf, "reach")
            obs = tl_gramian_dense(s, math.inf, "obs")
            rom, _ = square_root_truncate(reach, obs, s, math.inf, order=5)
            assert rom.spectral_radius() < 1.0

    def test_order_beyond_rank_rejected(self, scalar_system):
        reach = tl_gramian_dense(scalar_system, 2, "reach")
        obs = tl_gramian_dense(scalar_system, 2, "obs")
        with pytest.raises(BalancingError):
            square_root_truncate(reach, obs, scalar_system, 2, order=2)

    def test_zero_factor_rejected(self, scalar_system):
        with pytest.raises(BalancingError):
            square_root_truncate(np.zeros((1, 0)), np.ones((1, 1)), scalar_system, 2, order=1)

    def test_hsv_tolerance_mode(self):
        s = random_stable_system(8, 12, 2, 2)
        reach = tl_gramian_dense(s, 20, "reach")
        obs = tl_gramian_dense(s, 20, "obs")
        rom, spectrum = square_root_truncate(reach, obs, s, 20, hsv_tol=1e-2)
        assert rom.r == adaptive_order(spectrum, 1e-2)
        assert spectrum.tail_sum(rom.r) <= 1e-2
        if rom.r > 1:
            assert spectrum.tail_sum(rom.r - 1) > 1e-2  # smallest such r


class TestBalanceDense:
    def test_scalar(self, scalar_system):
        bal = balance(scalar_system,
                      tl_gramian_dense(scalar_system, 2, "reach"),
                      tl_gramian_dense(scalar_system, 2, "obs"), 2)
        assert bal.sigma[0] == pytest.approx(1.25, rel=1e-12)
        assert bal.transform[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_already_balanced_fixed_point(self):
        # diagonal system with C = B^T has equal diagonal Gramians: the
        # transform is the identity up to signs
        A = np.diag([0.6, 0.3])
        B = np.array([[1.0], [0.8]])
        s = DiscreteLTISystem(A, B, B.T.copy())
        P = np.diag(B[:, 0] ** 2 / (1 - np.diag(A) ** 2))
        bal = balance(s, psd_factor(P), psd_factor(P), math.inf)
        assert np.allclose(np.abs(bal.transform), np.eye(2), atol=1e-9)

    def test_diagonalization_identities(self):
        s, bal = _balanced(9, 12, 2, 2, 20)
        P = tl_gramian_dense(s, 20, "reach").gramian
        Q = tl_gramian_dense(s, 20, "obs").gramian
        T, Ti = bal.transform, bal.transform_inv
        Sig = np.diag(bal.sigma)
        assert np.linalg.norm(T @ P @ T.T - Sig) <= 1e-9 * bal.sigma[0]
        assert np.linalg.norm(Ti.T @ Q @ Ti - Sig) <= 1e-9 * bal.sigma[0]

    def test_hsv_match_eigenvalues_of_product(self):
        s, bal = _balanced(10, 10, 2, 2, 15)
        P = tl_gramian_dense(s, 15, "reach").gramian
        Q = tl_gramian_dense(s, 15, "obs").gramian
        ref = np.sqrt(np.sort(np.linalg.eigvals(P @ Q).real)[::-1])
        assert np.linalg.norm(bal.sigma - ref) <= 1e-9 * ref[0]

    def test_tl_terms_are_balanced_horizon_terms(self):
        _, bal = _balanced(11, 8, 2, 2, 9)
        ref_b = np.linalg.matrix_power(bal.a, 9) @ bal.b
        ref_c = bal.c @ np.linalg.matrix_power(bal.a, 9)
        assert np.allclose(bal.tl_b, ref_b, atol=1e-12)
        assert np.allclose(bal.tl_c, ref_c, atol=1e-12)

    @pytest.mark.parametrize("tau", [9, math.inf])
    def test_dual_is_the_adjoint_realization(self, tau):
        _, bal = _balanced(12, 8, 2, 3, tau)
        adj = bal.dual()
        for got, ref in ((adj.a, bal.a.T), (adj.b, bal.c.T), (adj.c, bal.b.T),
                         (adj.transform, bal.transform_inv.T),
                         (adj.transform_inv, bal.transform.T)):
            assert np.array_equal(got, ref)
        assert np.array_equal(adj.sigma, bal.sigma) and adj.horizon == bal.horizon
        if math.isinf(tau):
            assert adj.tl_b is None and adj.tl_c is None
        else:
            assert np.array_equal(adj.tl_b, bal.tl_c.T)
            assert np.array_equal(adj.tl_c, bal.tl_b.T)
        twice = adj.dual()
        for field in dataclasses.fields(bal):
            got, ref = getattr(twice, field.name), getattr(bal, field.name)
            if ref is None:
                assert got is None, field.name
            elif isinstance(ref, np.ndarray):
                assert got.dtype == ref.dtype and np.array_equal(got, ref), field.name
            else:
                assert got == ref, field.name

    def test_singular_product_balanced_at_its_rank(self):
        # rank-deficient Q: the pair is balanced at the numerical rank 1
        s = DiscreteLTISystem(np.diag([0.5, 0.4]), np.ones((2, 1)), np.ones((1, 2)))
        P, Q = np.eye(2), np.diag([1.0, 0.0])
        bal = balance(s, psd_factor(P), psd_factor(Q), math.inf)
        assert bal.order == 1 and bal.sigma == pytest.approx([1.0], rel=1e-12)
        T, Ti = bal.transform, bal.transform_inv
        assert T.shape == (1, 2) and Ti.shape == (2, 1)
        Sig = np.diag(bal.sigma)
        assert np.linalg.norm(T @ P @ T.T - Sig) <= 1e-12
        assert np.linalg.norm(Ti.T @ Q @ Ti - Sig) <= 1e-12
        # a zero Gramian, and Gramians with orthogonal ranges, leave nothing to balance
        for P0, Q0 in ((P, np.zeros((2, 2))), (Q, np.diag([0.0, 1.0]))):
            with pytest.raises(BalancingError):
                balance(s, psd_factor(P0), psd_factor(Q0), math.inf)

    def test_hsv_tail_vs_frequency_grid(self):
        # twice the neglected HSV sum dominates the error transfer norm on a
        # frequency grid (sampled necessary condition of the h-infinity bound)
        for seed in (1, 2, 3, 4, 5):
            s = random_stable_system(900 + seed, 16, 2, 2, radius=0.9)
            reach = tl_gramian_dense(s, math.inf, "reach")
            obs = tl_gramian_dense(s, math.inf, "obs")
            r = 6
            rom, spectrum = square_root_truncate(reach, obs, s, math.inf, order=r)
            bound = spectrum.tail_sum(r)
            worst = max(
                oracles.transfer_norm(
                    np.asarray(s.A) if not hasattr(s.A, "toarray") else s.A.toarray(),
                    s.B, s.C, w)
                - oracles.transfer_norm(rom.system.A, rom.system.B, rom.system.C, w)
                for w in np.linspace(0, 2 * np.pi, 512, endpoint=False))
            assert worst <= bound + 1e-12


def _grid_pair(kind, size, solver, tau):
    """An example grid with m = p = 2, seed 1, and its Gramian pair at tau
    by the dense solve or the rational Krylov solve with +-1 poles."""
    s = generate_example(ExampleSpec(kind, size, 2, 2, 1))
    if solver == "dense":
        return s, tl_gramian_dense(s, tau, "reach"), tl_gramian_dense(s, tau, "obs")
    shifts = ShiftStrategy("alternating-pm1")
    return s, rksm(s, "reach", tau, shifts), rksm(s, "obs", tau, shifts)


def _diagonalization_errors(s, reach, obs, bal):
    """Relative errors of T P T^T = Sigma and (M T^-1)^T Q (M T^-1) = Sigma,
    taken in factored form through each Gramian's congruence."""
    Sig = np.diag(bal.sigma)
    return (np.linalg.norm(reach.congruence(bal.transform) - Sig, 2) / bal.sigma[0],
            np.linalg.norm(obs.congruence(s.apply_mass(bal.transform_inv).T) - Sig, 2)
            / bal.sigma[0])


class TestBalance:
    @pytest.mark.parametrize("solver", ["dense", "rksm-pm1"])
    @pytest.mark.parametrize("tau", [50, math.inf])
    def test_model_is_the_leading_block(self, solver, tau):
        s, reach, obs = _grid_pair("gauss-seidel", 12, solver, tau)
        bal = balance(s, reach, obs, tau)
        r = 6
        rom, spectrum = square_root_truncate(reach, obs, s, tau, order=r)
        for got, ref in ((rom.system.A, bal.a[:r, :r]), (rom.system.B, bal.b[:r]),
                         (rom.system.C, bal.c[:, :r]),
                         (rom.projector_v, bal.transform_inv[:, :r]),
                         (rom.projector_w, bal.transform[:r].T)):
            assert np.array_equal(got, ref)
        assert np.array_equal(spectrum.values, bal.hsv.values)
        assert max(_diagonalization_errors(s, reach, obs, bal)) <= 1e-8

    @pytest.mark.parametrize("tau", [50, math.inf])
    def test_low_rank_pair_balances_like_the_dense_pair(self, tau):
        s, dense_reach, dense_obs = _grid_pair("gauss-seidel", 20, "dense", tau)
        _, reach, obs = _grid_pair("gauss-seidel", 20, "rksm-pm1", tau)
        dense, low = balance(s, dense_reach, dense_obs, tau), balance(s, reach, obs, tau)
        assert np.max(np.abs(low.sigma[:10] - dense.sigma[:10]) / dense.sigma[:10]) <= 1e-6
        h_dense = impulse_sequence(dense.reduced_system(10), 50)
        h_low = impulse_sequence(low.reduced_system(10), 50)
        assert np.linalg.norm(h_low - h_dense) <= 1e-10 * np.linalg.norm(h_dense)

    def test_low_rank_pair_past_the_dense_cap(self, monkeypatch):
        s, reach, obs = _grid_pair("jacobi", 40, "rksm-pm1", 50)
        monkeypatch.setenv("DTMOR_DENSE_CAP", "100")
        bal = balance(s, reach, obs, 50)
        assert s.n == 1600 and 10 <= bal.order < 100
        assert max(_diagonalization_errors(s, reach, obs, bal)) <= 1e-8
        assert bal.tl_b.shape == (bal.order, 2) and bal.tl_c.shape == (2, bal.order)

    def test_raw_factors_at_a_window_carry_no_horizon_terms(self):
        # a realization is time-limited by its horizon, not by its horizon
        # terms: one balanced from raw factors over a window is not read as
        # tau = inf, and what needs its horizon terms says so
        s = random_stable_system(13, 10, 2, 2)
        reach, obs = tl_gramian_dense(s, 20, "reach"), tl_gramian_dense(s, 20, "obs")
        bal = balance(s, psd_factor(reach.matrix()), psd_factor(obs.matrix()), 20)
        assert bal.horizon == 20 and bal.tl_b is None and bal.tl_c is None
        rom, _ = square_root_truncate(reach, obs, s, 20, order=4)
        for call in (lambda: error_expr_tlbt(bal, 4), lambda: stability_certificate(bal, 4),
                     lambda: bound_inf_horizon(bal, 4),
                     lambda: build_bound_report(s, rom, 20, bal=bal)):
            with pytest.raises(ValueError):
                call()


class TestStabilityCertificate:
    def test_scalar_certificate_holds(self, scalar_system):
        bal = balance(scalar_system,
                      tl_gramian_dense(scalar_system, 2, "reach"),
                      tl_gramian_dense(scalar_system, 2, "obs"), 2)
        cert = stability_certificate(bal, 1)
        assert cert.holds and cert.spectral_radius < 1.0 and cert.consistent

    def test_indefinite_q_fails(self):
        _, bal = _balanced(12, 8, 2, 2, 10)
        # poison the horizon term so Q cannot be PSD
        bal.tl_b[:] = 0.0
        bal.tl_b[:4] = 50.0
        cert = stability_certificate(bal, 4)
        assert not cert.holds
        assert cert.q_min_eigenvalue < 0

    def test_no_false_certificates_sampled(self):
        confirmed = held = 0
        for seed in range(25):
            s = random_stable_system(1200 + seed, 10, 2, 2, radius=0.9)
            try:
                bal = balance(s, tl_gramian_dense(s, 20, "reach"),
                              tl_gramian_dense(s, 20, "obs"), 20)
            except BalancingError:
                continue
            for r in (4, 6):
                cert = stability_certificate(bal, r)
                if cert.holds:
                    held += 1
                    rho = max(abs(np.linalg.eigvals(bal.a[:r, :r])))
                    confirmed += rho < 1.0
        assert held == confirmed

    def test_psd_factor_roundtrip(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((6, 3))
        P = Z @ Z.T
        F = psd_factor(P)
        assert np.linalg.norm(F @ F.T - P) <= 1e-12 * np.linalg.norm(P)


class TestRomExport:
    def test_export_and_read_back(self, tmp_path):
        s = random_stable_system(13, 10, 2, 2)
        reach = tl_gramian_dense(s, 12, "reach")
        obs = tl_gramian_dense(s, 12, "obs")
        rom, _ = square_root_truncate(reach, obs, s, 12, order=4)
        export_rom(rom, tmp_path / "rom")
        back = read_system(tmp_path / "rom")
        assert np.array_equal(back.A, rom.system.A)
        import json
        manifest = json.loads((tmp_path / "rom" / "manifest.json").read_text())
        prov = manifest["provenance"]
        assert prov["method"] == "tlbt" and prov["r"] == 4 and prov["tau"] == 12
        assert prov["hsv-tail"] >= 0.0
