"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here.  The families are deterministic (fixed
seeds), so reruns are bit-reproducible; budgets are enforced for the two
criteria that carry one.
"""
import math
import time

import numpy as np

import oracles
from conftest import random_stable_system
from dtmor import (
    ExampleSpec,
    ShiftStrategy,
    SolverConfig,
    asymptotic_constants,
    balance,
    bound_inf_horizon,
    bound_output_tl,
    bound_theorem32,
    build_bound_report,
    error_expr_tlbt,
    generate_example,
    numerical_radius,
    rksm,
    simulate,
    smith_arnoldi,
    square_root_truncate,
    stability_certificate,
    tl_gramian_dense,
)
from dtmor.balancing import adaptive_order
from dtmor.exceptions import BalancingError, ConvergenceError
from dtmor.lowrank import rksm as rksm_fn


def _report(num, text):
    print(f"ACCEPTANCE {num:2d}: {text} ... PASS")


def test_criterion_01_gramian_oracle_equivalence():
    """Low-rank solvers match brute-force time-limited sums."""
    t0 = time.time()
    cfg = SolverConfig(tol=1e-10, tl_term_tol=1e-11, cadence=2, max_iterations=800)
    worst = 0.0
    for i in range(50):
        n = 20 + (i * 9) % 81
        m = 1 + i % 4
        p = 1 + (i // 2) % 4
        s = random_stable_system(1000 + i, n, m, p, radius=0.9)
        for tau in (1, 5, 50):
            P, _ = oracles.gramian_sum(s.A, s.B, tau)
            nP = np.linalg.norm(P)
            for make in (
                lambda: smith_arnoldi(s, "reach", tau, cfg),
                lambda: rksm(s, "reach", tau, ShiftStrategy("alternating-pm1"), cfg),
                lambda: rksm(s, "reach", tau, ShiftStrategy("adaptive-disc"), cfg),
            ):
                approx = make()
                worst = max(worst, np.linalg.norm(approx.matrix() - P) / nP)
    elapsed = time.time() - t0
    assert worst <= 1e-8, f"worst relative Frobenius error {worst:.3e}"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    _report(1, f"150 solve sets x 3 solvers, worst rel error {worst:.2e}, {elapsed:.0f}s")


def test_criterion_02_residual_formula():
    """Compressed residual norm equals the explicitly assembled one at every
    evaluated iteration.

    The 1e-8 relative comparison carries an eps-level absolute allowance of
    500 ulps of the assembly scale ||A||^2 ||P|| + ||P|| + ||B B^T||: below
    that, both numbers are round-off images of the same mathematical zero
    and no sharper agreement is representable in double precision.
    """
    worst = 0.0
    iterations_checked = 0
    for i in range(20):
        n = 60 + i * 7
        m = 1 + i % 3
        s = random_stable_system(2000 + i, n, m, m, radius=0.85)
        tau = math.inf if i % 2 else 25
        strat = ShiftStrategy("alternating-pm1" if i % 2 else "adaptive-disc")
        Ad, Bd, _ = oracles.dense_standard(s)
        norm_a = np.linalg.norm(Ad, 2)
        scale = np.linalg.norm(Bd @ Bd.T, 2)
        devs = []

        def observer(state, core, tl_term, res_abs, devs=devs, Ad=Ad, Bd=Bd,
                     norm_a=norm_a, scale=scale):
            Q = state.basis
            P = Q @ core @ Q.T
            R = Ad @ P @ Ad.T - P + Bd @ Bd.T
            if tl_term is not None:
                R = R - tl_term @ tl_term.T
            exact = np.linalg.norm(R, 2)
            norm_p = np.linalg.norm(core, 2)
            assembly = norm_a ** 2 * norm_p + norm_p + scale
            slack = 1e-13 * assembly
            devs.append(max(abs(exact - res_abs) - slack, 0.0) / max(exact, slack))

        try:
            rksm_fn(s, "reach", tau, strat,
                    SolverConfig(tol=1e-9, tl_term_tol=1e-10, cadence=1,
                                 max_iterations=250), observer=observer)
        except ConvergenceError:
            pass
        assert devs, f"instance {i} produced no residual evaluations"
        iterations_checked += len(devs)
        worst = max(worst, max(devs))
    assert worst <= 1e-8, f"worst residual-formula deviation {worst:.3e}"
    _report(2, f"{iterations_checked} iterations on 20 solves, worst deviation {worst:.2e}")


def test_criterion_03_trace_identities():
    """C-side, B-side, and impulse-sum evaluations of the squared TL norm
    agree to 1e-10 relative."""
    worst = 0.0
    for i in range(50):
        n = 8 + (i % 23)
        m = 1 + i % 3
        p = 1 + (i // 3) % 3
        tau = 5 + (i % 40)
        s = random_stable_system(3000 + i, n, m, p, radius=0.9)
        reach = tl_gramian_dense(s, tau, "reach")
        obs = tl_gramian_dense(s, tau, "obs")
        side_c = float(np.trace(s.C @ reach.gramian @ s.C.T))
        side_b = float(np.trace(s.B.T @ obs.gramian @ s.B))
        h = oracles.impulse_seq(s.A, s.B, s.C, tau)
        ref = float(np.sum(h ** 2))
        worst = max(worst,
                    abs(side_c - ref) / ref,
                    abs(side_b - ref) / ref,
                    abs(side_c - side_b) / ref)
    assert worst <= 1e-10, f"worst trace-identity deviation {worst:.3e}"
    _report(3, f"50 systems, worst deviation {worst:.2e}")


def test_criterion_04_theorem31_exactness():
    """Both lines of the balanced error expression equal the impulse sum."""
    worst_rel = 0.0
    worst_abs = 0.0
    for seed in range(30):
        n, m, p, tau = 6, 3, 3, 10
        s = random_stable_system(seed, n, m, p, radius=0.75)
        bal = balance(s, tl_gramian_dense(s, tau, "reach"),
                      tl_gramian_dense(s, tau, "obs"), tau)
        for r in sorted({n // 2, n - 1, n}):
            expr = error_expr_tlbt(bal, r)
            if r == n:
                worst_abs = max(worst_abs, expr.value)
                continue
            ref = oracles.h2_error_sq(bal.a, bal.b, bal.c,
                                      bal.a[:r, :r], bal.b[:r], bal.c[:, :r], tau)
            worst_rel = max(worst_rel,
                            abs(expr.c_side - ref) / ref,
                            abs(expr.b_side - ref) / ref)
    assert worst_rel <= 1e-8, f"worst relative deviation {worst_rel:.3e}"
    assert worst_abs <= 1e-9, f"full-order value {worst_abs:.3e} not ~0"
    _report(4, f"30 balanced systems, worst rel {worst_rel:.2e}, r=n worst {worst_abs:.2e}")


def test_criterion_05_output_bound_dominance():
    """The TL output bound dominates simulated errors in 200 trials."""
    trials = 0
    violations = 0
    tau = 20
    rng_u = np.random.default_rng(999)
    # 40 stable systems x {bt, tlbt} x {impulse, random} = 160 trials
    for i in range(40):
        n = 10 + i % 11
        s = random_stable_system(5000 + i, n, 2, 2, radius=0.88)
        for method, g_tau in (("bt", math.inf), ("tlbt", tau)):
            reach = tl_gramian_dense(s, g_tau, "reach")
            obs = tl_gramian_dense(s, g_tau, "obs")
            rom, _ = square_root_truncate(reach, obs, s, g_tau,
                                          order=max(2, n // 3), method=method)
            ob = bound_output_tl(s, rom.system, tau)
            for kind in ("impulse", "random"):
                u = np.zeros((tau + 1, s.m))
                if kind == "impulse":
                    u[0] = 1.0
                else:
                    u = rng_u.standard_normal((tau + 1, s.m))
                e = np.linalg.norm(simulate(s, u).outputs
                                   - simulate(rom.system, u).outputs, axis=1).max()
                trials += 1
                violations += e > ob.bound_for_input(u) + 1e-12
    # 10 unstable originals, TLBT at two orders x two inputs = 40 trials
    unstable_roms = 0
    for i in range(10):
        s = random_stable_system(5100 + i, 12, 2, 2, radius=1.03)
        reach = tl_gramian_dense(s, tau, "reach")
        obs = tl_gramian_dense(s, tau, "obs")
        for r in (3, 5):
            rom, _ = square_root_truncate(reach, obs, s, tau, order=r, method="tlbt")
            unstable_roms += rom.spectral_radius() >= 1.0
            ob = bound_output_tl(s, rom.system, tau)
            for kind in ("impulse", "random"):
                u = np.zeros((tau + 1, s.m))
                if kind == "impulse":
                    u[0] = 1.0
                else:
                    u = rng_u.standard_normal((tau + 1, s.m))
                e = np.linalg.norm(simulate(s, u).outputs
                                   - simulate(rom.system, u).outputs, axis=1).max()
                trials += 1
                violations += e > ob.bound_for_input(u) + 1e-12
    assert trials == 200
    assert violations == 0, f"{violations} bound violations"
    _report(5, f"200 trials ({unstable_roms} with unstable models), 0 violations")


def test_criterion_06_theorem32_dominance_and_decay():
    """Asymptotic bound dominates, its TL part decays geometrically, and the
    TL output bound approaches the infinite-horizon one."""
    # (a) dominance in 100 trials
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        s = random_stable_system(6000 + seed, 10, 3, 3, radius=0.8)
        tau = 12
        try:
            bal = balance(s, tl_gramian_dense(s, tau, "reach"),
                          tl_gramian_dense(s, tau, "obs"), tau)
        except BalancingError:
            continue
        r = 4 + (done % 2) * 2
        method = "eigen" if done % 2 == 0 else "numerical-radius"
        cf = asymptotic_constants(bal.a, method)
        cr = asymptotic_constants(bal.partition(r).A11, method)
        t32 = bound_theorem32(bal, r, tau, (cf, cr))
        value = error_expr_tlbt(bal, r).value
        assert t32.total >= value, f"dominance violated at trial {done}"
        done += 1

    # (b) geometric decay of the TL part under horizon doubling
    tau = 10
    for i in range(10):
        s = random_stable_system(6500 + i, 12, 3, 3, radius=0.6)

        def tl_part(t):
            bal = balance(s, tl_gramian_dense(s, t, "reach"),
                          tl_gramian_dense(s, t, "obs"), t)
            cf = asymptotic_constants(bal.a, "eigen")
            cr = asymptotic_constants(bal.partition(6).A11, "eigen")
            return bound_theorem32(bal, 6, t, (cf, cr)).j_tl_term, cf.rate

        j1, lam = tl_part(tau)
        j2, _ = tl_part(2 * tau)
        assert j2 <= j1 * lam ** tau * 1.1, f"decay violated at instance {i}"

    # (c) the TL bound approaches the infinite-horizon bound
    worst = 0.0
    for i in range(10):
        s = random_stable_system(6600 + i, 10, 2, 2, radius=0.7)
        rho = s.spectral_radius()
        tau_star = int(math.ceil(math.log(1e-8) / math.log(rho)))
        ri = tl_gramian_dense(s, math.inf, "reach")
        oi = tl_gramian_dense(s, math.inf, "obs")
        bal_inf = balance(s, ri, oi)
        r = 5
        rom, _ = square_root_truncate(ri, oi, s, math.inf, order=r, method="bt")
        eq9 = math.sqrt(bound_inf_horizon(bal_inf, r).value_sq)
        eps = bound_output_tl(s, rom.system, tau_star).epsilon
        worst = max(worst, abs(eps - eq9) / eq9)
    assert worst <= 1e-6, f"limit deviation {worst:.3e}"
    _report(6, f"100 dominance trials, 10 decay checks, limit deviation {worst:.2e}")


def test_criterion_07_stability_certificate():
    """Every holds=true verdict is confirmed stable by an eigensolve."""
    tested = held = false_certs = 0
    for i in range(50):
        s = random_stable_system(7000 + i, 10, 2, 2, radius=0.9)
        try:
            bal = balance(s, tl_gramian_dense(s, 20, "reach"),
                          tl_gramian_dense(s, 20, "obs"), 20)
        except BalancingError:
            continue
        for r in (2, 4, 6, 8):
            cert = stability_certificate(bal, r)
            tested += 1
            if cert.holds:
                held += 1
                rho = float(np.max(np.abs(np.linalg.eigvals(bal.a[:r, :r]))))
                if rho >= 1.0:
                    false_certs += 1
    assert tested >= 200
    assert held > 0, "certificate never held; test family is vacuous"
    assert false_certs == 0, f"{false_certs} false certificates"
    _report(7, f"{tested} instances, {held} certificates held, 0 false")


def test_criterion_08_crouzeix_palencia():
    """Matrix powers stay below (1+sqrt(2)) r(A)^tau."""
    for i in range(20):
        n = 20 + (i * 17) % 81
        radius = (0.7, 0.9, 0.95, 1.02)[i % 4]
        rng = np.random.default_rng(8500 + i)
        A = rng.standard_normal((n, n))
        A *= radius / max(abs(np.linalg.eigvals(A)))
        r = numerical_radius(A)
        X = A.copy()
        for t in range(1, 101):
            bound = (1.0 + math.sqrt(2.0)) * r ** t
            assert np.linalg.norm(X, 2) <= bound * (1 + 1e-12), \
                f"matrix {i}, power {t}"
            X = X @ A
    _report(8, "20 matrices x 100 powers, inequality holds")


def test_criterion_09_qualitative_reproduction():
    """TLBT beats BT in-window, its bound is smaller, and HSV-adaptive
    orders are smaller, each in >= 90% of 20 seeded grid instances."""
    t0 = time.time()
    err_wins = bound_wins = order_wins = total = 0
    for kind in ("jacobi", "gauss-seidel"):
        for N, tau, r in ((12, 10, 4), (20, 15, 8)):
            for seed in range(5):
                spec = ExampleSpec(kind=kind, size=N, inputs=2, outputs=2,
                                   seed=100 + seed)
                s = generate_example(spec)
                tl_r = tl_gramian_dense(s, tau, "reach")
                tl_o = tl_gramian_dense(s, tau, "obs")
                in_r = tl_gramian_dense(s, math.inf, "reach")
                in_o = tl_gramian_dense(s, math.inf, "obs")
                rom_bt, sp_bt = square_root_truncate(in_r, in_o, s, math.inf,
                                                     order=r, method="bt")
                rom_tl, sp_tl = square_root_truncate(tl_r, tl_o, s, tau,
                                                     order=r, method="tlbt")
                eps_tl = bound_output_tl(s, rom_tl.system, tau,
                                         reach=tl_r, obs=tl_o).epsilon
                eq9 = bound_output_tl(s, rom_bt.system, math.inf,
                                      reach=in_r, obs=in_o).epsilon
                u = np.zeros((tau + 1, s.m))
                u[0] = 1.0
                y = simulate(s, u).outputs
                e_bt = np.linalg.norm(
                    y - simulate(rom_bt.system, u).outputs, axis=1).max()
                e_tl = np.linalg.norm(
                    y - simulate(rom_tl.system, u).outputs, axis=1).max()
                err_wins += e_tl <= e_bt
                bound_wins += eps_tl <= eq9
                order_wins += adaptive_order(sp_tl, 1e-2) <= adaptive_order(sp_bt, 1e-2)
                total += 1
    elapsed = time.time() - t0
    assert total == 20
    assert err_wins >= 18, f"in-window error ordering only {err_wins}/20"
    assert bound_wins >= 18, f"bound ordering only {bound_wins}/20"
    assert order_wins >= 18, f"adaptive order comparison only {order_wins}/20"
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"
    _report(9, f"errors {err_wins}/20, bounds {bound_wins}/20, "
               f"orders {order_wins}/20, {elapsed:.0f}s")


def test_criterion_10_bt_stability_and_unstable_tlbt_handling():
    """Infinite-horizon BT always yields stable models; TLBT instability is
    reported and the bound pipeline survives it."""
    unstable_handled = 0
    for i in range(100):
        s = random_stable_system(8000 + i, 16, 2, 2, radius=0.97)
        in_r = tl_gramian_dense(s, math.inf, "reach")
        in_o = tl_gramian_dense(s, math.inf, "obs")
        rom_bt, _ = square_root_truncate(in_r, in_o, s, math.inf, order=6, method="bt")
        assert rom_bt.spectral_radius() < 1.0, f"BT instability at seed {8000 + i}"
        tau = 8
        tl_r = tl_gramian_dense(s, tau, "reach")
        tl_o = tl_gramian_dense(s, tau, "obs")
        rom_tl, _ = square_root_truncate(tl_r, tl_o, s, tau, order=6, method="tlbt")
        if rom_tl.spectral_radius() >= 1.0:
            report = build_bound_report(s, rom_tl, tau)
            assert report.flags["rom_unstable"]
            assert report.prop23.epsilon is not None and np.isfinite(report.prop23.epsilon)
            assert report.inf_horizon is None
            unstable_handled += 1
    assert unstable_handled > 0, "no unstable TLBT instance found; family is vacuous"
    _report(10, f"100/100 BT models stable; {unstable_handled} unstable TLBT "
                f"models reported and bounded")
