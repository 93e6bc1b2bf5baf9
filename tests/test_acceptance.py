"""End-to-end acceptance suite.

Each test prints a single CRITERION line with its pass/fail verdict and the
measured quantity, then asserts. The expensive default-scenario sweep is
shared by the first two data-driven criteria via a module-scoped fixture.
"""

import math
import os
import time

import numpy as np
import pytest

from beamsim import (
    analysis,
    beamformers,
    channel,
    checks,
    convex,
    modem,
    sim,
)
import support


# the rows are bit-identical for any worker count, so the two long sweeps
# take two workers where the host has them
TWO_WORKERS = min(2, os.cpu_count() or 1)


def report(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def default_sweep():
    scenario = sim.Scenario(
        snr_grid_db=(0.0, 10.0, 20.0, 30.0),
        methods=sim.ALL_METHODS,
    )
    return sim.run_sweep(scenario, n_workers=TWO_WORKERS)


def test_criterion_01_analytic_matches_monte_carlo(default_sweep):
    """Empirical SER within 3 binomial sigma of the analytic average."""
    res = default_sweep
    n_total = res.scenario.n_realizations * res.scenario.n_symbols * len(res.scenario.users)
    worst = 0.0
    for row in res.rows:
        sigma = max(row.ser_ci, math.sqrt(row.pe_analytic * (1 - row.pe_analytic) / n_total))
        pull = abs(row.ser - row.pe_analytic) / sigma
        worst = max(worst, pull)
    ok = worst <= 3.0
    report(1, ok, f"worst |ser - pe| = {worst:.2f} binomial sigma (limit 3)")
    assert ok


def test_criterion_02_zf_bound_tight():
    """The closed-form bound coincides with the exact value for nulling weights."""
    rng = np.random.default_rng(202)
    cs = [modem.unit_energy_pam(8)] * 4
    worst = 0.0
    for _ in range(200):
        H = channel.sample_channel(4, 4, rng)
        for k in range(4):
            w = beamformers.zf(H, k)
            gap = analysis.pe_upper_bound(w, H, k, cs, 0.1) - analysis.exact_pe(
                w, H, k, cs, 0.1
            )
            worst = max(worst, abs(gap))
    ok = worst <= 1e-10
    report(2, ok, f"max |bound - exact| = {worst:.3e} over 800 nulling weights (limit 1e-10)")
    assert ok


def _crossing_snr(rows, level):
    xs = [r.snr_db for r in rows]
    ys = [r.pe_analytic for r in rows]
    for i in range(len(xs) - 1):
        if ys[i] >= level >= ys[i + 1]:
            t = (math.log(level) - math.log(ys[i])) / (math.log(ys[i + 1]) - math.log(ys[i]))
            return xs[i] + t * (xs[i + 1] - xs[i])
    return None


def test_criterion_03_gain_over_baselines():
    """SNR gap at the 2.3e-2 error level between proposed and classical."""
    scenario = sim.Scenario(
        snr_grid_db=tuple(float(s) for s in range(10, 46, 2)),
        n_realizations=150,
        n_symbols=0,
        methods=(sim.SMINR, sim.ZF, sim.MMSE),
        seed=42,
    )
    res = sim.run_sweep(scenario, n_workers=TWO_WORKERS)
    level = 2.3e-2
    x_prop = _crossing_snr(support.series(res, sim.SMINR), level)
    gaps = [
        _crossing_snr(support.series(res, m), level) - x_prop for m in (sim.ZF, sim.MMSE)
    ]
    ok = all(7.5 <= g <= 10.5 for g in gaps)
    report(3, ok, f"gaps vs ZF/MMSE = {gaps[0]:.2f}/{gaps[1]:.2f} dB (window [7.5, 10.5])")
    assert ok


def test_criterion_04_proposed_methods_cluster(default_sweep):
    """All four proposed variants sit within 10% of each other."""
    proposed = (sim.MPE_FULL, sim.MPE_REDUCED, sim.SMINR_AMP, sim.SMINR)
    spreads = {}
    res = default_sweep
    for snr in res.scenario.snr_grid_db:
        if snr >= 30:
            continue
        pes = [support.row(res, m, snr).pe_analytic for m in proposed]
        spreads[snr] = (max(pes) - min(pes)) / min(pes)
    # at 30 dB the per-realization Pe is heavy-tailed, so the average needs
    # more channel draws before the method means separate from sampling noise
    high = sim.Scenario(
        snr_grid_db=(30.0,),
        n_realizations=2000,
        n_symbols=0,
        methods=proposed,
        seed=0,
    )
    res30 = sim.run_sweep(high, n_workers=TWO_WORKERS)
    pes = [support.row(res30, m, 30.0).pe_analytic for m in proposed]
    spreads[30.0] = (max(pes) - min(pes)) / min(pes)
    worst = max(spreads.values())
    ok = worst <= 0.10
    report(4, ok, f"max relative spread of proposed-method Pe = {worst:.4f} (limit 0.10)")
    assert ok


def test_criterion_05_program_equivalence():
    """Full and reduced programs share optimum; margins match exactly."""
    rng = np.random.default_rng(505)
    cs = [modem.unit_energy_pam(8)] * 4
    sigma = sim.snr_db_to_sigma(20.0)
    worst_obj = 0.0
    worst_margin = 0.0
    done = 0
    while done < 100:
        H = channel.sample_channel(4, 4, rng)
        amp = convex.solve(convex.ConvexProgram(convex.SMINR_AMP, H, 0, cs, 1.0))
        if amp.feasibility.margin <= convex.TOL_FEAS:
            continue
        rep_f = convex.solve(convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, sigma))
        rep_r = convex.solve(convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, sigma))
        worst_obj = max(worst_obj, abs(rep_f.objective_value - rep_r.objective_value))
        for w in (rep_f.weights, rep_r.weights, amp.weights):
            full, reduced = analysis.feasibility_margins(w, H, 0, cs)
            worst_margin = max(worst_margin, abs(np.min(full) - reduced))
        done += 1
    ok = worst_obj <= 1e-6 and worst_margin <= 1e-12
    report(
        5,
        ok,
        f"max |obj_full - obj_reduced| = {worst_obj:.3e} (limit 1e-6), "
        f"max |min(full) - reduced| = {worst_margin:.3e} (limit 1e-12)",
    )
    assert ok


def test_criterion_06_unique_minimizer():
    """Independent feasible starts land on the same canonical weight."""
    rng = np.random.default_rng(606)
    cs = [modem.unit_energy_pam(8)] * 4
    # 10 dB keeps the optimal objective well above machine epsilon so the
    # minimizer location is numerically identifiable
    sigma = sim.snr_db_to_sigma(10.0)
    worst = 0.0
    done = 0
    while done < 50:
        H = channel.sample_channel(4, 4, rng)
        feas = convex.solve(convex.ConvexProgram(convex.SMINR_AMP, H, 0, cs, 1.0)).feasibility
        if feas.margin <= convex.TOL_FEAS:
            continue
        prog = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, sigma)
        reps = [
            convex.solve(prog, start=convex.random_feasible_start(prog, rng, w_feas=feas.w_bar))
            for _ in range(2)
        ]
        ws = [beamformers.align_phase(r.weights, H[:, 0]) for r in reps]
        worst = max(worst, float(np.linalg.norm(ws[0] - ws[1])))
        done += 1
    ok = worst <= 1e-5
    report(6, ok, f"max ||w1 - w2|| over 50 instances = {worst:.3e} (limit 1e-5)")
    assert ok


def test_criterion_07_closed_form_optimality():
    """Eigenvector solution dominates random directions; single-user value exact."""
    rng = np.random.default_rng(707)
    cs = [modem.unit_energy_pam(8)] * 3
    sigma = 0.2
    wins = 0
    for _ in range(100):
        H = channel.sample_channel(4, 3, rng)
        w_star = beamformers.sminr_closed_form(H, 0, cs)
        best = analysis.sminr_power(w_star, H, 0, cs, sigma)
        M = beamformers.sminr_quadratic_form(H, 0, cs)
        X = rng.standard_normal((10_000, 8))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        vals = np.einsum("bi,ij,bj->b", X, M, X) / (sigma**2 / 2.0)
        if np.all(vals <= best + 1e-10):
            wins += 1
    # single-user check: matched filter value 2 d^2 E_g ||h||^2 / sigma^2
    h = channel.sample_channel(4, 1, rng)
    c1 = [modem.unit_energy_pam(8)]
    w_mf = beamformers.sminr_closed_form(h, 0, c1)
    got = analysis.sminr_power(w_mf, h, 0, c1, sigma)
    want = (
        2.0
        * c1[0].half_spacing**2
        * c1[0].pulse_energy
        * float(np.linalg.norm(h) ** 2)
        / sigma**2
    )
    rel = abs(got - want) / want
    ok = wins == 100 and rel <= 1e-10
    report(7, ok, f"dominance wins = {wins}/100, single-user rel err = {rel:.3e} (limit 1e-10)")
    assert ok


def test_criterion_08_error_floor():
    """Identical-channel two-user binary case floors at 1/4."""
    scale = 1e6
    cs = [
        modem.Constellation(2, half_spacing=scale),
        modem.Constellation(2, half_spacing=scale),
    ]
    H = np.array([[1.0 + 0j, 1.0 + 0j]])
    w = np.array([1.0 + 0j])
    pe = analysis.exact_pe(w, H, 0, cs, 1.0)
    err = abs(pe - 0.25)
    ok = err <= 1e-6
    report(8, ok, f"|pe - 1/4| = {err:.3e} at transmit scale 1e6 (limit 1e-6)")
    assert ok


def test_criterion_09_property_suites():
    """The quick self-check suite passes entirely in under a minute."""
    t0 = time.perf_counter()
    c0 = time.process_time()
    results = checks.run_checks(quick=True, seed=12345)
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    failures = [name for name, passed, _ in results if not passed]
    # budget asserted on CPU time: wall clock on this shared host can stall
    # for minutes under outside load, which says nothing about the suite
    ok = not failures and cpu < 60.0
    report(9, ok, f"{len(results) - len(failures)}/{len(results)} checks in "
                  f"{cpu:.1f}s CPU ({wall:.1f}s wall, limit 60s CPU; "
                  f"failures: {failures or 'none'})")
    assert ok


def test_criterion_10_gradient_correctness():
    """Analytic gradient agrees with central finite differences."""
    rng = np.random.default_rng(1010)
    cs = [modem.unit_energy_pam(4)] * 2
    worst = 0.0
    checked = 0
    while checked < 100:
        H = channel.sample_channel(3, 2, rng)
        prog = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, 0.3)
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        _, grad = convex.objective_and_gradient(prog, x)
        if np.linalg.norm(grad) < 1e-8:
            continue
        eps = 1e-6
        fd = np.empty(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = eps
            fp, _ = convex.objective_and_gradient(prog, x + e)
            fm, _ = convex.objective_and_gradient(prog, x - e)
            fd[i] = (fp - fm) / (2 * eps)
        rel = float(np.linalg.norm(grad - fd) / np.linalg.norm(grad))
        worst = max(worst, rel)
        checked += 1
    ok = worst <= 1e-6
    report(10, ok, f"max relative gradient error = {worst:.3e} at 100 points (limit 1e-6)")
    assert ok


def test_criterion_11_sum_rate_ceiling():
    """Proposed methods approach 12 bits/use; the QAM reference does too."""
    scenario = sim.Scenario(
        snr_grid_db=(45.0,),
        n_realizations=100,
        n_symbols=0,
        methods=(sim.MPE_FULL, sim.MPE_REDUCED, sim.SMINR_AMP, sim.SMINR),
        seed=11,
    )
    res = sim.run_sweep(scenario)
    rates = {r.method: r.sum_rate for r in res.rows}
    qam_scenario = sim.Scenario(
        n_antennas=4,
        users=(modem.unit_energy_pam(8),) * 2,
        snr_grid_db=(50.0,),
        n_realizations=100,
        n_symbols=2000,
        methods=(sim.ZF, sim.MMSE),
        seed=11,
    )
    qam = sim.qam_reference_sweep(qam_scenario)
    qam_best = max(r.sum_rate for r in qam.rows)
    ok = all(v >= 11.5 for v in rates.values()) and qam_best >= 11.5
    report(
        11,
        ok,
        f"proposed rates at 45 dB = "
        + ", ".join(f"{m}={v:.2f}" for m, v in rates.items())
        + f"; best QAM rate at 50 dB = {qam_best:.2f} (limit 11.5)",
    )
    assert ok


def test_criterion_12_imperfect_csi_ordering():
    """With noisy channel estimates the eigen-beamformer keeps a 10x SER lead."""
    scenario = sim.Scenario(
        snr_grid_db=(40.0,),
        csi_error_var=0.001,
        methods=(sim.ZF, sim.MMSE, sim.SMINR),
        seed=12,
    )
    res = sim.run_sweep(scenario)
    ser = {r.method: r.ser for r in res.rows}
    ok = ser[sim.SMINR] * 10 <= ser[sim.ZF] and ser[sim.SMINR] * 10 <= ser[sim.MMSE]
    report(
        12,
        ok,
        f"SER at 40 dB, var 1e-3: SMINR={ser[sim.SMINR]:.3e}, "
        f"ZF={ser[sim.ZF]:.3e}, MMSE={ser[sim.MMSE]:.3e} (need 10x lead)",
    )
    assert ok
