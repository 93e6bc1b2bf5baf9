"""Self-contained property suites, runnable from the CLI ``check`` command.

Each check returns (name, passed, detail). The quick profile keeps every
suite well under a minute in total; the full profile uses the larger sample
sizes quoted in the test suite.
"""

import numpy as np

from . import analysis, beamformers, channel, convex, modem


def _random_unit_complex(n, rng):
    w = channel.complex_normal(n, rng)
    return w / np.linalg.norm(w)


def check_alphabet_symmetry(rng, quick):
    for order in (2, 3, 4, 8, 16):
        c = modem.unit_energy_pam(order)
        amps = c.amplitudes()
        if not np.allclose(np.sort(amps), np.sort(-amps), atol=0):
            return "alphabet_symmetry", False, f"order {order} not symmetric"
        expected = c.half_spacing**2 * (order**2 - 1) / 3.0
        if abs(np.mean(amps**2) - expected) > 1e-12:
            return "alphabet_symmetry", False, f"order {order} energy mismatch"
    return "alphabet_symmetry", True, "orders 2..16"


def check_decision_round_trip(rng, quick):
    for order in (2, 4, 8):
        c = modem.unit_energy_pam(order)
        for gain in (0.3, 1.0, 7.5):
            for l in range(1, order + 1):
                y = gain * c.amplitude(l)
                if modem.decide(y, gain, c) != l:
                    return "decision_round_trip", False, f"L={order} gain={gain} l={l}"
    return "decision_round_trip", True, "noise-free decisions exact"


def check_tuple_negation_closure(rng, quick):
    cs = [modem.unit_energy_pam(L) for L in (2, 3, 4)]
    for k in range(3):
        ts = modem.enumerate_interferers(cs, k)
        rows = {tuple(np.round(t, 12)) for t in ts.tuples}
        neg = {tuple(np.round(-t, 12)) for t in ts.tuples}
        if rows != neg:
            return "tuple_negation_closure", False, f"user {k}"
    return "tuple_negation_closure", True, "negation is a bijection"


def check_scale_invariance(rng, quick):
    n = 50 if quick else 200
    cs = [modem.unit_energy_pam(4) for _ in range(3)]
    worst = 0.0
    for _ in range(n):
        H = channel.sample_channel(3, 3, rng)
        w = _random_unit_complex(3, rng)
        p1 = analysis.exact_pe(w, H, 0, cs, 0.5)
        p2 = analysis.exact_pe(3.7 * w, H, 0, cs, 0.5)
        worst = max(worst, abs(p1 - p2) / max(p1, 1e-300))
    return "scale_invariance", worst <= 1e-12, f"worst rel diff {worst:.2e}"


def check_qsum_sign_symmetry(rng, quick):
    n = 50 if quick else 200
    cs = [modem.unit_energy_pam(4) for _ in range(3)]
    ts = modem.enumerate_interferers(cs, 0)
    worst = 0.0
    for _ in range(n):
        H = channel.sample_channel(3, 3, rng)
        w = _random_unit_complex(3, rng)
        args = analysis.pe_arguments(w, H, 0, cs, 0.5, ts)
        flipped = modem.InterfererTupleSet(ts.users, -ts.tuples, ts.peaks)
        args_neg = analysis.pe_arguments(w, H, 0, cs, 0.5, flipped)
        s1 = float(np.sum(analysis.q_function(args)))
        s2 = float(np.sum(analysis.q_function(args_neg)))
        worst = max(worst, abs(s1 - s2) / max(s1, 1e-300))
    return "qsum_sign_symmetry", worst <= 1e-12, f"worst rel diff {worst:.2e}"


def check_bound_dominance(rng, quick):
    n = 10_000
    cs = [modem.unit_energy_pam(2) for _ in range(2)]
    worst = -np.inf
    for _ in range(n):
        H = channel.sample_channel(2, 2, rng)
        w = _random_unit_complex(2, rng)
        gap = analysis.exact_pe(w, H, 0, cs, 0.7) - analysis.pe_upper_bound(
            w, H, 0, cs, 0.7
        )
        worst = max(worst, gap)
    return "bound_dominance", worst <= 1e-12, f"max (exact - bound) = {worst:.2e}"


def check_margin_equivalence(rng, quick):
    n = 200 if quick else 10_000
    worst = 0.0
    for _ in range(n):
        K = int(rng.integers(1, 5))
        cs = [modem.unit_energy_pam(int(rng.integers(2, 5))) for _ in range(K)]
        H = channel.sample_channel(3, K, rng)
        w = _random_unit_complex(3, rng)
        full, reduced = analysis.feasibility_margins(w, H, 0, cs)
        worst = max(worst, abs(float(np.min(full)) - reduced))
    return "margin_equivalence", worst <= 1e-12, f"max |min(full)-reduced| {worst:.2e}"


def check_convex_combination_feasibility(rng, quick):
    n = 100 if quick else 1000
    cs = [modem.unit_energy_pam(4) for _ in range(3)]
    for _ in range(n):
        H = channel.sample_channel(4, 3, rng)
        # the maximum-margin weights; None when no weight has a positive margin
        w_feas = convex.solve(convex.ConvexProgram(convex.SMINR_AMP, H, 0, cs, 1.0)).weights
        if w_feas is None:
            continue
        # second feasible point: shrink toward the max-margin point
        w2 = beamformers.zf(H, 0)
        _, m2 = analysis.feasibility_margins(w2, H, 0, cs)
        if m2 < 0:
            continue
        for alpha in np.linspace(0.1, 0.9, 9):
            mix = alpha * w_feas + (1 - alpha) * w2
            _, m_mix = analysis.feasibility_margins(mix, H, 0, cs)
            if m_mix < -1e-12:
                return (
                    "convex_combination_feasibility",
                    False,
                    f"alpha={alpha} margin={m_mix:.2e}",
                )
    return "convex_combination_feasibility", True, "mixtures stay feasible"


def check_lifting_identity(rng, quick):
    n = 200
    worst = 0.0
    for _ in range(n):
        N = int(rng.integers(1, 8))
        w = channel.complex_normal(N, rng)
        h = channel.complex_normal(N, rng)
        lifted = beamformers.lift_weights(w) @ beamformers.lift_channel(h)
        worst = max(worst, abs(lifted - (w @ h).real))
    return "lifting_identity", worst <= 1e-12, f"max |diff| {worst:.2e}"


def check_zf_nulling(rng, quick):
    n = 25 if quick else 200
    worst = 0.0
    for _ in range(n):
        H = channel.sample_channel(4, 4, rng)
        for k in range(4):
            w = beamformers.zf(H, k)
            cross = np.abs(np.delete(w @ H, k))
            worst = max(worst, float(np.max(cross)) / np.linalg.norm(H))
    return "zf_nulling", worst <= 1e-10, f"max residual {worst:.2e}"


def check_gradient_fd(rng, quick):
    n_points = 20 if quick else 100
    cs = tuple(modem.unit_energy_pam(4) for _ in range(3))
    worst = 0.0
    for _ in range(n_points):
        H = channel.sample_channel(4, 3, rng)
        program = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, sigma_z=0.7)
        w_bar = rng.standard_normal(8)
        w_bar /= np.linalg.norm(w_bar)
        _, grad = convex.objective_and_gradient(program, w_bar)
        fd = np.empty_like(grad)
        h = 1e-5
        for i in range(w_bar.size):
            e = np.zeros_like(w_bar)
            e[i] = h
            fp, _ = convex.objective_and_gradient(program, w_bar + e)
            fm, _ = convex.objective_and_gradient(program, w_bar - e)
            fd[i] = (fp - fm) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    return "gradient_fd", worst <= 1e-6, f"worst rel error {worst:.2e}"


def check_error_floor_limit(rng, quick):
    # identical-channel two-user BPSK: exact Pe -> 1/4 as power grows
    scale = 1e6
    cs = [modem.Constellation(2, half_spacing=scale), modem.Constellation(2, half_spacing=scale)]
    H = np.array([[1.0 + 0j, 1.0 + 0j]])
    w = np.array([1.0 + 0j])
    pe = analysis.exact_pe(w, H, 0, cs, 1.0)
    floor = analysis.error_floor(0, cs)
    ok = abs(pe - floor) <= 1e-6 and abs(floor - 0.25) < 1e-15
    return "error_floor_limit", ok, f"pe={pe:.8f} floor={floor}"


def check_objective_convexity(rng, quick):
    n = 30 if quick else 200
    cs = tuple(modem.unit_energy_pam(2) for _ in range(3))
    worst = -np.inf
    for _ in range(n):
        H = channel.sample_channel(4, 3, rng)
        program = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, sigma_z=0.7)
        w_feas = convex.solve(convex.ConvexProgram(convex.SMINR_AMP, H, 0, cs, 1.0)).weights
        if w_feas is None:
            continue
        w1 = convex.random_feasible_start(program, rng, beamformers.lift_weights(w_feas))
        w2 = convex.random_feasible_start(program, rng, beamformers.lift_weights(w_feas))
        f1, _ = convex.objective_and_gradient(program, w1)
        f2, _ = convex.objective_and_gradient(program, w2)
        for alpha in (0.25, 0.5, 0.75):
            mix = alpha * w1 + (1 - alpha) * w2
            mix = mix / np.linalg.norm(mix)
            fm, _ = convex.objective_and_gradient(program, mix)
            worst = max(worst, fm - (alpha * f1 + (1 - alpha) * f2))
    return "objective_convexity", worst <= 1e-10, f"max violation {worst:.2e}"


def check_sminr_optimality(rng, quick):
    n_instances = 10 if quick else 100
    n_probe = 1000 if quick else 10_000
    cs = [modem.unit_energy_pam(8) for _ in range(4)]
    for _ in range(n_instances):
        H = channel.sample_channel(4, 4, rng)
        w = beamformers.sminr_closed_form(H, 0, cs)
        best = analysis.sminr_power(w, H, 0, cs, 1.0)
        for _ in range(n_probe):
            u = _random_unit_complex(4, rng)
            if analysis.sminr_power(u, H, 0, cs, 1.0) > best + 1e-9:
                return "sminr_optimality", False, "random vector beat eigenvector"
    return "sminr_optimality", True, f"{n_instances} instances x {n_probe} probes"


ALL_CHECKS = (
    check_alphabet_symmetry,
    check_decision_round_trip,
    check_tuple_negation_closure,
    check_scale_invariance,
    check_qsum_sign_symmetry,
    check_bound_dominance,
    check_margin_equivalence,
    check_convex_combination_feasibility,
    check_lifting_identity,
    check_zf_nulling,
    check_gradient_fd,
    check_error_floor_limit,
    check_objective_convexity,
    check_sminr_optimality,
)


def run_checks(quick: bool, seed: int):
    """Run every property suite; returns a list of (name, passed, detail)."""
    results = []
    for fn in ALL_CHECKS:
        rng = np.random.default_rng(seed)
        results.append(fn(rng, quick=quick))
    return results
