import math

import numpy as np
import pytest
from scipy.optimize import linprog, lsq_linear, minimize, nnls
from scipy.special import erfc

from beamsim import analysis, beamformers, channel, convex, modem, sim
import support
from support import certify_on_tuple_rows, sminr_amp


def count_feasibility_phases(monkeypatch) -> list:
    """The users of every ``_maximize_margin`` call from here on."""
    calls = []
    original = convex._maximize_margin

    def counting(program):
        calls.append(program.user)
        return original(program)

    monkeypatch.setattr(convex, "_maximize_margin", counting)
    return calls


def make_program(seed, kind, N=4, K=3, order=8, sigma=0.1, k=0):
    rng = np.random.default_rng(seed)
    H = channel.sample_channel(N, K, rng)
    cs = [modem.unit_energy_pam(order)] * K
    return convex.ConvexProgram(kind, H, k, cs, sigma), H, cs


class TestProgramSetup:
    def test_dimension_and_tuple_counts(self):
        # every kind: one objective row per tuple, and the constraints are
        # the extreme tuples, every one of the K-1 interferers at +-its peak
        for kind in (convex.MPE_FULL, convex.MPE_REDUCED, convex.SMINR_AMP):
            prog, _, _ = make_program(0, kind)
            assert prog.dimension == 8
            assert prog.G_objective.shape == (64, 8)
            assert prog.G_constraints.shape == (4, 8)

    @pytest.mark.parametrize("kind", [convex.MPE_FULL, convex.MPE_REDUCED, convex.SMINR_AMP])
    def test_tuple_cap_is_checked_before_enumerating(self, kind, monkeypatch):
        # 21 BPSK users give 2^20 tuples per user, above the cap: the guard
        # keeps the refusal from ever building them
        def fail_enumerate(*args):
            raise AssertionError("enumerate_interferers called")

        monkeypatch.setattr(convex, "enumerate_interferers", fail_enumerate)
        cs = [modem.unit_energy_pam(2)] * 21
        with pytest.raises(ValueError, match="1048576 interferer tuples exceed the cap"):
            convex.ConvexProgram(kind, np.ones((1, 21), dtype=complex), 0, cs, 0.1)

    def test_reduced_constraint_count(self):
        prog, _, _ = make_program(0, convex.MPE_REDUCED)
        # the extreme tuples: every one of the K-1 interferers at +-its peak
        assert prog.G_constraints.shape == (4, 8)

    def test_reduced_margin_matches_analysis(self):
        prog, H, cs = make_program(1, convex.MPE_REDUCED)
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w_bar = beamformers.lift_weights(w)
            _, reduced = analysis.feasibility_margins(w, H, 0, cs)
            assert prog.reduced_margin(w_bar) == pytest.approx(reduced, rel=1e-12, abs=1e-14)

    def test_sign_pattern_rows_equal_extreme_tuples(self):
        # the reduced constraint rows are a subset of the full tuple rows
        prog_f, _, _ = make_program(3, convex.MPE_FULL, K=2, order=4)
        prog_r, _, _ = make_program(3, convex.MPE_REDUCED, K=2, order=4)
        full_rows = {tuple(np.round(g, 12)) for g in prog_f.G_objective}
        for g in prog_r.G_constraints:
            assert tuple(np.round(g, 12)) in full_rows


    @pytest.mark.parametrize("orders", [(4,), (3, 8), (8, 3, 4), (2, 3, 4, 8)])
    def test_reduced_rows_equal_sign_pattern_rows(self, orders):
        K = len(orders)
        rng = np.random.default_rng(sum(orders))
        H = channel.sample_channel(3, K, rng)
        cs = [modem.Constellation(L, 0.7, 2.5) for L in orders]
        m = K - 1
        # the rows a - S @ U over all sign patterns S in {+-1}^(K-1)
        signs = np.array([[1 - 2 * ((i >> j) & 1) for j in range(m)]
                          for i in range(2**m)], dtype=float).reshape(2**m, m)
        for k in range(K):
            prog = convex.ConvexProgram(convex.MPE_REDUCED, H, k, cs, 0.1)
            full = convex.ConvexProgram(convex.MPE_FULL, H, k, cs, 0.1)
            expected = prog.a[None, :] - signs @ prog.U
            assert prog.G_constraints.shape == (2**m, prog.dimension)
            # bit for bit, each reduced row is a row of the full program ...
            assert {tuple(g) for g in prog.G_constraints} <= {tuple(g) for g in full.G_objective}
            # ... and the rows pair one to one with the sign-pattern rows; the
            # tuple matmul may round a sum of products differently
            dist = np.abs(prog.G_constraints[:, None, :] - expected[None, :, :]).max(axis=2)
            assert sorted(dist.argmin(axis=1)) == list(range(2**m))
            assert dist.min(axis=1).max() <= 4 * np.finfo(float).eps * np.abs(expected).max()


class TestObjective:
    def test_full_objective_equals_exact_pe(self):
        prog, H, cs = make_program(4, convex.MPE_FULL, sigma=0.2)
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            w /= np.linalg.norm(w)
            val, _ = convex.objective_and_gradient(prog, beamformers.lift_weights(w))
            assert val == pytest.approx(analysis.exact_pe(w, H, 0, cs, 0.2), rel=1e-12)

    def test_gradient_finite_difference(self):
        prog, _, _ = make_program(6, convex.MPE_FULL, N=3, K=2, order=4, sigma=0.3)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(6)
            x /= np.linalg.norm(x)
            _, grad = convex.objective_and_gradient(prog, x)
            eps = 1e-6
            for i in range(6):
                e = np.zeros(6)
                e[i] = eps
                fp, _ = convex.objective_and_gradient(prog, x + e)
                fm, _ = convex.objective_and_gradient(prog, x - e)
                fd = (fp - fm) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)

    def test_sminr_amp_has_no_smooth_objective(self):
        prog, _, _ = make_program(4, convex.SMINR_AMP)
        with pytest.raises(ValueError, match="SMINR_AMP"):
            convex.objective_and_gradient(prog, np.ones(prog.dimension) / 3.0)

    def test_convexity_along_segments(self):
        # midpoint value never exceeds chord average on feasible segments
        prog, _, _ = make_program(8, convex.MPE_FULL, sigma=0.15)
        feas = convex._maximize_margin(prog)
        assert feas.margin > 0
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = convex.random_feasible_start(prog, rng, w_feas=feas.w_bar)
            y = convex.random_feasible_start(prog, rng, w_feas=feas.w_bar)
            fx, _ = convex.objective_and_gradient(prog, x)
            fy, _ = convex.objective_and_gradient(prog, y)
            fm, _ = convex.objective_and_gradient(prog, (x + y) / 2)
            assert fm <= (fx + fy) / 2 + 1e-12


def reference_objective(program, w_bar):
    """The MPE objective and gradient, written out without the shared evaluator."""
    args = (program.G_objective @ w_bar) / program.noise_scale
    phi = np.exp(-0.5 * args**2) / math.sqrt(2.0 * math.pi)
    value = program.prefactor * float(np.sum(0.5 * erfc(args / math.sqrt(2.0))))
    grad = -(program.prefactor / program.noise_scale) * (phi @ program.G_objective)
    return value, grad


def reference_hessian(program, w_bar):
    """Hessian of the MPE objective at w_bar, without the shared evaluator."""
    args = (program.G_objective @ w_bar) / program.noise_scale
    phi = np.exp(-0.5 * args**2) / math.sqrt(2.0 * math.pi)
    weights = args * phi * (program.prefactor / program.noise_scale**2)
    return (program.G_objective * weights[:, None]).T @ program.G_objective


class TestSharedEvaluation:
    @pytest.mark.parametrize("kind", [convex.MPE_FULL, convex.MPE_REDUCED])
    def test_objective_and_gradient_equal_shared_evaluator(self, kind):
        prog, _, _ = make_program(60, kind, K=4, sigma=0.2)
        rng = np.random.default_rng(61)
        for _ in range(10):
            w = rng.standard_normal(prog.dimension)
            w /= np.linalg.norm(w)
            value, grad = convex.objective_and_gradient(prog, w)
            shared_value, shared_grad, weights = convex._mpe_evaluate(prog, w)
            ref_value, ref_grad = reference_objective(prog, w)
            assert value == shared_value == ref_value
            assert np.array_equal(grad, shared_grad)
            assert np.array_equal(grad, ref_grad)
            G = prog.G_objective
            assert np.array_equal((G * weights[:, None]).T @ G, reference_hessian(prog, w))

    def test_hessian_matches_finite_difference_of_gradient(self):
        prog, _, _ = make_program(62, convex.MPE_FULL, N=3, K=2, order=4, sigma=0.3)
        rng = np.random.default_rng(63)
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        hess = reference_hessian(prog, x)
        eps = 1e-6
        for i in range(6):
            e = np.zeros(6)
            e[i] = eps
            fd = (convex.objective_and_gradient(prog, x + e)[1]
                  - convex.objective_and_gradient(prog, x - e)[1]) / (2 * eps)
            np.testing.assert_allclose(hess[:, i], fd, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("kind", [convex.MPE_FULL, convex.MPE_REDUCED])
    def test_newton_matrix_uses_hessian_at_the_iterate(self, kind, monkeypatch):
        # every linear solve of the SQP is with the Newton matrix at the
        # current iterate: the start, then each accepted candidate
        cs = [modem.unit_energy_pam(8)] * 4
        H = channel.sample_channel(4, 4, np.random.default_rng(64))
        prog = convex.ConvexProgram(kind, H, 0, cs, sim.snr_db_to_sigma(10.0))
        models, trace = record_sqp_models(prog, monkeypatch)
        assert len(trace) >= 2
        assert len(models) in (len(trace) + 1, len(trace))
        n = prog.dimension
        for w, g, B, _, _ in models:
            Z = tangent_basis(w)
            expected = Z.T @ reference_hessian(prog, w) @ Z / -(g @ w) + np.eye(n - 1)
            np.testing.assert_allclose(B, expected, rtol=1e-10, atol=1e-12)


def tangent_basis(w):
    """The SQP's orthonormal basis of w-perp: a Householder reflector's columns."""
    v = w.copy()
    v[0] += math.copysign(1.0, w[0])
    return np.eye(w.size)[:, 1:] - np.outer(v, v[1:]) * (2.0 / (v @ v))


def record_sqp_models(prog, monkeypatch):
    """Run the sphere SQP from the maximum-margin point and return its models
    with the trace. A model is (w, g, B, rhs, d) at the iterate w with
    gradient g: the linear solve B d = rhs for the Newton step Z d."""
    evaluated, solves = [], []
    evaluate, linear_solve = convex._mpe_evaluate, np.linalg.solve

    def recording_evaluate(program, w_bar):
        result = evaluate(program, w_bar)
        evaluated.append((w_bar.copy(), result[0], result[1]))
        return result

    def recording_solve(B, rhs):
        d = linear_solve(B, rhs)
        solves.append((B.copy(), rhs.copy(), d.copy()))
        return d

    feas = convex._maximize_margin(prog)
    monkeypatch.setattr(convex, "_mpe_evaluate", recording_evaluate)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    trace = convex._sphere_sqp(prog, feas.w_bar)[3]
    monkeypatch.undo()
    iterates = [evaluated[0]] + [next(ev for ev in evaluated if ev[1] == row[1])
                                 for row in trace]
    return [(w, g, *solve) for (w, _, g), solve in zip(iterates, solves)], trace


def least_distance_step(prog, w, B, q):
    """The step minimizing 1/2 d'Bd + q'd subject to G (w + Zd) >= 0, always
    through the NNLS of its least-distance form, with B = LL'."""
    G, Z = prog.G_constraints, tangent_basis(w)
    L_inv = np.linalg.inv(np.linalg.cholesky(B))
    h = L_inv @ q
    Et = L_inv @ (G @ Z).T
    A = np.vstack([Et, h @ Et - G @ w])
    e = np.zeros(w.size)
    e[-1] = 1.0
    r = A @ convex._nnls(A, e) - e
    return Z @ (L_inv.T @ (-r[:-1] / r[-1] - h))


class TestNewtonFirstStep:
    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_kept_newton_step_is_the_least_distance_step(self, snr_db, monkeypatch):
        # when the Newton step keeps every peak row, the NNLS of the
        # least-distance problem gives the same step; at 0 dB some steps leave
        # a row and take the NNLS, whose step never does
        scenario = sim.Scenario()
        rng = np.random.default_rng(68)
        kept = left = 0
        for _ in range(3):
            H = channel.sample_channel(scenario.n_antennas, len(scenario.users), rng)
            for k in range(len(scenario.users)):
                prog = convex.ConvexProgram(convex.MPE_FULL, H, k, scenario.users,
                                            sim.snr_db_to_sigma(snr_db))
                for w, _, B, rhs, d in record_sqp_models(prog, monkeypatch)[0]:
                    newton = tangent_basis(w) @ d
                    if (prog.G_constraints @ (w + newton)).min() >= 0.0:
                        kept += 1
                        old = least_distance_step(prog, w, B, -rhs)
                        assert np.linalg.norm(old - newton) <= 1e-12 * np.linalg.norm(newton)
                    else:
                        left += 1
                        step = least_distance_step(prog, w, B, -rhs)
                        assert (prog.G_constraints @ (w + step)).min() >= -1e-12
        assert kept >= 5
        if snr_db == 0.0:
            assert left >= 5


class TestSolve:
    def test_start_at_the_optimum_stays_there(self):
        # the two MPE kinds are one program: started at the MPE_FULL optimum,
        # the MPE_REDUCED solve's SQP has at most one rounding-level step left
        for seed in range(6):
            prog_f, H, cs = make_program(seed, convex.MPE_FULL, sigma=0.1)
            rep_f = convex.solve(prog_f)
            prog_r = convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, 0.1)
            rep_r = convex.solve(prog_r, start=beamformers.lift_weights(rep_f.weights))
            assert rep_f.status == rep_r.status == convex.OPTIMAL
            assert rep_r.iterations <= 1
            assert rep_r.objective_value == pytest.approx(rep_f.objective_value, rel=1e-14)
            np.testing.assert_allclose(rep_r.weights, rep_f.weights, rtol=0, atol=1e-9)

    def test_random_start_runs_the_sqp_to_the_same_optimum(self):
        rng = np.random.default_rng(13)
        for seed in range(6):
            prog_f, H, cs = make_program(seed, convex.MPE_FULL, sigma=0.1)
            rep_f = convex.solve(prog_f)
            prog_r = convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, 0.1)
            start = convex.random_feasible_start(prog_r, rng, rep_f.feasibility.w_bar)
            rep_r = convex.solve(prog_r, start=start)
            assert rep_r.status == convex.OPTIMAL
            assert rep_r.iterations >= 1
            assert rep_r.objective_value == pytest.approx(rep_f.objective_value, rel=1e-10)

    def test_solution_is_unit_norm_feasible_stationary(self):
        prog, H, cs = make_program(12, convex.MPE_FULL, sigma=0.1)
        rep = convex.solve(prog)
        assert rep.status == convex.OPTIMAL
        w_bar = beamformers.lift_weights(rep.weights)
        assert np.linalg.norm(w_bar) == pytest.approx(1.0, abs=1e-12)
        full, reduced = analysis.feasibility_margins(rep.weights, H, 0, cs)
        assert reduced > -1e-12
        assert rep.kkt_residual <= 1e-6

    def test_beats_closed_form_baselines_on_exact_pe(self):
        rng_seeds = range(20, 26)
        for seed in rng_seeds:
            prog, H, cs = make_program(seed, convex.MPE_FULL, sigma=0.15)
            rep = convex.solve(prog)
            assert rep.status == convex.OPTIMAL
            for w0 in (
                beamformers.zf(H, 0),
                beamformers.mmse(H, 0, 0.15, [c.average_energy for c in cs]),
                beamformers.sminr_closed_form(H, 0, cs),
            ):
                assert rep.objective_value <= analysis.exact_pe(w0, H, 0, cs, 0.15) + 1e-12

    def test_unique_minimizer_from_random_starts(self):
        prog, H, cs = make_program(30, convex.MPE_FULL, sigma=0.1)
        rng = np.random.default_rng(31)
        w_feas = convex._maximize_margin(prog).w_bar
        reps = [
            convex.solve(prog, start=convex.random_feasible_start(prog, rng, w_feas=w_feas))
            for _ in range(3)
        ]
        ws = [beamformers.align_phase(r.weights, H[:, 0]) for r in reps]
        for w in ws[1:]:
            assert np.linalg.norm(w - ws[0]) < 1e-7

    def test_sminr_amp_solution_matches_closed_form_metric(self):
        prog, H, cs = make_program(33, convex.SMINR_AMP, sigma=0.2)
        rep = convex.solve(prog)
        assert rep.status == convex.OPTIMAL
        amp_prog = sminr_amp(rep.weights, H, 0, cs, 0.2)
        # the amplitude maximizer dominates the power-form eigenvector on
        # amplitude (they optimize different scalarizations of the margin)
        w_cf = beamformers.sminr_closed_form(H, 0, cs)
        amp_cf = sminr_amp(w_cf, H, 0, cs, 0.2)
        assert amp_prog >= amp_cf - 1e-10
        # and equals the maximum feasibility margin scaled by the noise
        assert amp_prog == pytest.approx(rep.feasibility.margin / prog.noise_scale, rel=1e-8)

    def test_infeasible_instance_reported(self):
        # more users than antennas with large constellations: no intersection
        rng = np.random.default_rng(34)
        H = channel.sample_channel(2, 4, rng)
        cs = [modem.unit_energy_pam(8)] * 4
        prog = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, 0.1)
        rep = convex.solve(prog)
        if rep.status == convex.INFEASIBLE:
            assert rep.weights is None
        else:
            # if a feasible point exists the solver must certify it
            _, reduced = analysis.feasibility_margins(rep.weights, H, 0, cs)
            assert reduced > 0

    @pytest.mark.parametrize("kind", [convex.MPE_FULL, convex.MPE_REDUCED])
    def test_trace_has_one_row_per_iteration(self, kind):
        rng = np.random.default_rng(47)
        cs = [modem.unit_energy_pam(8)] * 4
        for _ in range(4):
            H = channel.sample_channel(4, 4, rng)
            prog = convex.ConvexProgram(kind, H, 0, cs, sim.snr_db_to_sigma(10.0))
            rep = convex.solve(prog)
            *_, trace = convex._sphere_sqp(prog, rep.feasibility.w_bar)
            assert rep.iterations >= 1
            assert [i for i, _, _ in trace] == list(range(1, rep.iterations + 1))
            objectives = [f for _, f, _ in trace]
            assert objectives == sorted(objectives, reverse=True)
            assert objectives[-1] == rep.objective_value


def slsqp_oracle(prog, w0):
    """Objective of general-purpose SLSQP on the same program from w0.

    Minimizes over the unit ball with every tuple row as a linear
    constraint, the full program as the paper states it; the result is
    scaled back into the ball if it ends outside by rounding.
    """
    constraints = [
        {"type": "ineq", "fun": lambda x: 1.0 - x @ x, "jac": lambda x: -2.0 * x},
        {"type": "ineq", "fun": lambda x: prog.G_objective @ x,
         "jac": lambda x: prog.G_objective},
    ]
    res = minimize(lambda x: convex.objective_and_gradient(prog, x), w0, jac=True,
                   method="SLSQP", constraints=constraints,
                   options={"maxiter": 400, "ftol": 1e-16})
    x = res.x / max(1.0, np.linalg.norm(res.x))
    return convex.objective_and_gradient(prog, x)[0]


class TestSphereSqp:
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0])
    def test_objective_at_most_slsqp_oracle(self, snr_db):
        rng = np.random.default_rng(48)
        cs = [modem.unit_energy_pam(8)] * 4
        sigma = sim.snr_db_to_sigma(snr_db)
        for _ in range(4):
            H = channel.sample_channel(4, 4, rng)
            for k in range(4):
                prog = convex.ConvexProgram(convex.MPE_FULL, H, k, cs, sigma)
                rep = convex.solve(prog)
                assert rep.status == convex.OPTIMAL
                assert rep.kkt_residual <= 1e-6
                oracle = slsqp_oracle(prog, rep.feasibility.w_bar)
                assert rep.objective_value <= oracle * (1.0 + 1e-10)

    def test_degenerate_active_rows(self):
        # at 0 dB the optimum for user 0 on this draw zero-forces interferer
        # 3, so the eight tuple rows that differ only in its symbol tie at
        # zero margin
        H = channel.sample_channel(4, 4, np.random.default_rng(2))
        cs = [modem.unit_energy_pam(8)] * 4
        prog = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, 1.0)
        rep = convex.solve(prog)
        w_bar = beamformers.lift_weights(rep.weights)
        assert np.sum(prog.G_objective @ w_bar <= 1e-9) >= 8
        assert abs(prog.U[2] @ w_bar) <= 1e-9
        assert rep.status == convex.OPTIMAL
        assert rep.iterations >= 2
        reduced = convex.solve(convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, 1.0))
        assert rep.objective_value == pytest.approx(reduced.objective_value, rel=1e-10)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 20.0, 30.0])
    def test_optimum_is_certified_on_every_tuple_row(self, snr_db):
        # solved on the peak rows, the MPE_FULL optimum is feasible and KKT
        # stationary on all T tuple rows: the peak rows cut out their set
        rng = np.random.default_rng(66)
        cs = [modem.unit_energy_pam(8)] * 4
        sigma = sim.snr_db_to_sigma(snr_db)
        for _ in range(3):
            H = channel.sample_channel(4, 4, rng)
            for k in range(4):
                prog = convex.ConvexProgram(convex.MPE_FULL, H, k, cs, sigma)
                rep = convex.solve(prog)
                assert rep.status == convex.OPTIMAL
                margin, resid = certify_on_tuple_rows(prog, rep.weights)
                assert margin >= -1e-12
                assert resid <= convex.TOL_KKT

    def test_certificate_refuses_a_violated_row(self):
        # every peak row is violated at -w_feas; a gradient in the cone of
        # two of them is stationary on the active rows, but the point is
        # infeasible and the residual reports the violation
        prog, _, _ = make_program(14, convex.MPE_FULL)
        w = -convex._maximize_margin(prog).w_bar
        G = prog.G_constraints
        assert (G @ w).max() < 0.0
        kkt = convex._kkt_residual(prog, w, G[0] + 2.0 * G[1])
        assert kkt == pytest.approx(-(G @ w).min(), rel=1e-12)
        assert kkt > convex.TOL_KKT

    def test_underflowed_gradient_keeps_start(self, monkeypatch):
        # at 60 dB every Q term of the maximum-margin point underflows to zero
        H = channel.sample_channel(4, 4, np.random.default_rng(49))
        cs = [modem.unit_energy_pam(8)] * 4
        prog = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, sim.snr_db_to_sigma(60.0))
        feas = convex._maximize_margin(prog)
        assert not np.any(convex.objective_and_gradient(prog, feas.w_bar)[1])
        calls = count_feasibility_phases(monkeypatch)
        rep = convex.solve(prog)
        assert np.array_equal(beamformers.lift_weights(rep.weights), feas.w_bar)
        assert rep.iterations == 0
        assert rep.kkt_residual == 0.0
        assert rep.status == convex.OPTIMAL
        # the other kind and another noise level share the feasibility phase
        convex.solve(convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, 1.0))
        assert calls == [0]


class TestFeasibility:
    def test_margin_positive_when_underloaded(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            H = channel.sample_channel(6, 2, rng)
            cs = [modem.unit_energy_pam(4)] * 2
            rep = convex.solve(convex.ConvexProgram(convex.SMINR_AMP, H, 0, cs, 1.0))
            assert rep.feasibility.margin > 0
            _, reduced = analysis.feasibility_margins(rep.weights, H, 0, cs)
            assert reduced == pytest.approx(rep.feasibility.margin, rel=1e-8)

    def test_random_starts_are_feasible(self):
        prog, H, cs = make_program(37, convex.MPE_FULL)
        rng = np.random.default_rng(38)
        w_feas = convex._maximize_margin(prog).w_bar
        for _ in range(20):
            x = convex.random_feasible_start(prog, rng, w_feas=w_feas)
            assert np.linalg.norm(x) <= 1 + 1e-12
            assert prog.reduced_margin(x) > 0


def lp_max_margin(prog):
    """Independent oracle: max a.w - sum t subject to +-U w <= t, ||w||_inf <= 1.

    The optimum is positive exactly when some direction has a positive
    reduced margin; its scale differs from the unit-ball maximum.
    """
    a, U = prog.a, prog.U
    n, m = a.size, U.shape[0]
    eye = np.eye(m)
    res = linprog(
        np.concatenate([-a, np.ones(m)]),
        A_ub=np.block([[U, -eye], [-U, -eye]]),
        b_ub=np.zeros(2 * m),
        bounds=[(-1.0, 1.0)] * n + [(None, None)] * m,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


class TestBvlsFeasibility:
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_verdict_matches_linprog_oracle(self, N):
        rng = np.random.default_rng(40 + N)
        cs = [modem.unit_energy_pam(8)] * 4
        for _ in range(25):
            H = channel.sample_channel(N, 4, rng)
            for k in range(4):
                prog = convex.ConvexProgram(convex.SMINR_AMP, H, k, cs, 1.0)
                feasible = convex._maximize_margin(prog).w_bar is not None
                assert feasible == (lp_max_margin(prog) > convex.TOL_FEAS)

    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_margin_dominates_closed_form_weights(self, N):
        rng = np.random.default_rng(50 + N)
        cs = [modem.unit_energy_pam(8)] * 4
        for _ in range(25):
            H = channel.sample_channel(N, 4, rng)
            for k in range(4):
                prog = convex.ConvexProgram(convex.SMINR_AMP, H, k, cs, 1.0)
                margin = convex._maximize_margin(prog).margin
                weights = [beamformers.sminr_closed_form(H, k, cs)]
                if N >= 4:  # zero forcing needs N >= K
                    weights.append(beamformers.zf(H, k))
                for w in weights:
                    w_bar = beamformers.lift_weights(w) / np.linalg.norm(w)
                    assert margin >= prog.reduced_margin(w_bar) - 1e-12

    def test_sminr_amp_gap_certifies_optimum(self):
        rng = np.random.default_rng(44)
        cs = [modem.unit_energy_pam(8)] * 4
        for _ in range(10):
            H = channel.sample_channel(4, 4, rng)
            for k in range(4):
                rep = convex.solve(convex.ConvexProgram(convex.SMINR_AMP, H, k, cs, 0.1))
                assert rep.status == convex.OPTIMAL
                assert 0.0 <= rep.kkt_residual <= 1e-9
                assert rep.margin == pytest.approx(rep.feasibility.margin, rel=1e-9)

    def test_infeasible_report_has_no_weights(self):
        # one antenna cannot give user 0 a positive margin against three
        # 8-PAM interferers on this draw (nor on almost any other)
        H = channel.sample_channel(1, 4, np.random.default_rng(45))
        cs = [modem.unit_energy_pam(8)] * 4
        feas = convex._maximize_margin(convex.ConvexProgram(convex.SMINR_AMP, H, 0, cs, 1.0))
        assert feas.w_bar is None
        assert 0.0 <= feas.margin < convex.TOL_FEAS
        for kind in (convex.MPE_FULL, convex.MPE_REDUCED, convex.SMINR_AMP):
            rep = convex.solve(convex.ConvexProgram(kind, H, 0, cs, 0.1))
            assert rep.status == convex.INFEASIBLE
            assert rep.weights is None
            assert math.isnan(rep.kkt_residual)
            assert rep.margin == feas.margin

    def test_shared_feasibility_gives_identical_solve(self, monkeypatch):
        prog_amp, H, cs = make_program(46, convex.SMINR_AMP, sigma=1.0)
        programs = [convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, 0.1),
                    convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, 0.2)]
        cold = []
        for prog in programs:
            support.forget_draw()
            cold.append(convex.solve(prog))
        support.forget_draw()
        calls = count_feasibility_phases(monkeypatch)
        shared = convex.solve(prog_amp).feasibility
        for prog, own in zip(programs, cold):
            reused = convex.solve(prog)
            assert reused.feasibility is shared
            assert np.array_equal(own.weights, reused.weights)
            assert own.objective_value == reused.objective_value
            assert own.iterations == reused.iterations >= 1
        # the memo runs the phase once for the channel and user
        assert calls == [0]


def _nnls_cases(rng, count):
    """(A, b) pairs of 1-10 rows by 1-8 columns: plain, then with duplicate,
    zero, collinear and dependent columns in turn."""
    for trial in range(count):
        m, n = rng.integers(1, 11), rng.integers(1, 9)
        A, b = rng.standard_normal((m, n)), rng.standard_normal(m)
        variant = trial % 5
        if variant == 1 and n > 1:
            A[:, 1] = A[:, 0]
        elif variant == 2:
            A[:, 0] = 0.0
        elif variant == 3 and n > 1:
            A[:, -1] = -2.5 * A[:, 0]
        elif variant == 4 and n > 2:
            A[:, 2] = A[:, 0] + A[:, 1]  # rank-deficient
        yield A, b


def _sqp_nnls_cases(monkeypatch):
    """The NNLS problems of the MPE solves on fig1 draws at 0 dB: the SQP's
    least-distance problems and the KKT certificates."""
    cases, own = [], convex._nnls

    def recording(A, b):
        cases.append((A.copy(), b.copy()))
        return own(A, b)

    monkeypatch.setattr(convex, "_nnls", recording)
    scenario = sim.Scenario()
    rng = np.random.default_rng(60)
    for _ in range(3):
        H = channel.sample_channel(scenario.n_antennas, len(scenario.users), rng)
        for k in range(len(scenario.users)):
            convex.solve(convex.ConvexProgram(convex.MPE_FULL, H, k, scenario.users,
                                              sim.snr_db_to_sigma(0.0)))
    monkeypatch.undo()
    return cases


class TestNnls:
    """The package's Lawson-Hanson NNLS against scipy's nnls as the oracle."""

    @staticmethod
    def assert_solves(A, b):
        u = convex._nnls(A, b)
        r = np.linalg.norm(A @ u - b)
        r_oracle = nnls(A, b)[1]
        assert abs(r - r_oracle) <= 1e-10 * max(1.0, r_oracle)
        # KKT: u >= 0, no positive dual entry, and complementarity
        dual = (b - A @ u) @ A
        tol = 1e-9 * np.linalg.norm(A) * (np.linalg.norm(b) + np.linalg.norm(A) * np.linalg.norm(u))
        assert u.min() >= 0.0
        assert dual.max() <= tol
        assert np.abs(u * dual).max() <= tol * max(1.0, np.linalg.norm(u))
        return u

    def test_random_and_degenerate_columns(self):
        for A, b in _nnls_cases(np.random.default_rng(61), 400):
            self.assert_solves(A, b)

    def test_one_column(self):
        rng = np.random.default_rng(62)
        for m in range(1, 11):
            A, b = rng.standard_normal((m, 1)), rng.standard_normal(m)
            u = self.assert_solves(A, b)
            assert u[0] == pytest.approx(max(0.0, A[:, 0] @ b) / (A[:, 0] @ A[:, 0]), rel=1e-14)

    def test_b_in_the_polar_cone_gives_zero(self):
        # A'b <= 0: b makes an obtuse angle with every column, and u = 0 exactly
        rng = np.random.default_rng(63)
        for _ in range(50):
            A = np.abs(rng.standard_normal((6, 4)))
            b = -np.abs(rng.standard_normal(6))
            assert not np.any(self.assert_solves(A, b))

    def test_least_distance_problems_of_the_sphere_sqp(self, monkeypatch):
        cases = _sqp_nnls_cases(monkeypatch)
        active = 0
        for A, b in cases:
            u = self.assert_solves(A, b)
            active += A.shape[1] > 1 and np.count_nonzero(u) >= 2
        # several problems have two or more active rows at 0 dB
        assert active >= 5

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, where, value):
        A, b = np.ones((3, 2)), np.zeros(3)
        b[0] = 1.0
        # the bad entry sits where b is zero, so A'b alone would not show it
        (A if where == "A" else b)[1] = value
        with pytest.raises(ValueError, match="finite"):
            convex._nnls(A, b)


class TestBvls:
    """The package's Stark-Parker BVLS against scipy's lsq_linear as the oracle."""

    @staticmethod
    def assert_solves(B, a):
        t, iterations = convex._bvls(B, a)
        r = np.linalg.norm(a - B @ t)
        oracle = lsq_linear(B, a, bounds=(-1.0, 1.0), method="bvls")
        r_oracle = np.linalg.norm(a - B @ oracle.x)
        tol = 1e-10 * max(1.0, r_oracle)
        assert r <= r_oracle + tol
        if oracle.status > 0:  # status 0: scipy stopped at its iteration cap
            assert r >= r_oracle - tol
        # KKT: t in the box, and no variable's descent direction points into it
        descent = (a - B @ t) @ B
        kkt_tol = 1e-9 * np.linalg.norm(B) * np.linalg.norm(a)
        assert np.abs(t).max() <= 1.0
        assert np.all(np.where(t < 1.0, descent, -np.inf) <= kkt_tol)
        assert np.all(np.where(t > -1.0, descent, np.inf) >= -kkt_tol)
        assert 1 <= iterations <= 3 * B.shape[1]
        return t

    def test_random_problems(self):
        rng = np.random.default_rng(64)
        for A, b in _nnls_cases(rng, 300):
            self.assert_solves(A * rng.uniform(0.1, 3.0), b * rng.uniform(0.1, 3.0))

    def test_optima_at_both_bounds_and_inside(self):
        t = self.assert_solves(np.eye(3), np.array([2.0, -3.0, 0.5]))
        np.testing.assert_allclose(t, [1.0, -1.0, 0.5], rtol=1e-14)

    @pytest.mark.parametrize("N", [1, 4])
    def test_margin_agrees_with_lsq_linear(self, N):
        # N = 1 gives a 2 x 3 matrix U': more variables than equations
        rng = np.random.default_rng(65 + N)
        cs = [modem.unit_energy_pam(8)] * 4
        for _ in range(10):
            H = channel.sample_channel(N, 4, rng)
            for k in range(4):
                prog = convex.ConvexProgram(convex.SMINR_AMP, H, k, cs, 1.0)
                self.assert_solves(prog.U.T, prog.a)
                oracle = lsq_linear(prog.U.T, prog.a, bounds=(-1.0, 1.0), method="bvls")
                margin = np.linalg.norm(prog.a - prog.U.T @ oracle.x)
                assert convex._maximize_margin(prog).margin == pytest.approx(
                    margin, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_is_refused(self, value):
        B, a = np.eye(2), np.ones(2)
        B[0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            convex._bvls(B, a)
        with pytest.raises(ValueError, match="finite"):
            convex._bvls(np.eye(2), np.array([1.0, value]))
