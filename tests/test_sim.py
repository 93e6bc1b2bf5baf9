import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from scipy.stats import norm

from beamsim import beamformers, channel, cli, convex, modem, sim
import support


def tiny_scenario(**kw):
    defaults = dict(
        n_antennas=3,
        users=(modem.unit_energy_pam(4),) * 2,
        snr_grid_db=(10.0, 20.0),
        n_realizations=8,
        n_symbols=200,
        methods=(sim.ZF, sim.MMSE, sim.SMINR),
        seed=123,
    )
    defaults.update(kw)
    return sim.Scenario(**defaults)


class TestScenario:
    def test_defaults_match_documented_setup(self):
        s = sim.Scenario()
        assert s.n_antennas == 4
        assert len(s.users) == 4
        assert all(c.order == 8 for c in s.users)
        assert s.snr_grid_db == tuple(float(x) for x in range(0, 45, 5))
        assert s.n_realizations == 500
        assert s.n_symbols == 2000
        assert s.csi_error_var == 0.0

    def test_dict_round_trip(self, tmp_path):
        # the scenario object of sweep.json rebuilds the scenario
        s = tiny_scenario(csi_error_var=0.001)
        cli._write_outputs(tmp_path, s, [], 1)
        d = json.loads((tmp_path / "sweep.json").read_text())["scenario"]
        users = tuple(modem.Constellation(**u) for u in d.pop("users"))
        assert sim.Scenario(**d, users=users) == s

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            tiny_scenario(methods=("ZF", "DIRTYPAPER"))

    @pytest.mark.parametrize("bad", [
        dict(n_antennas=0), dict(n_antennas=2.5), dict(n_realizations=0),
        dict(n_realizations=True), dict(n_symbols=-1), dict(seed=-1),
        dict(snr_grid_db=()), dict(snr_grid_db=(0.0, math.nan)),
        dict(csi_error_var=math.inf), dict(users=()), dict(snr_grid_db=(0.0, 101.0)),
        dict(methods=(sim.ZF, sim.ZF)), dict(snr_grid_db=(0.0, 0.0)),
        dict(csi_error_var=1e308),
    ])
    def test_rejects_what_the_schema_rules_out(self, bad):
        with pytest.raises(ValueError):
            tiny_scenario(**bad)

    @pytest.mark.parametrize("kw", [
        dict(n_antennas=4, n_symbols=10**9),  # the symbol block
        dict(n_realizations=10**8),  # the stacked result arrays
        dict(n_antennas=10**8, n_symbols=0),  # the channel
        # 1.48 GiB of interferer tuple sets and 0.6 GiB of result arrays
        dict(n_antennas=20, users=(modem.unit_energy_pam(2),) * 20, methods=(sim.ZF,),
             snr_grid_db=tuple(range(100)), n_realizations=10_000, n_symbols=0),
        # 10^8-PAM: three 0.8 GB arrays of symbol values and thresholds
        dict(n_antennas=1, users=(modem.unit_energy_pam(10**8),), methods=(sim.ZF,),
             n_realizations=1, n_symbols=10),
        # 10^6-PAM: detection compares 10^6 thresholds with 3000 symbols, 3 GB
        dict(n_antennas=1, users=(modem.unit_energy_pam(10**6),), methods=(sim.ZF,),
             n_realizations=1, n_symbols=3000),
    ])
    def test_working_set_cap(self, kw):
        with pytest.raises(ValueError, match="GiB, above the cap"):
            tiny_scenario(**kw)

    def test_working_set_counts_convex_tuple_rows(self):
        # 2^19 tuple rows of 600 real coordinates: 2.3 GiB, held by a convex program only
        kw = dict(n_antennas=300, users=(modem.unit_energy_pam(2),) * 20, n_symbols=0)
        tiny_scenario(**kw, methods=(sim.ZF, sim.MMSE, sim.SMINR))
        with pytest.raises(ValueError, match="GiB, above the cap"):
            tiny_scenario(**kw, methods=(sim.ZF, sim.MPE_FULL))

    def test_working_set_counts_square_arrays_of_the_methods_that_build_them(self):
        # MMSE's 20000 x 20000 covariance alone is 6 GiB; ZF builds no N x N array
        kw = dict(n_antennas=20_000, users=(modem.unit_energy_pam(2),), n_symbols=0,
                  n_realizations=1, snr_grid_db=(0.0,))
        tiny_scenario(**kw, methods=(sim.ZF,))
        for method in (sim.MMSE, sim.SMINR, sim.MPE_FULL, sim.SMINR_AMP):
            with pytest.raises(ValueError, match="GiB, above the cap"):
                tiny_scenario(**kw, methods=(method,))

    def test_zf_needs_as_many_antennas_as_users(self):
        with pytest.raises(ValueError, match="ZF needs n_antennas"):
            tiny_scenario(n_antennas=1)
        assert tiny_scenario(n_antennas=1, methods=(sim.MMSE, sim.SMINR)).n_antennas == 1

    def test_tuple_cap(self):
        # 8^6 = 262144 interferer tuples per user stay under the cap, 8^7 do not
        pam8 = modem.unit_energy_pam(8)
        assert len(tiny_scenario(n_antennas=8, users=(pam8,) * 7).users) == 7
        with pytest.raises(ValueError, match="interferer tuples"):
            tiny_scenario(n_antennas=8, users=(pam8,) * 8)

    def test_snr_conversion(self):
        assert sim.snr_db_to_sigma(0.0) == 1.0
        assert sim.snr_db_to_sigma(20.0) == pytest.approx(0.1, rel=1e-14)
        assert sim.snr_db_to_sigma(3.0) == pytest.approx(10 ** (-3 / 20), rel=1e-14)


class TestSumRate:
    def test_perfect_detection(self):
        assert sim._goodput(np.zeros(4), [3.0] * 4) == 12.0

    def test_mixed_orders(self):
        assert sim._goodput(np.array([0.5, 0.25]), [2.0, 3.0]) == pytest.approx(
            2 * 0.5 + 3 * 0.75, rel=1e-15
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sim._goodput([1.5], [2.0])


class TestRunSweep:
    def test_deterministic_given_seed(self):
        s = tiny_scenario()
        r1 = sim.run_sweep(s)
        r2 = sim.run_sweep(s)
        assert r1 == r2

    def test_worker_count_does_not_change_results(self):
        s = tiny_scenario()
        serial = sim.run_sweep(s, n_workers=1)
        parallel = sim.run_sweep(s, n_workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("n_workers, cores, expected", [
        (100_000, 2, 2), (100_000, 64, 8), (3, 64, 3), (100_000, None, 1),
        (0, 64, 1), (-3, 64, 1),
    ])
    def test_pool_size_is_capped(self, monkeypatch, n_workers, cores, expected):
        # a pool forks all its processes at once: never more than the
        # realizations (8 here) or the cores
        sizes = []

        class SerialPool:
            # one in-process worker, started as the pool starts each worker
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: cores)
        s = tiny_scenario()
        assert sim.run_sweep(s, n_workers=n_workers) == sim.run_sweep(s)
        assert sizes == ([expected] if expected > 1 else [])

    def test_tasks_carry_only_the_realization_index(self, monkeypatch):
        # the tuple sets go to each worker once, when it starts, not with every task
        started, tasks = [], []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(pickle.dumps(initargs))
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                tasks.extend(pickle.dumps(items) for items in zip(*iterables))
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        s = tiny_scenario()
        assert sim.run_sweep(s, n_workers=2) == sim.run_sweep(s)
        assert len(started) == 1 and len(tasks) == s.n_realizations
        assert tasks == [pickle.dumps((r,)) for r in range(s.n_realizations)]

    @pytest.mark.parametrize("sweep", [
        sim.run_sweep, sim.qam_reference_sweep,
    ], ids=["pam", "qam"])
    def test_noise_is_drawn_through_the_channel_once_per_realization(self, monkeypatch,
                                                                      sweep):
        # each realization draws its channel (3, 2) and then one noise block
        # (3, 50), which every SNR point scales
        draws, scaled = [], []
        draw, add_noise = channel.complex_normal, channel.add_noise

        def recording_draw(shape, rng):
            draws.append(shape)
            return draw(shape, rng)

        def recording_add_noise(clean, sigma_z, noise):
            scaled.append(sigma_z)
            return add_noise(clean, sigma_z, noise)

        monkeypatch.setattr(channel, "complex_normal", recording_draw)
        monkeypatch.setattr(channel, "add_noise", recording_add_noise)
        s = tiny_scenario(n_realizations=3, n_symbols=50)
        sweep(s)
        assert draws == [(3, 2), (3, 50)] * 3
        assert scaled == [sim.snr_db_to_sigma(snr) for snr in s.snr_grid_db] * 3

    def test_worker_count_does_not_change_qam_reference(self, tmp_path):
        # QAM rows hold NaN, which never compares equal, so compare the written files
        s = tiny_scenario(methods=(sim.ZF, sim.MMSE))
        for n_workers in (1, 2):
            result = sim.qam_reference_sweep(s, n_workers=n_workers)
            (tmp_path / str(n_workers)).mkdir()
            cli._write_outputs(tmp_path / str(n_workers), s, [result], n_workers)
        for name in ("sweep.csv", "sweep.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_row_grid(self):
        s = tiny_scenario()
        res = sim.run_sweep(s)
        assert len(res) == len(s.methods) * len(s.snr_grid_db)
        assert {r.method for r in res} == set(s.methods)
        support.row(res, sim.ZF, 10.0)  # lookup by (method, snr) works
        with pytest.raises(KeyError):
            support.row(res, sim.ZF, 11.0)

    def test_ser_within_ci_of_analytic(self):
        s = tiny_scenario(n_realizations=30, n_symbols=2000, snr_grid_db=(15.0,))
        res = sim.run_sweep(s)
        for row in res:
            assert abs(row.ser - row.pe_analytic) < 5 * max(row.ser_ci, 1e-4)

    def test_single_user_bpsk_matches_q_function(self):
        # one BPSK user, matched filtering: average of Q(|h| sqrt(2)/sigma)
        s = sim.Scenario(
            n_antennas=1,
            users=(modem.Constellation(2, 1.0, 1.0),),
            snr_grid_db=(6.0,),
            n_realizations=40,
            n_symbols=0,
            methods=(sim.MMSE,),
            seed=77,
        )
        res = sim.run_sweep(s)
        row = res[0]
        sigma = sim.snr_db_to_sigma(6.0)
        # reproduce the channel draws with the documented seeding scheme
        pes = []
        for r in range(40):
            ss = np.random.SeedSequence(entropy=77, spawn_key=(r,))
            rng = np.random.default_rng(ss.spawn(4)[0])
            h = channel.sample_channel(1, 1, rng)
            pes.append(norm.sf(abs(h[0, 0]) * math.sqrt(2) / sigma))
        assert row.pe_analytic == pytest.approx(np.mean(pes), rel=1e-10)

    def test_analytic_only_mode(self):
        s = tiny_scenario(n_symbols=0)
        res = sim.run_sweep(s)
        for row in res:
            assert math.isnan(row.ser)
            assert not math.isnan(row.pe_analytic)
            assert not math.isnan(row.sum_rate)

    def test_error_rates_decrease_with_snr(self):
        s = tiny_scenario(n_symbols=0, snr_grid_db=(5.0, 15.0, 25.0), n_realizations=20)
        res = sim.run_sweep(s)
        for m in s.methods:
            pes = [r.pe_analytic for r in support.series(res, m)]
            assert pes[0] > pes[1] > pes[2]

    def test_bound_dominates_analytic_average(self):
        s = tiny_scenario(n_symbols=0, n_realizations=20)
        res = sim.run_sweep(s)
        for row in res:
            assert row.pe_bound >= row.pe_analytic - 1e-14


# (method, snr_db, symbol errors, pe_analytic, pe_bound, infeasible_frac) of
# the sweep in test_engine_matches_frozen_rows, computed by the engine with a
# separate weight pass and scoring pass per method; a rework of the engine
# keeps them by the rules of perfbench/outcheck.py
FROZEN_ROWS = [
    ("ZF", 5.0, 470, 0.2617967407476385, 0.2617967407476388, 0.0),
    ("ZF", 20.0, 0, 8.214798347291132e-05, 8.214798347291493e-05, 0.0),
    ("MMSE", 5.0, 384, 0.20849120133197563, 0.5013126451293994, 0.0),
    ("MMSE", 20.0, 0, 7.351097604776363e-05, 0.00013327618276196546, 0.0),
    ("MPE_FULL", 5.0, 253, 0.14122445994638688, 0.2151429081195181, 0.0),
    ("MPE_FULL", 20.0, 0, 5.530448831794036e-06, 6.9467898768814185e-06, 0.0),
    ("MPE_REDUCED", 5.0, 253, 0.14122445994638685, 0.2151429081195181, 0.0),
    ("MPE_REDUCED", 20.0, 0, 5.530448831794036e-06, 6.9467898768814185e-06, 0.0),
    ("SMINR_AMP", 5.0, 260, 0.14640781362951777, 0.14640781362951805, 0.0),
    ("SMINR_AMP", 20.0, 0, 5.571863691708407e-06, 5.571863691708534e-06, 0.0),
    ("SMINR", 5.0, 251, 0.14160480835337919, 0.2075839562836679, 0.0),
    ("SMINR", 20.0, 0, 8.064434423745357e-06, 3.370170883578828e-05, 0.0),
]


def test_engine_matches_frozen_rows():
    # closed-form rows keep their error counts and analytic values, the solver
    # rows may only improve what they optimize, and every row keeps its
    # infeasible fraction
    s = tiny_scenario(users=(modem.unit_energy_pam(4),) * 3, snr_grid_db=(5.0, 20.0),
                      n_realizations=3, n_symbols=200, methods=sim.ALL_METHODS, seed=7)
    rows = sim.run_sweep(s)
    assert [(r.method, r.snr_db) for r in rows] == [ref[:2] for ref in FROZEN_ROWS]
    for r, (method, _, errors, pe, bound, infeasible) in zip(rows, FROZEN_ROWS):
        assert r.infeasible_frac == infeasible
        if method in (sim.ZF, sim.MMSE, sim.SMINR):
            assert round(r.ser * 3 * 200 * 3) == errors
            assert r.pe_analytic == pytest.approx(pe, rel=1e-12, abs=0)
            assert r.pe_bound == pytest.approx(bound, rel=1e-12, abs=0)
        elif method == sim.SMINR_AMP:
            assert r.pe_bound <= bound * (1 + 1e-6)
        else:
            assert r.pe_analytic <= pe * (1 + 1e-6)


# (method, snr_db, QAM symbol errors) of the 64-QAM reference sweep in
# test_qam_reference_matches_frozen_counts, by CSI error variance; with CSI
# error, H_csi differs from H and so does the decision gain Re{w H_csi[:, k]}
FROZEN_QAM_ROWS = {
    0.0: [
        ("ZF-QAM", 10.0, 738),
        ("ZF-QAM", 20.0, 63),
        ("MMSE-QAM", 10.0, 740),
        ("MMSE-QAM", 20.0, 66),
    ],
    0.01: [
        ("ZF-QAM", 10.0, 788),
        ("ZF-QAM", 20.0, 310),
        ("MMSE-QAM", 10.0, 776),
        ("MMSE-QAM", 20.0, 313),
    ],
}


@pytest.mark.parametrize("csi_error_var", sorted(FROZEN_QAM_ROWS))
def test_qam_reference_matches_frozen_counts(csi_error_var):
    frozen = FROZEN_QAM_ROWS[csi_error_var]
    s = tiny_scenario(snr_grid_db=(10.0, 20.0), n_realizations=3, n_symbols=200,
                      methods=(sim.ZF, sim.MMSE), seed=7, csi_error_var=csi_error_var)
    rows = sim.qam_reference_sweep(s)
    assert [(r.method, r.snr_db) for r in rows] == [ref[:2] for ref in frozen]
    for r, (_, _, errors) in zip(rows, frozen):
        assert round(r.ser * 3 * 200 * 2) == errors


def test_qam_threshold_decisions_match_complex_gain_division():
    # the kernel decides each QAM axis of y = w r at the real gain
    # Re{w H_csi[:, k]}; the reference divides y by the complex gain and
    # decides at unit gain, which ZF's and MMSE's phase alignment makes equal
    axis, K = sim.QAM_AXIS, 2
    rng = np.random.default_rng(21)
    for csi_error_var in (0.0, 0.01):
        for _ in range(25):
            H = channel.sample_channel(4, K, rng)
            H_csi = channel.perturb_csi(H, csi_error_var, rng)
            _, re = modem.draw_symbols([axis] * K, rng, size=100)
            _, im = modem.draw_symbols([axis] * K, rng, size=100)
            clean = H @ (re + 1j * im)
            noise = channel.complex_normal(clean.shape, rng)
            for snr_db in (0.0, 20.0, 40.0):
                sigma_z = sim.snr_db_to_sigma(snr_db)
                r_block = channel.add_noise(clean, sigma_z, noise)
                for k in range(K):
                    for w in (beamformers.zf(H_csi, k),
                              beamformers.mmse(H_csi, k, sigma_z, [1.0] * K)):
                        y = w @ r_block
                        complex_gain = w @ H_csi[:, k]
                        unit = y / complex_gain
                        for part, ref in ((y.real, unit.real), (y.imag, unit.imag)):
                            np.testing.assert_array_equal(
                                modem.decide_block(part, complex_gain.real, axis),
                                modem.decide_block(ref, 1.0, axis))


class TestSolverMethods:
    def test_feasibility_runs_once_per_user_and_realization(self, monkeypatch):
        calls = []
        original = convex._maximize_margin

        def counting(program):
            calls.append(program.user)
            return original(program)

        monkeypatch.setattr(convex, "_maximize_margin", counting)
        scenario = tiny_scenario(
            methods=(sim.MPE_FULL, sim.MPE_REDUCED, sim.SMINR_AMP),
            n_realizations=3, n_symbols=50,
        )
        sim.run_sweep(scenario)
        # R = 3 realizations x K = 2 users, not once per SNR point and method
        assert sorted(calls) == [0, 0, 0, 1, 1, 1]

    def test_one_antenna_four_8pam_users_all_infeasible(self, monkeypatch):
        starts = []
        original = convex.solve

        def recording(program, start=None, **kwargs):
            starts.append(start)
            return original(program, start=start, **kwargs)

        monkeypatch.setattr(convex, "solve", recording)
        scenario = sim.Scenario(
            n_antennas=1, users=(modem.unit_energy_pam(8),) * 4,
            snr_grid_db=(10.0, 30.0), n_realizations=3, n_symbols=0,
            methods=(sim.MMSE, sim.MPE_REDUCED, sim.MPE_FULL, sim.SMINR_AMP),
            seed=5,
        )
        result = sim.run_sweep(scenario)
        # an INFEASIBLE solve has no optimum to pass to the other MPE kind
        assert len(starts) == 3 * 2 * 3 * 4
        assert all(start is None for start in starts)
        for row in result:
            mmse = support.row(result, sim.MMSE, row.snr_db)
            if row.method == sim.MMSE:
                assert row.infeasible_frac == 0.0
            else:
                # every instance falls back to the MMSE weights
                assert row.infeasible_frac == 1.0
                assert row.pe_analytic == mmse.pe_analytic


    @staticmethod
    def fig1_style(methods):
        return sim.Scenario(
            n_antennas=4, users=(modem.unit_energy_pam(8),) * 4,
            snr_grid_db=(0.0, 10.0, 20.0, 30.0), n_realizations=4, n_symbols=200,
            methods=methods, seed=7,
        )

    def test_mpe_order_does_not_change_rows(self):
        default = sim.run_sweep(self.fig1_style((sim.MPE_FULL, sim.MPE_REDUCED)))
        swapped = sim.run_sweep(self.fig1_style((sim.MPE_REDUCED, sim.MPE_FULL)))
        for row in swapped:
            ref = support.row(default, row.method, row.snr_db)
            assert row.pe_analytic == pytest.approx(ref.pe_analytic, rel=1e-12)
            assert row.infeasible_frac == ref.infeasible_frac

    @pytest.mark.parametrize("methods", [(sim.MPE_FULL, sim.MPE_REDUCED),
                                         (sim.MPE_REDUCED, sim.SMINR_AMP, sim.MPE_FULL)])
    def test_both_mpe_kinds_carry_one_solve(self, monkeypatch, methods):
        # the two kinds are one program: at each (draw, user, sigma_z) the
        # second gets the first one's report, with 0 iterations
        solves = []
        original = convex.solve

        def recording(program, start=None):
            report = original(program, start=start)
            solves.append((program.kind, program.sigma_z, program.user, start, report))
            return report

        monkeypatch.setattr(convex, "solve", recording)
        sim.run_sweep(self.fig1_style(methods))
        first, second = (m for m in methods if m != sim.SMINR_AMP)
        assert all(start is None for *_, start, _ in solves)
        firsts = [(cell, report) for kind, *cell, _, report in solves if kind == first]
        seconds = [(cell, report) for kind, *cell, _, report in solves if kind == second]
        assert len(firsts) == len(seconds) == 4 * 4 * 4
        for (cell, report), (cell2, copy) in zip(firsts, seconds):
            assert cell == cell2
            assert report.status == copy.status == convex.OPTIMAL
            assert np.array_equal(copy.weights, report.weights)
            assert copy.weights is not report.weights
            assert copy.objective_value == report.objective_value
            assert copy.kkt_residual == report.kkt_residual
            assert copy.iterations == 0
        assert sum(report.iterations for _, report in firsts) > 0


class TestOutputFormats:
    def test_csv_columns(self, tmp_path):
        s = tiny_scenario()
        res = sim.run_sweep(s)
        cli._write_outputs(tmp_path, s, [res], 1)
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == [f.name for f in dataclasses.fields(sim.SweepRow)]
        assert len(lines) == 1 + len(res)

    def test_json_is_valid_and_nan_free(self, tmp_path):
        s = tiny_scenario(n_symbols=0)
        res = sim.run_sweep(s)
        cli._write_outputs(tmp_path, s, [res], 1)

        def refuse(constant):
            raise AssertionError(f"{constant} in sweep.json")

        text = (tmp_path / "sweep.json").read_text()
        rows = json.loads(text, parse_constant=refuse)["rows"]
        assert len(rows) == len(res)
        for row, r in zip(rows, res):
            assert row["ser"] is None and row["ser_ci"] is None  # NaN maps to null
            assert row["pe_analytic"] == r.pe_analytic

    def test_series_is_snr_ordered(self):
        res = sim.run_sweep(tiny_scenario())
        rows = support.series(res, sim.ZF)
        assert [r.snr_db for r in rows] == [10.0, 20.0]


class TestImperfectCsi:
    def test_error_rate_degrades_with_csi_error(self):
        clean = sim.run_sweep(
            tiny_scenario(n_realizations=40, n_symbols=0, snr_grid_db=(30.0,))
        )
        noisy = sim.run_sweep(
            tiny_scenario(
                n_realizations=40, n_symbols=0, snr_grid_db=(30.0,), csi_error_var=0.01
            )
        )
        for a, b in zip(clean, noisy):
            assert b.pe_analytic > a.pe_analytic


class TestQamReference:
    def test_requires_two_users(self):
        with pytest.raises(ValueError):
            sim.qam_reference_sweep(tiny_scenario(users=(modem.unit_energy_pam(4),) * 3))

    def test_requires_symbols(self):
        with pytest.raises(ValueError, match="n_symbols"):
            sim.qam_reference_sweep(tiny_scenario(n_symbols=0))

    def test_methods_and_rate_ceiling(self):
        s = sim.Scenario(
            n_antennas=4,
            users=(modem.unit_energy_pam(8),) * 2,
            snr_grid_db=(40.0,),
            n_realizations=10,
            n_symbols=500,
            methods=(sim.ZF, sim.MMSE),
            seed=9,
        )
        res = sim.qam_reference_sweep(s)
        assert {r.method for r in res} == {"ZF-QAM", "MMSE-QAM"}
        for r in res:
            assert 0.0 <= r.sum_rate <= 12.0 + 1e-12
            assert math.isnan(r.pe_analytic)
