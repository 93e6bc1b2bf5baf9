import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import modem, sim


class TestConstellation:
    def test_bpsk_endpoints(self):
        c = modem.Constellation(2, 1.0, 1.0)
        assert c.amplitude(1) == -1
        assert c.amplitude(2) == 1

    def test_8pam_top_amplitude(self):
        c = modem.Constellation(8, 1.0, 1.0)
        assert c.amplitude(8) == 7

    def test_unit_energy_8pam_amplitude(self):
        c = modem.unit_energy_pam(8)
        assert c.amplitude(5) == pytest.approx(math.sqrt(1 / 21), abs=1e-15)

    @pytest.mark.parametrize("order,d", [(2, 1.0), (4, math.sqrt(1 / 5)), (8, math.sqrt(1 / 21))])
    def test_unit_energy_spacing(self, order, d):
        c = modem.unit_energy_pam(order)
        assert c.half_spacing == pytest.approx(d, rel=1e-15)
        assert c.average_energy == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 4, 8, 16])
    def test_alphabet_symmetric(self, order):
        c = modem.unit_energy_pam(order)
        amps = c.amplitudes()
        assert np.allclose(np.sort(amps), np.sort(-amps))

    def test_energy_formula(self):
        c = modem.Constellation(4, 0.7, 2.0)
        assert np.mean(c.symbol_values() ** 2) == pytest.approx(c.average_energy)

    def test_amplitude_index_out_of_range(self):
        c = modem.Constellation(4)
        with pytest.raises(IndexError):
            c.amplitude(0)
        with pytest.raises(IndexError):
            c.amplitude(5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 64), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_equal_constellations_hash_equal(self, order, d, energy):
        # the hash is computed once and is the one the fields would give
        c = modem.Constellation(order, d, energy)
        twin = modem.Constellation(order, d, energy)
        assert c == twin and c is not twin
        assert hash(c) == hash(twin) == hash((order, d, energy))
        assert dataclasses.asdict(c) == {"order": order, "half_spacing": d,
                                         "pulse_energy": energy}
        assert hash(pickle.loads(pickle.dumps(c))) == hash(c)
        other = dataclasses.replace(c, order=order + 1)
        assert other != c and hash(other) == hash((order + 1, d, energy))

    def test_equal_constellations_hit_the_tuple_cache(self):
        cs = [modem.Constellation(4, 0.3, 2.0)] * 3
        first = modem.enumerate_interferers(cs, 0)
        hits = modem._enumerate_interferers.cache_info().hits
        twins = [modem.Constellation(4, 0.3, 2.0) for _ in range(3)]
        assert modem.enumerate_interferers(twins, 0) is first
        assert modem._enumerate_interferers.cache_info().hits == hits + 1

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            modem.Constellation(1)
        with pytest.raises(ValueError):
            modem.Constellation(4, half_spacing=0.0)
        with pytest.raises(ValueError):
            modem.unit_energy_pam(1)

    @pytest.mark.parametrize("fields", [
        dict(order=2.5), dict(order=4.0), dict(order=True), dict(order="4"),
        dict(order=4, half_spacing=math.nan), dict(order=4, half_spacing=math.inf),
        dict(order=4, half_spacing=-1.0), dict(order=4, pulse_energy=math.nan),
        dict(order=4, pulse_energy=math.inf), dict(order=4, pulse_energy=0.0)])
    def test_refuses_what_the_schema_rules_out(self, fields):
        with pytest.raises(ValueError):
            modem.Constellation(**fields)

    def test_numpy_integer_order(self):
        c = modem.Constellation(np.int64(4))
        assert c == modem.Constellation(4) and hash(c) == hash(modem.Constellation(4))

    def test_scenario_refuses_a_nan_user(self):
        with pytest.raises(ValueError, match="half_spacing"):
            sim.Scenario(n_antennas=2, users=(modem.unit_energy_pam(4),
                                              modem.Constellation(4, half_spacing=math.nan)))


def _with_neighbours(values):
    """Each value with its two floating-point neighbours."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values,
                           np.nextafter(values, np.inf)])


class TestDecide:
    def test_bpsk_sign_detector(self):
        c = modem.Constellation(2, 1.0, 1.0)
        assert modem.decide_block(0.4, 1.0, c) == 2

    def test_boundary_goes_to_lower_index(self):
        c = modem.Constellation(2, 1.0, 1.0)
        assert modem.decide_block(0.0, 1.0, c) == 1

    def test_8pam_matches_bruteforce_bin_scan(self):
        c = modem.unit_energy_pam(8)
        gain = 1.0
        for y in np.linspace(-3, 3, 401):
            got = modem.decide_block(float(y), gain, c)
            # oracle: scan all bins for the nearest point, lower index on ties
            dists = np.abs(y - gain * c.amplitudes())
            assert got == int(np.argmin(dists)) + 1

    def test_specific_8pam_sample(self):
        c = modem.unit_energy_pam(8)
        y = 2.05
        dists = np.abs(y - c.amplitudes())
        assert modem.decide_block(y, 1.0, c) == int(np.argmin(dists)) + 1

    @pytest.mark.parametrize("order", [2, 4, 8])
    @pytest.mark.parametrize("gain", [0.25, 1.0, 3.5])
    def test_noise_free_round_trip(self, order, gain):
        c = modem.unit_energy_pam(order)
        for l in range(1, order + 1):
            assert modem.decide_block(gain * c.amplitude(l), gain, c) == l

    def test_nonpositive_gain_evaluates_literally(self):
        c = modem.Constellation(4, 1.0, 1.0)
        # gain = 0: first branch takes everything at or below zero
        assert modem.decide_block(-0.1, 0.0, c) == 1
        assert modem.decide_block(0.0, 0.0, c) == 1
        assert modem.decide_block(0.1, 0.0, c) == 4
        # gain < 0: thresholds are non-increasing; no exception raised
        assert modem.decide_block(-10.0, -1.0, c) == 1

    def test_threshold_neighbours_do_not_fall_through_to_top(self):
        # g (a - d) and g (a + d) of neighbouring points round one ulp apart;
        # a sample between them belongs to the lower point, not to L
        assert modem.decide_block(-0.2683281572999747, 0.3, modem.unit_energy_pam(4)) == 2

    @pytest.mark.parametrize("order", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("gain", [0.3, 1.0, 1.7])
    def test_decisions_never_decrease_in_y(self, order, gain):
        c = modem.unit_energy_pam(order)
        thresholds = gain * (c.amplitudes()[:-1] + c.half_spacing)
        y = np.sort(np.concatenate([np.linspace(-3 * gain, 3 * gain, 301),
                                    _with_neighbours(thresholds), [-np.inf, np.inf]]))
        decisions = modem.decide_block(y, gain, c)
        assert np.all(np.diff(decisions) >= 0)
        assert decisions[0] == 1 and decisions[-1] == order

    @pytest.mark.parametrize("order", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("gain", [1e-300, 0.3, 1.0, 2.5, 1e300])
    def test_decide_block_bit_identical_to_searchsorted(self, order, gain):
        c = modem.unit_energy_pam(order)
        thresholds = gain * (c.amplitudes()[:-1] + c.half_spacing)
        y = np.concatenate([_with_neighbours(thresholds),
                            [np.nan, np.inf, -np.inf, 0.0, -0.0]])
        for sample in (y, y.reshape(1, -1), np.tile(y, (3, 1)).T, y[:, None, None]):
            got = modem.decide_block(sample, gain, c)
            expected = np.searchsorted(thresholds, sample, side="left") + 1
            assert got.shape == sample.shape
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        for v in y:
            got = modem.decide_block(np.float64(v), gain, c)
            assert np.ndim(got) == 0
            assert got == np.searchsorted(thresholds, v, side="left") + 1
            assert modem.decide_block(float(v), gain, c) == got


class TestInterfererTuples:
    def test_single_user_empty_tuple(self):
        ts = modem.enumerate_interferers([modem.unit_energy_pam(4)], 0)
        assert ts.count == 1
        assert ts.tuples.shape == (1, 0)

    def test_three_bpsk_users(self):
        cs = [modem.Constellation(2, 1.0, 1.0)] * 3
        ts = modem.enumerate_interferers(cs, 0)
        expected = [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert ts.count == 4
        assert [tuple(t) for t in ts.tuples] == expected

    def test_four_8pam_count(self):
        cs = [modem.unit_energy_pam(8)] * 4
        ts = modem.enumerate_interferers(cs, 1)
        assert ts.count == 512

    def test_count_is_product_of_orders(self):
        cs = [modem.unit_energy_pam(L) for L in (2, 3, 4, 5)]
        for k in range(4):
            ts = modem.enumerate_interferers(cs, k)
            expected = np.prod([c.order for j, c in enumerate(cs) if j != k])
            assert ts.count == expected
            assert len({tuple(np.round(t, 12)) for t in ts.tuples}) == ts.count

    def test_tuples_are_read_only(self):
        ts = modem.enumerate_interferers([modem.unit_energy_pam(4)] * 3, 0)
        with pytest.raises(ValueError):
            ts.tuples[0, 0] = 0.0
        with pytest.raises(ValueError):
            ts.peaks[0] = 0.0

    def test_peaks_are_the_interferers_largest_symbols(self):
        cs = [modem.unit_energy_pam(L) for L in (2, 3, 4, 8)]
        cs.append(modem.Constellation(4, 0.7, 2.0))
        for users in (cs[:1], cs[:2], cs):
            for k in range(len(users)):
                ts = modem.enumerate_interferers(users, k)
                expected = np.array([c.max_symbol for j, c in enumerate(users) if j != k])
                assert np.array_equal(ts.peaks, expected)
                assert ts.peaks.shape == (len(users) - 1,)

    def test_list_and_tuple_inputs_agree(self):
        cs = [modem.unit_energy_pam(L) for L in (2, 3, 4)]
        for k in range(3):
            from_list = modem.enumerate_interferers(cs, k)
            from_tuple = modem.enumerate_interferers(tuple(cs), k)
            assert from_list.users == from_tuple.users
            assert np.array_equal(from_list.tuples, from_tuple.tuples)

    def test_repeated_calls_keep_lexicographic_order(self):
        cs = [modem.unit_energy_pam(L) for L in (2, 3, 4)]
        expected = [
            (a, b)
            for a in cs[0].symbol_values()
            for b in cs[2].symbol_values()
        ]
        for _ in range(2):
            ts = modem.enumerate_interferers(cs, 1)
            assert ts.users == (0, 2)
            assert [tuple(t) for t in ts.tuples] == expected

    def test_bad_user_index(self):
        cs = [modem.unit_energy_pam(4)] * 3
        for k in (-1, 3):
            with pytest.raises(IndexError):
                modem.enumerate_interferers(cs, k)

    def test_negation_closure(self):
        cs = [modem.unit_energy_pam(L) for L in (2, 4, 3)]
        ts = modem.enumerate_interferers(cs, 2)
        rows = {tuple(np.round(t, 12)) for t in ts.tuples}
        assert rows == {tuple(np.round(-t, 12)) for t in ts.tuples}


class TestDrawSymbols:
    def test_fixed_seed_reproducible(self):
        cs = [modem.unit_energy_pam(8)] * 3
        i1, v1 = modem.draw_symbols(cs, np.random.default_rng(5), size=100)
        i2, v2 = modem.draw_symbols(cs, np.random.default_rng(5), size=100)
        assert np.array_equal(i1, i2)
        assert np.array_equal(v1, v2)

    def test_uniform_index_frequencies(self):
        cs = [modem.unit_energy_pam(4), modem.unit_energy_pam(8)]
        n = 200_000
        indices, _ = modem.draw_symbols(cs, np.random.default_rng(11), size=n)
        for j, c in enumerate(cs):
            p = 1.0 / c.order
            sigma = math.sqrt(p * (1 - p) / n)
            for l in range(1, c.order + 1):
                freq = np.count_nonzero(indices[j] == l) / n
                assert abs(freq - p) < 4 * sigma

    def test_symmetric_value_mean(self):
        cs = [modem.Constellation(2, 1.0, 1.0)]
        n = 200_000
        _, values = modem.draw_symbols(cs, np.random.default_rng(13), size=n)
        assert abs(values.mean()) < 4 / math.sqrt(n)
