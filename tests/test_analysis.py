import math

import numpy as np
import pytest
from scipy.stats import norm

from beamsim import analysis, beamformers, channel, modem
from mc_oracle import exact_pe_bruteforce, received_block
from support import sminr_amp

# fixed two-user scenario shared by the frozen-value tests below
H_FIXED = np.array(
    [
        [0.8 + 0.3j, -0.5 + 0.9j],
        [0.2 - 0.7j, 1.1 + 0.4j],
    ]
)
CONSTELLATIONS = [modem.unit_energy_pam(4), modem.Constellation(2, 1.0, 1.0)]
SIGMA = 0.3

# an arbitrary unit-norm weight (not feasible for user 0: reduced margin < 0)
W_RAW = np.array([0.6 + 0.2j, -0.3 + 0.7j])
W_RAW = W_RAW / np.linalg.norm(W_RAW)


class TestQFunction:
    def test_matches_gaussian_tail(self):
        x = np.linspace(-6, 8, 57)
        assert np.allclose(analysis.q_function(x), norm.sf(x), rtol=1e-13, atol=1e-300)

    def test_known_points(self):
        assert analysis.q_function(0.0) == pytest.approx(0.5, abs=1e-15)
        assert analysis.q_function(np.inf) == 0.0


class TestExactPe:
    def test_frozen_two_user_value(self):
        pe = analysis.exact_pe(W_RAW, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        assert pe == pytest.approx(0.7497285002981062, rel=1e-12)

    def test_frozen_zf_weight_value(self):
        w = beamformers.zf(H_FIXED, 0)
        pe = analysis.exact_pe(w, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        assert pe == pytest.approx(0.5442794562561957, rel=1e-10)

    def test_single_user_bpsk_closed_form(self):
        # no interference: error probability is Q(sqrt(2)/sigma) for unit channel
        H = np.array([[1.0 + 0j]])
        cs = [modem.Constellation(2, 1.0, 1.0)]
        w = np.array([1.0 + 0j])
        for sigma in (0.5, 1.0, 2.0):
            pe = analysis.exact_pe(w, H, 0, cs, sigma)
            assert pe == pytest.approx(norm.sf(math.sqrt(2) / sigma), rel=1e-13)

    def test_scale_invariance_in_weight(self):
        pe1 = analysis.exact_pe(W_RAW, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        pe2 = analysis.exact_pe(7.3 * W_RAW, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        assert pe2 == pytest.approx(pe1, rel=1e-13)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(21)
        H = channel.sample_channel(4, 3, rng)
        cs = [modem.unit_energy_pam(4)] * 3
        w = beamformers.mmse(H, 0, 0.4, [1.0, 1.0, 1.0])
        exact = analysis.exact_pe(w, H, 0, cs, 0.4)
        p_hat, stderr = exact_pe_bruteforce(
            w, H, 0, cs, 0.4, n_mc=400_000, rng=np.random.default_rng(22)
        )
        assert abs(p_hat - exact) < 4 * stderr


class TestBruteForceOracle:
    def test_block_shape(self):
        rng = np.random.default_rng(9)
        H = channel.sample_channel(4, 2, rng)
        S = rng.standard_normal((2, 50))
        y = received_block(H, S, 0.1, rng)
        assert y.shape == (4, 50)


class TestBoundAndMargins:
    def test_frozen_bound_value(self):
        b = analysis.pe_upper_bound(W_RAW, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        assert b == pytest.approx(1.4994570005943013, rel=1e-12)

    def test_bound_dominates_exact(self):
        rng = np.random.default_rng(30)
        cs = [modem.unit_energy_pam(4), modem.unit_energy_pam(8)]
        for _ in range(200):
            H = channel.sample_channel(3, 2, rng)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            for k in range(2):
                exact = analysis.exact_pe(w, H, k, cs, 0.5)
                bound = analysis.pe_upper_bound(w, H, k, cs, 0.5)
                assert bound >= exact - 1e-14

    def test_reduced_margin_is_min_full_margin(self):
        full, reduced = analysis.feasibility_margins(W_RAW, H_FIXED, 0, CONSTELLATIONS)
        assert reduced == pytest.approx(np.min(full), abs=1e-15)
        assert reduced == pytest.approx(-0.7170754148271781, rel=1e-12)

    def test_zero_interference_bound_is_tight(self):
        # with a nulling weight the bound collapses onto the exact expression
        w = beamformers.zf(H_FIXED, 0)
        exact = analysis.exact_pe(w, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        bound = analysis.pe_upper_bound(w, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        assert abs(bound - exact) < 1e-12


class TestSminrMetrics:
    def test_frozen_values(self):
        amp = sminr_amp(W_RAW, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        assert amp == pytest.approx(-3.380325922976362, rel=1e-12)
        w = beamformers.zf(H_FIXED, 0)
        assert sminr_amp(w, H_FIXED, 0, CONSTELLATIONS, SIGMA) == pytest.approx(
            0.3508432587734799, rel=1e-10
        )
        assert analysis.sminr_power(w, H_FIXED, 0, CONSTELLATIONS, SIGMA) == pytest.approx(
            0.12309099222679497, rel=1e-10
        )

    def test_power_matches_per_user_loop(self):
        rng = np.random.default_rng(50)
        cs = [modem.unit_energy_pam(4), modem.Constellation(3, 0.6, 2.0),
              modem.unit_energy_pam(8)]
        for _ in range(20):
            H = channel.sample_channel(4, 3, rng)
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            sigma = rng.uniform(0.1, 1.0)
            for k in range(3):
                gains = w @ H
                cross = sum((gains[j].real * cs[j].max_symbol) ** 2
                            for j in range(3) if j != k)
                expected = ((gains[k].real * cs[k].step) ** 2 - cross) / (sigma**2 / 2.0)
                got = analysis.sminr_power(w, H, k, cs, sigma)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_amp_links_bound(self):
        # bound = 2(L-1)/L * Q(sminr amplitude) for a unit-norm weight
        w = W_RAW
        amp = sminr_amp(w, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        b = analysis.pe_upper_bound(w, H_FIXED, 0, CONSTELLATIONS, SIGMA)
        L = CONSTELLATIONS[0].order
        assert b == pytest.approx(2 * (L - 1) / L * norm.sf(amp), rel=1e-12)


class TestErrorFloor:
    def test_values(self):
        cs = [modem.unit_energy_pam(8)] * 4
        assert analysis.error_floor(0, cs) == pytest.approx(7 / 4096, rel=1e-15)
        cs2 = [modem.Constellation(2, 1.0, 1.0)] * 2
        assert analysis.error_floor(0, cs2) == 0.25

    def test_limit_of_exact_pe(self):
        # blow up the weight's interference exposure by scaling noise to zero
        # while the margin is negative for half the tuples: exact pe tends to
        # the combinatorial floor when every full margin keeps its sign
        rng = np.random.default_rng(40)
        cs = [modem.Constellation(2, 1.0, 1.0)] * 2
        H = channel.sample_channel(2, 2, rng)
        w = beamformers.mmse(H, 0, 1.0, [1.0, 1.0])
        full, _ = analysis.feasibility_margins(w, H, 0, cs)
        n_neg = int(np.sum(full < 0))
        pe = analysis.exact_pe(w, H, 0, cs, 1e-9)
        assert pe == pytest.approx(n_neg / full.size, abs=1e-12)
