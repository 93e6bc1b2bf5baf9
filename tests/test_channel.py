import math

import numpy as np
import pytest

from beamsim import channel


class TestSampleChannel:
    def test_shape_and_dtype(self):
        H = channel.sample_channel(4, 3, np.random.default_rng(0))
        assert H.shape == (4, 3)
        assert H.dtype == np.complex128

    def test_reproducible_with_same_seed(self):
        a = channel.sample_channel(6, 2, np.random.default_rng(42))
        b = channel.sample_channel(6, 2, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_unit_entry_variance(self):
        # E|h|^2 = 1 per entry, split evenly across real/imag parts
        H = channel.sample_channel(200, 200, np.random.default_rng(1))
        n = H.size
        assert np.mean(np.abs(H) ** 2) == pytest.approx(1.0, abs=5 / math.sqrt(n))
        assert np.var(H.real) == pytest.approx(0.5, abs=5 / math.sqrt(n))
        assert np.var(H.imag) == pytest.approx(0.5, abs=5 / math.sqrt(n))

    def test_circular_symmetry_zero_pseudo_variance(self):
        H = channel.sample_channel(300, 300, np.random.default_rng(2))
        assert abs(np.mean(H**2)) < 5 / math.sqrt(H.size)


class TestPerturbCsi:
    def test_zero_variance_exact_copy(self):
        H = channel.sample_channel(4, 4, np.random.default_rng(3))
        Hc = channel.perturb_csi(H, 0.0, np.random.default_rng(4))
        assert np.array_equal(Hc, H)
        assert Hc is not H

    def test_error_variance(self):
        H = channel.sample_channel(150, 150, np.random.default_rng(5))
        var = 0.01
        Hc = channel.perturb_csi(H, var, np.random.default_rng(6))
        err = Hc - H
        assert np.mean(np.abs(err) ** 2) == pytest.approx(var, rel=0.05)

    def test_negative_variance_rejected(self):
        H = channel.sample_channel(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            channel.perturb_csi(H, -1e-3, np.random.default_rng(0))

    @pytest.mark.parametrize("var_ce", [math.nan, 0.0, -1.0])
    def test_refuses_a_variance_that_is_not_nonnegative(self, var_ce):
        # zero is the one value of the three that is a variance
        H = channel.sample_channel(2, 2, np.random.default_rng(0))
        if var_ce == 0.0:
            assert np.array_equal(channel.perturb_csi(H, var_ce, np.random.default_rng(0)), H)
            return
        with pytest.raises(ValueError, match="must be nonnegative"):
            channel.perturb_csi(H, var_ce, np.random.default_rng(0))


class TestReceivedSignal:
    def test_draw_is_real_part_first(self):
        # the order of the two standard-normal draws fixes every seeded output
        z = channel.complex_normal((4, 3), np.random.default_rng(7))
        rng = np.random.default_rng(7)
        re = rng.standard_normal((4, 3))
        im = rng.standard_normal((4, 3))
        assert np.array_equal(z.real, re) and np.array_equal(z.imag, im)

    def test_noise_variance(self):
        clean = np.zeros(1, dtype=complex)
        sigma = 0.7
        ys = np.array(
            [
                channel.add_noise(
                    clean, sigma, channel.complex_normal(1, np.random.default_rng(seed))
                )[0]
                for seed in range(20_000)
            ]
        )
        assert np.mean(np.abs(ys) ** 2) == pytest.approx(sigma**2, rel=0.05)
        assert np.var(ys.real) == pytest.approx(sigma**2 / 2, rel=0.08)
