import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import analysis, beamformers, channel, modem

# entries from 1e-170 to 1e171: their squares underflow, overflow or neither
ENTRY = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-170, 170))
VECTOR = st.lists(ENTRY, min_size=1, max_size=40)


def power_iteration_top_eigvec(M, n_iter=20_000):
    """Independent oracle for the dominant eigenvectors of symmetric matrices.

    ``M`` is one matrix or a stack of them, iterated together. Shifts each
    spectrum to make the largest eigenvalue dominant in magnitude.
    """
    M = np.asarray(M, dtype=float)
    shift = np.max(np.sum(np.abs(M), axis=-1), axis=-1)  # Gershgorin: >= spectral radius
    A = M + shift[..., None, None] * np.eye(M.shape[-1])
    v = np.ones(M.shape[:-1]) / np.sqrt(M.shape[-1])
    for _ in range(n_iter):
        v = (A @ v[..., None])[..., 0]
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
    lam = np.einsum("...i,...ij,...j->...", v, M, v)
    return lam, v


class TestLifting:
    def test_inner_product_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            lhs = beamformers.lift_weights(w) @ beamformers.lift_channel(h)
            assert lhs == pytest.approx((w @ h).real, rel=1e-13)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        back = beamformers.unlift_weights(beamformers.lift_weights(w))
        assert np.allclose(back, w, atol=0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.linalg.norm(beamformers.lift_weights(w)) == pytest.approx(
            np.linalg.norm(w), rel=1e-14
        )


class TestAlignPhase:
    def test_makes_gain_real_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            wa = beamformers.align_phase(w, h)
            g = wa @ h
            assert g.imag == pytest.approx(0.0, abs=1e-13 * abs(g))
            assert g.real > 0
            assert np.linalg.norm(wa) == pytest.approx(np.linalg.norm(w), rel=1e-14)

    def test_zero_gain_rejected(self):
        w = np.array([1.0 + 0j, 0])
        h = np.array([0, 1.0 + 0j])
        with pytest.raises(ValueError):
            beamformers.align_phase(w, h)


class TestNorm:
    """``_norm`` runs np.linalg.norm's arithmetic on a 1-D vector, so every
    result is the same double, also for strided views."""

    @staticmethod
    def assert_bits_equal(x):
        with np.errstate(over="ignore"):  # squares past 1e308 are inf in both
            norm, expected = beamformers._norm(x), float(np.linalg.norm(x))
        assert np.float64(norm).tobytes() == np.float64(expected).tobytes()

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=VECTOR, step=st.integers(1, 3))
    def test_real_vector(self, values, step):
        x = np.array(values)
        self.assert_bits_equal(x)
        self.assert_bits_equal(x[::step])

    @settings(max_examples=300, deadline=None, database=None)
    @given(re=VECTOR, im=VECTOR, step=st.integers(1, 3))
    def test_complex_vector(self, re, im, step):
        n = min(len(re), len(im))
        x = np.array(re[:n]) + 1j * np.array(im[:n])
        self.assert_bits_equal(x)
        self.assert_bits_equal(x[::step])

    def test_strided_views_sum_in_the_contiguous_order(self):
        # BLAS sums a strided vector in another order than a contiguous one,
        # so a view must be copied first, as np.linalg.norm does
        rng = np.random.default_rng(23)
        for n in range(1, 65):
            for step in (2, 3):
                x = rng.standard_normal(step * n) * 10.0 ** rng.uniform(-3, 3, step * n)
                self.assert_bits_equal(x[::step])
                self.assert_bits_equal((x + 1j * x[::-1])[::step])


class TestClosedFormTails:
    """The closed forms' last steps are the same bits as the numpy expressions
    they replace: ``w / np.linalg.norm(w)``, ``np.exp(-1j * np.angle(g))``
    and ``H @ np.diag(Es) @ H.conj().T``."""

    @staticmethod
    def aligned(w, h):
        return w * np.exp(-1j * np.angle(w @ h))

    def test_bit_identical_on_seeded_channels(self):
        rng = np.random.default_rng(24)
        energies = np.array([1.0, 0.5, 2.0, 1.0])
        for _ in range(1000):
            H = channel.sample_channel(4, 4, rng)
            sigma_z = 10.0 ** -rng.uniform(0.0, 2.5)
            R = H @ np.diag(energies) @ H.conj().T + sigma_z**2 * np.eye(4)
            u, s, vt = np.linalg.svd(H.conj(), full_matrices=False)
            for k in range(4):
                w = self.aligned((vt.T @ ((1 / s)[:, None] * u.T))[k], H[:, k])
                assert np.array_equal(beamformers.zf(H, k), w / np.linalg.norm(w))
                w = self.aligned(H[:, k].conj() @ np.linalg.inv(R), H[:, k])
                assert np.array_equal(beamformers.mmse(H, k, sigma_z, energies),
                                      w / np.linalg.norm(w))
                v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
                assert np.array_equal(beamformers.align_phase(v, H[:, k]),
                                      self.aligned(v, H[:, k]))


class TestZf:
    def test_nulls_interferers(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            H = channel.sample_channel(5, 3, rng)
            for k in range(3):
                w = beamformers.zf(H, k)
                gains = w @ H
                assert abs(np.linalg.norm(w) - 1) < 1e-12
                assert gains[k].real > 0
                assert abs(gains[k].imag) < 1e-10
                for j in range(3):
                    if j != k:
                        assert abs(gains[j]) < 1e-10

    def test_rank_deficient_raises(self):
        h = np.array([1 + 1j, 2 - 1j, 0.5j])
        H = np.column_stack([h, 2 * h])
        with pytest.raises(np.linalg.LinAlgError):
            beamformers.zf(H, 0)
        H = channel.sample_channel(6, 4, np.random.default_rng(12))
        H[:, 3] = H[:, 0] - 0.5j * H[:, 1]
        for k in range(4):
            with pytest.raises(np.linalg.LinAlgError):
                beamformers.zf(H, k)

    @pytest.mark.parametrize("n_antennas,n_users", [(4, 4), (6, 4), (3, 2)])
    def test_bit_identical_to_svd_check_and_pinv(self, n_antennas, n_users):
        def reference(H, k):
            # rank check on one SVD, then np.linalg.pinv, which takes another
            sv = np.linalg.svd(H, compute_uv=False)
            if sv[-1] <= 1e-12 * sv[0]:
                raise np.linalg.LinAlgError("channel matrix is rank-deficient")
            w = beamformers.align_phase(np.linalg.pinv(H)[k], H[:, k])
            return w / np.linalg.norm(w)

        rng = np.random.default_rng(100 * n_antennas + n_users)
        for _ in range(200):
            H = channel.sample_channel(n_antennas, n_users, rng)
            for k in range(n_users):
                assert np.array_equal(beamformers.zf(H, k), reference(H, k))


class TestMmse:
    def test_zero_noise_limit_nulls_interference(self):
        rng = np.random.default_rng(5)
        H = channel.sample_channel(4, 3, rng)
        w = beamformers.mmse(H, 0, 1e-3, [1.0, 1.0, 1.0])
        gains = w @ H
        # residual interference shrinks like sigma^2
        assert abs(gains[1]) < 1e-4
        assert abs(gains[2]) < 1e-4
        assert gains[0].real > 0

    def test_high_noise_limit_is_matched_filter(self):
        rng = np.random.default_rng(6)
        H = channel.sample_channel(4, 3, rng)
        w = beamformers.mmse(H, 1, 1e4, [1.0, 1.0, 1.0])
        mf = beamformers.align_phase(H[:, 1].conj(), H[:, 1])
        mf /= np.linalg.norm(mf)
        assert np.allclose(w, mf, atol=1e-6)

    def test_unit_norm_and_aligned(self):
        rng = np.random.default_rng(7)
        H = channel.sample_channel(4, 2, rng)
        w = beamformers.mmse(H, 0, 0.5, [1.0, 0.5])
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-13)
        g = w @ H[:, 0]
        assert g.real > 0
        assert abs(g.imag) < 1e-13


class TestSminrClosedForm:
    def test_quadratic_form_bit_identical_to_per_user_lift(self):
        def reference(H, k, cs):
            hk = beamformers.lift_channel(H[:, k])
            M = cs[k].step**2 * np.outer(hk, hk)
            for j in range(H.shape[1]):
                if j == k:
                    continue
                hj = beamformers.lift_channel(H[:, j])
                M -= cs[j].max_symbol ** 2 * np.outer(hj, hj)
            return M

        rng = np.random.default_rng(13)
        cs = [modem.unit_energy_pam(L) for L in (2, 4, 8, 3)]
        for _ in range(50):
            for n_users in (1, 2, 4):
                H = channel.sample_channel(4, n_users, rng)
                for k in range(n_users):
                    M = beamformers.sminr_quadratic_form(H, k, cs)
                    assert np.array_equal(M, reference(H, k, cs))
                    # exact symmetry: eigh reads only one triangle
                    assert np.array_equal(M, M.T)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(8)
        cs = [modem.unit_energy_pam(L) for L in (8, 4, 2)]
        cases = [(channel.sample_channel(4, 3, rng), k) for _ in range(10) for k in range(3)]
        forms = np.stack([beamformers.sminr_quadratic_form(H, k, cs) for H, k in cases])
        lam_ref, v_ref = power_iteration_top_eigvec(forms)
        for (H, k), M, lam, v in zip(cases, forms, lam_ref, v_ref):
            w_bar = beamformers.lift_weights(beamformers.sminr_closed_form(H, k, cs))
            assert w_bar @ M @ w_bar == pytest.approx(lam, rel=1e-10)
            assert abs(abs(w_bar @ v) - 1) < 1e-8

    def test_is_top_eigenvector_of_quadratic_form(self):
        rng = np.random.default_rng(9)
        cs = [modem.unit_energy_pam(8)] * 3
        for _ in range(20):
            H = channel.sample_channel(4, 3, rng)
            for k in range(3):
                w = beamformers.sminr_closed_form(H, k, cs)
                M = beamformers.sminr_quadratic_form(H, k, cs)
                lam = np.linalg.eigvalsh(M)[-1]
                w_bar = beamformers.lift_weights(w)
                assert np.linalg.norm(w_bar) == pytest.approx(1.0, rel=1e-12)
                assert w_bar @ M @ w_bar == pytest.approx(lam, rel=1e-11)
                assert (w @ H[:, k]).real > 0

    def test_attains_max_metric_over_random_directions(self):
        rng = np.random.default_rng(10)
        cs = [modem.unit_energy_pam(4)] * 2
        H = channel.sample_channel(3, 2, rng)
        sigma = 0.4
        w_star = beamformers.sminr_closed_form(H, 0, cs)
        best = analysis.sminr_power(w_star, H, 0, cs, sigma)
        for _ in range(500):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w /= np.linalg.norm(w)
            assert analysis.sminr_power(w, H, 0, cs, sigma) <= best + 1e-12

    def test_single_user_reduces_to_matched_filter(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cs = [modem.unit_energy_pam(8)]
        w = beamformers.sminr_closed_form(h[:, None], 0, cs)
        mf = h.conj() / np.linalg.norm(h)
        # matched filter up to a phase that keeps the gain real
        assert abs(w @ h) == pytest.approx(np.linalg.norm(h), rel=1e-12)
