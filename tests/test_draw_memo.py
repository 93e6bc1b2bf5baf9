"""The draw memo returns what a cold computation returns, byte for byte.

``beamformers._memoized`` is the one lookup of the memo that keeps the
values of the last channel seen: ZF, the SMINR eigenvector, MMSE's inverse
covariance at one noise level, the convex programs' rows, the feasibility
phase and the MPE solve at one noise level. Each case here
compares the values a memo serves with those computed after emptying it
(``support.forget_draw``), while calls alternate between channels, after a
channel is edited in place, after a returned weight is edited, and for
channels or constellations that differ only in what the memo key holds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import beamformers, channel, convex, modem
import support

SIGMA_Z = 0.3
GEOMETRY = ("a", "U", "G_objective", "G_constraints", "prefactor")
REPORT_FIELDS = ("objective_value", "margin", "status", "iterations", "kkt_residual")


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def same_report(r, s) -> bool:
    """Two SolveReports, their feasibility phases included, with the same bits."""
    f, g = r.feasibility, s.feasibility
    return (all(same_bits(getattr(r, name), getattr(s, name)) for name in REPORT_FIELDS)
            and same_bits(f.margin, g.margin) and same_bits(f.gap, g.gap)
            and f.iterations == g.iterations
            and all((x is None and y is None) or (x is not None and y is not None
                                                  and same_bits(x, y))
                    for x, y in ((r.weights, s.weights), (f.w_bar, g.w_bar))))


def calls(H, k, cs) -> list:
    """Every memoized value of user k on H as a call, in the order a sweep
    asks for them: the closed forms, then each kind's rows and solve, with
    MPE_FULL twice."""
    energies = [c.average_energy for c in cs]
    out = [lambda: beamformers.zf(H, k),
           lambda: beamformers.mmse(H, k, SIGMA_Z, energies),
           lambda: beamformers.sminr_closed_form(H, k, cs)]
    for kind in (convex.MPE_FULL, convex.SMINR_AMP, convex.MPE_FULL):
        out += [lambda kind=kind, name=name:
                getattr(convex.ConvexProgram(kind, H, k, cs, SIGMA_Z), name)
                for name in GEOMETRY]
        out.append(lambda kind=kind: convex.solve(
            convex.ConvexProgram(kind, H, k, cs, SIGMA_Z)))
    return out


def values(H, k, cs) -> list:
    return [call() for call in calls(H, k, cs)]


def cold(call):
    """``call()`` on an empty memo, which it leaves empty."""
    support.forget_draw()
    value = call()
    support.forget_draw()
    return value


def cold_values(H, k, cs) -> list:
    return [cold(call) for call in calls(H, k, cs)]


def assert_same(served, expected):
    assert len(served) == len(expected)
    for a, b in zip(served, expected):
        if isinstance(a, convex.SolveReport):
            assert same_report(a, b)
        else:
            assert same_bits(a, b)


def draw(seed, N=4, K=3):
    return channel.sample_channel(N, K, np.random.default_rng(seed))


CASES = dict(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2, unique=True),
             k=st.integers(0, 2), order=st.sampled_from([2, 4]))


class TestColdEquality:
    @settings(max_examples=25, deadline=None)
    @given(**CASES)
    def test_alternating_channels(self, seeds, k, order):
        cs = [modem.unit_energy_pam(order)] * 3
        channels = [draw(seed) for seed in seeds]
        expected = [cold_values(H, k, cs) for H in channels]
        for H, reference in [*zip(channels, expected), *zip(channels, expected)]:
            assert_same(values(H, k, cs), reference)

    @settings(max_examples=25, deadline=None)
    @given(**CASES)
    def test_in_place_edit(self, seeds, k, order):
        cs = [modem.unit_energy_pam(order)] * 3
        H = draw(seeds[0])
        edited = H.copy()
        edited[1, 2] += 0.25 - 0.5j
        expected = cold_values(edited, k, cs)
        values(H, k, cs)
        H[1, 2] += 0.25 - 0.5j
        assert_same(values(H, k, cs), expected)

    def test_same_bytes_in_another_shape(self):
        # an 8 x 2 channel and its 4 x 4 reshape share their bytes
        H = draw(7, N=8, K=2)
        square = H.reshape(4, 4)
        cs2, cs4 = [modem.unit_energy_pam(4)] * 2, [modem.unit_energy_pam(4)] * 4
        expected = cold_values(square, 0, cs4)
        values(H, 0, cs2)
        assert_same(values(square, 0, cs4), expected)

    def test_same_bytes_in_another_dtype(self):
        # a complex64 channel and its float64 view share shape and bytes
        H = draw(18, N=4, K=4).astype(np.complex64)
        real = H.view(np.float64)
        cs = [modem.unit_energy_pam(4)] * 4
        closed_forms = [calls(real, 0, cs)[i] for i in (0, 2)]  # ZF and SMINR
        expected = [cold(call) for call in closed_forms]
        beamformers.zf(H, 0), beamformers.sminr_closed_form(H, 0, cs)
        assert_same([call() for call in closed_forms], expected)

    def test_other_constellations_on_one_channel(self):
        H = draw(8)
        for cs in ([modem.unit_energy_pam(4)] * 3,
                   [modem.unit_energy_pam(2), modem.unit_energy_pam(4),
                    modem.unit_energy_pam(8)]):
            expected = cold_values(H, 1, cs)
            values(H, 1, [modem.unit_energy_pam(2)] * 3)
            assert_same(values(H, 1, cs), expected)

    def test_other_noise_level_and_energies(self):
        H, cs = draw(9), [modem.unit_energy_pam(4)] * 3
        cells = [lambda s=s, e=e: beamformers.mmse(H, 0, s, e)
                 for s, e in ((0.1, [1.0] * 3), (0.2, [1.0] * 3), (0.1, [1.0, 2.0, 1.0]),
                              (0.1, [1.0] * 3))]
        cells += [lambda s=s: convex.solve(convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, s))
                  for s in (0.1, 0.2, 0.1)]
        expected = [cold(cell) for cell in cells]
        assert_same([cell() for cell in cells], expected)


class TestSharing:
    def test_edited_weights_do_not_reach_the_memo(self):
        H, cs = draw(10), [modem.unit_energy_pam(4)] * 3
        expected = cold_values(H, 0, cs)
        served = values(H, 0, cs)
        for value in served:
            if isinstance(value, convex.SolveReport):
                value.weights[:] = 0.0
            elif isinstance(value, np.ndarray) and value.flags.writeable:
                value[:] = 0.0
        assert_same(values(H, 0, cs), expected)

    def test_geometry_is_read_only(self):
        H, cs = draw(11), [modem.unit_energy_pam(4)] * 3
        program = convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, SIGMA_Z)
        feasibility = convex.solve(program).feasibility
        for array in (program.a, program.U, program.G_objective, program.G_constraints,
                      feasibility.w_bar):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_one_build_per_channel_and_user(self, monkeypatch):
        builds = []
        geometry = convex._geometry
        monkeypatch.setattr(convex, "_geometry", lambda *a: builds.append(a[1]) or geometry(*a))
        H, cs = draw(12), [modem.unit_energy_pam(4)] * 3
        for sigma_z in (0.1, 0.2):
            for kind in (convex.MPE_FULL, convex.MPE_REDUCED, convex.SMINR_AMP):
                for k in range(3):
                    convex.ConvexProgram(kind, H, k, cs, sigma_z)
        assert builds == [0, 1, 2]

    def test_second_mpe_kind_gets_the_first_report(self):
        H, cs = draw(13), [modem.unit_energy_pam(4)] * 3
        first = convex.solve(convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, SIGMA_Z))
        second = convex.solve(convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, SIGMA_Z))
        again = convex.solve(convex.ConvexProgram(convex.MPE_REDUCED, H, 0, cs, SIGMA_Z))
        assert first.iterations >= 1 and second.iterations == 0
        assert same_report(again, first)
        assert np.array_equal(second.weights, first.weights)
        assert second.weights is not first.weights
        assert second.kkt_residual == first.kkt_residual
        assert second.status == first.status == convex.OPTIMAL

    def test_rank_deficient_zf_raises_every_call(self):
        h = draw(14, N=4, K=1)[:, 0]
        H = np.column_stack([h, 2 * h, draw(15, N=4, K=1)[:, 0]])
        for _ in range(2):
            for k in range(3):
                with pytest.raises(np.linalg.LinAlgError):
                    beamformers.zf(H, k)

    def test_memo_holds_one_draw(self):
        cs = [modem.unit_energy_pam(4)] * 3
        values(draw(16), 0, cs)
        values(draw(17), 0, cs)
        # the pseudo-inverse, ZF, MMSE's inverse, SMINR, the rows, the
        # feasibility phase and the MPE report of the last channel, which a
        # copy of that channel finds
        assert len(beamformers._memo) == 7
        beamformers.zf(draw(17), 0)
        assert len(beamformers._memo) == 7
        # one noise level's MMSE inverse and MPE solve, however many levels
        H = draw(17)
        for sigma_z in np.linspace(0.05, 1.0, 20):
            beamformers.mmse(H, 0, sigma_z, [1.0] * 3)
            convex.solve(convex.ConvexProgram(convex.MPE_FULL, H, 0, cs, sigma_z))
        assert len(beamformers._memo) == 7
