"""Monte-Carlo experiment engine: SER sweeps, analytic overlays, rates, CSI error."""

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import analysis, beamformers, channel, convex, modem
from .convex import MPE_FULL, MPE_REDUCED, SMINR_AMP

ZF = "ZF"
MMSE = "MMSE"
SMINR = "SMINR"

ALL_METHODS = (ZF, MMSE, MPE_FULL, MPE_REDUCED, SMINR_AMP, SMINR)
# the methods that solve a convex program
SOLVER_METHODS = (MPE_FULL, MPE_REDUCED, SMINR_AMP)
# the closed-form methods of the imperfect-CSI experiment
CSI_METHODS = (ZF, MMSE, SMINR)

# the largest preset grid, 0:5:50, has 11 points
MAX_SNR_POINTS = 1000
# SNR points lie within +-100 dB: from about 140 dB, sigma_z^2 falls below
# rounding in MMSE's covariance, and 10^(|SNR|/20) overflows past 6000 dB
MAX_ABS_SNR_DB = 100
# the CSI error variance is at most 1e6, where the estimate keeps a millionth
# of its power from the true channel (the presets go to 1e-2); near 1e308
# the estimate's squared entries overflow and MMSE and SMINR fail
MAX_CSI_ERROR_VAR = 1e6
# the bytes a run may hold by the Scenario estimate; paper-scale fig4 needs 85 MB
MAX_WORKING_SET_BYTES = 2 * 2**30


@dataclass
class Scenario:
    """Full experiment description for one sweep.

    Defaults reproduce the four-user 8-PAM, four-antenna setup at desk scale
    (500 realizations x 2000 symbols); the paper's is 10^4 x 10^3.
    """

    n_antennas: int = 4
    users: tuple = field(default_factory=lambda: tuple(modem.unit_energy_pam(8) for _ in range(4)))
    snr_grid_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    n_realizations: int = 500
    n_symbols: int = 2000
    csi_error_var: float = 0.0
    methods: tuple = ALL_METHODS
    seed: int = 0

    def __post_init__(self):
        """Refuse every scenario that ``sweep.schema.json`` or the engine rules out.

        The interferer tuple count of each user and the bytes a run holds
        are checked by arithmetic, before anything is allocated.
        """
        self.users = tuple(self.users)
        self.snr_grid_db = tuple(float(s) for s in self.snr_grid_db)
        self.methods = tuple(self.methods)
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        for name, minimum in (("n_antennas", 1), ("n_realizations", 1),
                              ("n_symbols", 0), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < minimum):
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        if not 0 <= self.csi_error_var <= MAX_CSI_ERROR_VAR:  # also refuses nan
            raise ValueError(f"csi_error_var must lie in [0, {MAX_CSI_ERROR_VAR:g}], "
                             f"got {self.csi_error_var!r}")
        if (not 0 < len(self.snr_grid_db) <= MAX_SNR_POINTS
                or not all(abs(s) <= MAX_ABS_SNR_DB for s in self.snr_grid_db)):
            raise ValueError(f"the SNR grid must be a list of 1 to {MAX_SNR_POINTS} "
                             f"values within +-{MAX_ABS_SNR_DB} dB")
        # a repeated method or SNR point would give two rows for one cell
        for name in ("methods", "snr_grid_db"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} lists a value more than once")
        if not self.users:
            raise ValueError("a scenario needs at least one user")
        if ZF in self.methods and self.n_antennas < len(self.users):
            raise ValueError(
                f"ZF needs n_antennas >= users, got {self.n_antennas} < {len(self.users)}"
            )
        orders = [c.order for c in self.users]
        tuple_counts = [math.prod(orders) // order for order in orders]
        tuples = max(tuple_counts)
        if tuples > convex.MAX_FULL_TUPLES:
            raise ValueError(
                f"{tuples} interferer tuples per user exceed the cap of "
                f"{convex.MAX_FULL_TUPLES}"
            )
        N, K = self.n_antennas, len(self.users)
        cells = self.n_realizations * len(self.methods) * len(self.snr_grid_db) * K
        working_set = (
            16 * N * K  # the channel
            + (48 * N + 16 * K) * self.n_symbols  # one realization's symbol block
            # each user's symbol values, decision thresholds and scaled
            # thresholds, and the thresholds-by-symbols comparison in detection
            + 24 * sum(orders) + (max(orders) - 1) * self.n_symbols
            + 32 * cells  # the four stacked result arrays
            + 8 * (K - 1) * sum(tuple_counts)  # every user's interferer tuple set
            # one convex program's tuple rows
            + 16 * N * tuples * bool(set(SOLVER_METHODS) & set(self.methods))
        )
        if working_set > MAX_WORKING_SET_BYTES:
            raise ValueError(
                f"the run would hold about {working_set / 2**30:.3g} GiB, above the cap "
                f"of {MAX_WORKING_SET_BYTES / 2**30:.3g} GiB"
            )


@dataclass
class SweepRow:
    method: str
    snr_db: float
    ser: float
    ser_ci: float  # one binomial standard error of ser
    pe_analytic: float
    pe_bound: float
    sum_rate: float
    infeasible_frac: float


@dataclass
class SweepResult:
    scenario: Scenario
    rows: list


def snr_db_to_sigma(snr_db: float) -> float:
    """Noise std for unit-energy symbols: SNR(dB) = 10 log10(1 / sigma_z^2)."""
    return 10.0 ** (-snr_db / 20.0)


def _goodput(ser_per_user, bits) -> float:
    """sum_k bits_k (1 - SER_k) for per-user SERs in [0, 1]."""
    ser = np.asarray(ser_per_user, dtype=float)
    if np.any((ser < 0) | (ser > 1)):
        raise ValueError("SER values must lie in [0, 1]")
    return float(sum(b * (1.0 - s) for b, s in zip(bits, ser)))


def _draw_realization(scenario: Scenario, r_index: int):
    """Channel H, its estimate H_csi and the symbol and noise generators of one
    realization, deterministic in (seed, r_index)."""
    ss = np.random.SeedSequence(entropy=scenario.seed, spawn_key=(r_index,))
    rng_channel, rng_csi, rng_sym, rng_noise = [
        np.random.default_rng(s) for s in ss.spawn(4)
    ]
    H = channel.sample_channel(scenario.n_antennas, len(scenario.users), rng_channel)
    H_csi = channel.perturb_csi(H, scenario.csi_error_var, rng_csi)
    return H, H_csi, rng_sym, rng_noise


def _map_realizations(fn, scenario: Scenario, n_workers: int, *args):
    """Run ``fn(scenario, r, *args)`` for every realization r on ``n_workers``
    processes and stack its (errors, pe, bound, infeas) arrays in realization
    order, so the result is bit-identical for any worker count. The pool
    starts all its processes at once, so it gets no more of them than there
    are realizations or cores. Each worker gets fn, scenario and args once."""
    n_real = scenario.n_realizations
    n_workers = min(n_workers or 1, n_real, os.cpu_count() or 1)
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_start_worker,
                                 initargs=(fn, scenario, args)) as pool:
            return _stack(n_real, pool.map(_run_in_worker, range(n_real),
                                           chunksize=max(1, n_real // (8 * n_workers))))
    return _stack(n_real, (fn(scenario, r, *args) for r in range(n_real)))


def _start_worker(*task) -> None:
    global _worker_task  # this worker's (fn, scenario, args)
    _worker_task = task


def _run_in_worker(r_index: int):
    fn, scenario, args = _worker_task
    return fn(scenario, r_index, *args)


def _stack(n_real: int, results) -> list:
    """Copy each realization's arrays into arrays with a leading realization
    axis as they arrive, so that only the stacked arrays stay in memory."""
    stacked = None
    for r, arrays in enumerate(results):
        if stacked is None:
            stacked = [np.empty((n_real, *a.shape), a.dtype) for a in arrays]
        for out, a in zip(stacked, arrays):
            out[r] = a
    return stacked


def _sweep_rows(scenario: Scenario, labels, bits, errors, pe, bound, infeas) -> list:
    """One SweepRow per (label, SNR point) from the stacked realization arrays.

    ``bits`` holds each user's bits per symbol for the sum rate, which counts
    symbol errors or, without Monte-Carlo symbols, the clipped analytic Pe.
    """
    n_real, n_sym = scenario.n_realizations, scenario.n_symbols
    n_total = n_real * n_sym * len(bits)
    rows = []
    for mi, label in enumerate(labels):
        for si, snr_db in enumerate(scenario.snr_grid_db):
            if n_sym > 0:
                err_user = errors[:, mi, si, :].sum(axis=0)
                ser = float(err_user.sum()) / n_total
                stderr = math.sqrt(max(ser * (1 - ser), 1.0 / n_total) / n_total)
                ser_user = err_user / (n_real * n_sym)
            else:
                ser, stderr = float("nan"), float("nan")
                ser_user = np.clip(pe[:, mi, si, :].mean(axis=0), 0.0, 1.0)
            rows.append(
                SweepRow(
                    method=label,
                    snr_db=snr_db,
                    ser=ser,
                    ser_ci=stderr,
                    pe_analytic=float(pe[:, mi, si, :].mean()),
                    pe_bound=float(bound[:, mi, si, :].mean()),
                    sum_rate=_goodput(ser_user, bits),
                    infeasible_frac=float(infeas[:, mi, si, :].mean()),
                )
            )
    return rows


def _run_realization(scenario: Scenario, r_index: int, tuple_sets):
    """All per-realization statistics, deterministic in (seed, r_index).

    One cell is a (SNR point, method, user): its weight, from the estimate
    H_csi, is scored on the true H by the exact Pe and the bound and, with
    Monte-Carlo symbols, by its symbol errors. A convex instance without a
    positive margin falls back to MMSE weights and counts as infeasible.
    """
    users, K = scenario.users, len(scenario.users)
    H, H_csi, rng_sym, rng_noise = _draw_realization(scenario, r_index)
    shape = (len(scenario.methods), len(scenario.snr_grid_db), K)
    errors = np.zeros(shape, dtype=np.int64)
    pe = np.zeros(shape)
    bound = np.zeros(shape)
    infeas = np.zeros(shape, dtype=np.int64)

    n_sym = scenario.n_symbols
    if n_sym > 0:
        indices, values = modem.draw_symbols(users, rng_sym, size=n_sym)
        clean = H @ values
        noise = channel.complex_normal(clean.shape, rng_noise)

    energies = [c.average_energy for c in users]
    # user k's feasibility phase, from its first solve on this H_csi: it
    # depends on neither sigma_z nor the program kind
    feasible = [None] * K
    for si, snr_db in enumerate(scenario.snr_grid_db):
        sigma_z = snr_db_to_sigma(snr_db)
        if n_sym > 0:
            r_block = channel.add_noise(clean, sigma_z, noise)
        # user k's lifted optimum of the MPE program solved first at this
        # sigma_z starts the other MPE kind: both have the same objective and
        # the same feasible set, hence the same optimum
        mpe_start = [None] * K
        for mi, method in enumerate(scenario.methods):
            mpe = method in (MPE_FULL, MPE_REDUCED)
            for k in range(K):
                if method == ZF:
                    w = beamformers.zf(H_csi, k)
                elif method == MMSE:
                    w = beamformers.mmse(H_csi, k, sigma_z, energies)
                elif method == SMINR:
                    w = beamformers.sminr_closed_form(H_csi, k, users)
                else:
                    report = convex.solve(
                        convex.ConvexProgram(method, H_csi, k, users, sigma_z),
                        start=mpe_start[k] if mpe else None, feasible=feasible[k],
                    )
                    feasible[k] = report.feasibility
                    if report.status == convex.INFEASIBLE:
                        w = beamformers.mmse(H_csi, k, sigma_z, energies)
                        infeas[mi, si, k] = 1
                    else:
                        w = report.weights
                        if mpe and mpe_start[k] is None:
                            mpe_start[k] = beamformers.lift_weights(w)
                pe[mi, si, k] = analysis.exact_pe(w, H, k, users, sigma_z, tuple_sets[k])
                bound[mi, si, k] = analysis.pe_upper_bound(w, H, k, users, sigma_z)
                if n_sym > 0:
                    gain = (w @ H_csi[:, k]).real * math.sqrt(users[k].pulse_energy)
                    decisions = modem.decide_block((w @ r_block).real, gain, users[k])
                    errors[mi, si, k] = int(np.count_nonzero(decisions != indices[k]))
    return errors, pe, bound, infeas


def run_sweep(scenario: Scenario, n_workers: int = 1) -> SweepResult:
    """Run the full Monte-Carlo sweep of a scenario.

    Realizations are independent work units; results are reduced in fixed
    realization order so the output is bit-identical for any worker count.
    """
    tuple_sets = [modem.enumerate_interferers(scenario.users, k)
                  for k in range(len(scenario.users))]
    if set(SOLVER_METHODS) & set(scenario.methods):
        # the solvers' scipy.optimize loads here, in set-up and before the
        # pool forks, not at the first solve inside a realization or a worker
        import scipy.optimize  # noqa: F401
    arrays = _map_realizations(_run_realization, scenario, n_workers, tuple_sets)
    bits = [c.bits_per_symbol for c in scenario.users]
    return SweepResult(scenario, _sweep_rows(scenario, scenario.methods, bits, *arrays))


def _run_qam_realization(scenario: Scenario, r_index: int, methods, axis):
    """QAM symbol errors of one realization; each QAM coordinate is an ``axis``
    PAM symbol. pe and bound are NaN, no instance is infeasible."""
    K = len(scenario.users)
    H, H_csi, rng_sym, rng_noise = _draw_realization(scenario, r_index)
    idx_re, val_re = modem.draw_symbols([axis] * K, rng_sym, size=scenario.n_symbols)
    idx_im, val_im = modem.draw_symbols([axis] * K, rng_sym, size=scenario.n_symbols)
    clean = H @ (val_re + 1j * val_im)
    noise = channel.complex_normal(clean.shape, rng_noise)
    errors = np.zeros((len(methods), len(scenario.snr_grid_db), K), dtype=np.int64)
    for si, snr_db in enumerate(scenario.snr_grid_db):
        sigma_z = snr_db_to_sigma(snr_db)
        r_block = channel.add_noise(clean, sigma_z, noise)
        for mi, method in enumerate(methods):
            for k in range(K):
                if method == ZF:
                    w = beamformers.zf(H_csi, k)
                else:
                    w = beamformers.mmse(H_csi, k, sigma_z, [1.0] * K)
                y = (w @ r_block) / (w @ H_csi[:, k])
                wrong = ((modem.decide_block(y.real, 1.0, axis) != idx_re[k])
                         | (modem.decide_block(y.imag, 1.0, axis) != idx_im[k]))
                errors[mi, si, k] = np.count_nonzero(wrong)
    nan = np.full(errors.shape, np.nan)
    return errors, nan, nan, np.zeros_like(errors)


def qam_reference_sweep(scenario: Scenario, n_workers: int = 1) -> SweepResult:
    """ZF/MMSE reference curves for two users with 64-QAM modulation.

    Each 64-QAM symbol is two independent 8-PAM coordinates, 6 bits in all;
    detection divides the array output by the effective complex gain and
    quantizes each axis. SER is counted at the QAM-symbol level; analytic 1D
    error probabilities do not apply and are reported as NaN.
    """
    K = len(scenario.users)
    if K != 2:
        raise ValueError("the QAM reference is defined for K = 2 users")
    if scenario.n_symbols < 1:
        raise ValueError("the QAM reference counts symbol errors and needs n_symbols >= 1")
    # per-axis 8-PAM scaled for unit average 64-QAM symbol energy
    axis = modem.Constellation(order=8, half_spacing=math.sqrt(3.0 / (2.0 * 63)),
                               pulse_energy=1.0)
    methods = [m for m in scenario.methods if m in (ZF, MMSE)]
    arrays = _map_realizations(_run_qam_realization, scenario, n_workers, methods, axis)
    labels = [f"{m}-QAM" for m in methods]
    bits = [2 * axis.bits_per_symbol] * K
    return SweepResult(scenario, _sweep_rows(scenario, labels, bits, *arrays))
