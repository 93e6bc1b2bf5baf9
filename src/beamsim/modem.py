"""PAM constellations, symbol generation, and the threshold decision rule."""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Constellation:
    """L-ary PAM alphabet with half-spacing d and pulse energy E_g.

    Amplitudes are {(2l - 1 - L) d : 1 <= l <= L}, symmetric about zero.
    Transmitted symbol values are sqrt(E_g) * amplitude.
    """

    order: int
    half_spacing: float = 1.0
    pulse_energy: float = 1.0

    def __post_init__(self):
        if (isinstance(self.order, bool) or not isinstance(self.order, numbers.Integral)
                or self.order < 2):
            raise ValueError(f"constellation order must be an integer >= 2, got {self.order!r}")
        for name in ("half_spacing", "pulse_energy"):
            if not 0 < getattr(self, name) < math.inf:  # also refuses nan
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {getattr(self, name)!r}")
        # the caches and the draw memo hash constellations on every lookup:
        # hash the fields once, as the generated __hash__ does on each call
        object.__setattr__(self, "_hash", hash((self.order, self.half_spacing,
                                                self.pulse_energy)))

    def __hash__(self):
        return self._hash

    def amplitude(self, l: int) -> float:
        """Amplitude of point l (1-based index)."""
        if not 1 <= l <= self.order:
            raise IndexError(f"amplitude index {l} out of range 1..{self.order}")
        return (2 * l - 1 - self.order) * self.half_spacing

    def amplitudes(self) -> np.ndarray:
        """All L amplitudes in increasing order."""
        return (2 * np.arange(1, self.order + 1) - 1 - self.order) * self.half_spacing

    def symbol_values(self) -> np.ndarray:
        """Symbol values s(l) = sqrt(E_g) * amplitude(l)."""
        return math.sqrt(self.pulse_energy) * self.amplitudes()

    @property
    def max_symbol(self) -> float:
        """Largest symbol value s(L)."""
        return math.sqrt(self.pulse_energy) * self.amplitude(self.order)

    @property
    def step(self) -> float:
        """Half the distance between adjacent symbol values, d * sqrt(E_g)."""
        return self.half_spacing * math.sqrt(self.pulse_energy)

    @property
    def average_energy(self) -> float:
        """Mean squared symbol value, d^2 E_g (L^2 - 1) / 3."""
        return (
            self.half_spacing**2
            * self.pulse_energy
            * (self.order**2 - 1)
            / 3.0
        )

    @property
    def bits_per_symbol(self) -> float:
        return math.log2(self.order)


def unit_energy_pam(order: int) -> Constellation:
    """PAM constellation with E_g = 1 and d chosen for unit average symbol energy."""
    if order < 2:
        raise ValueError(f"constellation order must be >= 2, got {order}")
    d = math.sqrt(3.0 / (order**2 - 1))
    return Constellation(order=order, half_spacing=d, pulse_energy=1.0)


@functools.lru_cache(maxsize=64)
def _threshold_offsets(c: Constellation) -> np.ndarray:
    """The L - 1 decision thresholds a_l + d at unit gain, read-only."""
    offsets = c.amplitudes()[:-1] + c.half_spacing
    offsets.setflags(write=False)
    return offsets


def decide_block(y_real: np.ndarray, gain: float, c: Constellation) -> np.ndarray:
    """1-based decisions for real outputs of any shape, at gain Re{w h} sqrt(E_g).

    A sample on a threshold gain (a_l + d) goes to the lower point and NaN to
    L. A gain <= 0 empties every middle interval, so samples go to 1 or L.
    """
    offsets = _threshold_offsets(c)
    if gain <= 0:
        return np.where(np.asarray(y_real) <= gain * offsets[0], 1, c.order)
    # a branch-free count: no binary search to mispredict on fresh noise.
    # np.searchsorted gives the same decisions and is faster alone (15 against
    # 24 us on 2000 samples), but fig5-csi took 18 % more CPU with it (6 of 6
    # alternating runs, 2-core Xeon). The sum is np.count_nonzero's own body
    # for a boolean array.
    return c.order - np.greater_equal.outer(gain * offsets, y_real).sum(axis=0, dtype=np.intp)


@dataclass(frozen=True)
class InterfererTupleSet:
    """All symbol-value tuples of the K-1 interferers of one user.

    ``users`` holds the 0-based j != k in ascending order, the column order
    of ``tuples`` (count, K-1) and of ``peaks``, the largest symbols s_j(L_j).
    ``peak_rows`` indexes the 2^(K-1) tuples with every interferer at +-its
    peak, in ascending order; negating every tuple keeps it.
    """

    users: tuple
    tuples: np.ndarray
    peaks: np.ndarray
    peak_rows: np.ndarray

    @property
    def count(self) -> int:
        return self.tuples.shape[0]


def enumerate_interferers(constellations, k: int) -> InterfererTupleSet:
    """Enumerate symbol-value tuples for all users j != k, lexicographically.

    User indices ascend across columns and the amplitude index of the largest
    j varies fastest, giving a deterministic ordering. Results are memoized
    on (constellations, k) and shared between callers, so ``tuples``,
    ``peaks`` and ``peak_rows`` are read-only.
    """
    n_users = len(constellations)
    if not 0 <= k < n_users:
        raise IndexError(f"user index {k} out of range 0..{n_users - 1}")
    return _enumerate_interferers(tuple(constellations), k)


@functools.lru_cache(maxsize=64)
def _enumerate_interferers(constellations: tuple, k: int) -> InterfererTupleSet:
    others = tuple(j for j in range(len(constellations)) if j != k)
    # with no interferers the product holds one empty tuple: shape (1, 0)
    tuples = np.array(list(itertools.product(
        *(constellations[j].symbol_values() for j in others))), dtype=float)
    peaks = np.array([constellations[j].max_symbol for j in others])
    peak_rows = np.flatnonzero(np.all(np.abs(tuples) == peaks, axis=1))
    for array in (tuples, peaks, peak_rows):
        array.setflags(write=False)
    return InterfererTupleSet(users=others, tuples=tuples, peaks=peaks, peak_rows=peak_rows)


def draw_symbols(constellations, rng: np.random.Generator, size: int):
    """Draw ``size`` independent uniform symbols for every user.

    Returns (indices, values): 1-based indices and symbol values, each of
    shape (K, size).
    """
    indices = np.empty((len(constellations), size), dtype=np.int64)
    values = np.empty((len(constellations), size))
    for j, c in enumerate(constellations):
        idx = rng.integers(1, c.order + 1, size=size)
        indices[j] = idx
        values[j] = c.symbol_values()[idx - 1]
    return indices, values
