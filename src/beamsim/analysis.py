"""Exact analytic error probability, its upper bound, SMINR metrics, and margins.

Every beamformer in the package is scored through these functions. All of
them are scale-invariant in w (the Q-function arguments are normalized by
||w||), and none clamps its output: the upper bound may legitimately exceed
one for weight vectors violating the nonnegative-margin constraints.
"""

import numpy as np
from scipy.special import erfc

from .modem import InterfererTupleSet, enumerate_interferers

_SQRT2 = np.sqrt(2.0)


def q_function(x):
    """Gaussian tail probability Q(x), evaluated via erfc for stability."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def _check_weights(w: np.ndarray) -> float:
    norm = float(np.linalg.norm(w))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("weight vector must be nonzero and finite")
    return norm


def _gains(w, H, k, constellations, tuple_set: InterfererTupleSet = None):
    """The margin terms of weight w for user k, from one product w H.

    Returns ||w||, the self term Re{w h_k} d sqrt(E_g), the interferer gains
    Re{w h_j} in the column order of the tuple set, and that tuple set,
    fetched here unless given. Refuses a zero or non-finite w.
    """
    norm = _check_weights(w)
    if tuple_set is None:
        tuple_set = enumerate_interferers(constellations, k)
    gains = np.asarray(w) @ H
    self_term = gains[k].real * constellations[k].step
    return norm, self_term, gains[list(tuple_set.users)].real, tuple_set


def _reduced_margin(self_term, cross, tuple_set) -> float:
    """Self term minus the worst-case interference sum_j |u_j|, where
    u_j = Re{w h_j} s_j(L_j) is interferer j's gain at its peak symbol."""
    return self_term - float(np.sum(np.abs(cross * tuple_set.peaks)))


def pe_arguments(
    w: np.ndarray,
    H: np.ndarray,
    k: int,
    constellations,
    sigma_z: float,
    tuple_set: InterfererTupleSet = None,
) -> np.ndarray:
    """Per-tuple Q-function arguments of the exact error probability.

    arg(b) = Re{w h_k d sqrt(E_g) - w H_kbar sbar(b)} / ((sigma_z/sqrt(2)) ||w||).
    """
    norm, self_term, cross, tuple_set = _gains(w, H, k, constellations, tuple_set)
    if sigma_z <= 0:
        raise ValueError("sigma_z must be positive")
    return (self_term - tuple_set.tuples @ cross) / (sigma_z / _SQRT2 * norm)


def exact_pe(
    w: np.ndarray,
    H: np.ndarray,
    k: int,
    constellations,
    sigma_z: float,
    tuple_set: InterfererTupleSet = None,
) -> float:
    """Exact symbol error probability of user k under the threshold decision rule.

    Q-sum over all interferer tuples with prefactor 2(L_k - 1) / (L_k N_p_k).
    """
    args = pe_arguments(w, H, k, constellations, sigma_z, tuple_set)
    L = constellations[k].order
    return 2.0 * (L - 1) / (L * args.size) * float(np.sum(q_function(args)))


def feasibility_margins(w: np.ndarray, H: np.ndarray, k: int, constellations):
    """Full per-tuple margins and the collapsed single margin.

    full(b) = Re{w h_k d sqrt(E_g) - w H_kbar sbar(b)}
    reduced = Re{w h_k d sqrt(E_g)} - sum_j |Re{w h_j s_j(L_j)}|
    The reduced margin equals min(full) exactly.
    """
    _, self_term, cross, tuple_set = _gains(w, H, k, constellations)
    full = self_term - tuple_set.tuples @ cross
    return full, _reduced_margin(self_term, cross, tuple_set)


def pe_upper_bound(
    w: np.ndarray, H: np.ndarray, k: int, constellations, sigma_z: float
) -> float:
    """Single-Q upper bound on the exact error probability of user k.

    (2(L_k - 1)/L_k) Q(reduced_margin / ((sigma_z/sqrt(2)) ||w||)). The
    argument is normalized by ||w|| so the bound is scale-invariant; on
    unit-norm weights this is the plain worst-case-interference bound.
    """
    norm, self_term, cross, tuple_set = _gains(w, H, k, constellations)
    if sigma_z <= 0:
        raise ValueError("sigma_z must be positive")
    L = constellations[k].order
    arg = _reduced_margin(self_term, cross, tuple_set) / (sigma_z / _SQRT2 * norm)
    return 2.0 * (L - 1) / L * float(q_function(arg))


def sminr_power(
    w: np.ndarray, H: np.ndarray, k: int, constellations, sigma_z: float
) -> float:
    """Power-based SMINR; may be negative when interference dominates."""
    _, self_term, cross, tuple_set = _gains(w, H, k, constellations)
    peak = cross * tuple_set.peaks
    return (self_term**2 - float(peak @ peak)) / (sigma_z**2 / 2.0)


def error_floor(k: int, constellations) -> float:
    """High-power error probability floor (L_k - 1) / prod_j L_j of user k."""
    n_b = 1
    for c in constellations:
        n_b *= c.order
    return (constellations[k].order - 1) / n_b
