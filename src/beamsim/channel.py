"""Rayleigh channel generation, CSI perturbation, and receiver noise.

Every complex Gaussian draw of the package is :func:`complex_normal`, and
every noisy received block is :func:`add_noise`.
"""

import numpy as np


def complex_normal(shape, rng: np.random.Generator) -> np.ndarray:
    """x + jy with x and y i.i.d. N(0, 1), the real part drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def add_noise(clean: np.ndarray, sigma_z: float, noise: np.ndarray) -> np.ndarray:
    """clean + sigma_z/sqrt(2) noise: for a :func:`complex_normal` draw ``noise``,
    CSCG noise of variance sigma_z^2 per entry."""
    return clean + sigma_z / np.sqrt(2.0) * noise


def sample_channel(n_antennas: int, n_users: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian channel, unit entry variance.

    Returns an (N, K) complex matrix whose columns are per-user channels.
    """
    if n_antennas < 1 or n_users < 1:
        raise ValueError("channel dimensions must be >= 1")
    return complex_normal((n_antennas, n_users), rng) / np.sqrt(2.0)


def perturb_csi(H: np.ndarray, var_ce: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. CSCG estimation error of variance ``var_ce`` to each entry."""
    if var_ce < 0:
        raise ValueError("CSI error variance must be nonnegative")
    if var_ce == 0:
        return H.copy()
    return H + np.sqrt(var_ce / 2.0) * complex_normal(H.shape, rng)
