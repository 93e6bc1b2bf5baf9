"""Monte-Carlo oracle for the exact error probability, used by the tests.

It pushes symbols through the channel, the sweep's noise draw and scaling,
the beamformer and the threshold decision rule, and counts errors.
"""

import numpy as np

from beamsim import channel, modem


def received_block(H, values, sigma_z, rng):
    """r = H s + z for a (K, n) block of symbol values, one column per symbol time."""
    clean = H @ values
    return channel.add_noise(clean, sigma_z, channel.complex_normal(clean.shape, rng))


def exact_pe_bruteforce(w, H, k, constellations, sigma_z, n_mc, rng, block=100_000):
    """Monte-Carlo estimate of user k's symbol error probability.

    Returns (estimate, standard_error).
    """
    if n_mc <= 0:
        raise ValueError("n_mc must be positive")
    w = np.asarray(w)
    gain = (w @ H[:, k]).real * np.sqrt(constellations[k].pulse_energy)
    errors = 0
    for start in range(0, n_mc, block):
        indices, values = modem.draw_symbols(constellations, rng, size=min(block, n_mc - start))
        y = (w @ received_block(H, values, sigma_z, rng)).real
        decisions = modem.decide_block(y, gain, constellations[k])
        errors += int(np.count_nonzero(decisions != indices[k]))
    p_hat = errors / n_mc
    stderr = np.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / n_mc) / n_mc)
    return p_hat, stderr
