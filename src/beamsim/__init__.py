"""Minimum-error-probability and SMINR receive beamforming for PAM uplinks.

The library is reached through its modules: ``from beamsim import analysis,
beamformers, channel, convex, modem, sim``.
"""

__version__ = "0.1.0"
