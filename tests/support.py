"""Helpers of the tests: lookups on sweep results, the amplitude SMINR and
a fresh interpreter on this checkout.

No command needs the lookups or the amplitude SMINR: the commands write
every row in order, and the sweeps score weights by the exact error
probability and its bound.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import beamsim
from beamsim import analysis

SRC = Path(beamsim.__file__).resolve().parents[1]


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's beamsim."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def row(result, method: str, snr_db: float):
    """The row of ``method`` at ``snr_db`` in a ``sim.SweepResult``."""
    for r in result.rows:
        if r.method == method and r.snr_db == snr_db:
            return r
    raise KeyError((method, snr_db))


def series(result, method: str) -> list:
    """The rows of ``method`` in a ``sim.SweepResult``, in SNR-grid order."""
    return [r for r in result.rows if r.method == method]


def sminr_amp(w, H, k, constellations, sigma_z: float) -> float:
    """Amplitude-based signal minus interference to noise ratio.

    Reduced margin divided by sigma_z / sqrt(2). Not normalized by ||w||: the
    metric is defined for (and maximized over) the unit ball.
    """
    _, reduced = analysis.feasibility_margins(w, H, k, constellations)
    return reduced / (sigma_z / math.sqrt(2.0))
