"""Helpers of the tests: lookups on sweep results, the amplitude SMINR, a
certificate of an MPE optimum on every tuple row, an empty draw memo and a
fresh interpreter on this checkout.

No command needs the lookups, the amplitude SMINR or the certificate: the
commands write every row in order, the sweeps score weights by the exact
error probability and its bound, and the solver constrains the peak rows.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import nnls

import beamsim
from beamsim import analysis, beamformers, convex

SRC = Path(beamsim.__file__).resolve().parents[1]


def run_python(*args, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's beamsim."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def forget_draw() -> None:
    """Empty the memo behind ``beamformers._memoized``, so the next call computes cold."""
    beamformers._memo_key = None
    beamformers._memo.clear()


def row(rows, method: str, snr_db: float):
    """The row of ``method`` at ``snr_db`` in a sweep's SweepRow list."""
    for r in rows:
        if r.method == method and r.snr_db == snr_db:
            return r
    raise KeyError((method, snr_db))


def series(rows, method: str) -> list:
    """The rows of ``method`` in a sweep's SweepRow list, in SNR-grid order."""
    return [r for r in rows if r.method == method]


def sminr_amp(w, H, k, constellations, sigma_z: float) -> float:
    """Amplitude-based signal minus interference to noise ratio.

    Reduced margin divided by sigma_z / sqrt(2). Not normalized by ||w||: the
    metric is defined for (and maximized over) the unit ball.
    """
    _, reduced = analysis.feasibility_margins(w, H, k, constellations)
    return reduced / (sigma_z / math.sqrt(2.0))


def certify_on_tuple_rows(program, weights):
    """(smallest margin, KKT residual) of ``weights`` on all T tuple rows.

    The margin is min(G_objective @ w_bar). The residual is that of the
    nonnegative least-squares fit of the objective's gradient by the sphere
    normal and the tuple rows active within 1e-7: zero at a KKT point.
    """
    w_bar = beamformers.lift_weights(weights)
    margins = program.G_objective @ w_bar
    _, grad = convex.objective_and_gradient(program, w_bar)
    normals = [-2.0 * w_bar, *program.G_objective[margins <= 1e-7]]
    _, resid = nnls(np.stack(normals, axis=1), grad)
    return float(margins.min()), float(resid)
