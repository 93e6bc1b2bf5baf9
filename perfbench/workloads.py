"""The benchmark's workloads: the beamsim command line each one runs.

Each workload stresses a different layer, so a change to one layer shows on
the workload that exercises it and leaves the others as a no-change control
(why each exists: ``BENCHMARK.json`` and ``README.md``). Realization counts
are fixed here, not derived from the time budget, so a seed always yields
the same inputs, outputs and call counts. ``fig5-csi`` is sized so that one
invocation takes about 5.5 s on a 2-core Xeon and about nine fit in a 50 s
run, whose stage medians then damp the machine's noise. ``fig1-mpe`` does
different solver work for every channel draw, so it takes as many
realizations as one run allows (about 46 s) rather than repeats.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    realizations: int

    def argv(self, seed: int, out_dir: str) -> list:
        """The beamsim command line for one invocation of this workload."""
        return [*self.args, "--realizations", str(self.realizations),
                "--seed", str(seed), "--threads", "1", "--out", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1-mpe",
            args=("sweep", "--preset", "fig1", "--snr", "0,10,20,30"),
            realizations=90,
        ),
        Workload(
            name="fig5-csi",
            args=("csi", "--preset", "fig5"),
            realizations=22,
        ),
    )
}
