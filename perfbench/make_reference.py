"""Record the outputs the output check compares runs against.

Run once on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py --seeds 0-31,1001

For every workload and seed it runs the benchmark's own beamsim command
line and stores the ``sweep.json`` it writes as
``perfbench/reference/<workload>/seed-<n>.json``.
"""

import argparse
import json
import math
import shutil
import sys
import tempfile

import outcheck
import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(name: str, seed: int, schema: dict) -> str:
    work_dir = tempfile.mkdtemp(prefix=f"ref-{name}-{seed}-", dir=run.RUNS)
    try:
        inv = run.invoke(WORKLOADS[name], seed, "plain", work_dir, deadline=math.inf)
        if inv.rc != 0 or inv.problems:
            return f"{name} seed {seed}: exit code {inv.rc} {inv.problems}"
        payload = run.load_output(inv)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = outcheck.check(payload, None, schema)
    if problems:
        return f"{name} seed {seed}: {problems}"
    path = outcheck.reference_path(name, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(outcheck.compact(payload), fh, separators=(",", ":"))
        fh.write("\n")
    return f"{name} seed {seed}: wrote {path.relative_to(run.ROOT)} ({inv.wall_s:.1f} s)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31,1001")
    args = parser.parse_args()
    schema = outcheck.load_schema(run.SRC)
    run.RUNS.mkdir(exist_ok=True)
    failed = 0
    for seed in parse_seeds(args.seeds):
        for name in WORKLOADS:
            line = record(name, seed, schema)
            print(line, flush=True)
            failed += "wrote" not in line
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
