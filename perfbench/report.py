"""Print every end-to-end and per-layer metric of every workload, with the output check.

    python3 perfbench/report.py --seed 1 --seconds 50

For each workload it makes one untraced run (end-to-end metrics) and one
traced run (per-layer metrics), prints each metric by name with its unit
and direction, and ends with a table of the end-to-end metrics and
``failed_frac``. ``--save FILE`` also writes the results, with their
environment records, as JSON. Exits 1 if any invocation failed its check.
"""

import argparse
import json
import sys

import run
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--save", help="write the results to this JSON file")
    args = parser.parse_args()
    results = []
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                result = run.measure(name, args.seed, args.seconds, trace)
                run.print_result(result)
                results.append(result)
    except run.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    names = ["failed_frac", *run.END_TO_END]
    print(f"\n{'workload':<14}" + "".join(f"{n:>24}" for n in names))
    print(f"{'':<14}" + "".join(f"{run.METRICS.get(n, ('frac',))[0]:>24}" for n in names))
    for result in results:
        if result["trace"]:
            continue
        metrics = result["summary"]["metrics"]
        values = [result["failed_frac"]] + [metrics[n]["value"] for n in run.END_TO_END]
        print(f"{result['workload']:<14}" + "".join(f"{v:>24.6g}" for v in values))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    return 1 if any(r["summary"]["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
