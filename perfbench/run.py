"""Benchmark of the beamsim command line, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig1-mpe --seed 1 --seconds 50 --trace 0

Each beamsim invocation is a fresh single-process child (``--threads 1``,
BLAS and OpenMP pinned to one thread) started through ``child.py``. With
``--trace 0`` the run repeats the same command until ``--seconds`` are used
up and reports the end-to-end metrics from stage medians over the
invocations (``stage_medians``). With ``--trace 1`` it runs the command
untraced and traced in turn, in the same way, and reports the per-layer
metrics of the first traced invocation. Every invocation's ``sweep.json``
goes through the output check (``outcheck.py``); a traced one also has its
call counts checked against the scenario's arithmetic (``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An invocation that
exits non-zero, is killed at the time limit or fails a check counts as
failed and makes ``correct`` false; metrics that no invocation measured
read 0. Only when the beamsim sources are not there to run does the run
exit with code 2 and print no result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import outcheck
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
CHILD = HERE / "child.py"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
    "BEAMSIM_THREADS": "1",
}
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": ("s", "lower"),
    "realizations_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "cpu_ms_per_realization": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
METRICS = {**END_TO_END, **tracer.PER_LAYER}  # name -> (unit, better)


class BenchError(Exception):
    """The beamsim sources are missing; no result is printed."""


@dataclass
class Invocation:
    mode: str
    out_dir: str
    rc: int
    wall_s: float
    setup_s: float = None
    # Set-up, then each realization up to the next one's start (the last up
    # to process exit), in wall seconds and in CPU seconds.
    wall_stages: list = None
    cpu_stages: list = None
    units: int = None
    cpu_s: float = None
    maxrss_kb: int = None
    spans_path: str = None
    load: tuple = ()
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems

    @property
    def timed(self) -> bool:
        return self.rc == 0 and bool(self.wall_stages) and bool(self.units)


def _cache_sizes() -> dict:
    """Cache sizes of cpu0, read from sysfs (read-only)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"L{level}{suffix}"] = size
    return sizes


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "caches": _cache_sizes(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def invoke(workload, seed: int, mode: str, work_dir: str, deadline: float) -> Invocation:
    """Run one child process and collect what it and the parent measured."""
    out_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=work_dir)
    result_path = out_dir + ".result.json"
    spans_path = out_dir + ".spans.json"
    cmd = [sys.executable, str(CHILD), mode, result_path, spans_path, "--",
           *workload.argv(seed, out_dir)]
    load_before = os.getloadavg()
    with open(out_dir + ".log", "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - t0))
        except subprocess.TimeoutExpired:
            rc = -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        t1 = time.perf_counter()
    inv = Invocation(mode=mode, out_dir=out_dir, rc=rc, wall_s=t1 - t0,
                     load=(load_before, os.getloadavg()))
    try:
        with open(result_path) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        inv.problems.append(f"no result file (exit code {rc})")
        return inv
    if Path(res["beamsim"]).resolve().parent.parent != SRC.resolve():
        inv.problems.append(f"imported beamsim from {res['beamsim']}")
    inv.cpu_s, inv.maxrss_kb = res["cpu_s"], res["maxrss_kb"]
    if mode == "trace" and os.path.exists(spans_path):
        inv.spans_path = spans_path
    if not res["t_realizations"]:
        inv.problems.append("no realization started")
        return inv
    inv.setup_s = res["t_realizations"][0] - t0
    inv.wall_stages = _stages([t0, *res["t_realizations"], t1])
    inv.cpu_stages = _stages([0.0, *res["cpu_realizations"], inv.cpu_s])
    return inv


def _stages(marks: list) -> list:
    return [b - a for a, b in zip(marks, marks[1:])]


def load_output(inv: Invocation):
    with open(os.path.join(inv.out_dir, "sweep.json")) as fh:
        return json.load(fh)


def _bytes_written(inv: Invocation) -> int:
    return sum(p.stat().st_size for p in Path(inv.out_dir).iterdir())


def _check_full(inv: Invocation, reference, schema, first_csv) -> None:
    """Output check plus byte-identity with the run's first output."""
    if inv.rc != 0:
        inv.problems.append(f"exit code {inv.rc}")
        return
    try:
        payload = load_output(inv)
        inv.problems.extend(outcheck.check(payload, reference, schema))
        inv.units = realizations(payload)
        csv = Path(inv.out_dir, "sweep.csv").read_bytes()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        inv.problems.append(f"unreadable output: {exc}")
        return
    if first_csv and csv != first_csv[0]:
        inv.problems.append("sweep.csv differs from the run's first invocation")
    first_csv.append(csv)


def realizations(payload: dict) -> int:
    """Realizations finished by one invocation; each CSI variance counts."""
    sweeps = len({row.get("csi_var") for row in payload["rows"]})
    return payload["scenario"]["n_realizations"] * sweeps


def stage_medians(stages: list) -> list:
    """Each stage's median over the invocations of a run.

    All invocations of a run do the same work, stage by stage (set-up, then
    realization after realization), so the sum of these medians is the time
    of one invocation with a slow spell of a few seconds in any single
    invocation left out.
    """
    return [statistics.median(times) for times in zip(*stages)]


def _end_to_end(full: list) -> dict:
    done = [inv for inv in full if inv.timed]
    if not done:
        return dict.fromkeys(END_TO_END, 0.0)
    units = done[0].units
    wall = stage_medians([inv.wall_stages for inv in done])
    cpu = stage_medians([inv.cpu_stages for inv in done])
    return {
        "wall_s": sum(wall),
        "realizations_per_s": units / sum(wall[1:]),
        "setup_s": wall[0],
        "cpu_ms_per_realization": 1000.0 * sum(cpu) / units,
        "peak_rss_mb": statistics.median(inv.maxrss_kb / 1024.0 for inv in done),
    }


def _counts(dump: dict):
    """What a traced invocation counted; it must repeat exactly."""
    return dump["calls"], dump["sizes"], [solve[:3] for solve in dump["solves"]]


def _per_layer(full: list) -> dict:
    """Per-layer metrics of the first traced invocation, with every check.

    Each traced invocation's counts must match the scenario's arithmetic
    and the first traced invocation's counts. The tracing overhead compares
    the stage medians of the traced and the untraced invocations.
    """
    metrics = dict.fromkeys(tracer.PER_LAYER, 0.0)
    dumps = []
    for inv in full:
        if inv.mode != "trace":
            continue
        if inv.spans_path is None:
            inv.problems.append("no spans written")
            continue
        with open(inv.spans_path) as fh:
            dump = json.load(fh)
        if inv.units:
            got = tracer.per_layer_metrics(dump)
            for name, want in tracer.expected_counts(load_output(inv), dump).items():
                if got[name] != want:
                    inv.problems.append(f"trace count {name} = {got[name]}, "
                                        f"arithmetic gives {want}")
        if dumps and _counts(dump) != _counts(dumps[0][1]):
            inv.problems.append("trace counts differ from the run's first traced invocation")
        dumps.append((inv, dump))
    if not dumps:
        return metrics
    first, dump = dumps[0]
    metrics.update(tracer.per_layer_metrics(dump))
    metrics["cli.bytes_written"] = _bytes_written(first)
    stages = {mode: [inv.wall_stages for inv in full if inv.mode == mode and inv.timed]
              for mode in ("plain", "trace")}
    if stages["plain"] and stages["trace"]:
        metrics["trace.overhead_frac"] = (sum(stage_medians(stages["trace"]))
                                          / sum(stage_medians(stages["plain"])) - 1.0)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result with its environment record."""
    if not (SRC / "beamsim" / "cli.py").is_file():
        raise BenchError(f"no beamsim sources under {SRC}")
    workload = WORKLOADS[name]
    reference = outcheck.load_reference(name, seed)
    schema = outcheck.load_schema(SRC)
    RUNS.mkdir(exist_ok=True)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    load_start = os.getloadavg()
    work_dir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=RUNS)
    full, first_csv = [], []
    try:
        # Untraced invocations, or untraced and traced ones in turn.
        modes = ("plain", "trace") if trace else ("plain",)
        while True:
            new = [invoke(workload, seed, mode, work_dir, deadline) for mode in modes]
            full.extend(new)
            elapsed = time.perf_counter() - start
            if any(inv.rc != 0 for inv in new) or elapsed + sum(inv.wall_s for inv in new) > seconds:
                break
        for inv in full:
            _check_full(inv, reference, schema, first_csv)
        if trace:
            metrics = _per_layer(full)
            spans = next((inv.spans_path for inv in full if inv.spans_path), None)
            if spans is not None:
                shutil.copy(spans, RUNS / f"{name}-spans.json")
        else:
            metrics = _end_to_end(full)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = sum(not inv.ok for inv in full)
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "reference": "shipped" if reference is not None else "none (invariants only)",
        "environment": environment(),
        "loadavg": {"before": load_start, "after": os.getloadavg()},
        "invocations": [
            {"mode": inv.mode, "rc": inv.rc, "wall_s": inv.wall_s,
             "setup_s": inv.setup_s, "cpu_s": inv.cpu_s, "maxrss_kb": inv.maxrss_kb,
             "loadavg": inv.load, "problems": inv.problems}
            for inv in full
        ],
        "failed_frac": failed / len(full),
        "summary": {
            "correct": failed == 0, "attempted": len(full), "failed": failed,
            "metrics": {k: {"value": v, "unit": METRICS[k][0]} for k, v in metrics.items()},
        },
    }
    with open(RUNS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_result(result: dict) -> None:
    """Human-readable lines: environment, problems and every metric."""
    summary = result["summary"]
    print("env " + json.dumps(result["environment"], sort_keys=True))
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']} "
          f"reference={result['reference']} loadavg={result['loadavg']}")
    for inv in result["invocations"]:
        for problem in inv["problems"]:
            print(f"  FAIL {inv['mode']}: {problem}")
    print(f"  {'failed_frac':<34} {result['failed_frac']:<14.6g} frac  (lower is better; "
          f"{summary['failed']} of {summary['attempted']} invocations)")
    for name, m in summary["metrics"].items():
        print(f"  {name:<34} {m['value']:<14.6g} {m['unit']:<6} ({METRICS[name][1]} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
