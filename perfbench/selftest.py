"""Self-tests of the benchmark's output check and tracer.

    python3 perfbench/selftest.py

1. The output check passes a payload rebuilt from a shipped reference and
   fails copies with one changed error count, infeasible fraction, exact
   analytic value, or a worse solver objective; a lower MPE objective passes.
2. Traced invocations at small realization counts give exactly the call
   counts the scenario's arithmetic predicts, and the counts repeat
   bit-for-bit in a second invocation. Besides the benchmark's workloads
   this runs ``WIDE``, five 8-PAM users with closed-form methods and no
   symbols, whose counts have a closed form:
   ``modem.enumerate.calls = K + R*S*M*K``, no convex solves and no
   detection.
3. Stage medians leave out a slow spell in one invocation, and a run whose
   beamsim command fails still gives a result, with ``correct`` false.

Exits 0 when every test passes.
"""

import copy
import dataclasses
import json
import math
import shutil
import sys
import tempfile

import outcheck
import run
import tracer
from workloads import WORKLOADS, Workload

SEED = 1
FAILURES = []
WIDE = Workload(
    name="wide-analytic",
    args=("sweep", "--users", "5x8pam", "--antennas", "5",
          "--methods", "ZF,MMSE,SMINR", "--symbols", "0", "--snr", "0:5:40"),
    realizations=2,
)


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        FAILURES.append(what)


def _payload(reference: dict) -> dict:
    """A schema-valid sweep.json payload with the reference's values."""
    rows = [dict(row, ser_ci=0.0, sum_rate=0.0) for row in reference["rows"]]
    return {"scenario": reference["scenario"], "rows": rows}


def _first(rows, method):
    return next(i for i, row in enumerate(rows) if row["method"] == method)


def test_output_check(schema: dict) -> None:
    refs = {name: outcheck.load_reference(name, SEED) for name in WORKLOADS}
    for name, ref in refs.items():
        expect(ref is not None, f"{name}: reference for seed {SEED} is shipped")
        if ref is not None:
            expect(outcheck.check(_payload(ref), ref, schema) == [],
                   f"{name}: reference payload passes against itself")

    ref = refs["fig5-csi"]
    total = outcheck.n_total(ref["scenario"])
    changed = copy.deepcopy(ref)
    i = _first(changed["rows"], "ZF")
    changed["rows"][i]["ser"] = (outcheck.error_count(changed["rows"][i], total) + 1) / total
    expect(outcheck.check(_payload(ref), changed, schema) != [],
           "fig5-csi: reference copy with one changed ZF error count fails")

    payload = _payload(ref)
    payload["rows"][_first(payload["rows"], "SMINR")]["pe_analytic"] *= 1 + 1e-9
    expect(outcheck.check(payload, ref, schema) != [],
           "fig5-csi: SMINR pe_analytic off by 1e-9 relative fails")

    ref = refs["fig1-mpe"]
    for method, column, factor, passes in (
        ("MPE_FULL", "pe_analytic", 1 + 1e-5, False),
        ("MPE_REDUCED", "pe_analytic", 1 - 1e-3, True),
        ("SMINR_AMP", "pe_bound", 1 + 1e-5, False),
    ):
        payload = _payload(ref)
        payload["rows"][_first(payload["rows"], method)][column] *= factor
        ok = outcheck.check(payload, ref, schema) == []
        expect(ok == passes, f"fig1-mpe: {method} {column} x {factor} "
                             f"{'passes' if passes else 'fails'}")
    payload = _payload(ref)
    payload["rows"][0]["infeasible_frac"] = 0.5
    expect(outcheck.check(payload, ref, schema) != [],
           "fig1-mpe: changed infeasible_frac fails")
    payload = _payload(ref)
    payload["scenario"]["n_symbols"] = -1
    expect(any(p.startswith("schema") for p in outcheck.check(payload, ref, schema)),
           "fig1-mpe: sweep.json breaking the schema fails")


def _traced_counts(workload, work_dir: str):
    inv = run.invoke(workload, SEED, "trace", work_dir, deadline=math.inf)
    if inv.rc != 0 or inv.problems:
        raise RuntimeError(f"{workload.name}: exit code {inv.rc} {inv.problems}")
    with open(inv.spans_path) as fh:
        dump = json.load(fh)
    metrics = tracer.per_layer_metrics(dump)
    counts = {k: v for k, v in metrics.items() if tracer.PER_LAYER[k][0] == "count"}
    return run.load_output(inv), dump, counts


def test_trace_counts(work_dir: str) -> None:
    sizes = {"fig1-mpe": 1, "fig5-csi": 2}
    workloads = [dataclasses.replace(WORKLOADS[name], realizations=realizations)
                 for name, realizations in sizes.items()]
    for workload in [*workloads, WIDE]:
        name, realizations = workload.name, workload.realizations
        payload, dump, counts = _traced_counts(workload, work_dir)
        for metric, want in tracer.expected_counts(payload, dump).items():
            expect(counts[metric] == want,
                   f"{name} R={realizations}: {metric} = {counts[metric]} (arithmetic {want})")
        _, _, again = _traced_counts(workload, work_dir)
        expect(again == counts, f"{name} R={realizations}: counts repeat exactly")
        if workload is WIDE:
            sc = payload["scenario"]
            K, S, M = len(sc["users"]), len(sc["snr_grid_db"]), len(sc["methods"])
            want = K + realizations * S * M * K
            expect(counts["modem.enumerate.calls"] == want,
                   f"wide-analytic: modem.enumerate.calls = K + R*S*M*K = {want}")
            expect(counts["convex.solve.calls"] == 0 and counts["modem.detect.calls"] == 0,
                   "wide-analytic: no convex solves and no detection")


def test_failures() -> None:
    stages = [[0.5, 1.0, 1.0], [0.5, 1.0, 3.0], [0.5, 1.0, 1.0]]
    expect(run.stage_medians(stages) == [0.5, 1.0, 1.0],
           "stage medians leave out a slow spell in one invocation")
    broken = Workload("broken", ("sweep", "--methods", "NO_SUCH_METHOD"), 1)
    run.WORKLOADS[broken.name] = broken
    try:
        summary = run.measure(broken.name, SEED, 1.0, trace=False)["summary"]
    finally:
        del run.WORKLOADS[broken.name]
    expect(not summary["correct"] and summary["failed"] == summary["attempted"] == 1
           and set(summary["metrics"]) == set(run.END_TO_END),
           "a failing beamsim command gives a result with correct false")


def main() -> int:
    schema = outcheck.load_schema(run.SRC)
    test_output_check(schema)
    test_failures()
    run.RUNS.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS)
    try:
        test_trace_counts(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{len(FAILURES)} self-test(s) failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
