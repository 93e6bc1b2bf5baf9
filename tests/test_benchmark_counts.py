"""The call counts of a traced run equal the benchmark's arithmetic.

``perfbench/tracer.py:expected_counts`` derives from a run's scenario how
often each layer is called, and the benchmark refuses a run whose traced
counts differ. Each case runs one command in a fresh interpreter with the
benchmark's tracer installed (its wrappers close over one tracer's
counters, so one tracer per process) and compares every derived count, so
a change to the call pattern fails here before the benchmark flags it.
"""

import json
import textwrap

import pytest

from support import SRC, run_python

PERFBENCH = SRC.parent / "perfbench"

# runs the command of argv[2] under the tracer of the directory argv[1] and
# writes its exit code and the traced and derived counts to counts.json
TRACED_RUN = textwrap.dedent("""\
    import json
    import sys

    sys.dont_write_bytecode = True  # leaves no cache in the benchmark's directory
    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, expected_counts, per_layer_metrics

    tracer = Tracer()
    tracer.install()
    from beamsim import cli

    code = cli.main(json.loads(sys.argv[2]))
    tracer.dump("spans.json")
    with open("spans.json") as fh:
        dump = json.load(fh)
    with open("out/sweep.json") as fh:
        expected = expected_counts(json.load(fh), dump)
    traced = per_layer_metrics(dump)
    with open("counts.json", "w") as fh:
        json.dump({"code": code, "expected": expected,
                   "traced": {key: traced[key] for key in expected}}, fh)
""")


@pytest.mark.parametrize("command", [
    ["sweep", "--preset", "fig1", "--snr", "0,20"],
    ["csi", "--preset", "fig5"],
], ids=["fig1", "fig5-csi"])
def test_traced_counts_equal_the_benchmark_arithmetic(tmp_path, command):
    argv = [*command, "--realizations", "3", "--symbols", "50", "--seed", "1",
            "--threads", "1", "--out", "out"]
    proc = run_python("-c", TRACED_RUN, str(PERFBENCH), json.dumps(argv), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "counts.json").read_text())
    assert result["code"] == 0, proc.stderr
    assert len(result["expected"]) == 14
    assert result["traced"] == result["expected"]
