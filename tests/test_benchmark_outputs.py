"""Every benchmark workload passes the benchmark's output check at seed 1.

``perfbench/outcheck.py`` holds a run's ``sweep.json`` against the schema
and the shipped reference, and the benchmark counts an invocation whose
output fails as incorrect. One fresh interpreter runs each workload of
``perfbench/workloads.py`` at seed 1 and checks its output, so a change
that would make the benchmark report wrong outputs fails here first. The
runs take two workers: the outputs are bit-identical for any ``--threads``.
"""

import json
import textwrap

from support import SRC, run_python

PERFBENCH = SRC.parent / "perfbench"

# runs every workload under argv[1] at seed 1 on two workers and writes, per
# workload, its exit code, whether a reference exists and the check's
# problems to checked.json
CHECKED_RUNS = textwrap.dedent("""\
    import json
    import sys
    from pathlib import Path

    sys.dont_write_bytecode = True  # leaves no cache in the benchmark's directory
    sys.path.insert(0, sys.argv[1])
    import outcheck
    from workloads import WORKLOADS

    from beamsim import cli

    schema = outcheck.load_schema(Path(sys.argv[2]))
    checked = {}
    for name, workload in WORKLOADS.items():
        argv = workload.argv(1, name)
        argv[argv.index("--threads") + 1] = "2"
        code = cli.main(argv)
        with open(Path(name) / "sweep.json") as fh:
            payload = json.load(fh)
        reference = outcheck.load_reference(name, 1)
        checked[name] = {"code": code, "has_reference": reference is not None,
                         "problems": outcheck.check(payload, reference, schema)}
    with open("checked.json", "w") as fh:
        json.dump(checked, fh)
""")


def test_every_workload_passes_the_output_check(tmp_path):
    proc = run_python("-c", CHECKED_RUNS, str(PERFBENCH), str(SRC), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    checked = json.loads((tmp_path / "checked.json").read_text())
    assert checked
    for name, result in checked.items():
        assert result["code"] == 0, (name, proc.stderr)
        assert result["has_reference"], name
        assert result["problems"] == [], name
