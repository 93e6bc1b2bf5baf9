"""Every function of the package is reached by a command or by ``checks``.

One fresh interpreter runs, under ``sys.setprofile``, a ``sweep`` of every
method read from a scenario file, a ``rate``, a ``csi`` and a ``check
--quick``, each on one worker, and records the code it enters. Every
``def`` in ``src/beamsim/*.py`` must be among it, apart from the few listed
in ``UNREACHED``: code that only the tests call belongs in ``tests/``.
"""

import ast
import json
import os
import textwrap
from pathlib import Path

from support import SRC, run_python

PACKAGE = SRC / "beamsim"

# functions that none of the runs below enters, each with its reason
UNREACHED = {
    "sim._start_worker": "runs only in a pool worker",
    "sim._run_in_worker": "runs only in a pool worker",
    "modem.InterfererTupleSet.count": "read by perfbench/tracer.py",
}

SCENARIO = textwrap.dedent("""\
    [scenario]
    users = 2x4pam
    antennas = 3
    snr = 10,20
    realizations = 2
    symbols = 20
    methods = ZF,MMSE,MPE_FULL,MPE_REDUCED,SMINR_AMP,SMINR
    seed = 1
""")
SMALL = ["--users", "2x4pam", "--antennas", "3", "--snr", "10,20", "--realizations", "2",
         "--symbols", "20", "--seed", "1", "--threads", "1"]
COMMANDS = [
    ["sweep", "--scenario", "scenario.ini", "--threads", "1", "--out", "sweep"],
    ["rate", *SMALL, "--methods", "ZF,MMSE", "--out", "rate"],
    ["csi", *SMALL, "--out", "csi"],
    ["check", "--quick"],
]

# runs the commands of argv[1] and writes their exit codes and the
# (file, first line) of every code object entered to entered.json
PROFILED_RUNS = textwrap.dedent("""\
    import json
    import sys

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    from beamsim import cli

    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
    sys.setprofile(None)
    with open("entered.json", "w") as fh:
        json.dump({"codes": codes, "entered": sorted(entered)}, fh)
""")


def _defs(path: Path) -> dict:
    """Qualified name -> first line of every def in a module. A decorated
    def's code object starts at its first decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[prefix + child.name] = min(
                    [child.lineno, *(d.lineno for d in child.decorator_list)])
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem + ".")
    return found


def test_every_function_is_reached_by_a_command(tmp_path):
    (tmp_path / "scenario.ini").write_text(SCENARIO)
    proc = run_python("-c", PROFILED_RUNS, json.dumps(COMMANDS), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "entered.json").read_text())
    assert result["codes"] == [0] * len(COMMANDS), proc.stderr
    entered = {(os.path.realpath(name), line) for name, line in result["entered"]}
    unreached = sorted(
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in _defs(path).items()
        if (str(path), line) not in entered
    )
    assert unreached == sorted(UNREACHED)
