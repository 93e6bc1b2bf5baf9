"""Output check: a run's ``sweep.json`` against the schema and a reference.

References are the outputs of the seed commit for the seeds the benchmark
ships (``reference/<workload>/seed-<n>.json``, written by
``make_reference.py``). The rules:

* ZF, MMSE and SMINR rows keep identical integer error counts
  (``ser * n_total``) and ``pe_analytic`` / ``pe_bound`` within 1e-12
  relative.
* MPE_FULL and MPE_REDUCED rows hold the minimized quantity, so
  ``pe_analytic`` may only fall: it must be <= reference * (1 + 1e-6).
* SMINR_AMP rows maximize the margin, which lowers the bound:
  ``pe_bound`` <= reference * (1 + 1e-6).
* Every row keeps its ``infeasible_frac`` exactly.

For a seed without a reference only the schema and the structural
invariants below are checked.
"""

import json
import math
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

CLOSED_FORM = ("ZF", "MMSE", "SMINR")
MPE = ("MPE_FULL", "MPE_REDUCED")
SMINR_AMP = "SMINR_AMP"
EXACT_REL = 1e-12
SOLVER_REL = 1e-6
REFERENCE_COLUMNS = ("csi_var", "method", "snr_db", "ser", "pe_analytic",
                     "pe_bound", "infeasible_frac")


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.json"


def compact(payload: dict) -> dict:
    """The part of a sweep.json payload that a reference file keeps."""
    columns = [c for c in REFERENCE_COLUMNS if c in payload["rows"][0]]
    return {"scenario": payload["scenario"], "columns": columns,
            "rows": [[row[c] for c in columns] for row in payload["rows"]]}


def load_reference(workload: str, seed: int):
    """The shipped reference as a payload of row dicts, or None without one."""
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with open(path) as fh:
        ref = json.load(fh)
    return {"scenario": ref["scenario"],
            "rows": [dict(zip(ref["columns"], row)) for row in ref["rows"]]}


def load_schema(src_dir: Path) -> dict:
    with open(src_dir / "beamsim" / "schemas" / "sweep.schema.json") as fh:
        return json.load(fh)


def n_total(scenario: dict) -> int:
    """Symbols decided per (method, SNR) row: realizations x symbols x users."""
    return scenario["n_realizations"] * scenario["n_symbols"] * len(scenario["users"])


def error_count(row: dict, total: int):
    """The integer error count behind a row's SER, or None without symbols."""
    if row["ser"] is None:
        return None
    x = row["ser"] * total
    count = round(x)
    if abs(x - count) > 1e-6 * max(1, count):
        raise ValueError(f"ser {row['ser']!r} is not a count over {total}")
    return count


def _label(row: dict) -> str:
    csi = f" csi_var={row['csi_var']}" if "csi_var" in row else ""
    return f"{row['method']} snr={row['snr_db']}{csi}"


def _close(value, ref) -> bool:
    if value is None or ref is None:
        return value is ref
    return value == ref or abs(value - ref) <= EXACT_REL * max(abs(value), abs(ref))


def _not_above(value, ref) -> bool:
    if value is None or ref is None:
        return value is ref
    return value <= ref * (1.0 + SOLVER_REL)


def invariants(payload: dict) -> list:
    """Checks that need no reference: one finite row per expected cell."""
    scenario, rows = payload["scenario"], payload["rows"]
    problems = []
    sweeps = len({row.get("csi_var") for row in rows})
    expected = len(scenario["methods"]) * len(scenario["snr_grid_db"]) * sweeps
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    total = n_total(scenario)
    for row in rows:
        if row["method"] not in scenario["methods"]:
            problems.append(f"{_label(row)}: method not in the scenario")
        if not 0.0 <= row["infeasible_frac"] <= 1.0:
            problems.append(f"{_label(row)}: infeasible_frac out of [0, 1]")
        if row["method"] in CLOSED_FORM and row["infeasible_frac"] != 0.0:
            problems.append(f"{_label(row)}: closed-form row marked infeasible")
        pe = row["pe_analytic"]
        if pe is None or not 0.0 <= pe <= 1.0:
            problems.append(f"{_label(row)}: pe_analytic {pe!r} outside [0, 1]")
        if row["pe_bound"] is None or not math.isfinite(row["pe_bound"]):
            problems.append(f"{_label(row)}: pe_bound {row['pe_bound']!r}")
        if (row["ser"] is None) != (scenario["n_symbols"] == 0):
            problems.append(f"{_label(row)}: ser {row['ser']!r} with "
                            f"{scenario['n_symbols']} symbols")
        try:
            error_count(row, total)
        except ValueError as exc:
            problems.append(f"{_label(row)}: {exc}")
    return problems


def check(payload: dict, reference, schema: dict) -> list:
    """Problems found in one sweep.json payload; an empty list means correct."""
    errors = sorted(jsonschema.Draft202012Validator(schema).iter_errors(payload),
                    key=lambda e: list(e.path))
    if errors:
        return [f"schema: {e.message} at {list(e.path)}" for e in errors[:5]]
    problems = invariants(payload)
    if reference is None or problems:
        return problems
    if payload["scenario"] != reference["scenario"]:
        return ["scenario differs from the reference"]
    rows, ref_rows = payload["rows"], reference["rows"]
    if [_label(r) for r in rows] != [_label(r) for r in ref_rows]:
        return ["rows differ from the reference in keys or order"]
    total = n_total(payload["scenario"])
    for row, ref in zip(rows, ref_rows):
        where = _label(row)
        if row["infeasible_frac"] != ref["infeasible_frac"]:
            problems.append(f"{where}: infeasible_frac {row['infeasible_frac']!r}"
                            f" != {ref['infeasible_frac']!r}")
        method = row["method"]
        if method in CLOSED_FORM:
            got, want = error_count(row, total), error_count(ref, total)
            if got != want:
                problems.append(f"{where}: {got} errors, reference {want}")
            for column in ("pe_analytic", "pe_bound"):
                if not _close(row[column], ref[column]):
                    problems.append(f"{where}: {column} {row[column]!r}, "
                                    f"reference {ref[column]!r}")
        elif method in MPE and not _not_above(row["pe_analytic"], ref["pe_analytic"]):
            problems.append(f"{where}: pe_analytic {row['pe_analytic']!r} above "
                            f"reference {ref['pe_analytic']!r}")
        elif method == SMINR_AMP and not _not_above(row["pe_bound"], ref["pe_bound"]):
            problems.append(f"{where}: pe_bound {row['pe_bound']!r} above "
                            f"reference {ref['pe_bound']!r}")
    return problems
