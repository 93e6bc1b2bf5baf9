"""Command-line front end: scenario files, figure presets, deterministic outputs."""

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, checks, sim
from .modem import unit_energy_pam


class ConfigError(Exception):
    pass


# steps by which a range's last point may pass its stop, for rounding in
# (stop - start) / step: 0:0.1:0.3 has 4 points
SNR_RANGE_TOL = 1e-9


def _parse_snr(text: str):
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            start, step, stop = (float(p) for p in parts)
            if not (0 < step < math.inf and start <= stop):  # also refuses nan
                raise ValueError
            span = (stop - start) / step
            n = math.floor(span + SNR_RANGE_TOL) + 1 if math.isfinite(span) else math.inf
            if n > sim.MAX_SNR_POINTS:
                raise ConfigError(
                    f"SNR range {text!r} is not a finite grid of at most "
                    f"{sim.MAX_SNR_POINTS} points"
                )
            return tuple(start + i * step for i in range(n))
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(
            f"bad SNR spec {text!r}, expected start:step:stop or a comma list"
        ) from None


def _parse_users(text: str):
    text = text.strip().lower()
    try:
        count, mod = text.split("x")
        count = int(count)
        if count < 1 or not mod.endswith("pam"):
            raise ValueError
        order = int(mod[:-3])
    except ValueError:
        raise ConfigError(f"bad users spec {text!r}, expected e.g. 2x4pam") from None
    # every order is >= 2, so each user has at least 2^(K-1) interferer tuples
    if 2 ** min(count - 1, 64) > sim.convex.MAX_FULL_TUPLES:
        raise ConfigError(f"{count} users exceed the cap of {sim.convex.MAX_FULL_TUPLES} "
                          "interferer tuples per user")
    return tuple(unit_energy_pam(order) for _ in range(count))


def _parse_methods(text: str):
    return tuple(m.strip().upper() for m in text.split(","))


# Every scenario key: a scenario-file key and the flag --key (with "-" for
# "_"), mapped to its Scenario field, the parser of its text and its help.
KEYS = {
    "antennas": ("n_antennas", int, "receive antennas"),
    "users": ("users", _parse_users, "users and their PAM order, e.g. 2x4pam"),
    "snr": ("snr_grid_db", _parse_snr, "grid as start:step:stop or comma list (dB)"),
    "realizations": ("n_realizations", int, "channel draws"),
    "symbols": ("n_symbols", int, "Monte-Carlo symbols per channel draw"),
    "csi_var": ("csi_error_var", float, "CSI error variance"),
    "methods": ("methods", _parse_methods, "comma list of methods"),
    "seed": ("seed", int, "random seed"),
}
# csi sweeps its own fixed CSI error variances
CSI_KEYS = {key: spec for key, spec in KEYS.items() if key != "csi_var"}

# Scenario-key text of each figure preset; a key it leaves out keeps the
# Scenario default (four 8-PAM users on four antennas, every method).
PRESETS = {
    # error-rate and bound figures
    "fig1": {}, "fig2": {}, "fig3": {},
    # sum-rate comparison incl. the two-user 64-QAM reference
    "fig4": {"snr": "0:5:50"},
    # imperfect-CSI comparison, closed-form methods only
    "fig5": {"methods": ",".join(sim.CSI_METHODS), "snr": "0:5:45"},
}
# Scenario-key text of --paper-scale: the original 10^4 x 10^3 Monte-Carlo scale
PAPER_SCALE = {"realizations": "10000", "symbols": "1000"}


def _load_scenario_file(path: str, keys) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path, encoding="utf-8-sig")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"bad scenario file {path}: {exc}") from None
    if not found:
        raise ConfigError(f"cannot read scenario file {path}")
    if "scenario" not in parser:
        raise ConfigError(f"{path} has no [scenario] section")
    unknown = sorted(set(parser["scenario"]) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}, expected some of {sorted(keys)}")
    return dict(parser["scenario"])


def build_scenario(args, keys=KEYS, base=None) -> sim.Scenario:
    """Scenario from the key text of ``base``, the preset, ``--paper-scale``,
    the scenario file and the flags, each overriding the one before.

    Only ``keys`` may come from the file and the flags; a key that no source
    gives keeps its Scenario default.
    """
    text = dict(base or {})
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        text.update(PRESETS[args.preset])
    if getattr(args, "paper_scale", False):
        text.update(PAPER_SCALE)
    if args.scenario:
        text.update(_load_scenario_file(args.scenario, keys))
    text.update((key, v) for key in keys if (v := getattr(args, key, None)) is not None)
    try:
        return sim.Scenario(**{KEYS[key][0]: KEYS[key][1](value)
                               for key, value in text.items()})
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _n_workers(args):
    """The worker count asked for; ``sim`` caps it at 1..realizations, cores."""
    return os.cpu_count() if args.threads is None else args.threads


def _make_out_dir(out_dir) -> None:
    """Create the output directory and write a scratch file in it, so that
    an unwritable ``--out`` is refused before any work."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryFile(dir=out_dir):
            pass
    except OSError as exc:
        raise ConfigError(f"cannot write to the output directory: {exc}") from None


def _write_outputs(out_dir, scenario, results, csi_vars=None):
    """Write sweep.csv, sweep.json and manifest.json for the rows of ``results``
    into the existing directory ``out_dir``.

    The row columns are the SweepRow fields in order and the scenario object
    is ``dataclasses.asdict(scenario)``. CSV numbers are written with 17
    significant digits; JSON writes NaN as null. ``csi_vars`` gives one CSI
    error variance per result; it becomes the leading CSV column and the
    trailing key of each JSON row.
    """
    columns = [f.name for f in dataclasses.fields(sim.SweepRow)]
    header = columns if csi_vars is None else ["csi_var", *columns]
    lines, rows = [",".join(header)], []
    for i, result in enumerate(results):
        for r in result.rows:
            row = dataclasses.asdict(r)
            if csi_vars is not None:
                row["csi_var"] = csi_vars[i]
            lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}"
                                  for v in map(row.get, header)))
            rows.append({c: None if isinstance(v, float) and math.isnan(v) else v
                         for c, v in row.items()})
    scenario_dict = dataclasses.asdict(scenario)
    csv_path = os.path.join(out_dir, "sweep.csv")
    json_path = os.path.join(out_dir, "sweep.json")
    canonical = json.dumps(scenario_dict, sort_keys=True).encode()
    manifest = {
        "scenario_digest": hashlib.sha256(canonical).hexdigest(),
        "code_version": __version__,
        "seed": scenario.seed,
        "created_unix": int(time.time()),
    }
    for name, text in (
        (csv_path, "\n".join(lines)),
        (json_path, json.dumps({"scenario": scenario_dict, "rows": rows}, indent=2)),
        (os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2)),
    ):
        with open(name, "w", newline="\n") as fh:
            fh.write(text + "\n")
    return csv_path


def cmd_sweep(args) -> int:
    scenario = build_scenario(args)
    _make_out_dir(args.out)
    result = sim.run_sweep(scenario, n_workers=_n_workers(args))
    print(f"wrote {_write_outputs(args.out, scenario, [result])}")
    return 0


def cmd_rate(args) -> int:
    scenario = build_scenario(args)
    if scenario.n_symbols < 1:
        raise ConfigError("rate needs --symbols >= 1: the 64-QAM reference counts "
                          "symbol errors")
    try:
        qam_scenario = dataclasses.replace(
            scenario, users=(unit_energy_pam(8),) * 2, methods=(sim.ZF, sim.MMSE)
        )
    except ValueError as exc:
        raise ConfigError(f"64-QAM reference: {exc}") from exc
    _make_out_dir(args.out)
    n_workers = _n_workers(args)
    result = sim.run_sweep(scenario, n_workers=n_workers)
    qam = sim.qam_reference_sweep(qam_scenario, n_workers=n_workers)
    print(f"wrote {_write_outputs(args.out, scenario, [result, qam])}")
    return 0


def cmd_csi(args) -> int:
    scenario = build_scenario(args, CSI_KEYS, {"methods": ",".join(sim.CSI_METHODS)})
    if not set(scenario.methods) <= set(sim.CSI_METHODS):
        raise ConfigError(f"csi takes only the methods {','.join(sim.CSI_METHODS)}")
    _make_out_dir(args.out)
    n_workers = _n_workers(args)
    variances = (0.0, 0.001, 0.01)
    results = [sim.run_sweep(dataclasses.replace(scenario, csi_error_var=var),
                             n_workers=n_workers)
               for var in variances]
    print(f"wrote {_write_outputs(args.out, scenario, results, csi_vars=variances)}")
    return 0


def cmd_check(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
    results = checks.run_checks(quick=args.quick, seed=args.seed)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamsim",
        description="Multiuser PAM receive-beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, keys=KEYS):
        p.add_argument("--preset", choices=sorted(PRESETS), help="figure preset")
        p.add_argument("--scenario", help="scenario file ([scenario] key = value)")
        for key, (_, _, help_text) in keys.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
        p.add_argument("--paper-scale", action="store_true",
                       help="use the original 10^4 x 10^3 Monte-Carlo scale; "
                            "the scenario file and flags override it")
        p.add_argument("--threads", type=int,
                       help="worker processes (default: all cores)")
        p.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep", help="SER / analytic-Pe / bound sweep")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rate = sub.add_parser("rate", help="sum-rate sweep incl. 64-QAM reference")
    add_common(p_rate)
    p_rate.set_defaults(func=cmd_rate)

    p_csi = sub.add_parser("csi", help="imperfect-CSI sweep over error variances")
    add_common(p_csi, CSI_KEYS)
    p_csi.set_defaults(func=cmd_csi)

    p_check = sub.add_parser("check", help="run the property suites")
    p_check.add_argument("--quick", action="store_true", help="small instance sizes")
    p_check.add_argument("--seed", type=int, default=12345)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
