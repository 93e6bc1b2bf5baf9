import argparse
import dataclasses
import json
import math
import os
import tempfile
import textwrap
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsim import checks, cli, modem, sim
from support import run_python

SCHEMA = json.loads(
    (Path(sim.__file__).parent / "schemas" / "sweep.schema.json").read_text()
)
ROW_COLUMNS = [f.name for f in dataclasses.fields(sim.SweepRow)]

# a small scenario, so that a file whose refusal fails still runs quickly
SMALL_FILE_LINES = b"users = 2x4pam\nantennas = 3\nrealizations = 2\nsymbols = 10\n"

FAST_ARGS = [
    "--users",
    "2x4pam",
    "--antennas",
    "3",
    "--snr",
    "10:10:20",
    "--realizations",
    "4",
    "--symbols",
    "100",
    "--seed",
    "1",
]


class TestParsing:
    def test_snr_range(self):
        assert cli._parse_snr("0:5:20") == (0.0, 5.0, 10.0, 15.0, 20.0)

    def test_snr_range_stops_at_or_below_stop(self):
        assert cli._parse_snr("0:5:43") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        assert len(cli._parse_snr("0:0.1:0.3")) == 4

    def test_preset_snr_grids(self):
        assert cli._parse_snr(cli.PRESETS["fig4"]["snr"]) == tuple(map(float, range(0, 55, 5)))
        assert cli._parse_snr(cli.PRESETS["fig5"]["snr"]) == tuple(map(float, range(0, 50, 5)))

    def test_snr_list(self):
        assert cli._parse_snr("3,7.5,12") == (3.0, 7.5, 12.0)

    def test_snr_malformed(self):
        for bad in ("0:0:20", "abc", "5:1", "20:5:0"):
            with pytest.raises(cli.ConfigError):
                cli._parse_snr(bad)

    def test_users_spec(self):
        cs = cli._parse_users("4x8pam")
        assert len(cs) == 4
        assert all(c.order == 8 for c in cs)

    def test_users_malformed(self):
        for bad in ("4x8qam", "0x8pam", "8pam", "x8pam"):
            with pytest.raises(cli.ConfigError):
                cli._parse_users(bad)


class TestScenarioBuilding:
    def test_flags_override_defaults(self):
        ns = cli.make_parser().parse_args(
            ["sweep", *FAST_ARGS, "--methods", "ZF,MMSE", "--out", "/tmp/x"]
        )
        s = cli.build_scenario(ns)
        assert s.n_antennas == 3
        assert s.methods == (sim.ZF, sim.MMSE)
        assert s.snr_grid_db == (10.0, 20.0)

    def test_preset_then_flag_override(self):
        ns = cli.make_parser().parse_args(
            ["sweep", "--preset", "fig1", "--realizations", "7", "--out", "/tmp/x"]
        )
        s = cli.build_scenario(ns)
        assert s.n_realizations == 7
        assert s.n_antennas == 4

    def test_scenario_file(self, tmp_path):
        cfg = tmp_path / "scen.ini"
        cfg.write_text(
            "[scenario]\nantennas = 5\nusers = 2x4pam\nsnr = 0:10:20\n"
            "realizations = 3\nsymbols = 50\nseed = 2\nmethods = ZF\n"
        )
        ns = cli.make_parser().parse_args(
            ["sweep", "--scenario", str(cfg), "--out", "/tmp/x"]
        )
        s = cli.build_scenario(ns)
        assert s.n_antennas == 5
        assert s.n_realizations == 3
        assert s.methods == (sim.ZF,)

    def test_unknown_method_is_config_error(self):
        ns = cli.make_parser().parse_args(
            ["sweep", "--methods", "BOGUS", "--out", "/tmp/x"]
        )
        with pytest.raises(cli.ConfigError):
            cli.build_scenario(ns)

    def test_no_source_gives_scenario_defaults(self):
        args = argparse.Namespace(preset=None, scenario=None)
        assert cli.build_scenario(args) == sim.Scenario()
        for fig in ("fig1", "fig2", "fig3"):
            args = argparse.Namespace(preset=fig, scenario=None)
            assert cli.build_scenario(args) == sim.Scenario()

    def test_keys_name_scenario_fields(self):
        fields = {f.name for f in dataclasses.fields(sim.Scenario)}
        assert {field for field, _, _ in cli.KEYS.values()} == fields

    def test_scenario_file_with_byte_order_mark(self, tmp_path):
        text = b"[scenario]\nusers = 2x4pam\n"
        built = []
        for name, content in (("plain.ini", text), ("bom.ini", b"\xef\xbb\xbf" + text)):
            path = tmp_path / name
            path.write_bytes(content)
            built.append(cli.build_scenario(argparse.Namespace(preset=None, scenario=str(path))))
        assert built[0] == built[1]
        assert built[0].users == cli._parse_users("2x4pam")

    @pytest.mark.parametrize("command", ["sweep", "rate", "csi"])
    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_every_preset_builds_at_paper_scale(self, command, preset):
        ns = cli.make_parser().parse_args(
            [command, "--preset", preset, "--paper-scale", "--out", "/tmp/x"]
        )
        keys = cli.CSI_KEYS if command == "csi" else cli.KEYS
        assert cli.build_scenario(ns, keys).n_realizations == 10_000

    def test_paper_scale_flag(self):
        ns = cli.make_parser().parse_args(
            ["sweep", "--paper-scale", "--out", "/tmp/x"]
        )
        s = cli.build_scenario(ns)
        assert s.n_realizations == 10_000
        assert s.n_symbols == 1000

    def test_flags_override_paper_scale(self):
        ns = cli.make_parser().parse_args(
            ["sweep", "--preset", "fig1", "--paper-scale", "--realizations", "5",
             "--symbols", "0", "--out", "/tmp/x"]
        )
        s = cli.build_scenario(ns)
        assert (s.n_realizations, s.n_symbols) == (5, 0)

    def test_scenario_file_overrides_paper_scale(self, tmp_path):
        cfg = tmp_path / "scen.ini"
        cfg.write_text("[scenario]\nrealizations = 7\n")
        ns = cli.make_parser().parse_args(
            ["sweep", "--paper-scale", "--scenario", str(cfg), "--out", "/tmp/x"]
        )
        s = cli.build_scenario(ns)
        assert (s.n_realizations, s.n_symbols) == (7, 1000)


class TestCommands:
    def test_sweep_writes_outputs(self, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(
            ["sweep", *FAST_ARGS, "--methods", "ZF,MMSE", "--out", str(out)]
        )
        assert rc == 0
        csv_text = (out / "sweep.csv").read_text()
        assert csv_text.splitlines()[0].split(",") == ROW_COLUMNS
        doc = json.loads((out / "sweep.json").read_text())
        jsonschema.validate(doc, SCHEMA)
        assert len(doc["rows"]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        assert len(manifest["scenario_digest"]) == 64

    def test_sweep_deterministic_across_runs(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["sweep", *FAST_ARGS, "--methods", "ZF", "--out", str(out)])
            texts.append((out / "sweep.csv").read_text())
        assert texts[0] == texts[1]

    def test_rate_includes_qam_reference(self, tmp_path):
        out = tmp_path / "rate"
        rc = cli.main(["rate", *FAST_ARGS, "--methods", "ZF", "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "sweep.json").read_text())
        jsonschema.validate(doc, SCHEMA)
        methods = {r["method"] for r in doc["rows"]}
        assert "ZF-QAM" in methods

    def test_csi_emits_variance_column(self, tmp_path, monkeypatch):
        out = tmp_path / "csi"
        rc = cli.main(
            ["csi", *FAST_ARGS, "--methods", "ZF,MMSE", "--symbols", "0", "--out", str(out)]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "csi_var," + ",".join(ROW_COLUMNS)
        variances = {line.split(",")[0] for line in lines[1:]}
        assert variances == {"0", "0.001", "0.01"}
        ns = cli.make_parser().parse_args(
            ["csi", *FAST_ARGS, "--methods", "ZF,MMSE", "--symbols", "0", "--out", str(out)]
        )
        scenario = cli.build_scenario(ns)
        expected = []
        for var in (0.0, 0.001, 0.01):
            rows = sim.run_sweep(dataclasses.replace(scenario, csi_error_var=var)).rows
            # the row format of the CSV, written out field by field as the reference
            expected += [
                f"{var:.17g},{r.method},{r.snr_db:.17g},{r.ser:.17g},{r.ser_ci:.17g},"
                f"{r.pe_analytic:.17g},{r.pe_bound:.17g},{r.sum_rate:.17g},"
                f"{r.infeasible_frac:.17g}"
                for r in rows
            ]
        assert lines[1:] == expected
        doc = json.loads((out / "sweep.json").read_text())
        jsonschema.validate(doc, SCHEMA)
        assert all(list(row) == [*ROW_COLUMNS, "csi_var"] for row in doc["rows"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 1
        # the manifest does not depend on where the run starts
        monkeypatch.chdir(tmp_path)
        cli.main(["csi", *FAST_ARGS, "--methods", "ZF,MMSE", "--symbols", "0", "--out", "rel"])
        relative = json.loads((tmp_path / "rel" / "manifest.json").read_text())
        assert relative.keys() == manifest.keys()
        assert all(relative[key] == manifest[key] for key in manifest if key != "created_unix")

    def test_check_quick(self, capsys):
        rc = cli.main(["check", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("flags, seed", [([], 12345), (["--seed", "0"], 0),
                                             (["--seed", "7"], 7)])
    def test_check_seed(self, monkeypatch, capsys, flags, seed):
        seen = []

        def fake_run_checks(quick, seed):
            seen.append(seed)
            return [("fake", True, "")]

        monkeypatch.setattr(checks, "run_checks", fake_run_checks)
        assert cli.main(["check", "--quick", *flags]) == 0
        assert seen == [seed]

    def test_python_dash_m_entry_point(self):
        proc = run_python("-m", "beamsim", "check", "--quick")
        assert proc.returncode == 0, proc.stderr
        assert "checks passed" in proc.stdout

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--snr", "bogus", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_threads_flag_wins(self, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        parse = cli.make_parser().parse_args
        assert cli._n_workers(parse(["sweep", *FAST_ARGS, "--out", "/tmp/x"])) == 8
        ns = parse(["sweep", "--threads", "2", *FAST_ARGS, "--out", "/tmp/x"])
        assert cli._n_workers(ns) == 2


class TestOutputFormat:
    def test_schema_requires_the_dataclass_fields(self):
        props = SCHEMA["properties"]
        assert props["rows"]["items"]["required"] == ROW_COLUMNS
        assert props["scenario"]["required"] == [
            f.name for f in dataclasses.fields(sim.Scenario)
        ]
        assert props["scenario"]["properties"]["users"]["items"]["required"] == [
            f.name for f in dataclasses.fields(modem.Constellation)
        ]

    @pytest.mark.parametrize("scenario, digest", [
        (sim.Scenario(), "90040d8d5c389e2149eb85d0b5ff5565a8c533c23c6891b2148d9e842d510238"),
        (sim.Scenario(n_antennas=3, users=(modem.unit_energy_pam(4),) * 2,
                      snr_grid_db=(10.0, 20.0), n_realizations=8, n_symbols=200,
                      csi_error_var=0.001, methods=(sim.ZF, sim.MMSE, sim.SMINR), seed=123),
         "20ba73c4b438d540190fd078a1a3d3948eb4a77a17770cddfd1089a0fae1bd36"),
    ], ids=["default", "small"])
    def test_scenario_digest_is_pinned(self, tmp_path, scenario, digest):
        # a change to the scenario text of sweep.json changes every digest
        cli._write_outputs(tmp_path, scenario, [])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario_digest"] == digest

    def test_schema_bounds_are_the_scenario_caps(self):
        props = SCHEMA["properties"]["scenario"]["properties"]
        assert props["csi_error_var"]["maximum"] == sim.MAX_CSI_ERROR_VAR
        assert props["snr_grid_db"]["items"]["maximum"] == sim.MAX_ABS_SNR_DB
        assert props["seed"]["minimum"] == 0


class TestRefusals:
    @pytest.mark.parametrize("flags, env", [
        (["--realizations", "0"], {}),
        (["--realizations", "-3"], {}),
        (["--symbols", "-5"], {}),
        (["--antennas", "0"], {}),
        (["--snr", "nan"], {}),
        (["--snr", "0,inf"], {}),
        (["--snr", "0:1e-12:1"], {}),
        (["--snr", "0:1:inf"], {}),
        (["--seed", "-1"], {}),
        (["--users", "9x8pam"], {}),
        (["--users", "1x" + "9" * 400 + "pam"], {}),
        (["--snr", ",".join(["0"] * 1001)], {}),
        (["--antennas", "2", "--users", "4x8pam", "--methods", "MMSE,ZF"], {}),
        (["--snr=-7000"], {}),
        (["--snr", "7000"], {}),
        (["--snr", "160"], {}),
        (["--methods", "ZF,ZF"], {}),
        (["--snr", "0,0"], {}),
        (["--csi-var", "1e308"], {}),
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, monkeypatch, flags, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        out = tmp_path / "run"
        rc = cli.main(["sweep", *FAST_ARGS, *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize("content", [
        SMALL_FILE_LINES,
        b"[scenario]\n" + SMALL_FILE_LINES + b"antennas = 4\n",
        b"[scenario]\n" + SMALL_FILE_LINES + b"methods = ZF%\n",
        b"[scenario]\n" + SMALL_FILE_LINES + b"methods = ZF\xff\n",
        b"[scenario]\n" + SMALL_FILE_LINES + b"antenna = 3\n",
        b"[scenario]\n" + SMALL_FILE_LINES + b"snr = " + b",".join([b"0"] * 1001) + b"\n",
    ], ids=["no-section-header", "duplicate-key", "percent", "not-utf8", "unknown-key",
            "1001-snr-points"])
    def test_bad_scenario_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "scen.ini"
        path.write_bytes(content)
        out = tmp_path / "run"
        rc = cli.main(["sweep", "--scenario", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize("command", ["rate", "csi"])
    def test_out_of_range_snr_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch,
                                                      command):
        def fail_run_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(sim, "run_sweep", fail_run_sweep)
        out = tmp_path / command
        rc = cli.main([command, *FAST_ARGS, "--snr=-5000", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (out / "sweep.json").exists()

    def test_csi_refuses_other_methods(self, tmp_path, capsys):
        out = tmp_path / "csi"
        rc = cli.main(["csi", *FAST_ARGS, "--methods", "MPE_FULL", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: csi takes only the methods")
        assert not (out / "sweep.json").exists()

    def test_negative_check_seed_exits_2_before_checking(self, capsys, monkeypatch):
        def fail_run_checks(*args, **kwargs):
            raise AssertionError("run_checks called")

        monkeypatch.setattr(checks, "run_checks", fail_run_checks)
        rc = cli.main(["check", "--quick", "--seed", "-1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_csi_has_no_csi_var_flag(self, tmp_path):
        # csi sweeps its own variances, so a given one would be ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["csi", *FAST_ARGS, "--csi-var", "0.1", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_rate_without_symbols_exits_2_before_sweeping(self, tmp_path, capsys,
                                                         monkeypatch):
        def fail_run_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(sim, "run_sweep", fail_run_sweep)
        out = tmp_path / "rate"
        rc = cli.main(["rate", *FAST_ARGS, "--symbols", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (out / "sweep.json").exists()

    def test_working_set_over_the_cap_exits_2_before_sweeping(self, tmp_path, capsys,
                                                               monkeypatch):
        # by arithmetic, 10^9 symbols on four antennas need about 238 GiB, and
        # 20 users' interferer tuple sets (1.48 GiB) with the result arrays
        # (0.6 GiB) about 2.08 GiB, so the sweep must never start, not even
        # when the cap is broken
        def fail_run_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(sim, "run_sweep", fail_run_sweep)
        for i, args in enumerate([
            ["--symbols", "1000000000"],
            ["--users", "20x2pam", "--antennas", "20", "--methods", "ZF", "--symbols", "0",
             "--snr", "0:1:99", "--realizations", "10000"],
        ]):
            out = tmp_path / f"run{i}"
            rc = cli.main(["sweep", *args, "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error: the run would hold about")
            assert err.count("\n") == 1
            assert not list(out.glob("sweep.*"))

    def test_rate_with_one_antenna_exits_2_before_sweeping(self, tmp_path, capsys,
                                                           monkeypatch):
        # the PAM methods run on one antenna, the 64-QAM ZF reference cannot
        def fail_run_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(sim, "run_sweep", fail_run_sweep)
        out = tmp_path / "rate"
        rc = cli.main(["rate", *FAST_ARGS, "--antennas", "1", "--methods", "MMSE,SMINR",
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: 64-QAM reference: ZF needs n_antennas")
        assert not (out / "sweep.json").exists()

    @pytest.mark.parametrize("command, flags", [
        # a 10^8-PAM user would hold about 12 GiB with 100 symbols
        *[(command, ["--users", "1x100000000pam", "--methods", "ZF"])
          for command in ("sweep", "rate", "csi")],
        ("rate", ["--csi-var", "1e308"]),
    ], ids=["sweep-pam-order", "rate-pam-order", "csi-pam-order", "rate-csi-var"])
    def test_over_cap_input_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch,
                                                    command, flags):
        def fail_run_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(sim, "run_sweep", fail_run_sweep)
        out = tmp_path / command
        rc = cli.main([command, *FAST_ARGS, *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "rate", "csi"])
    def test_unwritable_out_exits_2_before_sweeping(self, tmp_path, capsys, monkeypatch,
                                                    command):
        def fail_run_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called")

        monkeypatch.setattr(sim, "run_sweep", fail_run_sweep)
        (tmp_path / "file").write_text("")
        rc = cli.main([command, *FAST_ARGS, "--out", str(tmp_path / "file" / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cannot write to the output directory")
        assert err.count("\n") == 1


NUMBER_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "1", "5", "40", "1e-300", "1e308", "inf", "nan", "1e999"]),
    st.floats().map(repr),
    st.integers(-50, 50).map(str),
)
SNR_TEXT = st.one_of(
    st.text(max_size=24),
    st.lists(NUMBER_TEXT, max_size=6).map(",".join),
    st.lists(NUMBER_TEXT, min_size=3, max_size=3).map(":".join),
)
USERS_TEXT = st.one_of(
    st.text(max_size=16),
    st.tuples(st.integers(-2, 10**12), st.integers(-2, 10**7),
              st.sampled_from(["pam", "PAM", "qam", ""])).map(lambda t: "{}x{}{}".format(*t)),
)


class TestSpecProperties:
    """Every generated spec text gives a Scenario or a ConfigError."""

    @staticmethod
    def _build(snr, users):
        args = argparse.Namespace(preset=None, scenario=None, snr=snr, users=users)
        try:
            assert isinstance(cli.build_scenario(args), sim.Scenario)
        except cli.ConfigError:
            pass

    @settings(max_examples=200, deadline=None, database=None)
    @given(snr=SNR_TEXT)
    def test_snr_spec(self, snr):
        self._build(snr, "2x4pam")

    @settings(max_examples=200, deadline=None, database=None)
    @given(spec=st.lists(NUMBER_TEXT, min_size=3, max_size=3))
    def test_snr_range_ends_by_stop(self, spec):
        try:
            grid = cli._parse_snr(":".join(spec))
        except cli.ConfigError:
            return
        start, step, stop = map(float, spec)
        # the tolerance plus the rounding of (stop - start) / step and of each point
        slack = cli.SNR_RANGE_TOL * step + 4 * math.ulp(max(abs(start), abs(stop)))
        assert all(p <= stop + slack for p in grid)

    @settings(max_examples=200, deadline=None, database=None)
    @given(users=USERS_TEXT)
    def test_users_spec(self, users):
        self._build("0:10:20", users)


KEY_TEXT = st.one_of(
    st.sampled_from(sorted(cli.KEYS)),
    st.sampled_from(["antenna", "csi-var", "SNR", "snr_db", ""]),
    st.text(max_size=8),
)
VALUE_TEXT = st.one_of(
    NUMBER_TEXT, SNR_TEXT, USERS_TEXT,
    st.sampled_from(["ZF", "zf, mmse", "MPE_FULL,SMINR", "ZF,", "2x4pam"]),
)
SCENARIO_TEXT = st.lists(
    st.tuples(KEY_TEXT, st.sampled_from([" = ", ":", "="]), VALUE_TEXT).map("".join),
    max_size=8,
).map(lambda lines: "\n".join(["[scenario]", *lines]) + "\n")


class TestScenarioFileProperties:
    """Every generated scenario file gives a Scenario or a ConfigError."""

    @staticmethod
    def _build(content: bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scen.ini")
            with open(path, "wb") as fh:
                fh.write(content)
            args = argparse.Namespace(preset=None, scenario=path)
            try:
                assert isinstance(cli.build_scenario(args), sim.Scenario)
            except cli.ConfigError:
                pass

    @settings(max_examples=200, deadline=None, database=None)
    @given(content=st.one_of(st.binary(max_size=64),
                             st.binary(max_size=64).map(lambda b: b"[scenario]\n" + b)))
    def test_raw_bytes(self, content):
        self._build(content)

    @settings(max_examples=300, deadline=None, database=None)
    @given(text=SCENARIO_TEXT)
    def test_scenario_lines(self, text):
        self._build(text.encode())


class TestSolverImport:
    """scipy.optimize loads only in runs that solve a convex program. Each
    test runs a fresh interpreter, because this one has loaded it already."""

    @staticmethod
    def _run(code: str, tmp_path) -> list:
        """The words of the last line that ``code`` prints."""
        proc = run_python("-c", textwrap.dedent(code), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1].split()

    def test_importing_the_cli_loads_no_solver(self, tmp_path):
        # perfbench's tracer reads beamsim.convex and beamsim.checks from
        # sys.modules right after importing beamsim.cli
        assert self._run("""
            import sys
            import beamsim.cli
            print(*(name in sys.modules
                    for name in ("scipy.optimize", "beamsim.convex", "beamsim.checks")))
        """, tmp_path) == ["False", "True", "True"]

    def test_csi_run_loads_no_solver(self, tmp_path):
        assert self._run(f"""
            import sys
            from beamsim import cli
            rc = cli.main(["csi", *{FAST_ARGS!r}, "--threads", "1", "--out", "run"])
            print(rc, "scipy.optimize" in sys.modules)
        """, tmp_path) == ["0", "False"]

    def test_solving_run_loads_the_solver_before_its_first_draw(self, tmp_path):
        assert self._run(f"""
            import sys
            from beamsim import channel, cli
            sample_channel, loaded = channel.sample_channel, []

            def spy(*args, **kwargs):
                loaded.append("scipy.optimize" in sys.modules)
                return sample_channel(*args, **kwargs)

            channel.sample_channel = spy
            rc = cli.main(["sweep", *{FAST_ARGS!r}, "--methods", "MPE_FULL",
                           "--realizations", "1", "--threads", "1", "--out", "run"])
            print(rc, loaded[0])
        """, tmp_path) == ["0", "True"]
