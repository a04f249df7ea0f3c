from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spintangle
from spintangle import __version__, cli, qec
from spintangle.cli import build_parser, main
from spintangle.datasets import load_register, register_file
from spintangle.designer import DesignConstraints
from spintangle.entanglement import entangling_power, makhlin_g1, makhlin_g2
from spintangle.spin_model import build_sequence, unit_propagator

NV27 = register_file("nv27").read_bytes()
EMPTY = "label,A_kHz,B_kHz\n"
BAD_ROW = "label,A_kHz,B_kHz\nC1,1,2\nC2,x,4\n"
SMALL = """\
# larmor_kHz=432
# s0=0
# s1=-1
label,A_kHz,B_kHz
C5,-11.346,59.21
C12,20.569,41.51
"""


# one argv per subcommand that reaches the work when no flag is at fault
REACHES_WORK = {
    "resonances": ["resonances", "--register", "nv27"],
    "design": ["design", "--register", "nv27", "--anchor", "C23", "--k", "3"],
    "qec": ["qec", "--register", "nv27"],
    "sweep": ["sweep", "--register", "nv27", "--spin", "C5"],
}
# 401 digits: past the float range, and the int64 range every integer is read in
HUGE_K = int("9" * 401)
INT64 = 2 ** 63
SPECIAL = ["nan", "inf", "-inf", "0", "-0.0", "5e-324", "-5e-324", "2.2e-308",
           "1e308", "-1e308"]
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr))
WORDS = st.text(string.ascii_letters + string.digits + "-_. ", max_size=6)
ALL = tuple(REACHES_WORK)
# the shared flags: which subcommands take each, spelled how, the values
# drawn, and what a rejection names ({value!r}: the value itself)
SHARED_FLAGS = {
    "register": ({c: "--register" for c in ALL}, st.sampled_from(SPECIAL),
                 "{value!r}"),
    "larmor-khz": ({c: "--larmor-khz" for c in ALL}, FLOATS,
                   "larmor_kHz from the caller"),
    "s0": ({c: "--s0" for c in ALL}, FLOATS, "s0 from the caller"),
    "s1": ({c: "--s1" for c in ALL}, FLOATS, "s1 from the caller"),
    "k": ({c: "--k" for c in ("design", "qec", "sweep")},
          st.one_of(st.sampled_from([0, -1, 1, 10 ** 308, -10 ** 308]),
                    st.integers()), "--k"),
    "sequence": ({c: "--sequence" for c in ("design", "sweep")},
                 st.one_of(st.sampled_from(SPECIAL + [
                     "cpmg", "UDD4", "udd0", "udd-1", "udd3.5", "custom", ""]),
                     WORDS), "--sequence"),
    "label": ({"design": "--anchor", "qec": "--anchor", "sweep": "--spin"},
              st.one_of(st.sampled_from(["C23", "C5", "c5", "XX", "", "nan"]),
                        WORDS), "{flag}"),
}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run_cli(argv, env_extra, code=None):
    """Run the CLI (or code) in a fresh interpreter with extra environment."""
    src = str(Path(spintangle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]), **env_extra)
    cmd = ["-c", code] if code else ["-m", "spintangle.cli", *argv]
    return subprocess.run([sys.executable, *cmd], env=env, capture_output=True,
                          text=True, timeout=120)


def _subparser(command):
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


class TestResonances:
    def test_table_and_ordering(self, capsys):
        code = main(["resonances", "--register", "nv27", "--k-min", "1",
                     "--k-max", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["label", "k", "t_us"]
        labels = [l.split()[0] for l in lines[1:]]
        assert labels == sorted(labels)
        assert len(lines) == 1 + 27 * 2

    def test_known_value(self, capsys):
        main(["resonances", "--register", "nv27", "--k-min", "3",
              "--k-max", "3"])
        out = capsys.readouterr().out
        row = [l for l in out.splitlines() if l.startswith("C5 ")][0]
        assert float(row.split()[2]) == pytest.approx(11.373, abs=1e-3)

    def test_empty_register_succeeds(self, tmp_path, capsys):
        path = _write(tmp_path, "empty.csv", EMPTY)
        code = main(["resonances", "--register", path,
                     "--larmor-khz", "432", "--s0", "0", "--s1", "-1"])
        assert code == 0
        assert capsys.readouterr().out.strip().splitlines()[0].startswith("label")

    def test_malformed_row_exits_one(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.csv", BAD_ROW)
        code = main(["resonances", "--register", path,
                     "--larmor-khz", "432", "--s0", "0", "--s1", "-1"])
        assert code == 1
        assert ":3:" in capsys.readouterr().err

    def test_unknown_register_exits_one(self, capsys):
        assert main(["resonances", "--register", "nope"]) == 1
        assert "error:" in capsys.readouterr().err


class TestOutputs:
    def test_csv_json_agree_and_are_reproducible(self, tmp_path, capsys):
        csv1 = str(tmp_path / "a.csv")
        js1 = str(tmp_path / "a.json")
        args = ["resonances", "--register", "nv27", "--k-max", "2",
                "--csv", csv1, "--json", js1]

        def timeless(path):
            """The file's lines, less the two stage wall times."""
            lines = open(path, "rb").read().splitlines()
            kept = [l for l in lines if not l.startswith(b"# wall_")]
            assert len(kept) == len(lines) - 2
            return kept

        assert main(args) == 0
        a = timeless(csv1)
        assert main(args) == 0
        assert timeless(csv1) == a
        payload = json.loads(open(js1).read())
        assert payload["provenance"]["version"] == __version__
        assert "constants" in payload["provenance"]
        rows = [l for l in open(csv1).read().splitlines()
                if not l.startswith("#")]
        header = rows[0].split(",")
        assert header == ["label", "k", "t_us"]
        for csv_row, rec in zip(rows[1:], payload["records"]):
            parts = csv_row.split(",")
            assert parts[0] == rec["label"]
            assert float(parts[2]) == pytest.approx(rec["t_us"], rel=1e-14)
        capsys.readouterr()

    def test_provenance_header_lines(self, tmp_path, capsys):
        out = str(tmp_path / "p.csv")
        main(["resonances", "--register", "nv27", "--k-max", "1",
              "--csv", out])
        capsys.readouterr()
        header = [l for l in open(out).read().splitlines()
                  if l.startswith("#")]
        keys = {l.split("=", 1)[0].lstrip("# ") for l in header}
        assert {"version", "flags", "seed", "constants"} <= keys

    def test_provenance_versions_and_register_hash(self, tmp_path, capsys):
        path = _write(tmp_path, "small.csv", SMALL)
        out, js = str(tmp_path / "p.csv"), str(tmp_path / "p.json")
        args = ["resonances", "--register", path, "--k-max", "1"]
        assert main(args) == 0
        table = capsys.readouterr().out
        assert main(args + ["--csv", out, "--json", js]) == 0
        assert capsys.readouterr().out == table
        header = dict(l[2:].split("=", 1) for l in open(out).read().splitlines()
                      if l.startswith("#"))
        prov = json.loads(open(js).read())["provenance"]
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert prov["register_sha256"] == header["register_sha256"] == digest
        assert prov["numpy"] == header["numpy"] == np.__version__
        assert prov["python"] == header["python"] == platform.python_version()

    @pytest.mark.parametrize("command", ALL)
    def test_provenance_records_stage_wall_times(self, command, tmp_path, capsys):
        out, js = str(tmp_path / "p.csv"), str(tmp_path / "p.json")
        argv = REACHES_WORK[command]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert main(argv + ["--csv", out, "--json", js]) == 0
        assert capsys.readouterr().out == table
        header = dict(l[2:].split("=", 1) for l in open(out).read().splitlines()
                      if l.startswith("#"))
        prov = json.loads(open(js).read())["provenance"]
        for key in ("wall_register_s", "wall_command_s"):
            assert float(header[key]) >= 0.0
            assert type(prov[key]) is float and prov[key] >= 0.0

    def test_import_loads_no_scipy(self):
        code = ("import sys, spintangle, spintangle.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m == 'spintangle.oracle'))")
        done = _run_cli(None, {}, code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestParserReuse:
    """main reuses one parser: a failed call leaves nothing for the next."""

    @pytest.mark.parametrize("command", ALL)
    def test_good_call_unchanged_after_failed_calls(self, command, tmp_path, capsys):
        out, js = str(tmp_path / "p.csv"), str(tmp_path / "p.json")
        argv = REACHES_WORK[command] + ["--csv", out, "--json", js]

        def run():
            assert main(argv) == 0
            lines = open(out).read().splitlines()
            payload = json.loads(open(js).read())
            for key in ("wall_register_s", "wall_command_s"):
                del payload["provenance"][key]
            return (capsys.readouterr().out,
                    [l for l in lines if not l.startswith("# wall_")], payload)

        first = run()
        with pytest.raises(SystemExit) as exc:  # argparse rejects it
            main(REACHES_WORK[command] + ["--no-such-flag"])
        assert exc.value.code == 2
        assert main(REACHES_WORK[command] + ["--register", "nope"]) == 1
        capsys.readouterr()
        assert run() == first

    def test_subparsers_survive_main(self, capsys):
        assert main(REACHES_WORK["resonances"]) == 0
        with pytest.raises(SystemExit):
            main(["design", "--register", "nv27"])
        capsys.readouterr()
        assert build_parser() is build_parser()
        for command in ALL:
            assert _subparser(command).prog.endswith(command)


class TestDesign:
    def test_no_design_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "small.csv", SMALL)
        code = main(["design", "--register", path, "--anchor", "C5",
                     "--k", "1", "--max-gate-time", "1e-9"])
        assert code == 0
        assert "no design" in capsys.readouterr().out

    def test_design_found(self, capsys):
        code = main(["design", "--register", "nv27", "--anchor", "C23",
                     "--k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "C4;C5;C15" in out

    def test_unknown_anchor_exits_one(self, capsys):
        assert main(["design", "--register", "nv27", "--anchor", "C99",
                     "--k", "1"]) == 1
        capsys.readouterr()

    def test_register_with_many_weak_bystanders(self, tmp_path, capsys):
        # nv27 plus 20 weakly coupled spins: 44 bystanders in all
        nv27 = (Path(spintangle.__file__).parent / "data" / "nv27.csv").read_text()
        weak = [f"W{i + 1},{a:.4f},{b:.4f}" for i, (a, b) in enumerate(zip(
            np.linspace(-3.0, 3.0, 20), np.linspace(0.5, 3.0, 20)))]
        path = _write(tmp_path, "nv47.csv", nv27.rstrip("\n") + "\n"
                      + "\n".join(weak) + "\n")
        out = str(tmp_path / "d.json")
        assert main(["design", "--register", path, "--anchor", "C23",
                     "--k", "3", "--json", out]) == 0
        capsys.readouterr()
        rec = json.loads(open(out).read())["records"][0]
        assert rec["targets"] == "C4;C5;C15"
        assert rec["iterations"] == 51
        assert 0.0 < rec["gate_error"] < 1.0

    def test_constraint_flags_default_to_design_constraints(self):
        parser = _subparser("design")
        defaults = {name: parser.get_default(name.lower())
                    for name in dataclasses.asdict(DesignConstraints())}
        assert defaults == dataclasses.asdict(DesignConstraints())


class TestQec:
    def test_single_run(self, capsys):
        code = main(["qec", "--register", "nv27", "--ideal",
                     "--error", "electron"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovery_probability" in out

    def test_designed_gates_in_provenance(self, tmp_path, capsys):
        out = str(tmp_path / "q.json")
        code = main(["qec", "--register", "nv27", "--anchor", "C23", "--k", "3",
                     "--json", out])
        assert code == 0
        capsys.readouterr()
        prov = json.loads(open(out).read())["provenance"]
        assert prov["design_targets"] == "C4;C5;C15"
        assert prov["design_targets_used"] == "C4;C5"
        assert prov["design_iterations"] == 51
        assert prov["design_unit_time_us"] == pytest.approx(11.4043455479,
                                                            abs=1e-6)
        assert len(prov["register_sha256"]) == 64

    def test_ideal_gates_record_no_design(self, tmp_path, capsys):
        out = str(tmp_path / "q.json")
        assert main(["qec", "--register", "nv27", "--ideal", "--json", out]) == 0
        capsys.readouterr()
        prov = json.loads(open(out).read())["provenance"]
        assert not any(key.startswith("design_") for key in prov)

    def test_ideal_gates_record_register_hash(self, tmp_path, capsys):
        out = str(tmp_path / "q.json")
        assert main(["qec", "--register", "nv27", "--ideal", "--json", out]) == 0
        capsys.readouterr()
        prov = json.loads(open(out).read())["provenance"]
        assert len(prov["register_sha256"]) == 64

    def test_grid_row_count(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        code = main(["qec", "--register", "nv27", "--ideal",
                     "--error", "electron", "--grid", "50", "50",
                     "--threads", "2", "--csv", out])
        assert code == 0
        capsys.readouterr()
        rows = [l for l in open(out).read().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + 2500

    def test_anchor_without_feasible_gate_exits_one(self, capsys):
        assert main(["qec", "--register", "nv27", "--anchor", "C9", "--k", "1"]) == 1
        captured = capsys.readouterr()
        assert "no feasible gate at anchor C9" in captured.err
        assert captured.out == ""

    def test_design_sequence_and_constraints_in_provenance(self, tmp_path, capsys):
        out_json, out_csv = str(tmp_path / "q.json"), str(tmp_path / "q.csv")
        assert main(["qec", "--register", "nv27", "--anchor", "C23", "--k", "3",
                     "--json", out_json, "--csv", out_csv]) == 0
        capsys.readouterr()
        prov = json.loads(open(out_json).read())["provenance"]
        expected = {"design_sequence": "cpmg",
                    **{f"design_{name}": value for name, value
                       in dataclasses.asdict(DesignConstraints()).items()}}
        assert {key: prov[key] for key in expected} == expected
        header = [l for l in open(out_csv).read().splitlines() if l.startswith("#")]
        assert all(f"# {key}={value}" in header for key, value in expected.items())

    def test_choices_come_from_qec(self):
        choices = {a.dest: a.choices for a in _subparser("qec")._actions}
        assert choices["error"] == qec.ERROR_KINDS
        assert choices["scheme"] == qec.SCHEMES


class TestSweep:
    def test_metrics_table(self, capsys):
        code = main(["sweep", "--register", "nv27", "--spin", "C5",
                     "--k", "3", "--n-max", "10", "--metrics", "g1,tangle"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["label", "t_us", "N", "g1", "tangle"]
        assert len(lines) == 1 + 10

    def test_empty_metrics_exits_one(self, capsys):
        assert main(["sweep", "--register", "nv27", "--spin", "C5",
                     "--metrics", ","]) == 1
        assert "empty metrics" in capsys.readouterr().err

    def test_unknown_metric_exits_one(self, capsys):
        assert main(["sweep", "--register", "nv27", "--spin", "C5",
                     "--metrics", "bogus"]) == 1
        assert "unknown metric" in capsys.readouterr().err

    def test_zero_iterations_is_identity_gate(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--register", "nv27", "--spin", "C5", "--k", "3",
                     "--n-min", "0", "--n-max", "3",
                     "--metrics", "g1,g2,ep,m,tangle", "--csv", out])
        assert code == 0
        capsys.readouterr()
        rows = [l.split(",") for l in open(out).read().splitlines()
                if not l.startswith("#")]
        assert rows[0] == ["label", "t_us", "N", "g1", "g2", "ep", "m", "tangle"]
        assert [r[2] for r in rows[1:]] == ["0", "1", "2", "3"]
        assert [float(v) for v in rows[1][3:]] == [1.0, 3.0, 0.0, 1.0, 0.0]

    def test_negative_n_min_exits_one(self, capsys):
        assert main(["sweep", "--register", "nv27", "--spin", "C5",
                     "--n-min", "-1"]) == 1
        assert "--n-min" in capsys.readouterr().err

    def test_t_us_records_match_library(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", "--register", "nv27", "--spin", "C5", "--t-us", "7.3",
                     "--n-max", "5", "--json", out]) == 0
        capsys.readouterr()
        reg = load_register("nv27")
        t = 7.3 * 1e-6  # --t-us in seconds, converted as the CLI does
        rot = unit_propagator(build_sequence("cpmg", t), reg.by_label("C5"),
                              reg.electron())
        expected = [{"label": "C5", "t_us": t * 1e6, "N": n,
                     "g1": makhlin_g1(rot, n), "g2": makhlin_g2(rot, n),
                     "ep": entangling_power(rot, n)} for n in range(1, 6)]
        assert json.loads(open(out).read())["records"] == expected


class TestInputErrors:
    @pytest.fixture
    def no_work(self, monkeypatch):
        """Every subcommand's work fails: a check that is missing fails fast."""
        def fail(*args, **kwargs):
            raise AssertionError("reached the work")

        for name in ("resonance_time", "optimize_register_gate", "error_surface",
                     "unit_propagator"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize("row, field", [("C1,nan,20", "a_khz"), ("C1,10,nan", "b_khz")],
                             ids=["C1,nan,20-A", "C1,10,nan-B"])
    def test_non_finite_coupling_row_named(self, row, field, tmp_path, capsys):
        path = _write(tmp_path, "reg.csv", SMALL.replace("C12,20.569,41.51", row))
        assert main(["resonances", "--register", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:6: {field} must be finite, got nan" in captured.err

    @pytest.mark.parametrize("argv, names", [
        (["design", "--register", "nv27", "--anchor", "XX", "--k", "3"],
         ["--anchor", "XX"]),
        (["qec", "--register", "nv27", "--anchor", "XX"], ["--anchor", "XX"]),
        (["sweep", "--register", "nv27", "--spin", "XX"], ["--spin", "XX"]),
        (["qec", "--register", "nv27", "--ideal", "--anchor", "XX"],
         ["--anchor", "XX"]),
    ], ids=["design-anchor", "qec-anchor", "sweep-spin", "qec-ideal-anchor"])
    def test_unknown_label_names_flag_and_label(self, argv, names, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("argv, flag", [
        (["resonances", "--register", "nv27", "--k-min", "3", "--k-max", "1"],
         "--k-max"),
        (["sweep", "--register", "nv27", "--spin", "C5", "--n-min", "5",
          "--n-max", "2"], "--n-max"),
        (["qec", "--register", "nv27", "--ideal", "--grid", "0", "3"],
         "--grid"),
        (["qec", "--register", "nv27", "--ideal", "--grid", "-1", "3"],
         "--grid"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "0"], "--k"),
        (["qec", "--register", "nv27", "--k", "-3"], "--k"),
        (["qec", "--register", "nv27", "--ideal", "--anchor", "XX", "--k", "-3"],
         "--k"),
        (["sweep", "--register", "nv27", "--spin", "C4", "--k", "0", "--t-us", "3"],
         "--k"),
        (["resonances", "--register", "nv27", "--k-min", "0"], "--k-min"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--sequence", "foo"], "--sequence"),
        (["sweep", "--register", "nv27", "--spin", "C5", "--sequence", "foo"],
         "--sequence"),
        (["sweep", "--register", "nv27", "--spin", "C5", "--sequence", "udd0"],
         "--sequence"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--sequence", "custom"], "--sequence"),
        (["resonances", "--register", "nv27", "--k-min", "2", "--k-max", "1002"],
         "--k-max"),
        (["sweep", "--register", "nv27", "--spin", "C5", "--n-min", "0",
          "--n-max", "1000000"], "--n-max"),
        (["qec", "--register", "nv27", "--ideal", "--grid", "1001", "2"], "--grid"),
        (["qec", "--register", "nv27", "--ideal", "--grid", "2", "1001"], "--grid"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--time-window", "1.0000001e-3"], "time_window"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--n-max", "10001"], "N_max"),
    ], ids=["resonances-k", "sweep-n", "qec-grid-zero", "qec-grid-negative",
            "design-k-zero", "qec-k-negative", "qec-ideal-k-negative",
            "sweep-t-us-k-zero", "resonances-k-min-zero", "design-sequence-foo",
            "sweep-sequence-foo", "sweep-sequence-udd0", "design-sequence-custom",
            "resonances-k-over-cap", "sweep-n-over-cap", "qec-grid-gamma-over-cap",
            "qec-grid-delta-over-cap", "design-time-window-over-cap",
            "design-n-max-over-cap"])
    def test_empty_range_exits_one(self, argv, flag, capsys, no_work):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["resonances", "--register", "nv27", "--k-min", "2", "--k-max", "1001"],
        ["sweep", "--register", "nv27", "--spin", "C5", "--n-min", "0",
         "--n-max", "999999"],
        ["qec", "--register", "nv27", "--ideal", "--grid", "1000", "1000"],
        ["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
         "--time-window", "1e-3", "--n-max", "10000"],
        ["sweep", "--register", "nv27", "--spin", "C5", "--sequence", "udd100"],
    ], ids=["resonances-k", "sweep-n", "qec-grid", "design", "sweep-udd"])
    def test_sizes_at_the_cap_reach_the_work(self, argv, no_work):
        with pytest.raises(AssertionError, match="reached the work"):
            main(argv)

    @pytest.mark.parametrize("argv, field", [
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--max-gate-time", "nan"], "max_gate_time"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--time-window", "inf"], "time_window"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--time-window", "nan"], "time_window"),
        (["sweep", "--register", "nv27", "--spin", "C5", "--t-us", "nan"],
         "--t-us must be finite, got nan"),
        (["qec", "--register", "nv27", "--ideal", "--delta", "inf"], "delta"),
        (["qec", "--register", "nv27", "--ideal", "--gamma", "nan"], "gamma"),
        (["qec", "--register", "nv27", "--ideal", "--larmor-khz", "nan"],
         "larmor_kHz must be finite, got nan"),
        (["resonances", "--register", "nv27", "--s0", "nan"], "s0"),
        (["qec", "--register", "nv27", "--ideal", "--s1", "inf"], "s1"),
    ], ids=["max-gate-time-nan", "time-window-inf", "time-window-nan",
            "t-us-nan", "delta-inf", "gamma-nan", "qec-ideal-larmor-nan",
            "s0-nan", "s1-inf"])
    def test_non_finite_value_exits_one(self, argv, field, capsys):
        assert main(argv) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv, names", [
        (["resonances", "--register", "{bad_larmor}"],
         ["bad.csv:2:", "larmor_kHz metadata line", "larmor_kHz must be > 0, got -5.0"]),
        (["resonances", "--register", "nv27", "--larmor-khz", "nan"],
         ["nv27:", "larmor_kHz from the caller", "got nan"]),
        (["sweep", "--register", "nv27", "--spin", "C5", "--t-us", "-1"],
         ["--t-us", "got -1.0"]),
        (["sweep", "--register", "nv27", "--spin", "C5", "--t-us", "nan"],
         ["--t-us", "got nan"]),
        (["design", "--register", "nv27", "--anchor", "C23", "--k", "3",
          "--sequence", "custom"], ["--sequence", "'custom'", "cpmg", "uddN"]),
        (["sweep", "--register", "nv27", "--spin", "C5", "--sequence", "custom"],
         ["--sequence", "'custom'", "cpmg", "uddN"]),
        (["sweep", "--register", "nv27", "--spin", "C5", "--sequence", "uddx"],
         ["--sequence", "'uddx'", "cpmg", "uddN"]),
        (["resonances", "--register", "{bad_s0}"],
         ["s0.csv:2: s0 metadata line", "got nan"]),
        (["resonances", "--register", "nv27", "--s0", "-1"],
         ["nv27: s0 from the caller", "nv27:3: s1 metadata line", "must differ"]),
        (["qec", "--register", "nv27", "--ideal", "--s1", "0"],
         ["nv27:2: s0 metadata line", "nv27: s1 from the caller", "must differ"]),
        *[(argv + ["--s1=-1e308"],
           ["nv27: s1 from the caller", "overflows the branch frequency of C1"])
          for argv in REACHES_WORK.values()],
        *[(REACHES_WORK[command] + ["--sequence", "udd101"],
           ["--sequence", "UDD order 101 is above the cap 100", "uddN"])
          for command in ("design", "sweep")],
        *[(REACHES_WORK[command] + [f"--k={HUGE_K}"],
           [f"error: --k must be in [1, {INT64}), got {HUGE_K}"])
          for command in ("design", "qec", "sweep")],
        (["resonances", "--register", "nv27", f"--k-min={HUGE_K}", f"--k-max={HUGE_K}"],
         [f"error: --k-min must be in [1, {INT64}), got {HUGE_K}"]),
        # phase_amplitude would get an N past the float range, or an object
        # array of Python ints past the uint64 range
        *[(REACHES_WORK["sweep"] + [f"--n-min={n}", f"--n-max={n}"],
           [f"error: --n-min must be in [0, {INT64}), got {n}"]) for n in (HUGE_K, 2 ** 64)],
        (["design", "--register", "nope", "--anchor", "C1", "--k", "1"],
         ["error: --register: 'nope' is neither a file nor one of nv27"]),
        (["resonances", "--register", "{bad_larmor}"],
         ["error: --register: ", "bad.csv:2: larmor_kHz metadata line"]),
        (["resonances", "--register", "nv27", "--larmor-khz", "1e306"],
         ["error: --larmor-khz: nv27: larmor_kHz from the caller", "overflows in rad/s"]),
        (["sweep", "--register", "nv27", "--spin", "C5", "--s0", "nan"],
         ["error: --s0: nv27: s0 from the caller", "got nan"]),
        (["qec", "--register", "nv27", "--ideal", "--s1=-1e308"],
         ["error: --s1: nv27: s1 from the caller", "overflows the branch frequency"]),
    ], ids=["larmor-metadata", "larmor-flag-nan", "t-us-negative", "t-us-nan-named",
            "design-custom", "sweep-custom", "sweep-uddx", "s0-metadata-nan",
            "s0-flag-equal", "qec-s1-flag-equal",
            *[f"{command}-s1-overflow" for command in REACHES_WORK],
            "design-udd-over-cap", "sweep-udd-over-cap",
            "design-k-overflow", "qec-k-overflow", "sweep-k-overflow",
            "resonances-k-overflow", "sweep-n-past-float", "sweep-n-past-uint64",
            "register-flag-named", "register-metadata-named",
            "larmor-flag-named", "s0-flag-named", "s1-flag-named"])
    def test_bad_input_named_with_nothing_on_stdout(self, argv, names, tmp_path,
                                                     capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# s0=0\n# larmor_kHz=-5\n# s1=-1\nlabel,A_kHz,B_kHz\n"
                       "C1,10,20\n")
        bad_s0 = tmp_path / "s0.csv"
        bad_s0.write_text("# larmor_kHz=432\n# s0=nan\n# s1=-1\nlabel,A_kHz,B_kHz\n"
                          "C1,10,20\n")
        argv = [a.format(bad_larmor=bad, bad_s0=bad_s0) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(name in captured.err for name in names), captured.err

    def test_overflowing_larmor_flag_named(self, capsys):
        argv = ["resonances", "--register", "nv27", "--larmor-khz", "1e308"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nv27: larmor_kHz from the caller: larmor_kHz must be finite" in captured.err

    @pytest.mark.parametrize("bad", ["missing/out", "folder", "file/out"])
    @pytest.mark.parametrize("flag, other", [("--csv", "--json"), ("--json", "--csv")])
    @pytest.mark.parametrize("command", list(REACHES_WORK))
    def test_bad_output_path_fails_first(self, command, flag, other, bad, tmp_path,
                                         capsys, no_work):
        (tmp_path / "folder").mkdir()
        (tmp_path / "file").write_text("")
        good = tmp_path / "good"
        argv = REACHES_WORK[command] + [flag, str(tmp_path / bad), other, str(good)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err and other not in captured.err, captured.err
        assert not good.exists()

    @pytest.mark.parametrize("outputs, flags", [
        (["--csv", "{reg}"], ("--csv", "--register")),
        (["--json", "{reg}"], ("--json", "--register")),
        (["--csv", "{tmp}/sub/../reg.csv"], ("--csv", "--register")),
        (["--json", "{tmp}/link.csv"], ("--json", "--register")),
        (["--csv", "{tmp}/hard.csv"], ("--csv", "--register")),
        (["--csv", "{tmp}/out", "--json", "{tmp}/out"], ("--json", "--csv")),
        (["--csv", "{tmp}/out", "--json", "{tmp}/sub/../out"], ("--json", "--csv")),
        (["--json", "{tmp}/constants.json"], ("--json", "SPINTANGLE_CONSTANTS")),
    ], ids=["csv-register", "json-register", "csv-register-dotdot", "json-symlink",
            "csv-hardlink", "csv-json", "csv-json-dotdot", "json-constants"])
    @pytest.mark.parametrize("command", list(REACHES_WORK))
    def test_output_over_an_input_or_output_fails_first(self, command, outputs, flags,
                                                        tmp_path, capsys, monkeypatch,
                                                        no_work):
        reg = tmp_path / "reg.csv"
        reg.write_bytes(NV27)
        # the default hbar: a constants file that changes no constant
        table = tmp_path / "constants.json"
        table.write_text('{"hbar": 1.0545718e-34}\n')
        monkeypatch.setenv("SPINTANGLE_CONSTANTS", str(table))
        (tmp_path / "sub").mkdir()
        os.symlink(reg, tmp_path / "link.csv")
        os.link(reg, tmp_path / "hard.csv")
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = [str(reg) if a == "nv27" else a for a in REACHES_WORK[command]]
        argv += [a.format(reg=reg, tmp=tmp_path) for a in outputs]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(flag in captured.err for flag in flags), captured.err
        assert reg.read_bytes() == NV27
        assert table.read_text() == '{"hbar": 1.0545718e-34}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_output_over_a_bundled_register_fails_first(self, capsys, no_work):
        bundled = str(register_file("nv27"))
        assert main(REACHES_WORK["sweep"] + ["--csv", bundled]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--csv" in captured.err and "--register" in captured.err, captured.err
        assert Path(bundled).read_bytes() == NV27

    def test_failed_write_prints_no_table(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", fail)
        argv = ["resonances", "--register", "nv27", "--json", str(tmp_path / "r.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "disk full" in captured.err

    @pytest.mark.parametrize("shared", list(SHARED_FLAGS))
    @settings(max_examples=15, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_shared_flag_treated_alike_by_every_subcommand(self, shared, data,
                                                           capsys, no_work):
        spellings, values, name = SHARED_FLAGS[shared]
        value = data.draw(values, label="value")
        outcomes = {}
        for command, flag in spellings.items():
            try:
                code = main(REACHES_WORK[command] + [f"{flag}={value}"])
            except AssertionError as exc:
                assert str(exc) == "reached the work"
                outcomes[command] = "work"
                capsys.readouterr()
                continue
            captured = capsys.readouterr()
            assert (code, captured.out) == (1, ""), (command, captured)
            assert name.format(flag=flag, value=value) in captured.err, captured.err
            outcomes[command] = "rejected"
        assert len(set(outcomes.values())) == 1, outcomes


class TestConstantsFile:
    """SPINTANGLE_CONSTANTS is read by main: a bad file is one input error."""

    @pytest.mark.parametrize("text, key", [
        (None, None),
        ('{"hbar": "abc"}', "hbar"),
        ("[1, 2]", None),
        ('{"planck": 1}', "planck"),
        ('{"hbar": -1, "mu0": NaN}', "hbar"),
        ('{"mu0": NaN}', "mu0"),
        ('{"gamma_e": 0}', "gamma_e"),
        ('{"gamma_n_c13": Infinity}', "gamma_n_c13"),
        ('{"hbar": true}', "hbar"),
        ('{"hbar": 1e-34', None),
    ], ids=["missing", "string", "not-object", "unknown-key", "negative",
            "nan", "zero", "infinite", "bool", "bad-json"])
    def test_bad_file_exits_one_naming_it(self, text, key, tmp_path):
        path = tmp_path / "constants.json"
        if text is not None:
            path.write_text(text)
        done = _run_cli(REACHES_WORK["resonances"],
                        {"SPINTANGLE_CONSTANTS": str(path)})
        assert (done.returncode, done.stdout) == (1, ""), done
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
        assert "SPINTANGLE_CONSTANTS" in lines[0] and str(path) in lines[0]
        if key:
            assert repr(key) in lines[0] or f"{key} must be" in lines[0], lines[0]

    @pytest.mark.parametrize("command", ALL)
    def test_every_subcommand_rejects_a_missing_file(self, command, tmp_path):
        path = tmp_path / "missing.json"
        done = _run_cli(REACHES_WORK[command], {"SPINTANGLE_CONSTANTS": str(path)})
        assert (done.returncode, done.stdout) == (1, ""), done
        assert done.stderr.startswith(f"error: SPINTANGLE_CONSTANTS file '{path}'")

    def test_override_reaches_estimate_position_and_provenance(self, tmp_path):
        from spintangle import constants
        from spintangle.designer import estimate_position

        path, out = tmp_path / "constants.json", tmp_path / "r.json"
        path.write_text(json.dumps({"hbar": 8.0 * constants.HBAR}))
        code = ("import json, sys; from spintangle import cli, constants, designer; "
                f"assert cli.main(['resonances', '--register', 'nv27', '--k-max', '1', "
                f"'--json', {str(out)!r}]) == 0; "
                "print(json.dumps([designer.estimate_position(1e5, 5e4), "
                "constants.constants_hash()]), file=sys.stderr)")
        done = _run_cli(None, {"SPINTANGLE_CONSTANTS": str(path)}, code)
        assert done.returncode == 0, done.stderr
        (r, theta), digest = json.loads(done.stderr)
        r0, theta0 = estimate_position(1e5, 5e4)
        # the dipolar radius goes as the cube root of hbar
        assert r == pytest.approx(2.0 * r0, rel=1e-12) and theta == theta0
        prov = json.loads(out.read_text())["provenance"]
        assert prov["constants"] == digest != constants.constants_hash()
