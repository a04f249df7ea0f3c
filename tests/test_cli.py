from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spintangle
from spintangle import __version__
from spintangle.cli import main

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


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
        assert main(args) == 0
        a = open(csv1, "rb").read()
        assert main(args) == 0
        b = open(csv1, "rb").read()
        assert a == b
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

    def test_import_loads_no_scipy(self):
        src = str(Path(spintangle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, spintangle, spintangle.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


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


class TestInputErrors:
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
    ], ids=["resonances-k", "sweep-n", "qec-grid-zero", "qec-grid-negative",
            "design-k-zero", "qec-k-negative", "qec-ideal-k-negative",
            "sweep-t-us-k-zero"])
    def test_empty_range_exits_one(self, argv, flag, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, field", [
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--max-gate-time", "nan"], "max_gate_time"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--time-window", "inf"], "time_window"),
        (["design", "--register", "nv27", "--anchor", "C5", "--k", "3",
          "--time-window", "nan"], "time_window"),
        (["sweep", "--register", "nv27", "--spin", "C5", "--t-us", "nan"],
         "unit_time"),
        (["qec", "--register", "nv27", "--ideal", "--delta", "inf"], "delta"),
        (["qec", "--register", "nv27", "--ideal", "--gamma", "nan"], "gamma"),
        (["qec", "--register", "nv27", "--ideal", "--larmor-khz", "nan"],
         "omega_L"),
    ], ids=["max-gate-time-nan", "time-window-inf", "time-window-nan",
            "t-us-nan", "delta-inf", "gamma-nan", "qec-ideal-larmor-nan"])
    def test_non_finite_value_exits_one(self, argv, field, capsys):
        assert main(argv) == 1
        assert field in capsys.readouterr().err
