"""cli-cold: fresh-interpreter runs of ``python -m spintangle.cli``.

Op: one CLI invocation, with ``PYTHONPATH=src`` set by ``run.py``.  Each
round holds ``resonances``, ``design``, ``sweep`` with all five metrics,
``qec --grid`` with designed gates and ``--threads`` at most nproc, a
single-point ``qec`` under each scheme, and one rejected input.  The seed
picks the order in a round and the arguments that leave an op's cost the
same (register, spin, k of a sweep, error kind, input state); anchors are
fixed.  Interpreter start and imports are timed per op only here;
``cli-mix`` runs the same ops in-process.  The set-up imports no
spintangle module.

Checks: exit codes; the rejected input must exit 1 (its message is not
checked).  Every other invocation writes CSV or JSON, which is parsed and
compared with the same computation made in-process through the library
(within CLI_RTOL relative plus CLI_ATOL absolute; CSV holds 15 significant
digits).  The in-process references are computed in the check, so this
worker imports spintangle only after the first op.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spans
from common import close_enough

# bundled names and nv27 labels, fixed here so the set-up stays import-free
BUNDLED = ("nv27", "rand-cpmg-k1", "rand-cpmg-k2", "rand-udd3-k1",
           "rand-udd3-k3", "rand-udd4-k1", "rand-udd4-k2")
NV27_LABELS = tuple(f"C{i}" for i in range(1, 28))
ERROR_KINDS = ("none", "electron", "nucleus1", "nucleus2")
SCHEMES = ("sequential", "multispin")
SWEEP_METRICS = ("g1", "g2", "ep", "m", "tangle")
# ROADMAP's cold-start target command is ``qec --grid 50 50``
GRID = 50
SWEEP_N_MAX = 300
# runs stop after whole cycles of ROUNDS rounds: with single rounds, a
# run's op count would flip between two round counts from one run to the
# next, and the percentiles of this uneven op mix would jump with it.
ROUND_OPS = 7
ROUNDS = 9
CYCLES = 8
# the designer search inside ``design`` and ``qec`` costs 0.1 s to 0.5 s
# depending on the anchor, so the anchors are fixed and every seed does the
# same searches (the designs of wl_qec_surface.DESIGNS)
DESIGN_ANCHOR = ("C23", 3)
QEC_GRID_ANCHOR = ("C13", 4)
# the two schemes differ in cost, and the grids are few enough that a mix
# of both would put a percentile on the step between them
QEC_GRID_SCHEME = "sequential"
QEC_POINT_ANCHOR = ("C4", 3)
THREADS = min(2, os.cpu_count() or 1)
CLI_RTOL = 1e-12
CLI_ATOL = 1e-12
TRACED_CLI = Path(__file__).resolve().parent / "tracedcli.py"


class Workload:
    rss_scope = "children"  # the CLI processes, not this worker
    cycle = ROUND_OPS * ROUNDS
    grid = GRID

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.root = Path.cwd()
        workdir.mkdir(parents=True, exist_ok=True)
        self.outdir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.span_dir = None
        self.span_files = []
        self._refs = {}
        self._names = itertools.count()
        self.ops = []
        # the grid's error kind is drawn once: each distinct grid costs the
        # check a full in-process surface
        grid_error = rng.choice(ERROR_KINDS)
        for _ in range(CYCLES * ROUNDS):
            batch = [self._resonances(rng), self._design(), self._sweep(rng),
                     self._qec_grid(grid_error),
                     self._qec_point(rng, SCHEMES[0]),
                     self._qec_point(rng, SCHEMES[1]),
                     ("reject", ("design", "--register", "nv27", "--anchor",
                                 "NOPE", "--k", "3"), None, 1)]
            rng.shuffle(batch)
            self.ops.extend(batch)

    # -- op generation -----------------------------------------------------

    def _out(self, ext: str) -> str:
        return str(self.outdir / f"op{next(self._names)}-{ext}")

    def _resonances(self, rng):
        reg = rng.choice(BUNDLED)
        k_max = rng.choice((3, 4, 5))
        out = self._out("res.csv")
        return ("resonances", ("resonances", "--register", reg, "--k-min", "1",
                               "--k-max", str(k_max), "--csv", out), out, 0)

    def _design(self):
        anchor, k = DESIGN_ANCHOR
        out = self._out("design.json")
        return ("design", ("design", "--register", "nv27", "--anchor", anchor,
                           "--k", str(k), "--json", out), out, 0)

    def _sweep(self, rng):
        spin, k = rng.choice(NV27_LABELS), rng.choice((1, 2, 3))
        out = self._out("sweep.csv")
        return ("sweep", ("sweep", "--register", "nv27", "--spin", spin,
                          "--k", str(k), "--n-max", str(SWEEP_N_MAX),
                          "--metrics", ",".join(SWEEP_METRICS),
                          "--threads", str(THREADS), "--csv", out), out, 0)

    def _qec_grid(self, error: str):
        anchor, k = QEC_GRID_ANCHOR
        scheme = QEC_GRID_SCHEME
        out = self._out("grid.csv")
        return ("qec-grid", ("qec", "--register", "nv27", "--anchor", anchor,
                             "--k", str(k), "--scheme", scheme,
                             "--error", error,
                             "--grid", str(self.grid), str(self.grid),
                             "--threads", str(THREADS), "--csv", out), out, 0)

    def _qec_point(self, rng, scheme: str):
        anchor, k = QEC_POINT_ANCHOR
        gamma, delta = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        out = self._out("point.json")
        return ("qec-point", ("qec", "--register", "nv27", "--anchor", anchor,
                              "--k", str(k), "--scheme", scheme,
                              "--error", rng.choice(ERROR_KINDS),
                              "--gamma", repr(gamma), "--delta", repr(delta),
                              "--json", out), out, 0)

    # -- running -----------------------------------------------------------

    def trace_to(self, tracer) -> None:
        self.span_dir = self.outdir / "spans"
        self.span_dir.mkdir(exist_ok=True)

    def run(self, op):
        _, argv, _, _ = op
        if self.span_dir is None:
            cmd = [sys.executable, "-m", "spintangle.cli", *argv]
        else:
            path = self.span_dir / f"run{len(self.span_files)}.jsonl"
            self.span_files.append(path)
            cmd = [sys.executable, str(TRACED_CLI), str(path), *argv]
        proc = subprocess.run(cmd, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        return proc.returncode, proc.stderr[-300:]

    def span_sets(self, tracer) -> list:
        return [spans.read_spans(p) for p in self.span_files]

    def close(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    # -- checking ----------------------------------------------------------

    def check(self, op, out):
        kind, argv, path, want_rc = op
        rc, stderr = out
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}: {stderr.strip()}"
        if want_rc != 0:
            return None
        if path.endswith(".json"):
            with open(path) as fh:
                got = json.load(fh)["records"]
        else:
            with open(path, newline="") as fh:
                got = list(csv.DictReader(l for l in fh if not l.startswith("#")))
        opts = flags(argv)
        key = (kind,) + tuple(sorted((k, v) for k, v in opts.items()
                                     if k not in ("--csv", "--json")))
        if key not in self._refs:
            self._refs[key] = reference(kind, opts)
        want = self._refs[key]
        if len(got) != len(want):
            return f"{len(got)} records, expected {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            for key, value in w.items():
                if key not in g:
                    return f"record {i}: missing {key}"
                if isinstance(value, str):
                    ok = str(g[key]) == value
                elif isinstance(value, tuple):
                    parts = str(g[key]).split(";")
                    ok = len(parts) == len(value) and all(
                        close_enough(float(p), v, CLI_RTOL, CLI_ATOL)
                        for p, v in zip(parts, value))
                else:
                    ok = close_enough(float(g[key]), float(value), CLI_RTOL, CLI_ATOL)
                if not ok:
                    return f"record {i} {key}: {g[key]!r} vs in-process {value!r}"
        return None


def flags(argv) -> dict:
    """Map each ``--flag`` of a CLI argv to the value after it."""
    return {tok: argv[i + 1] for i, tok in enumerate(argv[:-1])
            if tok.startswith("--")}


@functools.lru_cache(maxsize=None)
def _designed_gates(register: str, anchor: str, k: int) -> tuple:
    from wl_qec_surface import designed_gates
    import spintangle.datasets as datasets

    reg = datasets.load_register(register)
    return designed_gates(reg, reg.electron(), anchor, k)


def reference(kind: str, opts: dict) -> list[dict]:
    """The records an invocation should write, computed through the library."""
    import numpy as np

    import spintangle.datasets as datasets
    import spintangle.designer as designer
    import spintangle.entanglement as entanglement
    import spintangle.qec as qec
    import spintangle.spin_model as spin_model

    reg = datasets.load_register(opts["--register"])
    el = reg.electron()
    if kind == "resonances":
        return [{"label": s.label, "k": k,
                 "t_us": spin_model.resonance_time(s, el, k) * 1e6}
                for s in sorted(reg.spins, key=lambda s: s.label)
                for k in range(int(opts["--k-min"]), int(opts["--k-max"]) + 1)]
    if kind == "design":
        anchor, k = opts["--anchor"], int(opts["--k"])
        d = designer.optimize_register_gate(
            reg.spins, el, designer.DesignConstraints(), reg.labels.index(anchor), k)
        if d is None:
            return [{"status": "no design", "anchor": anchor, "k": k}]
        return [{"status": "ok", "anchor": d.anchor_label, "k": d.k,
                 "unit_time_us": d.unit_time * 1e6, "iterations": d.iterations,
                 "gate_time_ms": d.gate_time * 1e3, "gate_error": d.gate_error,
                 "targets": ";".join(d.target_labels),
                 "target_tangles": tuple(d.target_tangles),
                 "mean_unwanted_tangle": d.mean_unwanted_tangle}]
    if kind == "sweep":
        spin = reg.by_label(opts["--spin"])
        t = spin_model.resonance_time(spin, el, int(opts["--k"]))
        rot = spin_model.unit_propagator(spin_model.build_sequence("cpmg", t),
                                         spin, el)
        return [{"label": spin.label, "t_us": t * 1e6, "N": n,
                 "g1": entanglement.makhlin_g1(rot, n),
                 "g2": entanglement.makhlin_g2(rot, n),
                 "ep": entanglement.entangling_power(rot, n),
                 "m": spin_model.coherence(spin_model.iterate(rot, n))[0],
                 "tangle": entanglement.nuclear_one_tangle(rot, n, scaled=True)}
                for n in range(1, int(opts["--n-max"]) + 1)]
    gates = _designed_gates(opts["--register"], opts["--anchor"], int(opts["--k"]))
    if kind == "qec-grid":
        grid = int(opts["--grid"])
        gammas = np.linspace(0.0, math.pi, grid)
        deltas = np.linspace(0.0, 2.0 * math.pi, grid)
        surf = qec.error_surface(
            qec.QecScenario(scheme=opts["--scheme"], encode_gates=gates,
                            error=opts["--error"]), gammas, deltas)
        return [{"gamma": float(g), "delta": float(d), "error_probability": surf[i, j]}
                for i, g in enumerate(gammas) for j, d in enumerate(deltas)]
    gamma, delta = float(opts["--gamma"]), float(opts["--delta"])
    run = qec.run_bitflip_code(qec.QecScenario(
        scheme=opts["--scheme"], encode_gates=gates, error=opts["--error"],
        gamma=gamma, delta=delta))
    return [{"scheme": opts["--scheme"], "error": opts["--error"],
             "gamma": gamma, "delta": delta,
             "recovery_probability": run.recovery_probability,
             "electron_purity": run.electron_purity}]
