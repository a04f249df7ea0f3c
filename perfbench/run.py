"""spintangle benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload qec-surface --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a spintangle checkout (the directory holding ``src/``).
Every workload runs in a fresh interpreter (``worker.py``) with
``PYTHONPATH=src`` and BLAS/OpenMP pools at one thread, and the whole run
is pinned to one core.

``--trace 0`` times the end-to-end metrics: set-up time (median of several
fresh set-ups), ops per second, median and tail op latency, peak RSS.
Times are taken at reference speed: each is rescaled by a reference loop
timed right before and right after it (``common.reference_s``), so that
the host's changing speed does not show; the measured values are printed
beside them.  ``--trace 1`` runs the ops once untraced and once with span
wrappers at every module boundary and reports per-layer self time and
call counts.
Each op's output is checked outside its timing; the last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it record the environment and each metric with its unit.
With ``--workload all`` every workload runs in turn and the JSON metric
names are prefixed with the workload (``qec-surface.ops_per_s``).
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from common import at_reference_speed, reference_s

HERE = Path(__file__).resolve().parent
WORKLOADS = ("design-scan", "bath-ensemble", "qec-surface", "cli-mix", "cli-cold")
DEADLINE_S = 170.0  # per workload
# set-up is repeated in fresh interpreters: at least SETUP_MIN times and
# until SETUP_MIN_TOTAL_S seconds are covered, at most SETUP_MAX times.
# SETUP_BEFORE of them run before the timed run and the rest after it, so
# the median samples the machine's speed on both sides of the run.
SETUP_MIN = 5
SETUP_BEFORE = 2
SETUP_MIN_TOTAL_S = 1.5
SETUP_MAX = 25
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


class Worker:
    """One worker process.

    ``ready_s`` is interpreter start to READY, measured; ``ready_ref_s`` is
    the same at reference speed, from reference timings made in this
    process right before the start and right after READY.
    """

    def __init__(self, root: Path, env: dict, workload: str, args,
                 deadline: float, setup_only: bool):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if setup_only:
            cmd.append("--setup-only")
        ref0 = reference_s()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE)
        # past the deadline the worker is killed, wherever it is
        self.timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                     self.proc.kill)
        self.timer.start()
        first = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        self.ready_ref_s = at_reference_speed(self.ready_s, ref0, reference_s())
        if first.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker set-up failed: {first.strip()!r}")

    def finish(self) -> list[str]:
        out, _ = self.proc.communicate()
        self.timer.cancel()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out.splitlines()


def run_workload(workload: str, args, root: Path, env: dict) -> dict:
    """Run one workload, print its metric lines and return its result."""
    deadline = time.monotonic() + DEADLINE_S
    setups, measured = [], []

    def setup_only():
        w = Worker(root, env, workload, args, deadline, setup_only=True)
        w.finish()
        setups.append(w.ready_ref_s)
        measured.append(w.ready_s)

    try:
        if not args.trace:
            for _ in range(SETUP_BEFORE):
                setup_only()
        w = Worker(root, env, workload, args, deadline, setup_only=False)
        setups.append(w.ready_ref_s)
        measured.append(w.ready_s)
        lines = w.finish()
        if not args.trace:
            while len(setups) < SETUP_MAX and (
                    len(setups) < SETUP_MIN or sum(measured) < SETUP_MIN_TOTAL_S):
                setup_only()
    finally:
        try:
            (root / ".perfbench").rmdir()  # workers remove what they write in it
        except OSError:
            pass
    results = [l for l in lines if l.startswith("RESULT ")]
    if len(results) != 1:
        raise RuntimeError("worker printed no result")
    res = json.loads(results[0][len("RESULT "):])
    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    fail_frac = res["failed"] / res["attempted"]
    print(f"{workload}  ops {res['ops']}  attempted {res['attempted']}  "
          f"failed {res['failed']}  fail_frac {fail_frac:.6g}")
    notes = {}
    if not args.trace:
        notes = {"setup_s": f"median of {len(setups)} fresh set-ups; measured "
                            f"{statistics.median(measured):.6g} s",
                 "op_p50_ms": f"n={res['ops']}; measured "
                              f"{res['measured_op_p50_ms']:.6g} ms",
                 "ops_per_s": f"measured {res['measured_ops_per_s']:.6g} 1/s"}
    if "tail_percentile" in res:
        notes["op_tail_ms"] = (f"p{res['tail_percentile']:.4g}, "
                               f"10 of {res['ops']} ops beyond")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{workload}  {name:26s} {m['value']:>14.6g} {m['unit']:6s} "
              f"{notes.get(name, '')}", flush=True)
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "spintangle" / "__init__.py").is_file():
        print("perfbench: run from a spintangle checkout (no src/spintangle here)",
              file=sys.stderr)
        return 2
    # one core for the whole run: the program is meant to be fast on one
    # core, and an op and the reference loop that corrects its time must
    # run on the same core (the cores of a shared host slow down apart)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = "1"
    envinfo = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "blas_threads": {v: env[v] for v in BLAS_VARS},
        "git_sha": git_sha(root), "machine": platform.machine(),
    }
    print("env " + json.dumps(envinfo), flush=True)

    # fill the bytecode cache once; a user's later runs do not pay for it
    subprocess.run([sys.executable, "-c", "import spintangle.cli, spintangle.oracle"],
                   cwd=root, env=env, check=True, timeout=120)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args, root, env) for w in workloads}
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, res in results.items()
                   for name, m in res["metrics"].items()}
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(res["attempted"] for res in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
