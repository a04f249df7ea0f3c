"""Run one benchmark workload in this interpreter.

Started by ``run.py``, never by hand.  Prints ``READY`` once the workload's
set-up is done (``run.py`` times interpreter start to that line), then runs
the closed loop, checking each op's output outside its timing, and prints
one ``RESULT <json>`` line.

Untraced (``--trace 0``): ops run for ``--seconds`` at reference speed
and at least ``MIN_OPS`` ops.  Traced (``--trace 1``): ops run untraced
for half the time, then the set-up is rebuilt and the same ops run again
with span wrappers installed; the two wall times (set-up plus ops) give
the tracing overhead.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from common import at_reference_speed, reference_s

WORKLOADS = {
    "design-scan": "wl_design_scan",
    "bath-ensemble": "wl_bath_ensemble",
    "qec-surface": "wl_qec_surface",
    "cli-cold": "wl_cli_cold",
    "cli-mix": "wl_cli_mix",
}
# op_tail_ms needs at least 10 ops beyond the percentile it reports
MIN_OPS = 20
TAIL_BEYOND = 10


def run_loop(wl, tracer=None, seconds=None, count=None, min_ops=1):
    """Closed loop over ``wl.ops``: the next op starts when one returns.

    Each op is timed between two reference timings (``common.reference_s``)
    and checked right after, outside its timing (and with the tracer
    paused).  Stops after ``count`` ops, or once the op times at reference
    speed add up to ``seconds``, at least ``min_ops`` ran and the last of
    ``wl.cycle`` ops has run: a run does the same work however fast the
    host is at the time.  Returns the op latencies in seconds at reference
    speed, the measured ones, and one message per failed op.
    """
    latencies, measured, failures = [], [], []
    i = 0
    while True:
        op = wl.ops[i % len(wl.ops)]
        if tracer is not None:
            tracer.op = i
        ref0 = reference_s()
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
            err = None
        except Exception as exc:  # an op that raises is a failed op
            err = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        measured.append(dt)
        latencies.append(at_reference_speed(dt, ref0, reference_s()))
        if err is None:
            if tracer is not None:
                tracer.paused = True
            try:
                err = wl.check(op, out)
            except Exception as exc:  # a check that raises fails its op
                err = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.paused = False
        if err is not None:
            failures.append(f"op {i} {op!r}: {err}")
        i += 1
        if count is not None:
            if i >= count:
                break
        elif sum(latencies) >= seconds and i >= min_ops and i % wl.cycle == 0:
            break
    return latencies, measured, failures


def peak_rss_mb(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(latencies: list[float], measured: list[float],
               rss_mb: float) -> tuple[dict, dict]:
    lat = sorted(latencies)
    n = len(lat)
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {"ops": n, "measured_ops_per_s": n / sum(measured),
            "measured_op_p50_ms": statistics.median(measured) * 1e3}
    if n >= 2 * TAIL_BEYOND:
        metrics["op_tail_ms"] = (lat[n - TAIL_BEYOND - 1] * 1e3, "ms")
        info["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
    return metrics, info


def import_times(root: Path, repeats: int = 3) -> dict:
    """import.spintangle_s / import.scipy_s from ``-X importtime``, median."""
    pkg, sci = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spintangle.cli"],
            cwd=root, env=dict(os.environ), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-500:]}")
        p, s = parse_importtime(proc.stderr)
        pkg.append(p)
        sci.append(s)
    return {"import.spintangle_s": (statistics.median(pkg), "s"),
            "import.scipy_s": (statistics.median(sci), "s")}


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative seconds of ``spintangle.cli`` and of scipy's outermost imports.

    ``-X importtime`` prints a module after its nested imports, indented
    two spaces per level; a module's parent is the next line of lower depth.
    """
    stack = []  # (depth, name, cumulative_us, children)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cum = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2].rstrip()
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, name, cum, children))

    pkg_us = sci_us = 0

    def walk(node, parent_is_scipy):
        nonlocal pkg_us, sci_us
        _, name, cum, children = node
        is_scipy = name.split(".")[0] == "scipy"
        if name == "spintangle.cli":
            pkg_us = cum
        if is_scipy and not parent_is_scipy:
            sci_us += cum
        for child in children:
            walk(child, is_scipy)

    for node in stack:
        walk(node, False)
    if not pkg_us:
        raise RuntimeError("spintangle.cli not found in -X importtime output")
    return pkg_us * 1e-6, sci_us * 1e-6


def timed_setup(mod, seed: int, workdir: Path):
    """The workload's set-up, and its seconds measured and at reference speed."""
    ref0 = reference_s()
    t0 = time.perf_counter()
    wl = mod.Workload(seed, workdir)
    dt = time.perf_counter() - t0
    return wl, dt, at_reference_speed(dt, ref0, reference_s())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    workdir = root / ".perfbench"

    mod = importlib.import_module(WORKLOADS[args.workload])
    # run.py times the set-up from interpreter start to READY; a traced run
    # also times it here, for the tracing overhead
    if args.trace:
        wl, _, setup0_ref = timed_setup(mod, args.seed, workdir)
    else:
        wl = mod.Workload(args.seed, workdir)
    print("READY", flush=True)
    if args.setup_only:
        wl.close()
        return 0

    result = {}
    if not args.trace:
        lat, measured, failures = run_loop(wl, seconds=args.seconds,
                                           min_ops=MIN_OPS)
        metrics, info = end_to_end(lat, measured, peak_rss_mb(wl.rss_scope))
        result.update(info)
    else:
        # both walls cover a set-up plus the timed ops, not the checks; the
        # overhead compares them at reference speed, the spans are measured
        lat0, _, fail0 = run_loop(wl, seconds=args.seconds / 2.0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            wl1, setup1, setup1_ref = timed_setup(mod, args.seed, workdir)
            wl1.trace_to(tracer)
            lat1, measured1, fail1 = run_loop(wl1, tracer=tracer, count=len(lat0))
        finally:
            tracer.uninstall()
        lat, failures = lat0 + lat1, fail0 + fail1
        span_sets = wl1.span_sets(tracer)
        wl1.close()
        metrics = spans.layer_metrics(span_sets, setup1 + sum(measured1))
        overhead = (setup1_ref + sum(lat1)) / (setup0_ref + sum(lat0)) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics.update(import_times(root))
        result["ops"] = len(lat1)

    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    result.update({
        "attempted": len(lat), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    wl.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
