"""Command-line front end.

Subcommands:

* resonances: per-spin resonance unit times over a range of k.
* design: constrained multi-spin gate search anchored on one nucleus.
* qec: three-qubit bit-flip code runs, single-point or over a state grid.
* sweep: tangle/invariant series over iteration count at fixed unit time.

Every command prints a human-readable table (5 significant digits) and can
also emit CSV and/or JSON files carrying the same records at 15 significant
digits plus a provenance header (version, flags, seed, constants hash,
Python and numpy versions, the sha256 of the register file read and, for
``qec`` with designed gates, the design the gates came from).
Exit codes: 0 success (including "no design"), 1 input error; argparse
usage errors exit 2.
"""
from __future__ import annotations

import argparse
import json
import math
import platform
import sys

import numpy as np

from . import __version__, constants
from .datasets import RegisterFormatError, load_register
from .designer import DesignConstraints, optimize_register_gate
from .entanglement import MAX_PAIR_TANGLE, branch_angles, g1_amplitude
from .qec import QecScenario, error_surface, run_bitflip_code
from .spin_model import build_sequence, iterate, resonance_time, unit_propagator

MACHINE_FMT = "%.15g"
HUMAN_FMT = "%.5g"


def _provenance(args: argparse.Namespace, reg=None, **extra) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    prov = {
        "version": __version__,
        "flags": " ".join(f"--{k.replace('_', '-')}={v}" for k, v in flags.items()
                          if v is not None),
        "seed": getattr(args, "seed", 0),
        "constants": constants.constants_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if reg is not None:
        prov["register_sha256"] = reg.sha256
    prov.update(extra)
    return prov


def _fmt(value, fmt: str) -> str:
    if isinstance(value, float):
        return fmt % value
    return str(value)


def _emit(records: list[dict], columns: list[str], args: argparse.Namespace,
          reg=None, **extra) -> None:
    """Print the table; write CSV/JSON with the provenance of _provenance."""
    prov = _provenance(args, reg, **extra)
    widths = {c: max(len(c), *(len(_fmt(r[c], HUMAN_FMT)) for r in records)) if records
              else len(c) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in records:
        print("  ".join(_fmt(r[c], HUMAN_FMT).ljust(widths[c]) for c in columns))
    if args.csv:
        with open(args.csv, "w") as fh:
            for key, val in prov.items():
                fh.write(f"# {key}={val}\n")
            fh.write(",".join(columns) + "\n")
            for r in records:
                fh.write(",".join(_fmt(r[c], MACHINE_FMT) for c in columns) + "\n")
    if args.json:
        payload = {"provenance": prov,
                   "records": [{c: r[c] for c in columns} for r in records]}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)
            fh.write("\n")


def _load(args: argparse.Namespace):
    reg = load_register(args.register, larmor_khz=args.larmor_khz,
                        s0=args.s0, s1=args.s1)
    return reg, reg.electron()


def _label_index(reg, label: str, flag: str) -> int:
    if label not in reg.labels:
        raise ValueError(f"{flag}: no nucleus {label!r} in register {reg.source}")
    return reg.labels.index(label)


# ---------------------------------------------------------------------------
# subcommands


def cmd_resonances(args: argparse.Namespace) -> int:
    if args.k_max < args.k_min:
        raise ValueError(f"--k-max ({args.k_max}) must be >= --k-min ({args.k_min})")
    reg, electron = _load(args)
    records = []
    for spin in sorted(reg.spins, key=lambda s: s.label):
        for k in range(args.k_min, args.k_max + 1):
            t = resonance_time(spin, electron, k, variant=args.variant)
            records.append({"label": spin.label, "k": k, "t_us": t * 1e6})
    _emit(records, ["label", "k", "t_us"], args, reg)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    reg, electron = _load(args)
    cons = DesignConstraints(
        max_gate_time=args.max_gate_time,
        target_tangle_min=args.target_tangle_min,
        unwanted_tangle_max=args.unwanted_tangle_max,
        unwanted_tangle_mean_max=args.unwanted_tangle_mean_max,
        time_window=args.time_window,
        N_max=args.n_max)
    anchor_index = _label_index(reg, args.anchor, "--anchor")
    design = optimize_register_gate(reg.spins, electron, cons, anchor_index,
                                    args.k, sequence_kind=args.sequence)
    if design is None:
        _emit([{"status": "no design", "anchor": args.anchor, "k": args.k}],
              ["status", "anchor", "k"], args, reg)
        return 0
    records = [{
        "status": "ok", "anchor": design.anchor_label, "k": design.k,
        "unit_time_us": design.unit_time * 1e6, "iterations": design.iterations,
        "gate_time_ms": design.gate_time * 1e3, "gate_error": design.gate_error,
        "targets": ";".join(design.target_labels),
        "target_tangles": ";".join(MACHINE_FMT % v for v in design.target_tangles),
        "mean_unwanted_tangle": design.mean_unwanted_tangle,
    }]
    _emit(records, list(records[0]), args, reg)
    return 0


def _qec_gates(args: argparse.Namespace, reg, electron):
    """Encoding gates and the design provenance: the first two targets.

    Returns (None, {}) for the ideal gates.  --anchor is checked either way.
    """
    anchor_index = _label_index(reg, args.anchor, "--anchor")
    if args.ideal:
        return None, {}
    cons = DesignConstraints()
    design = optimize_register_gate(reg.spins, electron, cons, anchor_index, args.k)
    if design is None:
        raise ValueError(f"no feasible gate at anchor {args.anchor}, k={args.k}")
    used = design.target_labels[:2]
    seq = build_sequence("cpmg", design.unit_time)
    gates = tuple(iterate(unit_propagator(seq, reg.by_label(l), electron),
                          design.iterations) for l in used)
    prov = {"design_targets": ";".join(design.target_labels),
            "design_targets_used": ";".join(used),
            "design_iterations": design.iterations,
            "design_unit_time_us": design.unit_time * 1e6}
    return gates, prov


def cmd_qec(args: argparse.Namespace) -> int:
    if args.grid and min(args.grid) < 1:
        raise ValueError(f"--grid sizes must be >= 1, got {args.grid[0]} {args.grid[1]}")
    reg, electron = _load(args)
    gates, prov = _qec_gates(args, reg, electron)
    base = QecScenario(scheme=args.scheme, encode_gates=gates,
                      error=args.error, gamma=args.gamma, delta=args.delta)
    if args.grid:
        ng, nd = args.grid
        gammas = np.linspace(0.0, math.pi, ng)
        deltas = np.linspace(0.0, 2.0 * math.pi, nd)
        surface = error_surface(base, gammas, deltas)
        records = [{"gamma": float(g), "delta": float(d),
                    "error_probability": float(surface[i, j])}
                   for i, g in enumerate(gammas) for j, d in enumerate(deltas)]
        _emit(records, ["gamma", "delta", "error_probability"], args, reg, **prov)
        return 0
    out = run_bitflip_code(base)
    records = [{"scheme": args.scheme, "error": args.error,
                "gamma": args.gamma, "delta": args.delta,
                "recovery_probability": out.recovery_probability,
                "electron_purity": out.electron_purity}]
    _emit(records, list(records[0]), args, reg, **prov)
    return 0


METRICS = ("g1", "g2", "ep", "m", "tangle")


def cmd_sweep(args: argparse.Namespace) -> int:
    reg, electron = _load(args)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ValueError("empty metrics list")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; choose from {', '.join(METRICS)}")
    if args.n_min < 0:
        raise ValueError(f"--n-min must be >= 0, got {args.n_min}")
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max ({args.n_max}) must be >= --n-min ({args.n_min})")
    spin = reg.spins[_label_index(reg, args.spin, "--spin")]
    if args.t_us is not None:
        t = args.t_us * 1e-6
    else:
        t = resonance_time(spin, electron, args.k, variant="primary")
    rot = unit_propagator(build_sequence(args.sequence, t), spin, electron)
    counts = np.arange(args.n_min, args.n_max + 1)
    amp = g1_amplitude(*branch_angles(rot.quaternions), counts)
    g1 = np.minimum(1.0, amp * amp)
    series = {"g1": g1, "g2": 1.0 + 2.0 * g1, "ep": MAX_PAIR_TANGLE * (1.0 - g1),
              "m": np.clip(amp, -1.0, 1.0), "tangle": 1.0 - g1}
    columns = {name: series[name].tolist() for name in metrics}
    records = [{"label": spin.label, "t_us": t * 1e6, "N": n,
                **{name: col[i] for name, col in columns.items()}}
               for i, n in enumerate(counts.tolist())]
    _emit(records, ["label", "t_us", "N"] + metrics, args, reg)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, register: bool = True) -> None:
    if register:
        p.add_argument("--register", required=True,
                       help="register CSV path or bundled dataset name")
        p.add_argument("--larmor-khz", type=float, default=None)
        p.add_argument("--s0", type=float, default=None)
        p.add_argument("--s1", type=float, default=None)
    p.add_argument("--csv", default=None, help="write records as CSV")
    p.add_argument("--json", default=None, help="write records as JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintangle",
        description="Pulse-sequence design and entanglement analysis for "
                    "electron-nuclear spin registers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resonances", help="per-spin resonance unit times")
    _add_common(p)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--variant", choices=("primary", "udd4_extra"), default="primary")
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("design", help="constrained multi-spin gate search")
    _add_common(p)
    p.add_argument("--anchor", required=True, help="anchor nucleus label")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sequence", default="cpmg")
    p.add_argument("--max-gate-time", type=float, default=1.5e-3)
    p.add_argument("--target-tangle-min", type=float, default=0.8)
    p.add_argument("--unwanted-tangle-max", type=float, default=0.14)
    p.add_argument("--unwanted-tangle-mean-max", type=float, default=0.1)
    p.add_argument("--time-window", type=float, default=0.25e-6)
    p.add_argument("--n-max", type=int, default=300)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("qec", help="three-qubit bit-flip code")
    _add_common(p)
    p.add_argument("--scheme", choices=("sequential", "multispin"),
                   default="sequential")
    p.add_argument("--ideal", action="store_true",
                   help="use the ideal conditional gates")
    p.add_argument("--anchor", default="C22", help="designer anchor label")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--error", choices=("none", "electron", "nucleus1", "nucleus2"),
                   default="electron")
    p.add_argument("--gamma", type=float, default=math.pi / 2.0)
    p.add_argument("--delta", type=float, default=math.pi / 2.0)
    p.add_argument("--grid", type=int, nargs=2, metavar=("NGAMMA", "NDELTA"),
                   default=None, help="sweep the electron input state")
    p.set_defaults(func=cmd_qec)

    p = sub.add_parser("sweep", help="invariant/tangle series over N")
    _add_common(p)
    p.add_argument("--spin", required=True, help="nucleus label")
    p.add_argument("--sequence", default="cpmg")
    p.add_argument("--t-us", type=float, default=None,
                   help="unit time in microseconds (default: k-th resonance)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--metrics", default="g1,g2,ep",
                   help="comma list from: " + ", ".join(METRICS))
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # design, qec and sweep check --k even where the value goes unused
        if getattr(args, "k", 1) < 1:
            raise ValueError(f"--k must be >= 1, got {args.k}")
        return args.func(args)
    except (RegisterFormatError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
