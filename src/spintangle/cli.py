"""Command-line front end.

Subcommands:

* resonances: per-spin resonance unit times over a range of k.
* design: constrained multi-spin gate search anchored on one nucleus.
* qec: three-qubit bit-flip code runs, single-point or over a state grid.
* sweep: tangle/invariant series over iteration count at fixed unit time.

Every command prints a human-readable table (5 significant digits) and can
also emit CSV and/or JSON files carrying the same records at 15 significant
digits plus a provenance header (version, flags, seed, constants hash,
Python and numpy versions, the sha256 of the register file read, for
``qec`` with designed gates the design the gates came from, and the wall
seconds of reading the register and of the subcommand's computation).
Exit codes: 0 success (including "no design"), 1 input error; argparse
usage errors exit 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__, constants
from .datasets import load_register, register_file
from .designer import (MAX_N_MAX, MAX_TIME_WINDOW, DesignConstraints,
                       optimize_register_gate)
from .entanglement import MAX_PAIR_TANGLE, g1_from_phase_rates, phase_amplitude, phase_rates
from .qec import ERROR_KINDS, SCHEMES, QecScenario, error_surface, run_bitflip_code
from .spin_model import (MAX_UDD_ORDER, RESONANCE_VARIANTS, _integer, _real, build_sequence,
                         iterate, resonance_time, unit_propagator)

MACHINE_FMT = "%.15g"
HUMAN_FMT = "%.5g"

# caps on the flags that size a run's output: about 1e6 records at most
MAX_K_VALUES = 1000
MAX_SWEEP_COUNTS = 10 ** 6
MAX_GRID = 1000

SEQUENCE_HELP = f"cpmg or uddN, 1 <= N <= {MAX_UDD_ORDER}"
# the register values a flag overrides, by the names register errors use
_REGISTER_FLAGS = {"larmor_kHz": "--larmor-khz", "s0": "--s0", "s1": "--s1"}


def _provenance(args: argparse.Namespace, reg, **extra) -> dict:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {
        "version": __version__,
        "flags": " ".join(f"--{k.replace('_', '-')}={v}" for k, v in flags.items()
                          if v is not None),
        "seed": args.seed,
        "constants": constants.constants_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "register_sha256": reg.sha256,
        **extra,
    }


def _fmt(value, fmt: str) -> str:
    if isinstance(value, float):
        return fmt % value
    return str(value)


def _emit(columns: dict, args: argparse.Namespace, reg, **extra) -> None:
    """Write CSV/JSON with the provenance of _provenance, then print the table.

    columns maps each name, in table order, to a list of values or to one
    value that every record repeats; with no list there is one record.
    """
    n = max((len(v) for v in columns.values() if isinstance(v, list)), default=1)
    values = [v if isinstance(v, list) else [v] * n for v in columns.values()]
    prov = _provenance(args, reg, **extra)
    if args.csv:
        with open(args.csv, "w") as fh:
            for key, val in prov.items():
                fh.write(f"# {key}={val}\n")
            fh.write(",".join(columns) + "\n")
            for row in zip(*values):
                fh.write(",".join(_fmt(v, MACHINE_FMT) for v in row) + "\n")
    if args.json:
        payload = {"provenance": prov,
                   "records": [dict(zip(columns, row)) for row in zip(*values)]}
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)
            fh.write("\n")
    widths = [max(len(c), max((len(_fmt(v, HUMAN_FMT)) for v in vals), default=0))
              for c, vals in zip(columns, values)]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for row in zip(*values):
        print("  ".join(_fmt(v, HUMAN_FMT).ljust(w) for v, w in zip(row, widths)))


def _label_index(reg, label: str, flag: str) -> int:
    if label not in reg.labels:
        raise ValueError(f"{flag}: no nucleus {label!r} in register {reg.source}")
    return reg.labels.index(label)


def _check_writable(flag: str, path: str) -> None:
    """An output path must name a file in a writable directory."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"{flag}: {path!r} is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"{flag}: {folder!r} is not a writable directory")


def _same_file(a, b) -> bool:
    """a and b name one file: the same real path, or os.path.samefile where both exist."""
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except (OSError, ValueError):  # a file not there yet, or a NUL in a path
        return False


def _check_outputs(args: argparse.Namespace) -> None:
    """Each output path names a writable file that is none of the register's
    file, the constants file and the other output."""
    files = [("--register", str(register_file(args.register))),
             (constants.CONSTANTS_ENV_VAR, os.environ.get(constants.CONSTANTS_ENV_VAR))]
    for flag, path in (("--csv", args.csv), ("--json", args.json)):
        if path:
            _check_writable(flag, path)
            for other, other_path in files:
                if other_path and _same_file(path, other_path):
                    raise ValueError(f"{flag}: {path!r} is the file of {other}; "
                                     "nothing was written")
            files.append((flag, path))


def _resonance_time(flag: str, spin, electron, k: int,
                    variant: str = "primary") -> float:
    """resonance_time, its ValueError naming the flag that gave k."""
    try:
        return resonance_time(spin, electron, k, variant=variant)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _counts(args: argparse.Namespace, name: str, least: int, cap: int,
            unit: str) -> range:
    """--NAME-min to --NAME-max: from at least `least`, not empty, at most cap."""
    lo = _integer(getattr(args, f"{name}_min"), f"--{name}-min", least)
    hi = getattr(args, f"{name}_max")
    if hi < lo:
        raise ValueError(f"--{name}-max ({hi}) must be >= --{name}-min ({lo})")
    if hi - lo + 1 > cap:
        raise ValueError(f"--{name}-min {lo} to --{name}-max {hi} is more than "
                         f"{cap} {unit}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# subcommands: each takes (args, reg, electron), checks its own flags first
# and returns (columns for _emit, extra provenance)


def cmd_resonances(args: argparse.Namespace, reg, electron):
    ks = _counts(args, "k", 1, MAX_K_VALUES, "values of k")
    spins = sorted(reg.spins, key=lambda s: s.label)
    return {"label": [s.label for s in spins for _ in ks],
            "k": [k for _ in spins for k in ks],
            # t grows with k: any k too large means --k-max is
            "t_us": [_resonance_time("--k-max", s, electron, k, args.variant) * 1e6
                     for s in spins for k in ks]}, {}


def cmd_design(args: argparse.Namespace, reg, electron):
    cons = DesignConstraints(**{f.name: getattr(args, f.name.lower())
                                for f in dataclasses.fields(DesignConstraints)})
    anchor_index = _label_index(reg, args.anchor, "--anchor")
    # the search starts at the anchor's k-th resonance
    _resonance_time("--k", reg.spins[anchor_index], electron, args.k)
    design = optimize_register_gate(reg.spins, electron, cons, anchor_index,
                                    args.k, sequence_kind=args.sequence)
    if design is None:
        return {"status": "no design", "anchor": args.anchor, "k": args.k}, {}
    return {
        "status": "ok", "anchor": design.anchor_label, "k": design.k,
        "unit_time_us": design.unit_time * 1e6, "iterations": design.iterations,
        "gate_time_ms": design.gate_time * 1e3, "gate_error": design.gate_error,
        "targets": ";".join(design.target_labels),
        "target_tangles": ";".join(MACHINE_FMT % v for v in design.target_tangles),
        "mean_unwanted_tangle": design.mean_unwanted_tangle,
    }, {}


def _qec_gates(args: argparse.Namespace, reg, electron):
    """Encoding gates and the design provenance: the first two targets.

    Returns (None, {}) for the ideal gates.  --anchor is checked either way.
    """
    anchor_index = _label_index(reg, args.anchor, "--anchor")
    if args.ideal:
        return None, {}
    # the search starts at the anchor's k-th resonance
    _resonance_time("--k", reg.spins[anchor_index], electron, args.k)
    cons = DesignConstraints()
    sequence = "cpmg"  # the one sequence the gates are designed with and built from
    design = optimize_register_gate(reg.spins, electron, cons, anchor_index, args.k,
                                    sequence_kind=sequence)
    if design is None:
        raise ValueError(f"no feasible gate at anchor {args.anchor}, k={args.k}")
    used = design.target_labels[:2]
    seq = build_sequence(sequence, design.unit_time)
    gates = tuple(iterate(unit_propagator(seq, reg.by_label(l), electron),
                          design.iterations) for l in used)
    prov = {"design_targets": ";".join(design.target_labels),
            "design_targets_used": ";".join(used),
            "design_iterations": design.iterations,
            "design_unit_time_us": design.unit_time * 1e6,
            "design_sequence": sequence,
            **{f"design_{name}": value
               for name, value in dataclasses.asdict(cons).items()}}
    return gates, prov


def cmd_qec(args: argparse.Namespace, reg, electron):
    if args.grid and not all(1 <= n <= MAX_GRID for n in args.grid):
        raise ValueError(f"--grid sizes must be in [1, {MAX_GRID}], "
                         f"got {args.grid[0]} {args.grid[1]}")
    gates, prov = _qec_gates(args, reg, electron)
    base = QecScenario(scheme=args.scheme, encode_gates=gates,
                      error=args.error, gamma=args.gamma, delta=args.delta)
    if args.grid:
        ng, nd = args.grid
        gammas = np.linspace(0.0, math.pi, ng)
        deltas = np.linspace(0.0, 2.0 * math.pi, nd)
        surface = error_surface(base, gammas, deltas)
        return {"gamma": np.repeat(gammas, nd).tolist(),
                "delta": np.tile(deltas, ng).tolist(),
                "error_probability": surface.ravel().tolist()}, prov
    out = run_bitflip_code(base)
    return {"scheme": args.scheme, "error": args.error,
            "gamma": args.gamma, "delta": args.delta,
            "recovery_probability": out.recovery_probability,
            "electron_purity": out.electron_purity}, prov


METRICS = ("g1", "g2", "ep", "m", "tangle")


def cmd_sweep(args: argparse.Namespace, reg, electron):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise ValueError("empty metrics list")
    for m in metrics:
        if m not in METRICS:
            raise ValueError(f"unknown metric {m!r}; choose from {', '.join(METRICS)}")
    ns = _counts(args, "n", 0, MAX_SWEEP_COUNTS, "counts")
    spin = reg.spins[_label_index(reg, args.spin, "--spin")]
    t = (_resonance_time("--k", spin, electron, args.k) if args.t_us is None
         else _real(args.t_us, "--t-us", 0) * 1e-6)
    rot = unit_propagator(build_sequence(args.sequence, t), spin, electron)
    counts = np.arange(ns.start, ns.stop)
    rates = phase_rates(rot)
    g1 = g1_from_phase_rates(*rates, counts)
    series = {"g1": g1, "g2": 1.0 + 2.0 * g1, "ep": MAX_PAIR_TANGLE * (1.0 - g1),
              "m": np.clip(phase_amplitude(*rates, counts), -1.0, 1.0),
              "tangle": 1.0 - g1}
    return {"label": spin.label, "t_us": t * 1e6, "N": counts.tolist(),
            **{name: series[name].tolist() for name in metrics}}, {}


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--register", required=True,
                   help="register CSV path or bundled dataset name")
    p.add_argument("--larmor-khz", type=float, default=None)
    p.add_argument("--s0", type=float, default=None)
    p.add_argument("--s1", type=float, default=None)
    p.add_argument("--csv", default=None, help="write records as CSV")
    p.add_argument("--json", default=None, help="write records as JSON")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the provenance; no subcommand draws random "
                        "numbers yet")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; later calls return it."""
    parser = argparse.ArgumentParser(
        prog="spintangle",
        description="Pulse-sequence design and entanglement analysis for "
                    "electron-nuclear spin registers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resonances", help="per-spin resonance unit times")
    _add_common(p)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=5,
                   help=f"at most {MAX_K_VALUES} values from --k-min")
    p.add_argument("--variant", choices=RESONANCE_VARIANTS, default="primary")
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("design", help="constrained multi-spin gate search")
    _add_common(p)
    p.add_argument("--anchor", required=True, help="anchor nucleus label")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sequence", default="cpmg", help=SEQUENCE_HELP)
    caps = {"time_window": f"at most {MAX_TIME_WINDOW} s",
            "N_max": f"at most {MAX_N_MAX}"}
    for f in dataclasses.fields(DesignConstraints):
        p.add_argument("--" + f.name.lower().replace("_", "-"),
                       type=type(f.default), default=f.default, help=caps.get(f.name))
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("qec", help="three-qubit bit-flip code")
    _add_common(p)
    p.add_argument("--scheme", choices=SCHEMES, default="sequential")
    p.add_argument("--ideal", action="store_true",
                   help="use the ideal conditional gates")
    p.add_argument("--anchor", default="C22", help="designer anchor label")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--error", choices=ERROR_KINDS, default="electron")
    p.add_argument("--gamma", type=float, default=math.pi / 2.0)
    p.add_argument("--delta", type=float, default=math.pi / 2.0)
    p.add_argument("--grid", type=int, nargs=2, metavar=("NGAMMA", "NDELTA"),
                   default=None, help="sweep the electron input state, "
                                      f"at most {MAX_GRID} points per axis")
    p.set_defaults(func=cmd_qec)

    p = sub.add_parser("sweep", help="invariant/tangle series over N")
    _add_common(p)
    p.add_argument("--spin", required=True, help="nucleus label")
    p.add_argument("--sequence", default="cpmg", help=SEQUENCE_HELP)
    p.add_argument("--t-us", type=float, default=None,
                   help="unit time in microseconds (default: k-th resonance)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=100,
                   help=f"at most {MAX_SWEEP_COUNTS} counts from --n-min")
    p.add_argument("--metrics", default="g1,g2,ep",
                   help="comma list from: " + ", ".join(METRICS))
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Parse, check the shared flags, read the register, run, emit once."""
    args = build_parser().parse_args(argv)
    try:
        constants.apply_env_overrides()
        # design, qec and sweep check --k even where the value goes unused
        _integer(getattr(args, "k", 1), "--k", 1)
        if hasattr(args, "sequence"):
            try:
                # "custom" needs spacings, which the CLI cannot pass
                if args.sequence.lower() == "custom":
                    raise ValueError(f"unsupported sequence kind: {args.sequence!r}")
                build_sequence(args.sequence, 1.0)
            except ValueError as exc:
                raise ValueError(f"--sequence: {exc}; use {SEQUENCE_HELP}") from None
        _check_outputs(args)
        start = time.perf_counter()
        try:
            reg = load_register(args.register, larmor_khz=args.larmor_khz,
                                s0=args.s0, s1=args.s1)
            electron = reg.electron()
        except (ValueError, OSError) as exc:
            # the message names each value's origin: a flag, else the register
            flags = [flag for key, flag in _REGISTER_FLAGS.items()
                     if f"{key} from the caller" in str(exc)]
            raise ValueError(f"{', '.join(flags) or '--register'}: {exc}") from None
        loaded = time.perf_counter()
        columns, extra = args.func(args, reg, electron)
        # wall seconds of each stage, for the provenance only
        _emit(columns, args, reg, **extra, wall_register_s=loaded - start,
              wall_command_s=time.perf_counter() - loaded)
        return 0
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
