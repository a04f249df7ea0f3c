"""Register-file parsing and bundled example registers.

A register file is CSV with header ``label,A_kHz,B_kHz`` and one row per
nucleus.  Comment lines of the form ``# key=value`` before the header may
set ``larmor_kHz``, ``s0`` and ``s1``; values may also be supplied (or
overridden) by the caller.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .constants import KHZ
from .spin_model import ElectronQubitSpec, NuclearSpinParams, _real, branch_frequency

BUNDLED = (
    "nv27",
    "rand-cpmg-k1",
    "rand-cpmg-k2",
    "rand-udd3-k1",
    "rand-udd3-k3",
    "rand-udd4-k1",
    "rand-udd4-k2",
)


class RegisterFormatError(ValueError):
    """Malformed register file."""


@dataclass
class RegisterFile:
    """A parsed register: spins plus any electron metadata found in the file."""

    spins: list
    larmor_khz: float | None = None
    s0: float | None = None
    s1: float | None = None
    source: str = "<memory>"
    sha256: str | None = None  # of the file's bytes, when loaded from one
    # where larmor_kHz, s0 and s1 came from, for error messages
    origins: dict = field(default_factory=dict)

    def electron(self) -> ElectronQubitSpec:
        if self.s0 is None or self.s1 is None:
            raise RegisterFormatError(
                f"{self.source}: electron projections s0/s1 not resolvable")
        try:
            electron = ElectronQubitSpec(self.s0, self.s1)
        except ValueError as exc:
            # name the value the message starts with, or both when they are equal
            bad = [n for n in ("s0", "s1") if str(exc).startswith(f"{n} must")]
            where = "; ".join(self.origins.get(n, self.source) for n in bad or ("s0", "s1"))
            raise RegisterFormatError(f"{where}: {exc}") from None
        # a finite projection can still overflow hypot(omega_L + s A, s B)
        for name in ("s0", "s1"):
            s = getattr(self, name)
            for spin in self.spins:
                if not math.isfinite(branch_frequency(spin, s)):
                    raise RegisterFormatError(
                        f"{self.origins.get(name, self.source)}: {name}={s!r} "
                        f"overflows the branch frequency of {spin.label}")
        return electron

    def by_label(self, label: str) -> NuclearSpinParams:
        for s in self.spins:
            if s.label == label:
                return s
        raise KeyError(label)

    @property
    def labels(self) -> list[str]:
        return [s.label for s in self.spins]


def parse_register(text: str, source: str = "<memory>",
                   larmor_khz: float | None = None,
                   s0: float | None = None,
                   s1: float | None = None) -> RegisterFile:
    meta: dict[str, float] = {}
    meta_line: dict[str, int] = {}
    rows = []
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, _, val = body.partition("=")
                try:
                    meta[key.strip()] = float(val)
                except ValueError:
                    raise RegisterFormatError(
                        f"{source}:{lineno}: bad metadata value {val!r}")
                meta_line[key.strip()] = lineno
            continue
        if header is None:
            header = [h.strip() for h in line.split(",")]
            if header != ["label", "A_kHz", "B_kHz"]:
                raise RegisterFormatError(
                    f"{source}:{lineno}: expected header label,A_kHz,B_kHz")
            continue
        rows.append((lineno, line))

    if header is None:
        raise RegisterFormatError(f"{source}: missing header row")

    # each value comes from the caller, else from its metadata line
    given = {"larmor_kHz": larmor_khz, "s0": s0, "s1": s1}
    origins = {k: f"{source}: {k} from the caller" if v is not None
               else f"{source}:{meta_line.get(k)}: {k} metadata line"
               for k, v in given.items()}
    larmor_khz, s0, s1 = (meta.get(k) if v is None else v for k, v in given.items())
    if larmor_khz is None:
        raise RegisterFormatError(f"{source}: Larmor frequency not resolvable")
    try:  # in rad/s, as the spins hold it: 1e308 kHz is finite only in kHz
        if not math.isfinite(_real(larmor_khz, "larmor_kHz", 0) * KHZ):
            raise ValueError(f"larmor_kHz must be finite, got {larmor_khz} kHz, "
                             "which overflows in rad/s")
    except ValueError as exc:
        raise RegisterFormatError(f"{origins['larmor_kHz']}: {exc}") from None

    spins = []
    seen = set()
    for lineno, line in rows:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise RegisterFormatError(f"{source}:{lineno}: expected 3 fields")
        label = parts[0]
        if label in seen:
            raise RegisterFormatError(f"{source}:{lineno}: duplicate label {label!r}")
        seen.add(label)
        try:
            a = float(parts[1])
            b = float(parts[2])
        except ValueError:
            raise RegisterFormatError(f"{source}:{lineno}: unparseable decimals")
        try:
            spins.append(NuclearSpinParams.from_khz(label, a, b, larmor_khz))
        except ValueError as exc:
            raise RegisterFormatError(f"{source}:{lineno}: {exc}")
    return RegisterFile(spins, larmor_khz, s0, s1, source, origins=origins)


def register_file(path_or_name: str):
    """The file load_register reads for a path or a bundled dataset name."""
    if path_or_name in BUNDLED:
        return resources.files("spintangle.data") / f"{path_or_name}.csv"
    return Path(path_or_name)


def load_register(path_or_name: str, **overrides) -> RegisterFile:
    """Load a register from a file path or a bundled dataset name."""
    ref = register_file(path_or_name)
    bundled = path_or_name in BUNDLED
    if not (bundled or ref.exists()):
        raise RegisterFormatError(
            f"{path_or_name!r} is neither a file nor one of {', '.join(BUNDLED)}")
    source = path_or_name if bundled else str(ref)
    data = ref.read_bytes()
    reg = parse_register(data.decode(), source=source, **overrides)
    reg.sha256 = hashlib.sha256(data).hexdigest()
    return reg
