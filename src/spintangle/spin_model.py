"""Central-spin pulse sequences and exact per-unit conditional nuclear rotations.

A defect electron qubit is encoded in two spin projections (s0, s1) of a
multiplet.  Each spin-1/2 nucleus sees one of two branch Hamiltonians

    H_j = 1/2 [ (omega_L + s_j A) sigma_z + s_j B sigma_x ],

so free evolution for a time tau is a rotation by omega_j*tau about the unit
axis (sin theta_j, 0, cos theta_j), with

    omega_j = sqrt((omega_L + s_j A)^2 + (s_j B)^2),
    cos theta_j = (omega_L + s_j A) / omega_j.

A pi-pulse sequence interleaves the two branch Hamiltonians; the net effect of
one unit is a pair of conditional rotations R_{n0}(phi0), R_{n1}(phi1).

All frequencies are angular (rad/s).  Constructors accept plain kHz and scale
by 2*pi*1e3 internally.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .constants import KHZ

_EPS_AXIS = 1e-12


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class NuclearSpinParams:
    """Hyperfine couplings and Larmor frequency of one nucleus (rad/s)."""

    label: str
    A: float
    B: float
    omega_L: float

    def __post_init__(self) -> None:
        # one test for the floats a register holds; _real decides the rest
        if not (type(self.A) is type(self.B) is type(self.omega_L) is float
                and math.isfinite(self.A) and 0.0 <= self.B < math.inf
                and 0.0 < self.omega_L < math.inf):
            for name, low, closed in (("A", None, "()"), ("B", 0, "[)"), ("omega_L", 0, "()")):
                _real(getattr(self, name), name, low, closed=closed)

    @classmethod
    def from_khz(cls, label: str, a_khz: float, b_khz: float,
                 larmor_khz: float) -> "NuclearSpinParams":
        """The spin of couplings and Larmor frequency given in kHz; a bad kHz
        value raises a ValueError naming a_khz, b_khz or larmor_khz."""
        try:
            return cls(label, a_khz * KHZ, b_khz * KHZ, larmor_khz * KHZ)
        except (ArithmeticError, TypeError, ValueError):
            # name the kHz value at fault; past them, the rad/s error stands
            for value, name, low, closed in ((a_khz, "a_khz", None, "()"),
                                             (b_khz, "b_khz", 0, "[)"),
                                             (larmor_khz, "larmor_khz", 0, "()")):
                _real(value, name, low, closed=closed)
            raise


@dataclass(frozen=True)
class ElectronQubitSpec:
    """Spin projections of the two electron levels forming the qubit."""

    s0: float
    s1: float

    def __post_init__(self) -> None:
        if _real(self.s0, "s0") == _real(self.s1, "s1"):
            raise ValueError(f"s0 and s1 must differ, got {self.s0} for both")


def branch_frequency(spin: NuclearSpinParams, s: float) -> float:
    """Precession frequency omega_j of the branch with projection s."""
    return math.hypot(spin.omega_L + s * spin.A, s * spin.B)


# ---------------------------------------------------------------------------
# pulse sequences


def finite_1d(values, name: str) -> np.ndarray:
    """values as a float array; a ValueError naming name unless 1-D and finite."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        arr = None
    if arr is None or arr.ndim != 1 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a 1-D array of finite values, got {values!r}")
    return arr


def _integer(value, name: str, least: int | None = None, below: int | None = None) -> int:
    """value through operator.index, numpy integers included, as a Python int
    in [least, below) and in the int64 range, so that numpy takes it as an
    integer and a float of it is finite; else a ValueError whose message
    starts with name."""
    try:
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if below is None and least is not None and v < least:
        raise ValueError(f"{name} must be >= {least}, got {v}")
    lo, hi = -2 ** 63 if least is None else least, 2 ** 63 if below is None else below
    if not lo <= v < hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}), got {v}")
    return v


def _real(value, name: str, low=None, high=None, closed: str = "()") -> float:
    """value, any numbers.Real (numpy reals and bools included), as a Python float:
    finite and, where low or high is given, in the interval whose ends closed
    gives, as "(]"; else a ValueError whose message starts with name."""
    if not (type(value) is float or isinstance(value, numbers.Real)):  # a slow ABC check
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = math.inf if value > 0 else -math.inf
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v}")
    if ((low is not None and (v < low or v == low and closed[0] == "("))
            or (high is not None and (v > high or v == high and closed[1] == ")"))):
        ends = (f"in {closed[0]}{low}, {high}{closed[1]}" if high is not None
                else f"{'>=' if closed[0] == '[' else '>'} {low}")
        raise ValueError(f"{name} must be {ends}, got {v}")
    return v


@dataclass(frozen=True)
class PulseSequence:
    """Normalized interpulse spacings q_1..q_{n+1} plus the unit duration."""

    spacings: tuple
    unit_time: float

    def __post_init__(self) -> None:
        _real(self.unit_time, "unit_time", 0)
        q = finite_1d(self.spacings, "spacings")
        if np.any(q < 0):
            raise ValueError("spacings must be nonnegative")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("spacings must sum to 1")
        if (len(q) - 1) % 2 != 0:
            raise ValueError("pulse count must be even; symmetrize odd bases")

    @property
    def pulse_count(self) -> int:
        return len(self.spacings) - 1


# Largest UDD order build_sequence accepts.  Each order adds a segment to
# every kernel call, and the design scan keeps a cos and sin block per
# distinct spacing: design --sequence udd100 peaks at about 70 MB and udd1000
# at about 240 MB.  The bundled data and tests use orders up to 8.
MAX_UDD_ORDER = 100


def _udd_spacings(n: int) -> np.ndarray:
    s = np.arange(1, n + 2)
    edges = np.sin(np.pi * s / (2 * n + 2)) ** 2
    prev = np.sin(np.pi * (s - 1) / (2 * n + 2)) ** 2
    q = edges - prev
    # mirror-symmetric by construction, so equal spacings are equal floats
    return 0.5 * (q + q[::-1])


def _symmetrize(q: np.ndarray) -> np.ndarray:
    # Odd pulse count: repeat the unit twice at half scale, merging the
    # boundary spacings, so the doubled unit has an even pulse count.
    # slices keep an empty q empty, for PulseSequence to reject
    h = q / 2.0
    return np.concatenate([h[:-1], h[-1:] + h[:1], h[1:]])


def build_sequence(kind: str, unit_time: float,
                   custom_spacings: Sequence[float] | None = None) -> PulseSequence:
    """Build a pi-pulse sequence unit.

    kind is "cpmg", "uddN" for 1 <= N <= MAX_UDD_ORDER, or "custom" (with
    custom_spacings).
    Odd-pulse bases are symmetrized by doubling at half scale, so udd1 and
    udd2 both give the CPMG spacings (0.25, 0.5, 0.25), up to rounding.
    """
    kind = kind.lower()
    if kind == "cpmg":
        q = np.array([0.25, 0.5, 0.25])
    elif kind.startswith("udd"):
        try:
            n = int(kind[3:])
        except ValueError:
            raise ValueError(f"unsupported sequence kind: {kind!r}")
        if n < 1:
            raise ValueError("UDD order must be >= 1")
        if n > MAX_UDD_ORDER:
            raise ValueError(f"UDD order {n} is above the cap {MAX_UDD_ORDER}")
        q = _udd_spacings(n)
    elif kind == "custom":
        if custom_spacings is None:
            raise ValueError("custom sequence needs custom_spacings")
        q = finite_1d(custom_spacings, "spacings")
    else:
        raise ValueError(f"unsupported sequence kind: {kind!r}")
    if (len(q) - 1) % 2 != 0:
        q = _symmetrize(q)
    return PulseSequence(tuple(q.tolist()), unit_time)


# ---------------------------------------------------------------------------
# rotations

class Rotation:
    """One branch of a ConditionalRotation: the quadruple (cos(phi/2), sin(phi/2)*n).

    The quadruple is the SU(2) element w*I - i*(v . sigma); keeping it avoids
    trigonometric loss in long compositions and preserves the relative sign
    between electron branches, which carries a physical conditional phase.
    """

    __slots__ = ("w", "v")

    def __init__(self, w: float, v) -> None:
        self.w = float(w)
        self.v = np.asarray(v, dtype=float)

    def matrix(self) -> np.ndarray:
        return su2((self.w, *self.v))


def su2(q) -> np.ndarray:
    """SU(2) matrices w*I - i*(x X + y Y + z Z), shape (2, 2, ...), of quaternions (4, ...)."""
    w, x, y, z = np.asarray(q, dtype=float)
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


# ---------------------------------------------------------------------------
# conditional rotations


def half_angles(quats):
    """Half angles atan2(|v|, w) and axis lengths |v| of branch quaternions (2, 4, ...)."""
    q = np.asarray(quats, dtype=float)
    s = np.sqrt(np.sum(q[:, 1:] ** 2, axis=1))
    return np.arctan2(s, q[:, 0]), s


def power(quats, N) -> np.ndarray:
    """N-th power of branch quaternions: each half angle scales by N on its axis.

    quats has shape (2, 4, ...); N, any real count, broadcasts against its
    trailing axes, giving shape (2, 4) + their broadcast shape.  |v| below
    _EPS_AXIS keeps the z axis; NaN stays NaN.  iterate gives one rotation's bits.
    """
    q = np.asarray(quats, dtype=float)
    shape = np.broadcast_shapes(q.shape[2:], np.shape(N))
    # the branch axis stays in front of any axes N adds
    q = q.reshape(q.shape[:2] + (1,) * (len(shape) + 2 - q.ndim) + q.shape[2:])
    h, s = half_angles(q)
    half, axis = N * h, s >= _EPS_AXIS
    s, sn = np.where(axis, s, 1.0), np.sin(half)
    return np.stack([np.cos(half)] + [sn * (np.where(axis, q[:, i], still) / s)
                                      for i, still in ((1, 0.0), (2, 0.0), (3, 1.0))], axis=1)


class ConditionalRotation:
    """Per-branch rotations of one unit (or N): two (w, x, y, z) tuples of floats it owns."""

    __slots__ = ("_rows", "_array", "_halves")

    def __init__(self, q) -> None:
        arr = np.asarray(q, dtype=float)
        if arr.shape != (2, 4):
            raise ValueError(f"quaternions must have shape (2, 4), got {arr.shape}")
        self._rows, self._array, self._halves = tuple(map(tuple, arr.tolist())), None, None

    @classmethod
    def _of(cls, rows) -> "ConditionalRotation":
        """The rotation of two (w, x, y, z) tuples of floats, taken unchecked."""
        rot = cls.__new__(cls)
        rot._rows, rot._array, rot._halves = rows, None, None
        return rot

    @classmethod
    def from_axis_angles(cls, n0, phi0: float, n1, phi1: float) -> "ConditionalRotation":
        """Branch j rotates by the angle phi_j about the unit axis n_j."""
        rows = []
        for i, axis, phi in ((0, n0, phi0), (1, n1, phi1)):
            n = finite_1d(axis, f"n{i}")
            norm = np.linalg.norm(n)
            if n.shape != (3,) or abs(norm - 1.0) > 1e-9:
                raise ValueError(f"n{i} must be a unit vector (x, y, z), got {axis!r}")
            phi = _real(phi, f"phi{i}")
            rows.append([math.cos(phi / 2.0), *(math.sin(phi / 2.0) * (n / norm)).tolist()])
        return cls(rows)

    @property
    def quaternions(self) -> np.ndarray:
        """The read-only (2, 4) array of the branch quaternions, built on first read."""
        if self._array is None:
            self._array = np.array(self._rows)
            self._array.setflags(write=False)
        return self._array

    def half_angles(self) -> tuple:
        """half_angles on Python floats, ((h0, h1), (|v0|, |v1|)), taken once."""
        if self._halves is None:  # np.arctan2: math.atan2 differs in the last bit
            (w0, x0, y0, z0), (w1, x1, y1, z1) = self._rows
            s = (math.sqrt(x0 * x0 + y0 * y0 + z0 * z0), math.sqrt(x1 * x1 + y1 * y1 + z1 * z1))
            self._halves = tuple(np.arctan2(s, (w0, w1)).tolist()), s
        return self._halves

    @property
    def r0(self) -> Rotation:
        return Rotation(self.quaternions[0, 0], self.quaternions[0, 1:])

    @property
    def r1(self) -> Rotation:
        return Rotation(self.quaternions[1, 0], self.quaternions[1, 1:])


def _rotations(values, name: str) -> tuple:
    """values read once into a tuple; a ValueError naming name unless it holds
    ConditionalRotations only."""
    try:
        rots = tuple(values)
    except TypeError:  # not iterable
        rots = None
    if rots is None or not all(isinstance(rot, ConditionalRotation) for rot in rots):
        raise ValueError(f"{name} must hold ConditionalRotations, got {values!r}")
    return rots


def stack_quaternions(rots) -> np.ndarray:
    """Branch quaternions of ConditionalRotations as one (2, 4, n) array."""
    rows = chain.from_iterable(chain.from_iterable(rot._rows for rot in rots))
    return np.fromiter(rows, float).reshape(-1, 2, 4).transpose(1, 2, 0)


def unit_quaternions(A, B, omega_L, electron: ElectronQubitSpec,
                     spacings, t) -> np.ndarray:
    """Exact branch quaternions of one unit, broadcast over A, B, omega_L and t.

    Branch j sees H_j during the odd spacings and H_{1-j} during the even
    ones; the segment rotations, about the axis (s B, 0, omega_L + s A)/omega,
    are composed in time order.  Returns an array of shape (2, 4, *shape):
    branch, then (w, x, y, z), over the broadcast shape of A, B, omega_L, t.

    Floats for A, B, omega_L and t (one spin at one time, as unit_propagator
    passes them) run the same formulas on Python floats: the batch numbers,
    bit for bit, at a fraction of the call cost.
    """
    out, _ = _unit_rows(_unit_axes(A, B, omega_L, electron), spacings, t)
    # a component can fall short of the full shape after one segment
    quats = np.empty((2, 4) + np.broadcast(A, B, omega_L, t).shape)
    for branch, components in enumerate(out):
        for i, value in enumerate(components):
            quats[branch, i] = value
    return quats


def _unit_axes(A, B, omega_L, electron):
    """The t-independent part of a unit, for _unit_rows: per projection s0, s1
    in order, the segment axis (nx, nz) and rate factor 0.5 * w, or
    (None, None, 0.5 * omega_L) for an s = 0 branch on the z axis; and whether
    A, B and omega_L are floats."""
    # complex abs gives numpy's bits: it calls C hypot as np.hypot does;
    # math.hypot differs in the last bit
    floats = isinstance(A, float) and isinstance(B, float) and isinstance(omega_L, float)
    axes = {}
    for s in (electron.s0, electron.s1):
        wz = omega_L + s * A
        wx = s * B
        try:
            w = abs(complex(wz, wx)) if floats else np.hypot(wz, wx)
        except OverflowError:  # finite wz and wx: np.hypot gives inf
            w = math.inf
        # s = 0 gives w = omega_L, bit for bit, for the positive omega_L and
        # finite A and B that NuclearSpinParams holds: the branch has the z
        # axis, and its rate, and so its cos and sin blocks, span only the
        # distinct (omega_L, t)
        if s == 0 and (w == omega_L > 0.0 if floats
                       else bool(np.all((w == omega_L) & (w > 0.0)))):
            axes[s] = (None, None, 0.5 * omega_L)
            continue
        # a branch with zero frequency does not rotate; give it the z axis
        still = w == 0.0
        axes[s] = (wx / (w + still), (wz + still) / (w + still), 0.5 * w)
    return axes, floats


def _unit_rows(unit_axes, spacings, t):
    """unit_quaternions' two (w, x, y, z) tuples at t, from _unit_axes, and
    whether they hold floats."""
    axes, floats = unit_axes
    s0, s1 = axes
    # 0.5 * w * t evaluates as (0.5 * w) * t, so taking 0.5 * w apart keeps
    # every angle's bits; math's cos and sin give numpy's bits
    scalar = floats and isinstance(t, float)
    # both orders meet each spacing under each projection: arrays share one
    # cos and sin pair each; for floats the lookup costs more than the call
    if not scalar:
        rates = {s: half * t for s, (_, _, half) in axes.items()}
        trig = {(s, q): (np.cos(rate * q), np.sin(rate * q))
                for s, rate in rates.items() for q in set(spacings)}
    out = []
    for order in ((s0, s1), (s1, s0)):
        for i, q in enumerate(spacings):
            s = order[i % 2]
            nx, nz, half = axes[s]
            if scalar:
                angle = half * t * q
                c, sn = math.cos(angle), math.sin(angle)
            else:
                c, sn = trig[s, q]
            if i == 0:  # the first segment's quaternion starts the product
                w, x, y, z = (c, 0.0, 0.0, sn) if nx is None else (c, sn * nx, 0.0, sn * nz)
            elif nx is None:  # left-multiply by (c, 0, 0, sn)
                w, x, y, z = c * w - sn * z, c * x - sn * y, c * y + sn * x, c * z + sn * w
            else:  # left-multiply by the segment quaternion (c, sn*(nx, 0, nz))
                w, x, y, z = (c * w - sn * (nx * x + nz * z),
                              c * x + sn * (nx * w - nz * y),
                              c * y + sn * (nz * x - nx * z),
                              c * z + sn * (nz * w + nx * y))
        out.append((w, x, y, z))
    return tuple(out), scalar


def unit_propagator(seq: PulseSequence, spin: NuclearSpinParams,
                    electron: ElectronQubitSpec) -> ConditionalRotation:
    """Exact conditional rotation of one sequence unit (see unit_quaternions)."""
    rows, floats = _unit_rows(_unit_axes(spin.A, spin.B, spin.omega_L, electron),
                              seq.spacings, seq.unit_time)
    return ConditionalRotation._of(rows) if floats else ConditionalRotation(rows)


def iterate(rot: ConditionalRotation, N: int) -> ConditionalRotation:
    """N repetitions of the unit, an integer N >= 1: power on Python floats, bit for bit."""
    N = _integer(N, "N", 1)  # power takes fractions
    rows = []
    for (_, x, y, z), h, s in zip(rot._rows, *rot.half_angles()):
        half = N * h
        # math's cos and sin raise on an infinite angle, where numpy gives NaN
        c, sn = (math.cos(half), math.sin(half)) if math.isfinite(half) else (math.nan,) * 2
        x, y, z, s = (x, y, z, s) if s >= _EPS_AXIS else (0.0, 0.0, 1.0, 1.0)
        rows.append((c, sn * (x / s), sn * (y / s), sn * (z / s)))
    return ConditionalRotation._of(tuple(rows))


# ---------------------------------------------------------------------------
# resonance and coherence

RESONANCE_VARIANTS = ("primary", "udd4_extra")


def resonance_time(spin: NuclearSpinParams, electron: ElectronQubitSpec,
                   k: int, variant: str = "primary") -> float:
    """k-th resonance unit time t_k = 4*pi*(2k-1)/(omega_0 + omega_1).

    variant is one of RESONANCE_VARIANTS; "udd4_extra" returns the
    additional UDD4 family at twice the time.  A k that is not an integer
    >= 1, or whose time overflows, raises ValueError.
    """
    k = _integer(k, "k", 1)  # a numpy integer could wrap in 2k - 1
    if variant not in RESONANCE_VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    wsum = (branch_frequency(spin, electron.s0)
            + branch_frequency(spin, electron.s1))
    if not math.isfinite(wsum):
        raise ValueError(f"{spin.label}: branch frequencies sum to {wsum}, "
                         f"so no resonance time")
    t = 4.0 * math.pi * (2 * k - 1) / wsum
    if variant == "udd4_extra":
        t *= 2.0
    if t == math.inf:
        raise ValueError(f"k={k} is too large: the resonance time of {spin.label} "
                         f"overflows")
    return t


def coherence(rot: ConditionalRotation) -> tuple[float, float]:
    """Electron coherence M = Re tr(R0^dag R1)/2 and the probability (1+M)/2."""
    q0, q1 = rot.quaternions
    m = float(np.clip(q0 @ q1, -1.0, 1.0))  # keeps a NaN, unlike min/max
    return m, 0.5 * (1.0 + m)
