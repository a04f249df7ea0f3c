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
from dataclasses import dataclass
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
        for name in ("A", "B", "omega_L"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.B < 0:
            raise ValueError("B must be nonnegative")
        if self.omega_L <= 0:
            raise ValueError("omega_L must be positive")

    @classmethod
    def from_khz(cls, label: str, a_khz: float, b_khz: float,
                 larmor_khz: float) -> "NuclearSpinParams":
        return cls(label, a_khz * KHZ, b_khz * KHZ, larmor_khz * KHZ)


@dataclass(frozen=True)
class ElectronQubitSpec:
    """Spin projections of the two electron levels forming the qubit."""

    s0: float
    s1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s0) and math.isfinite(self.s1)):
            raise ValueError("projections must be finite")
        if self.s0 == self.s1:
            raise ValueError("s0 and s1 must differ")


def branch_frequency(spin: NuclearSpinParams, s: float) -> float:
    return math.hypot(spin.omega_L + s * spin.A, s * spin.B)


# ---------------------------------------------------------------------------
# pulse sequences


@dataclass(frozen=True)
class PulseSequence:
    """Normalized interpulse spacings q_1..q_{n+1} plus the unit duration."""

    spacings: tuple
    unit_time: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.unit_time) and self.unit_time > 0):
            raise ValueError(f"unit_time must be positive and finite, got {self.unit_time}")
        q = np.asarray(self.spacings, dtype=float)
        if np.any(q < 0):
            raise ValueError("spacings must be nonnegative")
        if abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("spacings must sum to 1")
        if (len(q) - 1) % 2 != 0:
            raise ValueError("pulse count must be even; symmetrize odd bases")

    @property
    def pulse_count(self) -> int:
        return len(self.spacings) - 1


def _udd_spacings(n: int) -> np.ndarray:
    s = np.arange(1, n + 2)
    edges = np.sin(np.pi * s / (2 * n + 2)) ** 2
    prev = np.sin(np.pi * (s - 1) / (2 * n + 2)) ** 2
    return edges - prev


def _symmetrize(q: np.ndarray) -> np.ndarray:
    # Odd pulse count: repeat the unit twice at half scale, merging the
    # boundary spacings, so the doubled unit has an even pulse count.
    h = q / 2.0
    return np.concatenate([h[:-1], [h[-1] + h[0]], h[1:]])


def build_sequence(kind: str, unit_time: float,
                   custom_spacings: Sequence[float] | None = None) -> PulseSequence:
    """Build a pi-pulse sequence unit.

    kind is "cpmg", "uddN" for N >= 1, or "custom" (with custom_spacings).
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
        q = _udd_spacings(n)
    elif kind == "custom":
        if custom_spacings is None:
            raise ValueError("custom sequence needs custom_spacings")
        q = np.asarray(custom_spacings, dtype=float)
        if abs(q.sum() - 1.0) > 1e-12:
            raise ValueError("custom spacings must sum to 1")
    else:
        raise ValueError(f"unsupported sequence kind: {kind!r}")
    if (len(q) - 1) % 2 != 0:
        q = _symmetrize(q)
    return PulseSequence(tuple(q.tolist()), unit_time)


# ---------------------------------------------------------------------------
# rotations

class Rotation:
    """A single-qubit rotation stored as the quadruple (cos(phi/2), sin(phi/2)*n).

    The quadruple is the SU(2) element w*I - i*(v . sigma); keeping it avoids
    trigonometric loss in long compositions and preserves the relative sign
    between electron branches, which carries a physical conditional phase.
    """

    __slots__ = ("w", "v")

    def __init__(self, w: float, v) -> None:
        self.w = float(w)
        self.v = np.asarray(v, dtype=float)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(1.0, np.zeros(3))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        n = np.asarray(axis, dtype=float)
        norm = np.linalg.norm(n)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("axis must be a unit vector")
        return cls(math.cos(angle / 2.0), math.sin(angle / 2.0) * (n / norm))

    # -- queries ----------------------------------------------------------

    def axis_angle(self) -> tuple[np.ndarray, float, bool]:
        """Extract (axis, angle, near_identity) with angle folded into [0, pi].

        Angles above pi are replaced by 2*pi - phi with the axis sign-flipped.
        A near-identity rotation reports the z axis by convention.
        """
        s = float(np.linalg.norm(self.v))
        if s < _EPS_AXIS:
            return np.array([0.0, 0.0, 1.0]), 0.0, True
        phi = 2.0 * math.atan2(s, self.w)
        if phi > math.pi:
            return -self.v / s, 2.0 * math.pi - phi, False
        return self.v / s, phi, False

    def matrix(self) -> np.ndarray:
        w, (x, y, z) = self.w, self.v
        return np.array([[w - 1j * z, -y - 1j * x],
                         [y - 1j * x, w + 1j * z]])

    # -- algebra ----------------------------------------------------------

    def compose(self, other: "Rotation") -> "Rotation":
        """Product rotation self . other (other acts first)."""
        w1, v1 = self.w, self.v
        w2, v2 = other.w, other.v
        return Rotation(w1 * w2 - float(v1 @ v2),
                        w1 * v2 + w2 * v1 + np.cross(v1, v2))

    def power(self, n: float) -> "Rotation":
        """Exact n-th power: the angle scales on a fixed axis."""
        w, *v = _quaternion_power(self.w, *self.v.tolist(), n)
        return Rotation(w, v)

    def __repr__(self) -> str:  # pragma: no cover
        n, phi, trivial = self.axis_angle()
        return f"Rotation(phi={phi:.6g}, n={np.round(n, 6)}, trivial={trivial})"


# ---------------------------------------------------------------------------
# conditional rotations


def _quaternion_power(w: float, x: float, y: float, z: float,
                      n: float) -> tuple[float, float, float, float]:
    """n-th power of one quaternion: the half angle scales on a fixed axis.

    A near-identity quaternion keeps the z axis; NaN stays NaN.
    """
    s = math.sqrt(x * x + y * y + z * z)
    half = n * math.atan2(s, w)
    axis = (x / s, y / s, z / s) if s >= _EPS_AXIS else (0.0, 0.0, 1.0)
    sn = math.sin(half)
    return math.cos(half), sn * axis[0], sn * axis[1], sn * axis[2]


@dataclass(frozen=True, eq=False, init=False)
class ConditionalRotation:
    """Per-branch rotations of one unit (or N), as read-only (2, 4) quaternions."""

    quaternions: np.ndarray

    def __init__(self, r0: Rotation, r1: Rotation) -> None:
        q = np.array([[r0.w, *r0.v.tolist()], [r1.w, *r1.v.tolist()]])
        q.flags.writeable = False
        object.__setattr__(self, "quaternions", q)

    @classmethod
    def from_axis_angles(cls, n0, phi0: float, n1, phi1: float) -> "ConditionalRotation":
        return cls(Rotation.from_axis_angle(n0, phi0),
                   Rotation.from_axis_angle(n1, phi1))

    @classmethod
    def from_quaternions(cls, q) -> "ConditionalRotation":
        """Hold a (2, 4) array of branch quaternions (w, x, y, z) as a read-only view."""
        view = np.asarray(q, dtype=float).view()
        view.flags.writeable = False
        rot = cls.__new__(cls)
        object.__setattr__(rot, "quaternions", view)
        return rot

    @property
    def r0(self) -> Rotation:
        return Rotation(self.quaternions[0, 0], self.quaternions[0, 1:])

    @property
    def r1(self) -> Rotation:
        return Rotation(self.quaternions[1, 0], self.quaternions[1, 1:])

    @property
    def n0(self) -> np.ndarray:
        return self.r0.axis_angle()[0]

    @property
    def phi0(self) -> float:
        return self.r0.axis_angle()[1]

    @property
    def n1(self) -> np.ndarray:
        return self.r1.axis_angle()[0]

    @property
    def phi1(self) -> float:
        return self.r1.axis_angle()[1]

    @property
    def axis_dot(self) -> float:
        """n0 . n1 under the [0, pi] convention; 1 when either branch is trivial."""
        n0, _, t0 = self.r0.axis_angle()
        n1, _, t1 = self.r1.axis_angle()
        if t0 or t1:
            return 1.0
        return float(n0 @ n1)


def unit_quaternions(A, B, omega_L, electron: ElectronQubitSpec,
                     spacings, t) -> np.ndarray:
    """Exact branch quaternions of one unit, broadcast over A, B, omega_L and t.

    Branch j sees H_j during the odd spacings and H_{1-j} during the even
    ones; the segment rotations, about the axis (s B, 0, omega_L + s A)/omega,
    are composed in time order.  Returns an array of shape (2, 4, *shape):
    branch, then (w, x, y, z), over the broadcast shape of A, B, omega_L, t.
    """
    segments = {}
    for s in (electron.s0, electron.s1):
        wz = omega_L + s * A
        wx = s * B
        w = np.hypot(wz, wx)
        # a branch with zero frequency does not rotate; give it the z axis
        still = w == 0.0
        segments[s] = (wx / (w + still), (wz + still) / (w + still), 0.5 * w * t)
    out = []
    for order in ((electron.s0, electron.s1), (electron.s1, electron.s0)):
        w, x, y, z = 1.0, 0.0, 0.0, 0.0
        for i, q in enumerate(spacings):
            nx, nz, half_rate = segments[order[i % 2]]
            c, sn = np.cos(half_rate * q), np.sin(half_rate * q)
            # left-multiply by the segment quaternion (c, sn*(nx, 0, nz))
            w, x, y, z = (c * w - sn * (nx * x + nz * z),
                          c * x + sn * (nx * w - nz * y),
                          c * y + sn * (nz * x - nx * z),
                          c * z + sn * (nz * w + nx * y))
        # after the first segment every component has the full shape
        out.append((w, x, y, z))
    return np.array(out)


def unit_propagator(seq: PulseSequence, spin: NuclearSpinParams,
                    electron: ElectronQubitSpec) -> ConditionalRotation:
    """Exact conditional rotation of one sequence unit (see unit_quaternions)."""
    return ConditionalRotation.from_quaternions(unit_quaternions(
        spin.A, spin.B, spin.omega_L, electron, seq.spacings, seq.unit_time))


def iterate(rot: ConditionalRotation, N: int) -> ConditionalRotation:
    """N repetitions of the unit: exact rotation powers per branch."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return ConditionalRotation.from_quaternions(
        np.array([_quaternion_power(*q, N) for q in rot.quaternions.tolist()]))


# ---------------------------------------------------------------------------
# resonance and coherence


def resonance_time(spin: NuclearSpinParams, electron: ElectronQubitSpec,
                   k: int, variant: str = "primary") -> float:
    """k-th resonance unit time t_k = 4*pi*(2k-1)/(omega_0 + omega_1).

    variant "udd4_extra" returns the additional UDD4 family at twice the time.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    wsum = (branch_frequency(spin, electron.s0)
            + branch_frequency(spin, electron.s1))
    t = 4.0 * math.pi * (2 * k - 1) / wsum
    if variant == "primary":
        return t
    if variant == "udd4_extra":
        return 2.0 * t
    raise ValueError(f"unknown variant: {variant!r}")


def coherence(rot: ConditionalRotation) -> tuple[float, float]:
    """Electron coherence M = Re tr(R0^dag R1)/2 and the probability (1+M)/2."""
    q0, q1 = rot.quaternions
    m = float(np.clip(q0 @ q1, -1.0, 1.0))  # keeps a NaN, unlike min/max
    return m, 0.5 * (1.0 + m)


# ---------------------------------------------------------------------------
# trivial evolution


def trivial_evolution_condition(spin: NuclearSpinParams,
                                electron: ElectronQubitSpec,
                                t: float, kappa_max: int,
                                tol: float = 1e-6) -> tuple[bool, float]:
    """Check whether both branches decouple at unit time t.

    For a branch with projection s != 0 the condition is that (A, B) lies on
    a circle of center (-omega_L/s, 0) and radius 8*kappa*pi/(s*t) for some
    kappa <= kappa_max (only radii exceeding the center offset are valid).
    A branch with s = 0 decouples when t is a multiple of the Larmor period
    pair t = 8*kappa*pi/omega_L.  Returns (ok, worst relative residual).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    worst = 0.0
    for s in (electron.s0, electron.s1):
        best = math.inf
        if s == 0:
            for kappa in range(1, kappa_max + 1):
                ref = 8.0 * kappa * math.pi / spin.omega_L
                best = min(best, abs(t - ref) / ref)
        else:
            dx = spin.A + spin.omega_L / s
            d = math.hypot(dx, spin.B)
            for kappa in range(1, kappa_max + 1):
                radius = abs(8.0 * kappa * math.pi / (s * t))
                if radius * radius < dx * dx:
                    continue
                best = min(best, abs(d - radius) / radius)
        worst = max(worst, best)
    return worst < tol, worst


def trivial_evolution_radius(electron_s: float, t: float, kappa: int) -> float:
    """Radius of the kappa-th decoupling circle for one electron branch."""
    if electron_s == 0:
        raise ValueError("s = 0 branch has no circle; decoupling is periodic in t")
    return abs(8.0 * kappa * math.pi / (electron_s * t))


# ---------------------------------------------------------------------------
# closed-form per-unit rotation angles


def _g_factor(a_half: float, b_half: float, cos_tilt: float) -> float:
    return (math.cos(a_half) * math.cos(b_half)
            - cos_tilt * math.sin(a_half) * math.sin(b_half))


def closed_form_angles(kind: str, spin: NuclearSpinParams,
                       electron: ElectronQubitSpec, t: float) -> tuple[float, float]:
    """Analytic per-unit rotation angles (phi0, phi1) in [0, pi].

    kind selects the spacing family: "two_pi" (CPMG), "three_pi" (symmetrized
    UDD3, six pulses) or "four_pi" (UDD4).  Angles agree with the propagator
    extraction; for the 2- and 3-pi families phi0 = phi1 identically.
    """
    w0 = branch_frequency(spin, electron.s0) * t
    w1 = branch_frequency(spin, electron.s1) * t
    th0 = math.atan2(electron.s0 * spin.B, spin.omega_L + electron.s0 * spin.A)
    th1 = math.atan2(electron.s1 * spin.B, spin.omega_L + electron.s1 * spin.A)

    def one_branch(wa: float, wb: float, tilt: float) -> float:
        ct, st2 = math.cos(tilt), math.sin(tilt) ** 2
        if kind == "two_pi":
            q = (0.25, 0.5, 0.25)
            val = _g_factor((q[0] + q[2]) * wa / 2.0, q[1] * wb / 2.0, ct)
        elif kind == "four_pi":
            q = _udd_spacings(4)
            odd = (q[0] + q[2] + q[4]) * wa / 2.0
            even = (q[1] + q[3]) * wb / 2.0
            val = (_g_factor(odd, even, ct)
                   - 2.0 * st2 * math.sin(q[1] * wb / 2.0)
                   * math.sin(q[2] * wa / 2.0)
                   * math.sin(q[3] * wb / 2.0)
                   * math.sin((q[0] + q[4]) * wa / 2.0))
        elif kind == "three_pi":
            qb = _udd_spacings(3)
            q1, q2 = qb[0] / 2.0, qb[1] / 2.0
            odd = (2.0 * q1 + 2.0 * q2) * wa / 2.0
            even = (2.0 * q1 + 2.0 * q2) * wb / 2.0
            val = (_g_factor(odd, even, ct)
                   + 4.0 * ct * st2
                   * math.sin(q1 * wa) * math.sin(q1 * wb)
                   * math.sin(q2 * wa / 2.0) ** 2
                   * math.sin(q2 * wb / 2.0) ** 2
                   - 2.0 * st2 * math.cos(q1 * wb) * math.sin(q1 * wa)
                   * math.sin(q2 * wa) * math.sin(q2 * wb / 2.0) ** 2
                   - 2.0 * st2 * math.sin(q1 * wb) * math.sin(q2 * wb)
                   * math.sin(q2 * wa / 2.0)
                   * math.sin(q1 * wa + q2 * wa / 2.0))
        else:
            raise ValueError(f"unsupported kind: {kind!r}")
        return 2.0 * math.acos(np.clip(val, -1.0, 1.0))  # keeps a NaN

    phi0 = one_branch(w0, w1, th0 - th1)
    phi1 = one_branch(w1, w0, th1 - th0)
    if phi0 > math.pi:
        phi0 = 2.0 * math.pi - phi0
    if phi1 > math.pi:
        phi1 = 2.0 * math.pi - phi1
    return phi0, phi1
