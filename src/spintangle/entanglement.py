"""Makhlin invariants, one-tangles, and iteration-count search.

For the conditional gate U = |0><0| x R_{n0}(phi0) + |1><1| x R_{n1}(phi1)
iterated N times, the local invariants reduce to one amplitude of the
half angles h_j = phi_j/2 and the axis dot product n01 = n0 . n1:

    m  = cos(N h0) cos(N h1) + n01 sin(N h0) sin(N h1)
       = 1/2 (1 + n01) cos(N (h0 - h1)) + 1/2 (1 - n01) cos(N (h0 + h1)),
    G1 = m^2,
    G2 = 1 + n01 sin(N phi0) sin(N phi1)
           + 2 (cos^2(N h0) cos^2(N h1) + n01^2 sin^2(N h0) sin^2(N h1))
       = 1 + 2 m^2.

m is also the electron coherence Re tr(R0^N^dag R1^N)/2.  Both invariants
are insensitive to the [0, pi] angle convention, so the raw accumulated
angles are used directly.
"""
from __future__ import annotations

import math

import numpy as np

from .spin_model import _EPS_AXIS, ConditionalRotation, half_angles

MAX_PAIR_TANGLE = 2.0 / 9.0


def branch_angles(quats) -> tuple:
    """Unit half angles (h0, h1) and raw axis dot n01 of branch quaternions.

    quats has shape (2, 4, ...): branch, then (w, x, y, z), as returned by
    unit_quaternions or ConditionalRotation.quaternions.  n01 is 1 when
    either branch is trivial.  One rotation's (2, 4) array is read on Python
    floats (see half_angles), anything else on arrays: bit for bit alike.
    """
    if getattr(quats, "shape", None) == (2, 4):
        rows = quats.tolist()
        (h0, h1), (s0, s1) = half_angles(rows)
        (_, x0, y0, z0), (_, x1, y1, z1) = rows
        # max() keeps a NaN product only as its first argument
        return h0, h1, (1.0 if s0 < _EPS_AXIS or s1 < _EPS_AXIS
                        else (x0 * x1 + y0 * y1 + z0 * z1) / max(s0 * s1, 1e-300))
    q = np.asarray(quats, dtype=float)
    h, s = half_angles(q)
    dot = np.sum(q[0, 1:] * q[1, 1:], axis=0)
    n01 = np.where((s[0] < _EPS_AXIS) | (s[1] < _EPS_AXIS), 1.0,
                   dot / np.maximum(s[0] * s[1], 1e-300))
    return h[0], h[1], n01


def g1_amplitude(h0, h1, n01, N):
    """The amplitude m(N) with G1 = m^2, broadcast over all arguments.

    Written as cos(N(h0-h1)) minus its (1-n01)/2 share of the difference
    to cos(N(h0+h1)), so that N = 0 gives exactly 1: phase_amplitude of
    the phase rates h0 - h1 and h0 + h1 and the weight (1-n01)/2.
    """
    return phase_amplitude(h0 - h1, h0 + h1, 0.5 * (1.0 - n01), N)


def phase_amplitude(d, sigma, weight, N, out=None):
    """m(N) = cos(N d) - weight (cos(N d) - cos(N sigma)), broadcast.

    Python floats with an int N and finite phases N d and N sigma run on
    math.cos: numpy's bits, no ufunc call.  Otherwise numpy computes it,
    into out when given: a float array of the broadcast shape.
    """
    if type(d) is type(sigma) is type(weight) is float and type(N) is int:
        # math.cos raises on an infinite phase, where np.cos gives NaN
        phase_d, phase_s = N * d, N * sigma
        if math.isfinite(phase_d) and math.isfinite(phase_s):
            c_diff = math.cos(phase_d)
            return c_diff - weight * (c_diff - math.cos(phase_s))
    c_diff = np.cos(np.multiply(N, d, out=out), out=out)
    return np.subtract(c_diff, weight * (c_diff - np.cos(N * sigma)), out=out)


def tangle_upper_bound(h0, h1, n01, N_max):
    """Bound 2(1-n01) + (N_max (h0-h1))^2 on 1 - G1 for 0 <= N <= N_max.

    From m >= cos(N(h0-h1)) - (1-n01) and 1 - G1 <= 2(1-m); NaN stays NaN.
    """
    return 2.0 * (1.0 - n01) + (N_max * (h0 - h1)) ** 2


def g1_from_angles(h0, h1, n01, N):
    """G1 = min(1, m^2), broadcast over all arguments (see g1_amplitude)."""
    return g1_from_phase_rates(h0 - h1, h0 + h1, 0.5 * (1.0 - n01), N)


def g1_from_phase_rates(d, sigma, weight, N, out=None):
    """G1 = min(1, m^2) of phase_amplitude, into out when given."""
    m = phase_amplitude(d, sigma, weight, N, out)
    # min() keeps a NaN first argument; np.minimum keeps it in either place
    if type(m) is float:
        return min(m * m, 1.0)
    return np.minimum(1.0, np.multiply(m, m, out=out), out=out)


def makhlin_g1(rot: ConditionalRotation, N: int) -> float:
    """First Makhlin invariant of the iterated conditional gate, in [0, 1]."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return float(g1_from_angles(*branch_angles(rot.quaternions), N))


def makhlin_g2(rot: ConditionalRotation, N: int) -> float:
    """Second Makhlin invariant, in [1, 3]."""
    return 1.0 + 2.0 * makhlin_g1(rot, N)


def entangling_power(rot: ConditionalRotation, N: int) -> float:
    """Two-qubit entangling power (2/9)(1 - |G1|)."""
    return MAX_PAIR_TANGLE * (1.0 - abs(makhlin_g1(rot, N)))


def nuclear_one_tangle(rot: ConditionalRotation, N: int,
                       scaled: bool = False) -> float:
    """Average one-tangle of this nucleus against the rest, (2/9)(1 - G1)."""
    val = 1.0 - makhlin_g1(rot, N)
    return val if scaled else MAX_PAIR_TANGLE * val


def electron_one_tangle(rots: list[ConditionalRotation], N: int,
                        scaled: bool = False) -> float:
    """Average electron one-tangle, (1 - prod_i (1 + 2 G1_i)/3) / 3."""
    if not rots:
        raise ValueError("need at least one nuclear rotation")
    # each factor lies in [1/3, 1], so the product cannot overflow
    val = 1.0 - math.prod((1.0 + 2.0 * makhlin_g1(r, N)) / 3.0 for r in rots)
    return val if scaled else val / 3.0


def one_tangle_bound(n: int) -> float:
    """Upper bound of the single-qubit one-tangle in an n-qubit register.

    Enumerates all 2^n secondary bipartitions of the purification; each
    contributes the inverse of the smaller effective dimension.
    """
    if n < 2:
        raise ValueError("need n >= 2 qubits")
    total = 0.0
    for size in range(n + 1):
        dim = min(2 ** (n - 1 + size), 2 ** (1 + n - size))
        total += math.comb(n, size) / dim
    return 1.0 - (2.0 / 3.0) ** n * total


# ---------------------------------------------------------------------------
# iteration-count search

G1_MAXIMAL_THRESHOLD = 0.05


def g1_over_iterations(quats, counts) -> np.ndarray:
    """G1 of branch quaternions (2, 4, *S) at each count, shape S + (len(counts),)."""
    h0, h1, n01 = (np.asarray(a)[..., None] for a in branch_angles(quats))
    return g1_from_angles(h0, h1, n01, counts)


def optimal_iterations(rot: ConditionalRotation, N_max: int = 300,
                       threshold: float = G1_MAXIMAL_THRESHOLD) -> list[int]:
    """Iteration counts with nearly maximal one-tangle (G1 below threshold).

    Membership is decided by direct evaluation of G1 at every integer
    N <= N_max, which subsumes the closed-form minima estimates (see
    analytic_iteration_candidates) and also covers unequal-angle sequences.
    """
    g1 = g1_over_iterations(rot.quaternions, np.arange(1, N_max + 1))
    hits = np.nonzero(g1 < threshold)[0] + 1
    return [int(v) for v in hits]


def _folded_angle(h: float) -> float:
    """Rotation angle in [0, pi] of a branch with half angle h in [0, pi]."""
    # min() returns a NaN first argument
    return 2.0 * min(h, math.pi - h)


def analytic_iteration_candidates(rot: ConditionalRotation,
                                  kappa_range=range(1, 11),
                                  angle_tol: float = 1e-9) -> list[int]:
    """Closed-form G1-minimum estimates for equal-angle sequences.

    Valid when phi0 = phi1 (CPMG and symmetrized UDD3).  For n01 < 0 the
    minima sit at N = round[(2 kappa pi -/+ 2 atan sqrt(-1/n01)) / phi0]
    (offset by -pi between the two families); for n01 near 0 they follow
    N = round[(2 kappa + 1) pi / phi0].  For n01 > 0 G1 cannot vanish and
    no candidates are produced.
    """
    h0, h1, n01 = branch_angles(rot.quaternions)
    phi, phi1 = _folded_angle(h0), _folded_angle(h1)
    if abs(phi - phi1) > angle_tol:
        raise ValueError("analytic minima require phi0 = phi1")
    # a branch turned by less than the axis threshold has n01 = 1: no minima
    if min(phi, phi1) < 2.0 * _EPS_AXIS:
        return []
    # folding one branch past pi flips its axis
    if (h0 > math.pi / 2.0) != (h1 > math.pi / 2.0):
        n01 = -n01
    out: set[int] = set()
    if n01 < -1e-9:
        delta = 2.0 * math.atan(math.sqrt(-1.0 / n01))
        for kappa in kappa_range:
            for val in ((2.0 * kappa * math.pi - delta) / phi,
                        ((2.0 * kappa - 1.0) * math.pi + delta) / phi):
                n = round(val)
                if n >= 1:
                    out.add(n)
    elif abs(n01) <= 1e-9:
        for kappa in kappa_range:
            n = round((2.0 * kappa + 1.0) * math.pi / phi)
            if n >= 1:
                out.add(n)
    return sorted(out)


def udd4_jump_locations(rot: ConditionalRotation, N_max: int) -> list[int]:
    """Predicted N where the iterated axis dot product jumps (unequal angles).

    The jumps cluster around N = round[2 kappa pi / (phi0 + phi1)]; sequences
    with identical branch angles have none.
    """
    h0, h1, _ = branch_angles(rot.quaternions)
    phi_sum = _folded_angle(h0) + _folded_angle(h1)
    if abs(h0 - h1) < 1e-12 or phi_sum <= 0:
        return []
    out = []
    kappa = 1
    while True:
        n = round(2.0 * kappa * math.pi / phi_sum)
        if n > N_max:
            break
        if n >= 1 and (not out or out[-1] != n):
            out.append(n)
        kappa += 1
    return out
