"""Makhlin invariants, one-tangles, and iteration-count search.

For the conditional gate U = |0><0| x R_{n0}(phi0) + |1><1| x R_{n1}(phi1)
iterated N times, the local invariants reduce to one amplitude m of the
phase_rates: d = h0 - h1 and sigma = h0 + h1 of the half angles h_j = phi_j/2,
and the weight w = (1 - n01)/2 of the axis dot product n01 = n0 . n1:

    m  = cos(N h0) cos(N h1) + n01 sin(N h0) sin(N h1)
       = cos(N d) - w (cos(N d) - cos(N sigma)),
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

from .spin_model import _EPS_AXIS, ConditionalRotation, _integer, _real, half_angles

MAX_PAIR_TANGLE = 2.0 / 9.0


def branch_angles(quats) -> tuple:
    """Unit half angles (h0, h1) and raw axis dot n01 of branch quaternions.

    Reads a ConditionalRotation on Python floats (its half_angles()), or a
    (2, 4, ...) array, (w, x, y, z) per branch as unit_quaternions returns, on
    arrays, bit for bit alike.  n01 is 1 when either branch is trivial.
    """
    if isinstance(quats, ConditionalRotation):
        (h0, h1), (s0, s1) = quats.half_angles()
        (_, x0, y0, z0), (_, x1, y1, z1) = quats._rows
        # max() keeps a NaN product only as its first argument
        return h0, h1, (1.0 if s0 < _EPS_AXIS or s1 < _EPS_AXIS
                        else (x0 * x1 + y0 * y1 + z0 * z1) / max(s0 * s1, 1e-300))
    q = np.asarray(quats, dtype=float)
    h, s = half_angles(q)
    dot = np.sum(q[0, 1:] * q[1, 1:], axis=0)
    n01 = np.where((s[0] < _EPS_AXIS) | (s[1] < _EPS_AXIS), 1.0,
                   dot / np.maximum(s[0] * s[1], 1e-300))
    return h[0], h[1], n01


def phase_rates(quats) -> tuple:
    """Rates d = h0 - h1, sigma = h0 + h1, weight (1 - n01)/2 of branch_angles."""
    h0, h1, n01 = branch_angles(quats)
    return h0 - h1, h0 + h1, 0.5 * (1.0 - n01)


def phase_amplitude(d, sigma, weight, N, out=None):
    """m(N) = cos(N d) - weight (cos(N d) - cos(N sigma)), exactly 1 at N = 0.

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


def tangle_upper_bound(d, weight, N_max):
    """Bound 4 weight + (N_max d)^2 on 1 - G1 for 0 <= N <= N_max.

    From m >= cos(N d) - 2 weight and 1 - G1 <= 2(1-m); NaN stays NaN.
    """
    # x * x, as numpy squares: a float ** goes through C pow, which can
    # differ in the last bit and raises OverflowError where x * x gives inf
    x = N_max * d
    return 4.0 * weight + x * x


def g1_from_phase_rates(d, sigma, weight, N, out=None):
    """G1 = min(1, m^2) of phase_amplitude, into out when given."""
    m = phase_amplitude(d, sigma, weight, N, out)
    # min() keeps a NaN first argument; np.minimum keeps it in either place
    if type(m) is float:
        return min(m * m, 1.0)
    return np.minimum(1.0, np.multiply(m, m, out=out), out=out)


def makhlin_g1(rot: ConditionalRotation, N: int) -> float:
    """First Makhlin invariant of the iterated conditional gate, in [0, 1]."""
    N = _integer(N, "N", 0)
    return float(g1_from_phase_rates(*phase_rates(rot), N))


def makhlin_g2(rot: ConditionalRotation, N: int) -> float:
    """Second Makhlin invariant, in [1, 3]."""
    return 1.0 + 2.0 * makhlin_g1(rot, N)


def entangling_power(rot: ConditionalRotation, N: int) -> float:
    """Two-qubit entangling power (2/9)(1 - G1): the nuclear one-tangle."""
    return nuclear_one_tangle(rot, N)


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
    val = 1.0 - math.prod(makhlin_g2(r, N) / 3.0 for r in rots)
    return val if scaled else val / 3.0


# ---------------------------------------------------------------------------
# iteration-count search

G1_MAXIMAL_THRESHOLD = 0.05
# cap on an iteration-count search: a row of G1 holds N_max values per spin
MAX_N_MAX = 10 ** 4


def g1_over_iterations(quats, counts) -> np.ndarray:
    """G1 of branch quaternions (2, 4, *S), or of one ConditionalRotation with
    S = (), at each count: shape S + (len(counts),)."""
    return g1_from_phase_rates(*(np.asarray(a)[..., None] for a in phase_rates(quats)),
                               counts)


def optimal_iterations(rot: ConditionalRotation, N_max: int = 300,
                       threshold: float = G1_MAXIMAL_THRESHOLD) -> list[int]:
    """Iteration counts with nearly maximal one-tangle (G1 below threshold).

    Membership is decided by direct evaluation of G1 at every integer N <= N_max,
    which subsumes the closed-form minima estimates of the oracle's
    analytic_iteration_candidates and also covers unequal-angle sequences.
    N_max < 1 gives []; N_max above MAX_N_MAX or threshold outside (0, 1] raise ValueError.
    """
    N_max = _integer(N_max, "N_max", below=MAX_N_MAX + 1)
    threshold = _real(threshold, "threshold", 0, 1, "(]")
    g1 = g1_over_iterations(rot, np.arange(1, N_max + 1))
    hits = np.nonzero(g1 < threshold)[0] + 1
    return [int(v) for v in hits]
