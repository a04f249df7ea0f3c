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
from dataclasses import dataclass

import numpy as np

from .spin_model import ConditionalRotation

MAX_PAIR_TANGLE = 2.0 / 9.0


def branch_angles(quats) -> tuple:
    """Unit half angles (h0, h1) and raw axis dot n01 of branch quaternions.

    quats has shape (2, 4, ...): branch, then (w, x, y, z), as returned by
    unit_quaternions or ConditionalRotation.quaternions.  n01 is 1 when
    either branch is trivial.
    """
    q = np.asarray(quats, dtype=float)
    s = np.sqrt(np.sum(q[:, 1:] ** 2, axis=1))
    h = np.arctan2(s, q[:, 0])
    dot = np.sum(q[0, 1:] * q[1, 1:], axis=0)
    n01 = np.where((s[0] < 1e-12) | (s[1] < 1e-12), 1.0,
                   dot / np.maximum(s[0] * s[1], 1e-300))
    return h[0], h[1], n01


def g1_amplitude(h0, h1, n01, N):
    """The amplitude m(N) with G1 = m^2, broadcast over all arguments.

    Written as cos(N(h0-h1)) minus its (1-n01)/2 share of the difference
    to cos(N(h0+h1)), so that N = 0 gives exactly 1.
    """
    c_diff = np.cos(N * (h0 - h1))
    return c_diff - 0.5 * (1.0 - n01) * (c_diff - np.cos(N * (h0 + h1)))


def makhlin_g1(rot: ConditionalRotation, N: int) -> float:
    """First Makhlin invariant of the iterated conditional gate, in [0, 1]."""
    if N < 0:
        raise ValueError("N must be >= 0")
    m = g1_amplitude(*branch_angles(rot.quaternions), N)
    # np.minimum, unlike min(), keeps a NaN amplitude NaN
    return float(np.minimum(1.0, m * m))


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
    return tangle_profile(rots, N, scaled).electron_tangle


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


@dataclass(frozen=True)
class TangleProfile:
    """Per-nucleus G1 values with derived tangles for one (t, N) point."""

    g1_values: tuple
    scaled: bool = False

    @property
    def nuclear_tangles(self) -> tuple:
        scale = 1.0 if self.scaled else MAX_PAIR_TANGLE
        return tuple(scale * (1.0 - g) for g in self.g1_values)

    @property
    def electron_tangle(self) -> float:
        # each factor lies in [1/3, 1], so the product cannot overflow
        val = 1.0 - math.prod((1.0 + 2.0 * g) / 3.0 for g in self.g1_values)
        return val if self.scaled else val / 3.0


def tangle_profile(rots: list[ConditionalRotation], N: int,
                   scaled: bool = False) -> TangleProfile:
    return TangleProfile(tuple(makhlin_g1(r, N) for r in rots), scaled)


# ---------------------------------------------------------------------------
# iteration-count search

G1_MAXIMAL_THRESHOLD = 0.05


def g1_over_iterations(rot: ConditionalRotation, N_max: int) -> np.ndarray:
    """Vector of G1 values for N = 1..N_max (index 0 is N=1)."""
    m = g1_amplitude(*branch_angles(rot.quaternions), np.arange(1, N_max + 1))
    return np.minimum(1.0, m * m)


def optimal_iterations(rot: ConditionalRotation, N_max: int = 300,
                       threshold: float = G1_MAXIMAL_THRESHOLD) -> list[int]:
    """Iteration counts with nearly maximal one-tangle (G1 below threshold).

    Membership is decided by direct evaluation of G1 at every integer
    N <= N_max, which subsumes the closed-form minima estimates (see
    analytic_iteration_candidates) and also covers unequal-angle sequences.
    """
    g1 = g1_over_iterations(rot, N_max)
    hits = np.nonzero(g1 < threshold)[0] + 1
    return [int(v) for v in hits]


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
    phi, phi1 = rot.phi0, rot.phi1
    n01 = rot.axis_dot
    if abs(phi - phi1) > angle_tol:
        raise ValueError("analytic minima require phi0 = phi1")
    if phi <= 0:
        return []
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
    h0u, h1u = (float(h) for h in branch_angles(rot.quaternions)[:2])
    phi_sum = 2.0 * (min(h0u, math.pi - h0u) + min(h1u, math.pi - h1u))
    if abs(h0u - h1u) < 1e-12 or phi_sum <= 0:
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
