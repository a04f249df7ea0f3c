"""Analytic target-subspace gate fidelity over the unwanted-spin bath.

Tracing out the L-K unwanted nuclei (environment initialized to |0...0>)
yields Kraus operators indexed by the environment basis state i.  In terms
of a branch quaternion q_j = (w_j, x_j, y_j, z_j), a nucleus keeps |0> with
amplitude a_j = <0|R_j|0> = w_j - i z_j and flips with b_j = <1|R_j|0> =
y_j - i x_j.  Each index contributes a complex pair per electron branch,

    c_j^(i) = prod over |0>-positions of a_j,
    p_j^(i) = prod over |1>-positions of b_j,

and the average gate fidelity on the K-target subspace is

    F = (1 + 2^(K-1) sum_i |c_0 p_0 + c_1 p_1|^2) / (2^(K+1) + 1).

Unitarity of each branch rotation makes the diagonal parts of the sum equal
to 1 exactly, and the cross part factorizes over unwanted spins:

    sum_i c_0 p_0 conj(c_1 p_1) = prod_m (a_0 conj(a_1) + b_0 conj(b_1))_m,
    a_0 conj(a_1) + b_0 conj(b_1) = (q_0 . q_1) + i (w_0 z_1 - z_0 w_1 + y_0 x_1 - x_0 y_1),

so the whole 2^(L-K)-term sum collapses to a product with one complex factor
per unwanted spin.  The real part of a factor is the spin's coherence
(spin_model.coherence).  Evaluation cost is linear in the register size, and
no bystander count is too large: each factor has modulus at most 1, so the
product can only shrink towards 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_model import ConditionalRotation


class CapacityError(Exception):
    """Too many unwanted spins for the exponential Kraus enumeration."""


@dataclass(frozen=True)
class RegisterPartition:
    """Target and unwanted conditional rotations, already iterated to N."""

    targets: tuple
    unwanted: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "unwanted", tuple(self.unwanted))
        if len(self.targets) < 1:
            raise ValueError("need at least one target spin")

    @property
    def K(self) -> int:
        return len(self.targets)


def _amplitudes(rots) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes a_j and b_j (see module doc), each of shape (n_spins, 2)."""
    q = np.array([r.quaternions for r in rots]).reshape(-1, 2, 4)
    return q[..., 0] - 1j * q[..., 3], q[..., 2] - 1j * q[..., 1]


def _overlaps(rots) -> np.ndarray:
    """Per-spin branch overlaps a0 conj(a1) + b0 conj(b1)."""
    a, b = _amplitudes(rots)
    return a[:, 0] * a[:, 1].conj() + b[:, 0] * b[:, 1].conj()


def _subspace_fidelity(k: int, total):
    """Average gate fidelity on K targets from the Kraus sum (see module doc)."""
    return (1.0 + 2.0 ** (k - 1) * total) / (2.0 ** (k + 1) + 1.0)


def kraus_coefficients(unwanted, i: int) -> tuple[tuple[complex, complex],
                                                  tuple[complex, complex]]:
    """Coefficient pairs ((c0, p0), (c1, p1)) for environment basis index i.

    The index is read as a big-endian bit string over the unwanted list:
    the first spin owns the most significant bit.  Empty products are 1.
    """
    m = len(unwanted)
    if not 0 <= i < 2 ** m:
        raise IndexError("environment basis index out of range")
    a, b = _amplitudes(unwanted)
    c, p = np.ones(2, dtype=complex), np.ones(2, dtype=complex)
    for pos in range(m):
        if (i >> (m - 1 - pos)) & 1:
            p *= b[pos]
        else:
            c *= a[pos]
    return (c[0], p[0]), (c[1], p[1])


def target_subspace_fidelity(partition: RegisterPartition) -> float:
    """Average gate fidelity of the iterated gate on the target subspace."""
    cross = np.prod(_overlaps(partition.unwanted)).real
    return float(_subspace_fidelity(partition.K, 2.0 + 2.0 * cross))


def fidelity_with_local_target(partition: RegisterPartition,
                               primed_axes, primed_angles) -> float:
    """Fidelity against a local-rotation-adjusted target gate.

    The target branch rotations are compared with supplied per-target
    (axis, angle) pairs; each target contributes a real overlap factor
    f_j = prod_k (cos(phi/2) cos(phi'/2) + n . n' sin(phi/2) sin(phi'/2)).
    Each primed entry is either a single axis/angle applied to both electron
    branches or a per-branch pair (shape (2, 3) axis, length-2 angle).
    Equals target_subspace_fidelity when the primed values match the actual
    branch rotations.
    """
    if len(primed_axes) != partition.K or len(primed_angles) != partition.K:
        raise ValueError("primed lists must have one entry per target")
    f = np.ones(2)
    for rot, axis, angle in zip(partition.targets, primed_axes, primed_angles):
        ax = np.broadcast_to(np.asarray(axis, dtype=float), (2, 3))
        ang = np.broadcast_to(np.asarray(angle, dtype=float), (2,))
        ref = ConditionalRotation.from_axis_angles(ax[0], float(ang[0]),
                                                   ax[1], float(ang[1]))
        f *= np.sum(rot.quaternions * ref.quaternions, axis=1)
    f0, f1 = f
    cross = np.prod(_overlaps(partition.unwanted)).real
    total = f0 * f0 + f1 * f1 + 2.0 * f0 * f1 * cross
    return float(_subspace_fidelity(partition.K, total))


def kraus_sum_by_enumeration(partition: RegisterPartition) -> float:
    """Reference evaluation of sum_i |c0 p0 + c1 p1|^2 by full enumeration.

    Exponential in the unwanted count; used to validate the factorized form.
    """
    m = len(partition.unwanted)
    if m > 20:
        raise CapacityError("enumeration limited to 20 unwanted spins")
    # one row per environment basis state, one column per electron branch
    amps = np.ones((1, 2), dtype=complex)
    for a, b in zip(*_amplitudes(partition.unwanted)):
        amps = np.concatenate([amps * a, amps * b])
    return float(np.sum(np.abs(amps.sum(axis=1)) ** 2))
