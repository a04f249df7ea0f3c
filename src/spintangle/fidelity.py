"""Analytic target-subspace gate fidelity over the unwanted-spin bath.

Tracing out the L-K unwanted nuclei (environment initialized to |0...0>)
yields Kraus operators indexed by the environment basis state i.  Each index
contributes a complex pair per electron branch,

    c_j^(i) = prod over |0>-positions of (cos(phi_j/2) - i n_z,j sin(phi_j/2)),
    p_j^(i) = prod over |1>-positions of (-i (n_x,j + i n_y,j) sin(phi_j/2)),

and the average gate fidelity on the K-target subspace is

    F = (1 + 2^(K-1) sum_i |c_0 p_0 + c_1 p_1|^2) / (2^(K+1) + 1).

Unitarity of each branch rotation makes the diagonal parts of the sum equal
to 1 exactly, and the cross part factorizes over unwanted spins:

    sum_i c_0 p_0 conj(c_1 p_1) = prod_m (a_0 conj(a_1) + b_0 conj(b_1))_m,

so the whole 2^(L-K)-term sum collapses to a product with one complex factor
per unwanted spin.  Evaluation cost is linear in the register size, and no
bystander count is too large: each factor has modulus at most 1, so the
product can only shrink towards 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_model import ConditionalRotation, Rotation


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

    @property
    def L(self) -> int:
        return len(self.targets) + len(self.unwanted)


def _branch_amplitudes(rot: ConditionalRotation) -> tuple[complex, complex, complex, complex]:
    """Flip-free and flip amplitudes (a0, b0, a1, b1) of one nucleus.

    a_j = <0|R_j|0>, b_j = <1|R_j|0> in terms of the stored quadruple.
    """
    out = []
    for r in (rot.r0, rot.r1):
        x, y, z = r.v
        out.append(complex(r.w, -z))
        out.append(complex(y, -x))
    return out[0], out[1], out[2], out[3]


def kraus_coefficients(unwanted, i: int) -> tuple[tuple[complex, complex],
                                                  tuple[complex, complex]]:
    """Coefficient pairs ((c0, p0), (c1, p1)) for environment basis index i.

    The index is read as a big-endian bit string over the unwanted list:
    the first spin owns the most significant bit.  Empty products are 1.
    """
    m = len(unwanted)
    if not 0 <= i < 2 ** m:
        raise IndexError("environment basis index out of range")
    c0 = p0 = c1 = p1 = complex(1.0)
    for pos, rot in enumerate(unwanted):
        bit = (i >> (m - 1 - pos)) & 1
        a0, b0, a1, b1 = _branch_amplitudes(rot)
        if bit == 0:
            c0 *= a0
            c1 *= a1
        else:
            p0 *= b0
            p1 *= b1
    return (c0, p0), (c1, p1)


def _branch_overlap_product(unwanted) -> complex:
    """prod_m (a0 conj(a1) + b0 conj(b1)): the factorized Kraus cross sum."""
    chi = complex(1.0)
    for rot in unwanted:
        a0, b0, a1, b1 = _branch_amplitudes(rot)
        chi *= a0 * a1.conjugate() + b0 * b1.conjugate()
    return chi


def target_subspace_fidelity(partition: RegisterPartition) -> float:
    """Average gate fidelity of the iterated gate on the target subspace."""
    k = partition.K
    cross = _branch_overlap_product(partition.unwanted).real
    total = 2.0 + 2.0 * cross
    return (1.0 + 2.0 ** (k - 1) * total) / (2.0 ** (k + 1) + 1.0)


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
    k = partition.K
    f0 = f1 = 1.0
    for rot, axis, angle in zip(partition.targets, primed_axes, primed_angles):
        ax = np.asarray(axis, dtype=float)
        ang = np.atleast_1d(np.asarray(angle, dtype=float))
        if ax.ndim == 1:
            ax = np.stack([ax, ax])
        if ang.size == 1:
            ang = np.repeat(ang, 2)
        ref0 = Rotation.from_axis_angle(ax[0], float(ang[0]))
        ref1 = Rotation.from_axis_angle(ax[1], float(ang[1]))
        f0 *= rot.r0.w * ref0.w + float(rot.r0.v @ ref0.v)
        f1 *= rot.r1.w * ref1.w + float(rot.r1.v @ ref1.v)
    cross = _branch_overlap_product(partition.unwanted).real
    total = f0 * f0 + f1 * f1 + 2.0 * f0 * f1 * cross
    return (1.0 + 2.0 ** (k - 1) * total) / (2.0 ** (k + 1) + 1.0)


def kraus_sum_by_enumeration(partition: RegisterPartition) -> float:
    """Reference evaluation of sum_i |c0 p0 + c1 p1|^2 by full enumeration.

    Exponential in the unwanted count; used to validate the factorized form.
    """
    m = len(partition.unwanted)
    if m > 20:
        raise CapacityError("enumeration limited to 20 unwanted spins")
    amps0 = np.ones(1, dtype=complex)
    amps1 = np.ones(1, dtype=complex)
    for rot in partition.unwanted:
        a0, b0, a1, b1 = _branch_amplitudes(rot)
        amps0 = np.concatenate([amps0 * a0, amps0 * b0])
        amps1 = np.concatenate([amps1 * a1, amps1 * b1])
    return float(np.sum(np.abs(amps0 + amps1) ** 2))
