"""Analytic target-subspace gate fidelity over the unwanted-spin bath.

Tracing out the L-K unwanted nuclei (environment initialized to |0...0>)
yields Kraus operators indexed by the environment basis state i.  A nucleus
keeps |0> with amplitude a_j = w_j - i z_j and flips with b_j = y_j - i x_j,
the first column of spin_model.su2(q_j) for its branch quaternion q_j =
(w_j, x_j, y_j, z_j).  Each index contributes a complex pair per branch,

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

from .spin_model import _rotations, stack_quaternions, su2


class CapacityError(Exception):
    """Too many unwanted spins for the exponential Kraus enumeration."""


@dataclass(frozen=True)
class RegisterPartition:
    """Target and unwanted conditional rotations, already iterated to N."""

    targets: tuple
    unwanted: tuple

    def __post_init__(self) -> None:
        for name in ("targets", "unwanted"):
            object.__setattr__(self, name, _rotations(getattr(self, name), name))
        if len(self.targets) < 1:
            raise ValueError("need at least one target spin")

    @property
    def K(self) -> int:
        return len(self.targets)


def branch_overlaps(quats) -> np.ndarray:
    """Per-spin branch overlaps a0 conj(a1) + b0 conj(b1), shape (n_spins,),
    of branch quaternions (2, 4, n_spins) as unit_quaternions and power give."""
    a, b = su2(np.swapaxes(quats, 0, 1))[:, 0]
    return a[0] * a[1].conj() + b[0] * b[1].conj()


def _subspace_fidelity(k: int, overlaps, f0=1.0, f1=1.0):
    """Average gate fidelity on k targets from the bystanders' branch overlaps
    (last axis) and the targets' real overlap factors f0, f1 (see module doc)."""
    cross = np.prod(overlaps, axis=-1).real
    total = f0 * f0 + f1 * f1 + 2.0 * f0 * f1 * cross
    return (1.0 + 2.0 ** (k - 1) * total) / (2.0 ** (k + 1) + 1.0)


def gate_error(k: int, overlaps):
    """Gate error 1 - F on k targets, the bystanders' branch_overlaps on the
    last axis; any leading axes (ensembles, say) are kept."""
    return 1.0 - _subspace_fidelity(k, overlaps)


def target_subspace_fidelity(partition: RegisterPartition) -> float:
    """Average gate fidelity of the iterated gate on the target subspace."""
    overlaps = branch_overlaps(stack_quaternions(partition.unwanted))
    return float(_subspace_fidelity(partition.K, overlaps))


def fidelity_with_local_target(partition: RegisterPartition, primed) -> float:
    """Fidelity against a local-rotation-adjusted target gate.

    primed holds one ConditionalRotation per target, which the target's
    branch rotations are compared with; each target contributes a real
    overlap factor f_j = prod_k (cos(phi/2) cos(phi'/2)
    + n . n' sin(phi/2) sin(phi'/2)).  Equals target_subspace_fidelity when
    primed holds the targets themselves.
    """
    if len(primed) != partition.K:
        raise ValueError("primed must hold one rotation per target")
    f = np.prod(np.sum(stack_quaternions(partition.targets) * stack_quaternions(primed),
                       axis=1), axis=-1)
    overlaps = branch_overlaps(stack_quaternions(partition.unwanted))
    return float(_subspace_fidelity(partition.K, overlaps, *f))


def kraus_sum_by_enumeration(partition: RegisterPartition) -> float:
    """Reference evaluation of sum_i |c0 p0 + c1 p1|^2 by full enumeration.

    Exponential in the unwanted count; used to validate the factorized form.
    """
    m = len(partition.unwanted)
    if m > 20:
        raise CapacityError("enumeration limited to 20 unwanted spins")
    # one row per environment basis state, one column per electron branch
    amps = np.ones((1, 2), dtype=complex)
    a, b = su2(stack_quaternions(partition.unwanted).swapaxes(0, 1))[:, 0]
    for a_m, b_m in zip(a.T, b.T):
        amps = np.concatenate([amps * a_m, amps * b_m])
    return float(np.sum(np.abs(amps.sum(axis=1)) ** 2))
