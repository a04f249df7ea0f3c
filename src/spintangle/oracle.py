"""Dense brute-force engine validating the analytic formulas on small registers.

Everything here is deliberately independent of the closed forms under test:
propagators are assembled from explicit matrix exponentials or Kronecker
products, entangling power is estimated by Monte-Carlo averaging over Haar
product states, Kraus operators are extracted numerically and their
coefficients enumerated from rotation matrices, and Makhlin invariants come
from the magic-basis construction.

Qubit ordering in dense states is (electron, nucleus 1, ..., nucleus n-1),
big-endian: the electron owns the most significant bit.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from .spin_model import (ConditionalRotation, ElectronQubitSpec,
                         NuclearSpinParams, PulseSequence)

MAX_QUBITS = 14
MAX_KRAUS_ENV = 10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Magic (Bell) basis columns used for local-invariant extraction.
MAGIC_BASIS = np.array([[1, 0, 0, 1j],
                        [0, 1j, 1, 0],
                        [0, 1j, -1, 0],
                        [1, 0, 0, -1j]], dtype=complex) / math.sqrt(2.0)


def branch_hamiltonian(spin: NuclearSpinParams, s: float) -> np.ndarray:
    return 0.5 * ((spin.omega_L + s * spin.A) * SIGMA_Z + s * spin.B * SIGMA_X)


def segment_exponential_rotation(spin: NuclearSpinParams,
                                 electron: ElectronQubitSpec,
                                 seq: PulseSequence, branch: int) -> np.ndarray:
    """One branch's unit propagator by piecewise matrix exponentials."""
    pair = (electron.s0, electron.s1) if branch == 0 else (electron.s1, electron.s0)
    u = np.eye(2, dtype=complex)
    for i, q in enumerate(seq.spacings):
        u = expm(-1j * branch_hamiltonian(spin, pair[i % 2]) * q * seq.unit_time) @ u
    return u


def _block_diagonal(factor, items, power: int = 1) -> np.ndarray:
    """Dense sum_j |j><j| x (x_l factor(item_l, j))^power, electron first."""
    n = len(items) + 1
    if n > MAX_QUBITS:
        raise ValueError(f"register of {n} qubits exceeds the {MAX_QUBITS}-qubit cap")
    dim = 2 ** (n - 1)
    u = np.zeros((2 * dim, 2 * dim), dtype=complex)
    for j in range(2):
        block = np.eye(1, dtype=complex)
        for item in items:
            block = np.kron(block, factor(item, j))
        diag = slice(j * dim, (j + 1) * dim)
        u[diag, diag] = np.linalg.matrix_power(block, power)
    return u


def conditional_unitary(rots: list[ConditionalRotation]) -> np.ndarray:
    """Dense gate sum_j |j><j| x (x_l R_j^(l)) over the register list."""
    return _block_diagonal(lambda rot, j: (rot.r0, rot.r1)[j].matrix(), rots)


def dense_propagator(register: list[NuclearSpinParams],
                     electron: ElectronQubitSpec,
                     seq: PulseSequence, N: int) -> np.ndarray:
    """Full propagator of N sequence units over the whole register."""
    return _block_diagonal(
        lambda spin, j: segment_exponential_rotation(spin, electron, seq, j),
        register, N)


# ---------------------------------------------------------------------------
# entangling power


def mc_bipartition_entangling_power(u: np.ndarray, qubit: int,
                                    samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo mean one-tangle of `qubit` over Haar product inputs.

    Uses a counter-based generator (Philox) so the stream is reproducible
    and can be partitioned deterministically.  Returns (mean, standard error).
    """
    n = int(round(math.log2(u.shape[0])))
    rng = np.random.Generator(np.random.Philox(seed))
    # draw all single-qubit states at once, then form product states in bulk
    amps = rng.normal(size=(samples, n, 2)) + 1j * rng.normal(size=(samples, n, 2))
    amps /= np.linalg.norm(amps, axis=2, keepdims=True)
    states = amps[:, 0, :]
    for q in range(1, n):
        states = np.einsum("si,sj->sij", states, amps[:, q, :]).reshape(samples, -1)
    out = states @ u.T
    psi = np.moveaxis(out.reshape((samples,) + (2,) * n), 1 + qubit, 1)
    psi = psi.reshape(samples, 2, -1)
    rho = np.einsum("sij,skj->sik", psi, psi.conj())
    purity = np.real(np.einsum("sik,ski->s", rho, rho))
    tangles = 1.0 - purity
    mean = float(np.mean(tangles))
    stderr = float(np.std(tangles, ddof=1) / math.sqrt(samples))
    return mean, stderr


# ---------------------------------------------------------------------------
# Kraus operators


def kraus_coefficients(unwanted, i: int) -> tuple[tuple[complex, complex],
                                                  tuple[complex, complex]]:
    """Coefficient pairs ((c0, p0), (c1, p1)) for environment basis index i.

    c_j is the product of <0|R_j|0> over the spins whose bit is 0, p_j that
    of <1|R_j|0> over the spins whose bit is 1, each read from the first
    column of Rotation.matrix().  The index is read as a big-endian bit
    string over the unwanted list: the first spin owns the most significant
    bit.  Empty products are 1.
    """
    m = len(unwanted)
    if not 0 <= i < 2 ** m:
        raise IndexError("environment basis index out of range")
    out = np.ones((2, 2), dtype=complex)  # rows c and p, one column per branch
    for pos, rot in enumerate(unwanted):
        bit = (i >> (m - 1 - pos)) & 1
        out[bit] *= [rot.r0.matrix()[bit, 0], rot.r1.matrix()[bit, 0]]
    (c0, c1), (p0, p1) = out
    return (c0, p0), (c1, p1)


def numeric_kraus_fidelity(u: np.ndarray, target_gate: np.ndarray, K: int) -> float:
    """Average fidelity of the traced channel versus the target gate.

    The environment is the trailing L-K qubits, initialized to |0...0>;
    Kraus operators are the column blocks E_i = <e_i| U |e_0>.  Uses the
    average-fidelity formula F = 1/(m(m+1)) sum_k [ tr(E_k^dag E_k)
    + |tr(U0^dag E_k)|^2 ] with m = 2^(K+1).
    """
    m = 2 ** (K + 1)
    env = u.shape[0] // m
    if env > 2 ** MAX_KRAUS_ENV:
        raise ValueError("environment too large for numeric Kraus extraction")
    blocks = u.reshape(m, env, m, env)[:, :, :, 0]  # E_i[a, b] = U[(a,i),(b,0)]
    total = 0.0
    for i in range(env):
        e = blocks[:, i, :]
        total += np.real(np.trace(e.conj().T @ e))
        total += abs(np.trace(target_gate.conj().T @ e)) ** 2
    return float(total / (m * (m + 1)))


# ---------------------------------------------------------------------------
# magic-basis local invariants


def magic_basis_invariants(gate: np.ndarray) -> tuple[complex, complex]:
    """Makhlin local invariants (G1, G2) of a two-qubit gate."""
    if gate.shape != (4, 4):
        raise ValueError("expected a 4x4 gate")
    um = MAGIC_BASIS.conj().T @ gate @ MAGIC_BASIS
    m = um.T @ um
    det = np.linalg.det(um)
    tr = np.trace(m)
    g1 = tr ** 2 / (16.0 * det)
    g2 = (tr ** 2 - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), complex(g2)
