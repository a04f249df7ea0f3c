"""Independent references: a dense brute-force engine and the paper's closed forms.

Everything here is deliberately independent of the fast paths under test:
propagators are assembled from explicit matrix exponentials or Kronecker
products of rotations built from the Pauli matrices (pauli_rotation),
entangling power is estimated by Monte-Carlo averaging over Haar product
states, Kraus operators are extracted numerically and their coefficients
enumerated from the same rotations, and Makhlin invariants come from the
magic-basis construction.  The paper's analytic formulas
(closed_form_angles, trivial_evolution_condition, residual_closed_form,
analytic_iteration_candidates, udd4_jump_locations, one_tangle_bound) are
written from spin parameters, quaternions and build_sequence's spacings with
math alone: they call no fast path of spin_model, entanglement or fidelity.

Qubit ordering in dense states is (electron, nucleus 1, ..., nucleus n-1),
big-endian: the electron owns the most significant bit.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from .spin_model import (ConditionalRotation, ElectronQubitSpec,
                         NuclearSpinParams, PulseSequence, build_sequence)

MAX_QUBITS = 14
MAX_KRAUS_ENV = 10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
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


def pauli_rotation(q) -> np.ndarray:
    """The 2x2 matrix w I - i (x X + y Y + z Z) of one quaternion (w, x, y, z)."""
    w, x, y, z = q
    return w * np.eye(2) - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def conditional_unitary(rots: list[ConditionalRotation]) -> np.ndarray:
    """Dense gate sum_j |j><j| x (x_l R_j^(l)) over the register list."""
    return _block_diagonal(lambda rot, j: pauli_rotation(rot.quaternions[j]), rots)


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
    column of pauli_rotation(q_j).  The index is read as a big-endian bit
    string over the unwanted list: the first spin owns the most significant
    bit.  Empty products are 1.
    """
    m = len(unwanted)
    if not 0 <= i < 2 ** m:
        raise IndexError("environment basis index out of range")
    out = np.ones((2, 2), dtype=complex)  # rows c and p, one column per branch
    for pos, rot in enumerate(unwanted):
        bit = (i >> (m - 1 - pos)) & 1
        out[bit] *= [pauli_rotation(q)[bit, 0] for q in rot.quaternions]
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


# ---------------------------------------------------------------------------
# analytic references, on Python floats

# a branch turned by |v| below this has no axis, and its n01 reads 1
_AXIS_TOL = 1e-12


def _branch(spin: NuclearSpinParams, s: float) -> tuple[float, float]:
    """Frequency omega_j and axis tilt theta_j of the branch with projection s."""
    wz, wx = spin.omega_L + s * spin.A, s * spin.B
    return math.hypot(wz, wx), math.atan2(wx, wz)


def _angles(quats) -> tuple[float, float, float]:
    """Half angles (h0, h1) in [0, pi] and raw axis dot n01 of a (2, 4)
    array of branch quaternions; n01 is 1 when either branch is trivial."""
    (w0, x0, y0, z0), (w1, x1, y1, z1) = quats.tolist()
    s0, s1 = math.hypot(x0, y0, z0), math.hypot(x1, y1, z1)
    n01 = (1.0 if s0 < _AXIS_TOL or s1 < _AXIS_TOL
           else (x0 * x1 + y0 * y1 + z0 * z1) / (s0 * s1))
    return math.atan2(s0, w0), math.atan2(s1, w1), n01


def _folded_angle(h: float) -> float:
    """Rotation angle in [0, pi] of a branch with half angle h in [0, pi]."""
    # min() returns a NaN first argument
    return 2.0 * min(h, math.pi - h)


def _g_factor(a_half: float, b_half: float, cos_tilt: float) -> float:
    return (math.cos(a_half) * math.cos(b_half)
            - cos_tilt * math.sin(a_half) * math.sin(b_half))


def closed_form_angles(kind: str, spin: NuclearSpinParams,
                       electron: ElectronQubitSpec, t: float) -> tuple[float, float]:
    """Analytic per-unit rotation angles (phi0, phi1) in [0, pi].

    kind is the build_sequence kind "cpmg", "udd3" (symmetrized, six pulses)
    or "udd4", whose spacings the formulas read.  Angles agree with the
    propagator extraction; for cpmg and udd3 phi0 = phi1 identically.
    """
    if kind not in ("cpmg", "udd3", "udd4"):
        raise ValueError(f"unsupported kind: {kind!r}")
    # unit spacings at a fixed unit time, so that a NaN t gives NaN angles
    q = build_sequence(kind, 1.0).spacings
    (w0, th0), (w1, th1) = (_branch(spin, s) for s in (electron.s0, electron.s1))
    w0, w1 = w0 * t, w1 * t

    def one_branch(wa: float, wb: float, tilt: float) -> float:
        ct, st2 = math.cos(tilt), math.sin(tilt) ** 2
        if kind == "cpmg":
            val = _g_factor((q[0] + q[2]) * wa / 2.0, q[1] * wb / 2.0, ct)
        elif kind == "udd4":
            odd = (q[0] + q[2] + q[4]) * wa / 2.0
            even = (q[1] + q[3]) * wb / 2.0
            val = (_g_factor(odd, even, ct)
                   - 2.0 * st2 * math.sin(q[1] * wb / 2.0)
                   * math.sin(q[2] * wa / 2.0)
                   * math.sin(q[3] * wb / 2.0)
                   * math.sin((q[0] + q[4]) * wa / 2.0))
        else:  # udd3: the symmetrized unit starts with the half spacings q1, q2
            q1, q2 = q[0], q[1]
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
        phi = 2.0 * math.acos(np.clip(val, -1.0, 1.0))  # keeps a NaN
        # fold into [0, pi]; min() returns a NaN first argument
        return min(phi, 2.0 * math.pi - phi)

    return one_branch(w0, w1, th0 - th1), one_branch(w1, w0, th1 - th0)


def trivial_evolution_condition(spin: NuclearSpinParams,
                                electron: ElectronQubitSpec,
                                t: float, kappa_max: int,
                                tol: float = 1e-6) -> tuple[bool, float]:
    """Check whether both branches decouple at unit time t.

    For a branch with projection s != 0 the condition is that (A, B) lies on
    a circle of center (-omega_L/s, 0) and radius |8*kappa*pi/(s*t)| for some
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


def residual_closed_form(spin: NuclearSpinParams, electron: ElectronQubitSpec,
                         t: float) -> float:
    """Sine-product form of qec.disentanglement_residual for one CPMG unit of
    duration t."""
    (om0, th0), (om1, th1) = (_branch(spin, s) for s in (electron.s0, electron.s1))
    val = 2.0 * math.sin(th0 - th1) * (
        math.sin(th1) * math.sin(t * om0 / 4.0) * math.sin(t * om1 / 8.0) ** 2
        + math.sin(th0) * math.sin(t * om1 / 4.0) * math.sin(t * om0 / 8.0) ** 2)
    return abs(val)


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
    h0, h1, n01 = _angles(rot.quaternions)
    phi, phi1 = _folded_angle(h0), _folded_angle(h1)
    if abs(phi - phi1) > angle_tol:
        raise ValueError("analytic minima require phi0 = phi1")
    # a branch turned by less than the axis threshold has n01 = 1: no minima
    if min(phi, phi1) < 2.0 * _AXIS_TOL:
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
    h0, h1, _ = _angles(rot.quaternions)
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
