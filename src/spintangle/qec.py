"""Three-qubit measurement-free bit-flip code for the electron qubit.

Two data nuclei, initialized to |1>, protect an arbitrary electron state
against a single bit-flip.  Two schemes are supported:

* sequential: conditional R_x(+/- pi/2) gates applied to one nucleus at a
  time during encode and decode; with ideal gates the encode and decode
  rotations compose to a full flip and any single bit-flip is corrected
  exactly.
* multispin: a single simultaneous conditional gate entangles the electron
  with both nuclei; unconditional R_y(-pi) gates inserted after the encode
  make the encode/decode pair compose to the nuclear flip when no error
  occurs.  A bit-flip on the electron leaves the nuclei near |11>, which
  activates the correcting Toffoli; the residual x-axis component of the
  composite rotation makes recovery probabilistic.

In this model the sequential scheme's two one-nucleus gates act on
different nuclei and are both diagonal in the electron, so they commute and
their product is the two-nucleus gate of the multispin scheme: the two
schemes differ only by the R_y(-pi) pair.

The correction sub-circuit (the Toffoli controlled on the nuclei) is taken
as ideal.  The simulation covers the three protocol qubits only: the
electron and the two data nuclei.  Bystander nuclei, and the third target
of a design with more than two, are not modelled, and no output reports a
gate error for them.

run_bitflip_code reports the final state, the recovery probability, the
electron purity and a snapshot of the state after each stage.  The encode
and decode stages are 8x8 matrices, applied with ndarray.dot (the BLAS
product that @ calls, at about half its call cost on an 8-vector); the
error and Toffoli stages permute the basis and are index maps.
error_surface folds each index map into the matrix before it once per
surface, encode[error] and decode[toffoli] (a row permutation, so every
product row keeps its bits), and runs each grid point through work buffers
allocated once per call.  A point computes only its recovery probability:
no snapshots and no purity.

State vectors use the basis |e n1 n2> with index 4*e + 2*n1 + n2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import ConditionalRotation, _integer, _real, _rotations, finite_1d, power, su2

STAGES = ("initial", "encoded", "error", "decoded", "corrected")
ERROR_KINDS = ("none", "electron", "nucleus1", "nucleus2")
SCHEMES = ("sequential", "multispin")

# the multispin scheme's R_y(-pi) on one nucleus, the same on both branches
_RY_ON_BOTH_BRANCHES = ConditionalRotation.from_axis_angles(
    (0.0, 1.0, 0.0), -math.pi, (0.0, 1.0, 0.0), -math.pi)
# rotations are immutable, so the ideal gate is built once
_IDEAL_CRX = ConditionalRotation.from_axis_angles(
    (1.0, 0.0, 0.0), math.pi / 2.0, (1.0, 0.0, 0.0), -math.pi / 2.0)
# the permutation stages as index maps: psi[map] is np.eye(8)[map] @ psi
# flip the electron when both nuclei are |1> (controls on the nuclei)
_TOFFOLI = np.array([0, 1, 2, 7, 4, 5, 6, 3])
# a bit-flip of one qubit XORs its bit into the basis index
_ERRORS = {kind: np.arange(8) ^ bit for kind, bit in zip(ERROR_KINDS, (0, 4, 2, 1))}


def ideal_crx() -> ConditionalRotation:
    """The ideal conditional gate: R_x(pi/2) on branch 0, R_x(-pi/2) on 1."""
    return _IDEAL_CRX


def sequential_theta_solution() -> tuple[float, float, float, float]:
    """Electron rotation angles for the sequential correction circuit.

    The four angles solve the linear system: recovery of an electron
    bit-flip needs theta1 - theta2 - theta3 + theta4 = (2k+1)*pi, the
    no-error path needs theta1 + theta2 - theta3 - theta4 = 2*kappa*pi,
    and correcting a flip on either nucleus adds
    theta1 + theta2 + theta3 + theta4 = 2*pi and
    theta1 - theta2 + theta3 - theta4 = 2*pi (both modulo 2*pi).
    """
    return (-math.pi / 4.0, math.pi / 4.0, math.pi / 4.0, -math.pi / 4.0)


@dataclass(frozen=True)
class QecScenario:
    """One run of the bit-flip code.

    encode_gates/decode_gates hold the ConditionalRotation applied to each
    of the two data nuclei (already iterated to the gate's N), read once
    into a tuple, or a ValueError names them.  None means the ideal
    conditional R_x(+/- pi/2) for encode_gates and the encode gates for
    decode_gates.  The electron starts in cos(gamma/2)|0> + e^{i delta}
    sin(gamma/2)|1>; both nuclei start in |1>.
    """

    scheme: str = "sequential"
    encode_gates: tuple | None = None
    decode_gates: tuple | None = None
    error: str = "none"
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.error not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.error!r}")
        for name in ("gamma", "delta"):
            _real(getattr(self, name), name)
        for name in ("encode_gates", "decode_gates"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _rotations(getattr(self, name), name))
                if len(getattr(self, name)) != 2:
                    raise ValueError("need one gate per data nucleus")

    def resolved_gates(self) -> tuple[tuple, tuple]:
        enc, dec = self.encode_gates, self.decode_gates
        enc = (_IDEAL_CRX, _IDEAL_CRX) if enc is None else enc
        return enc, enc if dec is None else dec


@dataclass(frozen=True)
class QecOutcome:
    final_state: np.ndarray
    recovery_probability: float
    electron_purity: float
    snapshots: dict


def _nuclear_gates(scenario: QecScenario) -> list[tuple[list, list]]:
    """Per data nucleus, its encode and its decode rotations in time order."""
    enc, dec = scenario.resolved_gates()
    after = [_RY_ON_BOTH_BRANCHES] if scenario.scheme == "multispin" else []
    return [([e, *after], [d]) for e, d in zip(enc, dec)]


def _conditional_gate(rots1: list, rots2: list) -> np.ndarray:
    """8x8 gate: per electron branch, each nucleus runs through its rotations."""
    u = np.zeros((8, 8), dtype=complex)
    for branch in (0, 1):
        block = np.eye(4)
        for rot1, rot2 in zip(rots1, rots2):
            m1, m2 = (su2(rot.quaternions[branch]) for rot in (rot1, rot2))
            block = np.kron(m1, m2) @ block
        u[4 * branch:4 * branch + 4, 4 * branch:4 * branch + 4] = block
    return u


def _circuit(scenario: QecScenario) -> tuple:
    """The encoded, error, decoded and corrected stages: the 8x8 encode,
    the error's index map, the 8x8 decode and the Toffoli's index map."""
    (enc1, dec1), (enc2, dec2) = _nuclear_gates(scenario)
    return (_conditional_gate(enc1, enc2), _ERRORS[scenario.error],
            _conditional_gate(dec1, dec2), _TOFFOLI)


def _input(gamma: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The electron input state and the register state psi_el (x) |11>;
    psi_el is a view of psi's entries 3 and 7, so the input is one array."""
    alpha = math.cos(gamma / 2.0)
    beta = complex(math.cos(delta), math.sin(delta)) * math.sin(gamma / 2.0)
    psi = np.zeros(8, dtype=complex)
    psi[3], psi[7] = alpha, beta
    return psi[3::4], psi


def _recovery(psi_el: np.ndarray, psi: np.ndarray) -> float:
    """Probability that the electron of the final state psi is back in psi_el."""
    proj = psi_el.conj().dot(psi.reshape(2, 4))
    p = float(np.vdot(proj, proj).real)
    return 1.0 if p > 1.0 else p  # a NaN fails p > 1.0 and is kept


def run_bitflip_code(scenario: QecScenario) -> QecOutcome:
    """Simulate the five stages of the code and report recovery figures."""
    encode, error, decode, toffoli = _circuit(scenario)
    psi_el, psi = _input(scenario.gamma, scenario.delta)
    snapshots = {"initial": psi}
    snapshots["encoded"] = psi = encode.dot(psi)
    snapshots["error"] = psi = psi[error]
    snapshots["decoded"] = psi = decode.dot(psi)
    snapshots["corrected"] = psi = psi[toffoli]

    amp = psi.reshape(2, 4)
    rho_el = amp @ amp.conj().T
    purity = np.real(np.trace(rho_el @ rho_el))
    return QecOutcome(final_state=psi,
                      recovery_probability=_recovery(psi_el, psi),
                      electron_purity=float(np.minimum(1.0, purity)),
                      snapshots=snapshots)


def error_surface(scenario: QecScenario, gammas, deltas) -> np.ndarray:
    """Error probability 1 - recovery over a grid of electron input states.

    gammas and deltas are 1-D arrays of finite values.  The circuit is built
    once, and its two index maps are folded into the stage matrices that
    they follow: encode[error] and decode[toffoli] permute rows, so each
    product row keeps its bits.  Each point then runs the input state
    through these two matrices in work buffers allocated once per call, and
    agrees bit for bit with run_bitflip_code at its (gamma, delta).  A point
    computes only the recovery probability: no snapshots and no electron
    purity.
    """
    # Python floats at each point, as run_bitflip_code gets them
    gammas = finite_1d(gammas, "gammas").tolist()
    deltas = finite_1d(deltas, "deltas").tolist()
    encode, error, decode, toffoli = _circuit(scenario)
    enc, dec = encode[error], decode[toffoli]
    phases = [complex(math.cos(d), math.sin(d)) for d in deltas]
    # the input psi_el (x) |11> has only entries 3 and 7 set; el is psi_el.conj()
    # up to the sign of a zero imaginary part, which the squared norm drops
    psi, mid, fin = (np.zeros(8, dtype=complex) for _ in range(3))
    el, proj = np.empty(2, dtype=complex), np.empty(4, dtype=complex)
    amp = fin.reshape(2, 4)
    out = np.empty((len(gammas), len(deltas)))
    for i, g in enumerate(gammas):
        psi[3] = el[0] = math.cos(g / 2.0)
        s = math.sin(g / 2.0)
        for j, phase in enumerate(phases):
            beta = phase * s
            psi[7], el[1] = beta, beta.conjugate()
            dec.dot(enc.dot(psi, out=mid), out=fin)
            el.dot(amp, out=proj)
            p = float(np.vdot(proj, proj).real)
            out[i, j] = 1.0 - (1.0 if p > 1.0 else p)  # a NaN is kept, as in _recovery
    return out


def nuclear_trajectories(scenario: QecScenario, samples: int = 64) -> dict:
    """Bloch-vector paths of each nucleus up to the decode, per electron branch.

    Returns {"nucleus1"/"nucleus2": {"branch0"/"branch1": (M, 3) array}}.
    Each gate segment is swept by fractional powers of its rotation at
    samples >= 1 fractions; the branch labels follow the electron state
    before the (possible) bit-flip.
    """
    samples = _integer(samples, "samples", 1)
    flip = scenario.error == "electron"
    fracs = np.linspace(0.0, 1.0, samples)
    out = {}
    for nuc, (encode, decode) in enumerate(_nuclear_gates(scenario)):
        gates = encode + decode
        sweeps = [power(rot.quaternions, fracs) for rot in gates]  # (2, 4, samples)
        branches = {}
        for branch in (0, 1):
            rows = [branch] * len(encode) + [branch ^ flip] * len(decode)
            psi = np.array([0.0, 1.0], dtype=complex)
            path = []
            for rot, sweep, row in zip(gates, sweeps, rows):
                m = su2(sweep[row])
                a, b = m[:, 0] * psi[0] + m[:, 1] * psi[1]
                ab = a.conj() * b
                path.append(np.stack([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2], 1))
                psi = su2(rot.quaternions[row]) @ psi
            branches[f"branch{branch}"] = np.concatenate(path)
        out[f"nucleus{nuc + 1}"] = branches
    return out


# ---------------------------------------------------------------------------
# disentanglement residual of the multispin decode


def disentanglement_residual(rot: ConditionalRotation) -> float:
    """|sin(phi/2) (n_z1 - n_z0)|: the z-axis branch mismatch of one gate.

    This is the term that keeps the decode from disentangling the nuclei
    exactly after an electron bit-flip; it scales as (B/omega_L)^2.
    """
    return float(abs(rot.quaternions[1, 3] - rot.quaternions[0, 3]))
