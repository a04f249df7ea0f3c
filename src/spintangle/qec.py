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

The correction sub-circuit (the Toffoli controlled on the nuclei) is taken
as ideal.  The simulation covers the three protocol qubits only; spectator
nuclei enter through the separately reported gate error.

State vectors use the basis |e n1 n2> with index 4*e + 2*n1 + n2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .spin_model import ConditionalRotation, ElectronQubitSpec, NuclearSpinParams, Rotation

STAGES = ("initial", "encoded", "error", "decoded", "corrected")
ERROR_KINDS = ("none", "electron", "nucleus1", "nucleus2")

_I2 = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def ideal_crx() -> ConditionalRotation:
    """The ideal conditional gate: R_x(pi/2) on branch 0, R_x(-pi/2) on 1."""
    return ConditionalRotation(Rotation.from_axis_angle((1.0, 0.0, 0.0), math.pi / 2.0),
                               Rotation.from_axis_angle((1.0, 0.0, 0.0), -math.pi / 2.0))


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
    of the two data nuclei (already iterated to the gate's N).  None means
    the ideal conditional R_x(+/- pi/2).  The electron starts in
    cos(gamma/2)|0> + e^{i delta} sin(gamma/2)|1>; both nuclei start in |1>.
    """

    scheme: str = "sequential"
    encode_gates: tuple | None = None
    decode_gates: tuple | None = None
    error: str = "none"
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if self.scheme not in ("sequential", "multispin"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.error not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.error!r}")

    def resolved_gates(self) -> tuple[tuple, tuple]:
        enc = self.encode_gates or (ideal_crx(), ideal_crx())
        dec = self.decode_gates or enc
        if len(enc) != 2 or len(dec) != 2:
            raise ValueError("need one gate per data nucleus")
        return tuple(enc), tuple(dec)


@dataclass(frozen=True)
class QecOutcome:
    final_state: np.ndarray
    recovery_probability: float
    electron_purity: float
    snapshots: dict


def _conditional_gate(rot1: ConditionalRotation | None,
                      rot2: ConditionalRotation | None) -> np.ndarray:
    """8x8 gate applying per-branch rotations to nucleus 1 and/or 2."""
    u = np.zeros((8, 8), dtype=complex)
    for branch, pick in enumerate((lambda r: r.r0, lambda r: r.r1)):
        m1 = pick(rot1).matrix() if rot1 is not None else _I2
        m2 = pick(rot2).matrix() if rot2 is not None else _I2
        block = np.kron(m1, m2)
        u[4 * branch:4 * branch + 4, 4 * branch:4 * branch + 4] = block
    return u


def _single_qubit(op: np.ndarray, qubit: int) -> np.ndarray:
    mats = [_I2, _I2, _I2]
    mats[qubit] = op
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def _toffoli_on_electron() -> np.ndarray:
    """Flip the electron when both nuclei are |1> (controls on the nuclei)."""
    u = np.eye(8, dtype=complex)
    u[[3, 7], :] = u[[7, 3], :]
    return u


def _error_operator(kind: str) -> np.ndarray:
    if kind == "none":
        return np.eye(8, dtype=complex)
    qubit = {"electron": 0, "nucleus1": 1, "nucleus2": 2}[kind]
    return _single_qubit(_SX, qubit)


def run_bitflip_code(scenario: QecScenario) -> QecOutcome:
    """Simulate the five stages of the code and report recovery figures."""
    enc, dec = scenario.resolved_gates()
    alpha = math.cos(scenario.gamma / 2.0)
    beta = complex(math.cos(scenario.delta), math.sin(scenario.delta)) \
        * math.sin(scenario.gamma / 2.0)
    psi_el = np.array([alpha, beta], dtype=complex)
    psi = np.kron(psi_el, np.array([0, 0, 0, 1], dtype=complex))

    snapshots = {"initial": psi.copy()}

    if scenario.scheme == "sequential":
        psi = _conditional_gate(enc[0], None) @ psi
        psi = _conditional_gate(None, enc[1]) @ psi
    else:
        psi = _conditional_gate(enc[0], enc[1]) @ psi
        ry = Rotation.from_axis_angle((0.0, 1.0, 0.0), -math.pi).matrix()
        psi = _single_qubit(ry, 1) @ _single_qubit(ry, 2) @ psi
    snapshots["encoded"] = psi.copy()

    psi = _error_operator(scenario.error) @ psi
    snapshots["error"] = psi.copy()

    if scenario.scheme == "sequential":
        psi = _conditional_gate(dec[0], None) @ psi
        psi = _conditional_gate(None, dec[1]) @ psi
    else:
        psi = _conditional_gate(dec[0], dec[1]) @ psi
    snapshots["decoded"] = psi.copy()

    psi = _toffoli_on_electron() @ psi
    snapshots["corrected"] = psi.copy()

    amp = psi.reshape(2, 4)
    proj = psi_el.conj() @ amp
    recovery = float(np.real(proj @ proj.conj()))
    rho_el = amp @ amp.conj().T
    purity = float(np.real(np.trace(rho_el @ rho_el)))
    return QecOutcome(final_state=psi, recovery_probability=min(1.0, recovery),
                      electron_purity=min(1.0, purity), snapshots=snapshots)


def error_surface(scenario: QecScenario, gammas, deltas) -> np.ndarray:
    """Error probability 1 - recovery over a grid of electron input states."""
    out = np.empty((len(gammas), len(deltas)))
    for i, g in enumerate(gammas):
        for j, d in enumerate(deltas):
            run = run_bitflip_code(replace(scenario, gamma=float(g), delta=float(d)))
            out[i, j] = 1.0 - run.recovery_probability
    return out


def nuclear_trajectories(scenario: QecScenario, samples: int = 64) -> dict:
    """Bloch-vector paths of each nucleus up to the decode, per electron branch.

    Returns {"nucleus1"/"nucleus2": {"branch0"/"branch1": (M, 3) array}}.
    Each gate segment is swept by fractional powers of its rotation; the
    branch labels follow the electron state before the (possible) bit-flip.
    """
    enc, dec = scenario.resolved_gates()
    flip = scenario.error == "electron"
    fracs = np.linspace(0.0, 1.0, samples)
    ry = Rotation.from_axis_angle((0.0, 1.0, 0.0), -math.pi)
    out = {}
    for nuc, (e_rot, d_rot) in enumerate(zip(enc, dec)):
        branches = {}
        for branch in (0, 1):
            first = (e_rot.r0, e_rot.r1)[branch]
            dec_branch = branch ^ 1 if flip else branch
            second = (d_rot.r0, d_rot.r1)[dec_branch]
            segments = [first]
            if scenario.scheme == "multispin":
                segments.append(ry)
            segments.append(second)
            psi = np.array([0.0, 1.0], dtype=complex)
            path = []
            for seg in segments:
                for f in fracs:
                    vec = seg.power(f).matrix() @ psi
                    path.append(_bloch(vec))
                psi = seg.matrix() @ psi
            branches[f"branch{branch}"] = np.array(path)
        out[f"nucleus{nuc + 1}"] = branches
    return out


def _bloch(psi: np.ndarray) -> tuple[float, float, float]:
    a, b = psi
    return (float(2.0 * np.real(np.conj(a) * b)),
            float(2.0 * np.imag(np.conj(a) * b)),
            float(np.abs(a) ** 2 - np.abs(b) ** 2))


# ---------------------------------------------------------------------------
# disentanglement residual of the multispin decode


def disentanglement_residual(rot: ConditionalRotation) -> float:
    """|sin(phi/2) (n_z1 - n_z0)|: the z-axis branch mismatch of one gate.

    This is the term that keeps the decode from disentangling the nuclei
    exactly after an electron bit-flip; it scales as (B/omega_L)^2.
    """
    return float(abs(rot.r1.v[2] - rot.r0.v[2]))


def residual_closed_form(spin: NuclearSpinParams, electron: ElectronQubitSpec,
                         t: float) -> float:
    """Sine-product form of the residual for one CPMG unit of duration t."""
    th = []
    om = []
    for s in (electron.s0, electron.s1):
        wz = spin.omega_L + s * spin.A
        wx = s * spin.B
        om.append(math.hypot(wz, wx))
        th.append(math.atan2(wx, wz))
    val = 2.0 * math.sin(th[0] - th[1]) * (
        math.sin(th[1]) * math.sin(t * om[0] / 4.0) * math.sin(t * om[1] / 8.0) ** 2
        + math.sin(th[0]) * math.sin(t * om[1] / 4.0) * math.sin(t * om[0] / 8.0) ** 2)
    return abs(val)
