from __future__ import annotations

import numpy as np
import pytest

from spintangle import oracle
from spintangle.oracle import (
    MAGIC_BASIS,
    conditional_unitary,
    dense_propagator,
    magic_basis_invariants,
    mc_bipartition_entangling_power,
    numeric_kraus_fidelity,
    segment_exponential_rotation,
)
from spintangle.spin_model import (
    ConditionalRotation,
    ElectronQubitSpec,
    NuclearSpinParams,
    build_sequence,
)

from .conftest import random_rotation_pair

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def _unitary(u: np.ndarray) -> bool:
    return np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-10)


class TestDenseBuilders:
    def test_magic_basis_is_unitary(self):
        assert _unitary(MAGIC_BASIS)

    def test_segment_rotation_unitary(self):
        spin = NuclearSpinParams.from_khz("s", 60.0, 30.0, 314.0)
        electron = ElectronQubitSpec(0.5, -0.5)
        for kind in ("cpmg", "udd3", "udd4"):
            seq = build_sequence(kind, 3.0e-6)
            for branch in (0, 1):
                assert _unitary(segment_exponential_rotation(
                    spin, electron, seq, branch))

    def test_conditional_unitary_block_structure(self):
        rng = np.random.default_rng(0)
        rots = [random_rotation_pair(rng) for _ in range(2)]
        u = conditional_unitary(rots)
        assert _unitary(u)
        assert np.allclose(u[:4, 4:], 0.0) and np.allclose(u[4:, :4], 0.0)
        assert np.allclose(u[:4, :4],
                           np.kron(rots[0].r0.matrix(), rots[1].r0.matrix()))

    def test_dense_propagator_matches_power(self):
        spins = [NuclearSpinParams.from_khz("a", 60.0, 30.0, 314.0),
                 NuclearSpinParams.from_khz("b", 80.0, 25.0, 314.0)]
        electron = ElectronQubitSpec(0.5, -0.5)
        seq = build_sequence("cpmg", 3.0e-6)
        u1 = dense_propagator(spins, electron, seq, 1)
        u5 = dense_propagator(spins, electron, seq, 5)
        assert np.allclose(np.linalg.matrix_power(u1, 5), u5, atol=1e-10)

    def test_qubit_cap(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            conditional_unitary([random_rotation_pair(rng) for _ in range(14)])

    def test_dense_propagator_qubit_cap(self, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("built a matrix past the qubit cap")

        monkeypatch.setattr(oracle, "segment_exponential_rotation", no_matrix)
        spins = [NuclearSpinParams.from_khz(f"s{i}", 60.0, 30.0, 314.0)
                 for i in range(14)]
        with pytest.raises(ValueError, match="15 qubits exceeds the 14-qubit cap"):
            dense_propagator(spins, ElectronQubitSpec(0.5, -0.5),
                             build_sequence("cpmg", 3.0e-6), 1)


class TestMonteCarlo:
    def test_identity_gate_gives_zero(self):
        mean, err = mc_bipartition_entangling_power(np.eye(4, dtype=complex),
                                                    0, 2000, seed=0)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_cnot_entangling_power(self):
        mean, err = mc_bipartition_entangling_power(CNOT, 0, 100_000, seed=1)
        assert abs(mean - 2.0 / 9.0) < 3.0 * err

    def test_reproducible(self):
        rng = np.random.default_rng(4)
        u = conditional_unitary([random_rotation_pair(rng)])
        a = mc_bipartition_entangling_power(u, 1, 5000, seed=7)
        b = mc_bipartition_entangling_power(u, 1, 5000, seed=7)
        assert a == b


class TestMagicInvariants:
    def test_identity(self):
        g1, g2 = magic_basis_invariants(np.eye(4, dtype=complex))
        assert g1 == pytest.approx(1.0, abs=1e-12)
        assert g2 == pytest.approx(3.0, abs=1e-12)

    def test_cnot(self):
        g1, g2 = magic_basis_invariants(CNOT)
        assert g1 == pytest.approx(0.0, abs=1e-12)
        assert g2 == pytest.approx(1.0, abs=1e-12)

    def test_phase_invariance(self):
        rng = np.random.default_rng(5)
        u = conditional_unitary([random_rotation_pair(rng)])
        g = magic_basis_invariants(u)
        gp = magic_basis_invariants(np.exp(0.37j) * u)
        assert g[0] == pytest.approx(gp[0], abs=1e-10)
        assert g[1] == pytest.approx(gp[1], abs=1e-10)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            magic_basis_invariants(np.eye(8, dtype=complex))


class TestNumericKraus:
    def test_no_environment_perfect(self):
        rng = np.random.default_rng(6)
        u = conditional_unitary([random_rotation_pair(rng)])
        assert numeric_kraus_fidelity(u, u, 1) == pytest.approx(1.0, abs=1e-12)

    def test_identity_channel_identity_target(self):
        u = np.eye(16, dtype=complex)
        assert numeric_kraus_fidelity(u, np.eye(4, dtype=complex), 1) == \
            pytest.approx(1.0, abs=1e-12)

    def test_environment_cap(self):
        u = np.eye(2 ** 13, dtype=complex)
        with pytest.raises(ValueError):
            numeric_kraus_fidelity(u, np.eye(2, dtype=complex), 0)
