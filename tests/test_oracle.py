from __future__ import annotations

import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintangle import entanglement, fidelity, oracle, qec, spin_model
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


class TestIndependence:
    """The analytic references live in the oracle and call no fast path."""

    MOVED = ("closed_form_angles", "trivial_evolution_condition",
             "residual_closed_form", "analytic_iteration_candidates",
             "udd4_jump_locations", "one_tangle_bound")
    GONE = {spin_model: ("closed_form_angles", "trivial_evolution_condition",
                         "branch_tilt", "trivial_evolution_time",
                         "trivial_evolution_radius", "_g_factor"),
            entanglement: ("analytic_iteration_candidates", "udd4_jump_locations",
                           "one_tangle_bound", "_folded_angle"),
            qec: ("residual_closed_form",)}
    # what the references may read of the fast modules: data types and spacings
    ALLOWED = {spin_model.NuclearSpinParams, spin_model.ElectronQubitSpec,
               spin_model.PulseSequence, spin_model.ConditionalRotation,
               spin_model.build_sequence}

    def test_references_only_in_the_oracle(self):
        from spintangle.oracle import (analytic_iteration_candidates,  # noqa: F401
                                       closed_form_angles, one_tangle_bound,
                                       residual_closed_form,
                                       trivial_evolution_condition,
                                       udd4_jump_locations)

        assert all(inspect.getmodule(getattr(oracle, name)) is oracle
                   for name in self.MOVED)
        assert {mod.__name__: [n for n in names if hasattr(mod, n)]
                for mod, names in self.GONE.items()} == {
                    mod.__name__: [] for mod in self.GONE}
        fast = [getattr(spin_model, name) for name in (
            "unit_quaternions", "unit_propagator", "iterate", "power",
            "half_angles", "branch_frequency", "su2")]
        fast += [f for _, f in inspect.getmembers(entanglement, inspect.isfunction)]
        fast += [fidelity] + [f for _, f in inspect.getmembers(fidelity, inspect.isfunction)]
        held = vars(oracle).values()
        assert not [f for f in fast if any(f is v for v in held)]
        # and nothing else of the package but the allowed data types
        borrowed = {v for v in held
                    if getattr(v, "__module__", "oracle").startswith("spintangle.")
                    and v.__module__ != "spintangle.oracle"}
        assert borrowed <= self.ALLOWED, borrowed - self.ALLOWED
        # no import inside a function brings in more
        imported = {alias.name for node in ast.walk(ast.parse(inspect.getsource(oracle)))
                    if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names}
        assert imported <= {f.__name__ for f in self.ALLOWED}, imported

    def test_dense_gate_and_kraus_build_their_own_matrices(self, monkeypatch):
        """The references give the same values with the fast SU(2) map gone."""
        rng = np.random.default_rng(23)
        rots = [random_rotation_pair(rng) for _ in range(3)]

        def references():
            return (oracle.conditional_unitary(rots),
                    [oracle.kraus_coefficients(rots, i) for i in range(8)])

        want = references()

        def fast(*args):
            raise AssertionError("the oracle called a fast-path SU(2) matrix")

        monkeypatch.setattr(spin_model, "su2", fast, raising=False)
        monkeypatch.setattr(spin_model.Rotation, "matrix", fast)
        got = references()
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def _quaternion(h, axis):
    """A branch quaternion (cos h, sin h * axis / |axis|)."""
    n = np.asarray(axis) / np.linalg.norm(axis)
    return [math.cos(h), *(math.sin(h) * n).tolist()]


_AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda a: 1e-3 < math.hypot(*a))
# half angles in [0, pi]: past pi/2 the branch turns past pi
_BRANCHES = st.one_of(
    st.builds(_quaternion, st.floats(0.0, math.pi), _AXES),
    # near identity, |v| < 1e-12, turned by about 0 or 2 pi
    st.builds(lambda w, v, axis: [w, *(v * np.asarray(axis)
                                      / np.linalg.norm(axis)).tolist()],
              st.sampled_from([1.0, -1.0]), st.floats(0.0, 9e-13), _AXES))


class TestAngleReader:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(rows=st.tuples(_BRANCHES, _BRANCHES),
           nans=st.one_of(st.just([]), st.lists(st.integers(0, 7), min_size=1,
                                                 max_size=3)))
    def test_matches_branch_angles(self, rows, nans):
        quats = np.array(rows)
        quats.reshape(8)[nans] = math.nan
        got = oracle._angles(quats)
        want = entanglement.branch_angles(quats)
        for g, w in zip(got, want):
            assert (math.isnan(g) and math.isnan(w)) or abs(g - w) <= 1e-12, (got, want)
