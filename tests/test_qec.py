from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from spintangle.datasets import load_register
from spintangle.designer import DesignConstraints, optimize_register_gate
from spintangle.entanglement import branch_angles
from spintangle.oracle import conditional_unitary, residual_closed_form
from spintangle.qec import (
    ERROR_KINDS,
    SCHEMES,
    QecScenario,
    _circuit,
    _input,
    _recovery,
    disentanglement_residual,
    error_surface,
    ideal_crx,
    nuclear_trajectories,
    run_bitflip_code,
    sequential_theta_solution,
)
from spintangle.spin_model import (
    ConditionalRotation,
    ElectronQubitSpec,
    NuclearSpinParams,
    build_sequence,
    iterate,
    resonance_time,
    unit_propagator,
)

from .conftest import random_rotation_pair

ERRORS = ("none", "electron", "nucleus1", "nucleus2")


def _tilted_crx(eps: float) -> ConditionalRotation:
    """A slightly imperfect conditional gate: axis tilted by eps toward z."""
    n = np.array([math.cos(eps), 0.0, math.sin(eps)])
    return ConditionalRotation.from_axis_angles(n, math.pi / 2.0,
                                                -n, math.pi / 2.0)


class TestThetaSolution:
    def test_linear_relations(self):
        t1, t2, t3, t4 = sequential_theta_solution()
        # electron-flip recovery: odd multiple of pi
        assert (t1 - t2 - t3 + t4) / math.pi % 2 == pytest.approx(1.0)
        # no-error path: even multiple of pi
        assert (t1 + t2 - t3 - t4) / math.pi % 2 == pytest.approx(0.0)
        # nucleus-flip corrections close modulo 2 pi
        assert (t1 + t2 + t3 + t4) % (2.0 * math.pi) == pytest.approx(0.0)
        assert (t1 - t2 + t3 - t4) % (2.0 * math.pi) == pytest.approx(0.0)

    def test_ideal_gate_angles_match(self):
        h0, h1, n01 = branch_angles(ideal_crx().quaternions)
        assert 2.0 * h0 == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert 2.0 * h1 == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert n01 == pytest.approx(-1.0, abs=1e-12)


class TestSequentialIdeal:
    @pytest.mark.parametrize("error", ERRORS)
    def test_exact_recovery_any_single_flip(self, error):
        for gamma in np.linspace(0.0, math.pi, 7):
            for delta in np.linspace(0.0, 2.0 * math.pi, 7):
                out = run_bitflip_code(QecScenario(
                    scheme="sequential", error=error,
                    gamma=float(gamma), delta=float(delta)))
                assert out.recovery_probability == pytest.approx(1.0, abs=1e-12)
                assert out.electron_purity == pytest.approx(1.0, abs=1e-12)

    def test_final_state_normalized(self):
        out = run_bitflip_code(QecScenario(error="electron", gamma=1.1,
                                           delta=0.7))
        assert np.linalg.norm(out.final_state) == pytest.approx(1.0, abs=1e-12)

    def test_snapshots_cover_all_stages(self):
        out = run_bitflip_code(QecScenario(error="nucleus1", gamma=0.4))
        assert list(out.snapshots) == ["initial", "encoded", "error",
                                       "decoded", "corrected"]
        for psi in out.snapshots.values():
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


class TestMultispinIdeal:
    def test_no_error_leaves_nuclei_in_ground(self):
        out = run_bitflip_code(QecScenario(scheme="multispin", error="none",
                                           gamma=1.2, delta=0.3))
        amp = out.final_state.reshape(2, 4)
        # all amplitude sits in the |00> nuclear column
        assert np.linalg.norm(amp[:, 1:]) == pytest.approx(0.0, abs=1e-12)
        assert out.recovery_probability == pytest.approx(1.0, abs=1e-12)

    def test_electron_flip_recovered(self):
        for gamma in np.linspace(0.0, math.pi, 5):
            out = run_bitflip_code(QecScenario(scheme="multispin",
                                               error="electron",
                                               gamma=float(gamma), delta=1.0))
            assert out.recovery_probability == pytest.approx(1.0, abs=1e-12)


class TestErrorSurface:
    def test_ideal_surface_is_flat_zero(self):
        surf = error_surface(QecScenario(error="electron"),
                             np.linspace(0.0, math.pi, 6),
                             np.linspace(0.0, 2.0 * math.pi, 6))
        assert surf.shape == (6, 6)
        assert np.max(np.abs(surf)) < 1e-12

    def test_gamma_zero_row_is_delta_independent(self):
        gates = (_tilted_crx(0.02), _tilted_crx(0.03))
        surf = error_surface(QecScenario(scheme="multispin",
                                         encode_gates=gates, error="electron"),
                             [0.0], np.linspace(0.0, 2.0 * math.pi, 9))
        assert np.ptp(surf[0]) < 1e-12

    def test_imperfect_gates_give_small_error(self):
        gates = (_tilted_crx(0.02), _tilted_crx(0.03))
        surf = error_surface(QecScenario(scheme="multispin",
                                         encode_gates=gates, error="electron"),
                             np.linspace(0.0, math.pi, 8),
                             np.linspace(0.0, 2.0 * math.pi, 8))
        assert 0.0 <= np.max(surf) < 0.05
        assert np.max(surf) > 1e-6


    @pytest.mark.parametrize("axis", ["gammas", "deltas"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_axis_rejected(self, axis, value):
        axes = {"gammas": [0.0, 1.0], "deltas": [0.0, 1.0]}
        axes[axis][1] = value
        with pytest.raises(ValueError, match=axis):
            error_surface(QecScenario(error="electron"), **axes)

    @pytest.mark.parametrize("axis", ["gammas", "deltas"])
    @pytest.mark.parametrize("bad", [[[0.0, 1.0]], 0.5, [[0.0, 1.0], 2.0]],
                             ids=["2-d", "scalar", "ragged"])
    def test_axis_must_be_one_dimensional(self, axis, bad):
        axes = {"gammas": [0.0, 1.0], "deltas": [0.0, 1.0], axis: bad}
        with pytest.raises(ValueError, match=axis):
            error_surface(QecScenario(error="electron"), **axes)

    def test_empty_axis_gives_empty_surface(self):
        scenario = QecScenario(error="electron")
        assert error_surface(scenario, [], [0.0, 1.0, 2.0]).shape == (0, 3)
        assert error_surface(scenario, [0.0, 1.0], []).shape == (2, 0)


class TestTrajectories:
    def test_paths_start_at_south_pole(self):
        traj = nuclear_trajectories(QecScenario(error="electron"), samples=16)
        assert set(traj) == {"nucleus1", "nucleus2"}
        for nuc in traj.values():
            assert set(nuc) == {"branch0", "branch1"}
            for path in nuc.values():
                assert path.shape == (32, 3)
                assert path[0] == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)
                assert np.linalg.norm(path, axis=1) == pytest.approx(
                    np.ones(len(path)), abs=1e-12)

    def test_electron_flip_returns_to_south_pole(self):
        # the decode runs on the opposite branch, undoing the encode rotation
        traj = nuclear_trajectories(QecScenario(error="electron"), samples=24)
        for nuc in traj.values():
            for path in nuc.values():
                assert path[-1] == pytest.approx((0.0, 0.0, -1.0), abs=1e-12)

    def test_multispin_has_three_segments(self):
        traj = nuclear_trajectories(QecScenario(scheme="multispin"), samples=10)
        assert traj["nucleus1"]["branch0"].shape == (30, 3)

    @pytest.mark.parametrize("samples", [0, -1, 2.5, "8"])
    def test_bad_samples_named(self, samples):
        with pytest.raises(ValueError, match="^samples must"):
            nuclear_trajectories(QecScenario(), samples=samples)

    def test_numpy_integer_samples_pass(self):
        got = nuclear_trajectories(QecScenario(error="electron"), samples=np.int64(8))
        want = nuclear_trajectories(QecScenario(error="electron"), samples=8)
        assert all(np.array_equal(got[nuc][branch], want[nuc][branch])
                   for nuc in want for branch in want[nuc])


class TestScenarioValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            QecScenario(scheme="other")

    def test_unknown_error(self):
        with pytest.raises(ValueError):
            QecScenario(error="phase")

    def test_gate_tuple_length(self):
        with pytest.raises(ValueError):
            QecScenario(encode_gates=(ideal_crx(),)).resolved_gates()
        # an empty tuple is not None: it does not stand for the default gates
        for field in ("encode_gates", "decode_gates"):
            for gates in ((), (ideal_crx(),), (ideal_crx(),) * 3):
                with pytest.raises(ValueError, match="need one gate per data nucleus"):
                    QecScenario(**{field: gates})

    @pytest.mark.parametrize("field", ["encode_gates", "decode_gates"])
    @pytest.mark.parametrize("gates", [(1, 2), (ideal_crx(), "gate")], ids=["ints", "str"])
    def test_non_rotation_gates_named(self, field, gates):
        with pytest.raises(ValueError, match=field):
            QecScenario(**{field: gates})

    @pytest.mark.parametrize("field", ["encode_gates", "decode_gates"])
    def test_non_iterable_gates_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must hold ConditionalRotations, got 5$"):
            QecScenario(**{field: 5})

    @pytest.mark.parametrize("field", ["encode_gates", "decode_gates"])
    def test_generator_gates_give_the_tuple_outcome(self, field):
        # a generator used to raise an unnamed TypeError from len()
        gates = (_tilted_crx(0.02), _tilted_crx(0.03))
        scenario = QecScenario(error="electron", **{field: (g for g in gates)})
        assert scenario == QecScenario(error="electron", **{field: gates})
        got, want = (run_bitflip_code(s) for s in (scenario, replace(scenario, **{field: gates})))
        assert (got.recovery_probability, got.electron_purity) == (
            want.recovery_probability, want.electron_purity)
        assert got.final_state.tobytes() == want.final_state.tobytes()

    def test_none_gates_are_ideal_then_the_encode_gates(self):
        enc, dec = QecScenario().resolved_gates()
        assert dec is enc
        assert [g.quaternions.tolist() for g in enc] == [ideal_crx().quaternions.tolist()] * 2
        gates = (_tilted_crx(0.02), _tilted_crx(0.03))
        assert QecScenario(encode_gates=gates).resolved_gates() == (gates, gates)


class TestDisentanglementResidual:
    def test_closed_form_matches_quaternions(self):
        electron = ElectronQubitSpec(0.0, -1.0)
        rng = np.random.default_rng(0)
        for _ in range(25):
            spin = NuclearSpinParams.from_khz(
                "r", rng.uniform(-60.0, 60.0), rng.uniform(1.0, 60.0), 432.0)
            t = rng.uniform(1e-6, 20e-6)
            rot = unit_propagator(build_sequence("cpmg", t), spin, electron)
            assert disentanglement_residual(rot) == pytest.approx(
                residual_closed_form(spin, electron, t), abs=1e-9)

    def test_quadratic_scaling_in_coupling(self):
        # log-log slope of the residual versus B must be 2 +/- 0.1
        electron = ElectronQubitSpec(0.0, -1.0)
        b_values = np.array([2.0, 4.0, 8.0, 16.0])
        res = []
        for b in b_values:
            spin = NuclearSpinParams.from_khz("s", 20.0, float(b), 2000.0)
            t = resonance_time(spin, electron, 1)
            rot = unit_propagator(build_sequence("cpmg", t), spin, electron)
            res.append(disentanglement_residual(rot))
        slope = np.polyfit(np.log(b_values), np.log(res), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_identical_branches_have_zero_residual(self):
        rot = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.8, (0.0, 0.0, 1.0), 0.8)
        assert disentanglement_residual(rot) == 0.0


def _designed_gates(anchor: str, k: int) -> tuple:
    """The CLI's encode gates for one nv27 design: its first two targets."""
    reg = load_register("nv27")
    electron = reg.electron()
    design = optimize_register_gate(reg.spins, electron, DesignConstraints(),
                                    reg.labels.index(anchor), k)
    seq = build_sequence("cpmg", design.unit_time)
    return tuple(iterate(unit_propagator(seq, reg.by_label(l), electron),
                         design.iterations) for l in design.target_labels[:2])


def _one_nucleus_gate(rot: ConditionalRotation, nucleus: int) -> np.ndarray:
    """8x8 gate rotating one nucleus per electron branch, the other idle."""
    u = np.zeros((8, 8), dtype=complex)
    for branch, r in enumerate((rot.r0, rot.r1)):
        mats = [np.eye(2), np.eye(2)]
        mats[nucleus] = r.matrix()
        u[4 * branch:4 * branch + 4, 4 * branch:4 * branch + 4] = np.kron(*mats)
    return u


class TestCircuitBuiltOnce:
    @pytest.mark.parametrize("scheme", ["sequential", "multispin"])
    def test_surface_points_equal_single_runs(self, scheme):
        gates = _designed_gates("C4", 3)
        gammas = np.linspace(0.0, math.pi, 5)
        deltas = np.linspace(0.0, 2.0 * math.pi, 6)
        for error in ERRORS:
            base = QecScenario(scheme=scheme, encode_gates=gates, error=error)
            surf = error_surface(base, gammas, deltas)
            for i, g in enumerate(gammas):
                for j, d in enumerate(deltas):
                    run = run_bitflip_code(replace(base, gamma=float(g),
                                                   delta=float(d)))
                    assert surf[i, j] == 1.0 - run.recovery_probability

    @pytest.mark.parametrize("error", ERRORS)
    def test_sequential_is_one_nucleus_gates_in_turn(self, error):
        enc = _designed_gates("C23", 3)
        dec = (_tilted_crx(0.02), _tilted_crx(0.03))
        out = run_bitflip_code(QecScenario(encode_gates=enc, decode_gates=dec,
                                           error=error, gamma=1.1, delta=0.7))
        snaps = out.snapshots
        for before, after, gates in (("initial", "encoded", enc),
                                     ("error", "decoded", dec)):
            want = (_one_nucleus_gate(gates[1], 1)
                    @ (_one_nucleus_gate(gates[0], 0) @ snaps[before]))
            assert np.max(np.abs(snaps[after] - want)) <= 1e-15


class TestCircuitAgainstOracle:
    """The stage operators against the dense reference's block-diagonal gate."""

    @staticmethod
    def _gates(kind: str) -> tuple[tuple, tuple]:
        if kind == "ideal":
            return (ideal_crx(), ideal_crx()), (ideal_crx(), ideal_crx())
        return _designed_gates("C4", 3), (_tilted_crx(0.02), _tilted_crx(0.03))

    @pytest.mark.parametrize("kind", ["ideal", "designed"])
    def test_sequential_encode_and_decode(self, kind):
        enc, dec = self._gates(kind)
        encode, _, decode, _ = _circuit(QecScenario(encode_gates=enc,
                                                    decode_gates=dec))
        assert np.array_equal(encode, conditional_unitary(list(enc)))
        assert np.array_equal(decode, conditional_unitary(list(dec)))

    @pytest.mark.parametrize("kind", ["ideal", "designed"])
    def test_multispin_encode_ends_with_the_ry_pair(self, kind):
        enc, dec = self._gates(kind)
        ry = ConditionalRotation.from_axis_angles((0.0, 1.0, 0.0), -math.pi,
                                                  (0.0, 1.0, 0.0), -math.pi)
        encode, _, decode, _ = _circuit(QecScenario(
            scheme="multispin", encode_gates=enc, decode_gates=dec))
        want = conditional_unitary([ry, ry]) @ conditional_unitary(list(enc))
        # one 8x8 product against two 4x4 blocks: BLAS may round differently
        assert np.max(np.abs(encode - want)) <= 1e-15
        assert np.array_equal(decode, conditional_unitary(list(dec)))


class TestSurfacePointPath:
    """Pins the per-point path that a batched surface must reproduce."""

    def test_input_state_is_the_kronecker_product(self):
        rng = np.random.default_rng(11)
        e11 = np.array([0, 0, 0, 1], dtype=complex)
        for gamma, delta in rng.uniform(-10.0, 10.0, (200, 2)):
            psi_el, psi = _input(float(gamma), float(delta))
            assert np.array_equal(psi, np.kron(psi_el, e11))
            assert np.allclose(psi_el, (math.cos(gamma / 2.0),
                                        np.exp(1j * delta) * math.sin(gamma / 2.0)),
                               rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("scheme", ["sequential", "multispin"])
    def test_point_does_not_depend_on_grid_size(self, scheme):
        gates = _designed_gates("C23", 3)
        gammas = np.linspace(0.0, math.pi, 7)
        deltas = np.linspace(0.0, 2.0 * math.pi, 9)
        for error in ERRORS:
            base = QecScenario(scheme=scheme, encode_gates=gates, error=error)
            surf = error_surface(base, gammas, deltas)
            for i, g in enumerate(gammas):
                for j, d in enumerate(deltas):
                    assert error_surface(base, [g], [d])[0, 0] == surf[i, j]


def _permutation_matrix(image) -> np.ndarray:
    """The dense 8x8 matrix that sends basis state |image(i)> to |i>."""
    p = np.zeros((8, 8), dtype=complex)
    for i in range(8):
        p[i, image(i)] = 1.0
    return p


def _matrix_recovery(psi_el: np.ndarray, psi: np.ndarray) -> float:
    """The recovery as two matrix products, clipped at 1 with NaN kept."""
    proj = psi_el.conj() @ psi.reshape(2, 4)
    return float(np.minimum(1.0, np.real(proj @ proj.conj())))


class TestStageIndexMaps:
    """The permutation stages are index maps, equal to their dense products."""

    @staticmethod
    def _random_states(rng, count: int) -> np.ndarray:
        return rng.normal(size=(count, 8)) + 1j * rng.normal(size=(count, 8))

    @pytest.mark.parametrize("error, bit", zip(ERROR_KINDS, (0, 4, 2, 1)))
    def test_error_map_is_the_bit_flip_product(self, error, bit):
        _, error_map, _, _ = _circuit(QecScenario(error=error))
        dense = _permutation_matrix(lambda i: i ^ bit)
        for psi in self._random_states(np.random.default_rng(40 + bit), 200):
            assert np.array_equal(psi[error_map], dense @ psi)

    def test_toffoli_map_is_the_toffoli_product(self):
        _, _, _, toffoli = _circuit(QecScenario())
        # the electron bit (4) flips when both nuclear bits (2 and 1) are set
        dense = _permutation_matrix(lambda i: i ^ 4 if i & 3 == 3 else i)
        for psi in self._random_states(np.random.default_rng(47), 200):
            assert np.array_equal(psi[toffoli], dense @ psi)

    def test_recovery_equals_the_matrix_formula(self):
        rng = np.random.default_rng(48)
        for _ in range(100):
            scenario = QecScenario(
                scheme=SCHEMES[rng.integers(2)], error=ERROR_KINDS[rng.integers(4)],
                encode_gates=[random_rotation_pair(rng) for _ in range(2)],
                decode_gates=[random_rotation_pair(rng) for _ in range(2)])
            encode, error, decode, toffoli = _circuit(scenario)
            for gamma, delta in rng.uniform(-7.0, 7.0, (100, 2)):
                psi_el, psi = _input(float(gamma), float(delta))
                psi = (decode @ (encode @ psi)[error])[toffoli]
                assert _recovery(psi_el, psi) == _matrix_recovery(psi_el, psi)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_surface_equals_the_dense_matrix_path(self, scheme):
        gates = _designed_gates("C23", 3)
        toffoli = _permutation_matrix(lambda i: i ^ 4 if i & 3 == 3 else i)
        gammas = np.linspace(0.0, math.pi, 7)
        deltas = np.linspace(0.0, 2.0 * math.pi, 9)
        for error, bit in zip(ERROR_KINDS, (0, 4, 2, 1)):
            scenario = QecScenario(scheme=scheme, encode_gates=gates, error=error)
            encode, _, decode, _ = _circuit(scenario)
            dense = (encode, _permutation_matrix(lambda i: i ^ bit), decode, toffoli)
            surf = error_surface(scenario, gammas, deltas)
            for i, g in enumerate(gammas.tolist()):
                for j, d in enumerate(deltas.tolist()):
                    psi_el, psi = _input(g, d)
                    for op in dense:
                        psi = op @ psi
                    assert surf[i, j] == 1.0 - _matrix_recovery(psi_el, psi)

    def test_recovery_clips_at_one_and_keeps_nan(self):
        psi_el, psi = _input(1.1, 0.7)
        assert type(_recovery(psi_el, psi)) is float
        assert _recovery(psi_el, 2.0 * psi) == 1.0
        assert math.isnan(_recovery(psi_el, math.nan * psi))


class TestNonFiniteInputs:
    def test_nan_gate_gives_nan_recovery(self):
        gate = ConditionalRotation(np.full((2, 4), math.nan))
        out = run_bitflip_code(QecScenario(encode_gates=(gate, gate),
                                           error="electron", gamma=1.0))
        assert math.isnan(out.recovery_probability)
        assert math.isnan(out.electron_purity)

    @pytest.mark.parametrize("field", ["gamma", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_state_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            QecScenario(**{field: value})
