from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintangle import cli, entanglement
from spintangle.datasets import load_register
from spintangle.designer import minimize_unwanted_tangle
from spintangle.entanglement import (
    MAX_PAIR_TANGLE,
    branch_angles,
    electron_one_tangle,
    entangling_power,
    g1_from_phase_rates,
    g1_over_iterations,
    makhlin_g1,
    makhlin_g2,
    nuclear_one_tangle,
    optimal_iterations,
    phase_amplitude,
    phase_rates,
    tangle_upper_bound,
)
from spintangle.oracle import (
    analytic_iteration_candidates,
    conditional_unitary,
    magic_basis_invariants,
    mc_bipartition_entangling_power,
    one_tangle_bound,
    udd4_jump_locations,
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

from .conftest import random_rotation_pair, random_unit_vector


def _rates_of(h0, h1, n01):
    """phase_rates of branch quaternions that branch_angles reads as (h0, h1, n01)."""
    with mock.patch.object(entanglement, "branch_angles", lambda quats: (h0, h1, n01)):
        return phase_rates(None)


class TestMakhlinInvariants:
    def test_identity_values(self):
        rng = np.random.default_rng(0)
        rot = random_rotation_pair(rng)
        assert makhlin_g1(rot, 0) == 1.0
        assert makhlin_g2(rot, 0) == 3.0

    def test_cnot_class_point(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 2.0, (-1.0, 0.0, 0.0), math.pi / 2.0)
        assert makhlin_g1(rot, 1) == pytest.approx(0.0, abs=1e-12)
        assert makhlin_g2(rot, 1) == pytest.approx(1.0, abs=1e-12)

    def test_matches_magic_basis_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rot = random_rotation_pair(rng)
            n = int(rng.integers(1, 30))
            u = conditional_unitary([iterate(rot, n)])
            g1_ref, g2_ref = magic_basis_invariants(u)
            assert abs(g1_ref.imag) < 1e-9
            assert makhlin_g1(rot, n) == pytest.approx(g1_ref.real, abs=1e-10)
            assert makhlin_g2(rot, n) == pytest.approx(g2_ref.real, abs=1e-10)

    def test_negative_n_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            makhlin_g1(random_rotation_pair(rng), -1)

    def test_nan_rotation_stays_nan(self):
        q = np.array([[math.nan, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
        rot = ConditionalRotation(q)
        assert math.isnan(makhlin_g1(rot, 3))
        assert math.isnan(nuclear_one_tangle(rot, 3))

    def test_ranges_over_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            rot = random_rotation_pair(rng)
            n = int(rng.integers(0, 200))
            assert 0.0 <= makhlin_g1(rot, n) <= 1.0
            assert 1.0 <= makhlin_g2(rot, n) <= 3.0


class TestEntanglingPower:
    def test_trivial_gate(self):
        rng = np.random.default_rng(4)
        rot = random_rotation_pair(rng)
        assert entangling_power(rot, 0) == 0.0

    def test_saturation(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 2.0, (-1.0, 0.0, 0.0), math.pi / 2.0)
        assert entangling_power(rot, 1) == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        rot = random_rotation_pair(rng)
        u = conditional_unitary([rot])
        mean, err = mc_bipartition_entangling_power(u, 1, 100_000, seed=9)
        assert abs(entangling_power(rot, 1) - mean) < 3.0 * err

    def test_equals_nuclear_tangle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rot = random_rotation_pair(rng)
            n = int(rng.integers(1, 100))
            assert entangling_power(rot, n) == pytest.approx(
                nuclear_one_tangle(rot, n), abs=1e-12)


class TestOneTangles:
    def test_maximizing_iteration_case(self):
        spin = NuclearSpinParams.from_khz("t", 60.0, 30.0, 314.0)
        electron = ElectronQubitSpec(0.5, -0.5)
        rot = unit_propagator(build_sequence("cpmg", 3.1811e-6), spin, electron)
        assert nuclear_one_tangle(rot, 25, scaled=True) >= 0.99

    def test_trivial_evolution_zero(self):
        rot = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.7, (0.0, 0.0, 1.0), 0.7)
        assert nuclear_one_tangle(rot, 13) == pytest.approx(0.0, abs=1e-12)

    def test_electron_tangle_trivial_register(self):
        rng = np.random.default_rng(7)
        rots = [ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.2 * i, (0.0, 0.0, 1.0), 0.2 * i)
            for i in range(1, 4)]
        assert electron_one_tangle(rots, 5) == pytest.approx(0.0, abs=1e-12)

    def test_electron_tangle_needs_a_rotation(self):
        with pytest.raises(ValueError, match="at least one"):
            electron_one_tangle([], 5)

    def test_electron_tangle_two_perfect_entanglers(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 2.0, (-1.0, 0.0, 0.0), math.pi / 2.0)
        val = electron_one_tangle([rot, rot], 1)
        assert val == pytest.approx(1.0 / 3.0 - 1.0 / 27.0, abs=1e-12)

    def test_electron_tangle_reduces_to_pair_value(self):
        rng = np.random.default_rng(8)
        rot = random_rotation_pair(rng)
        trivial = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.4, (0.0, 0.0, 1.0), 0.4)
        n3 = electron_one_tangle([rot, trivial, trivial], 3)
        pair = MAX_PAIR_TANGLE * (1.0 - makhlin_g1(rot, 3))
        # with bystanders trivial, the n-qubit formula collapses to the pair
        assert n3 == pytest.approx(pair, abs=1e-12)

    def test_electron_tangle_monte_carlo(self):
        rng = np.random.default_rng(9)
        rots = [iterate(random_rotation_pair(rng), 1) for _ in range(3)]
        u = conditional_unitary(rots)
        mean, err = mc_bipartition_entangling_power(u, 0, 100_000, seed=10)
        assert abs(electron_one_tangle(rots, 1) - mean) < 3.0 * err

    def test_electron_tangle_of_a_large_register(self):
        rng = np.random.default_rng(11)
        rot = random_rotation_pair(rng)
        g1 = makhlin_g1(rot, 2)
        val = electron_one_tangle([rot] * 700, 2)
        assert math.isfinite(val)
        expected = (1.0 - ((1.0 + 2.0 * g1) / 3.0) ** 700) / 3.0
        assert val == pytest.approx(expected, abs=1e-12)


class TestOneTangleBound:
    def test_two_qubits(self):
        assert one_tangle_bound(2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_three_qubits_brute_force(self):
        # enumerate the 8 secondary bipartitions explicitly
        n = 3
        total = sum(1.0 / min(2 ** (n - 1 + len(sub)), 2 ** (1 + n - len(sub)))
                    for size in range(n + 1)
                    for sub in [list(range(size))]
                    for _ in range(math.comb(n, size)))
        ref = 1.0 - (2.0 / 3.0) ** n * total
        assert one_tangle_bound(3) == pytest.approx(ref, abs=1e-14)

    def test_exceeds_pulse_sequence_maximum(self):
        # the best any conditional-rotation register reaches is all G1 = 0
        for n in range(2, 8):
            best = 1.0 / 3.0 - 3.0 ** (-n)
            assert one_tangle_bound(n) >= best - 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            one_tangle_bound(1)


class TestTangleUpperBound:
    @staticmethod
    def _check(rot, N_max):
        d, sigma, weight = phase_rates(rot.quaternions)
        tangles = 1.0 - g1_from_phase_rates(d, sigma, weight, np.arange(N_max + 1))
        assert tangle_upper_bound(d, weight, N_max) >= tangles.max()

    @pytest.mark.parametrize("N_max", [1, 10, 300, 10_000])
    def test_unequal_half_angles(self, N_max):
        # UDD4-like: independent branch angles
        rng = np.random.default_rng(N_max)
        for _ in range(50):
            self._check(random_rotation_pair(rng), N_max)

    @pytest.mark.parametrize("N_max", [1, 10, 300, 10_000])
    @pytest.mark.parametrize("tilt", [1e-3, 0.1, 2.0])
    def test_equal_half_angles(self, N_max, tilt):
        # CPMG-like: one angle, axes from nearly parallel to far apart
        rng = np.random.default_rng(N_max)
        for _ in range(50):
            n0 = random_unit_vector(rng)
            n1 = n0 + tilt * random_unit_vector(rng)
            phi = rng.uniform(0.0, math.pi)
            self._check(ConditionalRotation.from_axis_angles(
                n0, phi, n1 / np.linalg.norm(n1), phi), N_max)

    def test_nan_gives_nan(self):
        for args in [(math.nan, 0.1, 0.5), (0.1, math.nan, 0.5),
                     (0.1, 0.1, math.nan)]:
            d, _, weight = _rates_of(*args)
            assert math.isnan(tangle_upper_bound(d, weight, 10))


class TestOptimalIterations:
    def test_antiparallel_harmonics(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 50.0, (-1.0, 0.0, 0.0), math.pi / 50.0)
        hits = optimal_iterations(rot, N_max=100)
        assert 25 in hits and 75 in hits

    def test_parallel_axes_empty(self):
        rot = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.9,
            (math.sin(1.0472), 0.0, math.cos(1.0472)), 0.9)  # n01 = +0.5
        assert optimal_iterations(rot, N_max=300) == []

    def test_n_max_read_as_an_integer(self):
        reg = load_register("nv27")
        electron, c4 = reg.electron(), reg.by_label("C4")
        rot = unit_propagator(build_sequence("cpmg", resonance_time(c4, electron, 3)),
                              c4, electron)
        # no count above N_max: 24 is the first hit
        assert optimal_iterations(rot, 23) == []
        assert optimal_iterations(rot, np.int64(24)) == [24]
        assert optimal_iterations(rot, 0) == []
        for bad in (23.5, math.nan, "24", None):
            with pytest.raises(ValueError, match="N_max must be an integer"):
                optimal_iterations(rot, bad)

    def test_udd4_numeric_minima_match_scan(self):
        spin = NuclearSpinParams.from_khz("u", 60.0, 30.0, 314.0)
        electron = ElectronQubitSpec(0.5, -0.5)
        t = resonance_time(spin, electron, 1)
        rot = unit_propagator(build_sequence("udd4", t), spin, electron)
        hits = optimal_iterations(rot, N_max=300)
        brute = [n for n in range(1, 301) if makhlin_g1(rot, n) < 0.05]
        assert hits == brute

    def test_analytic_candidates_subset_of_scan(self):
        spin = NuclearSpinParams.from_khz("c", 80.0, 25.0, 314.0)
        electron = ElectronQubitSpec(0.5, -0.5)
        t = resonance_time(spin, electron, 2)
        rot = unit_propagator(build_sequence("cpmg", t), spin, electron)
        cands = analytic_iteration_candidates(rot, kappa_range=range(1, 6))
        scan = set(optimal_iterations(rot, N_max=max(cands) + 5))
        assert cands and set(cands) <= scan

    def test_analytic_candidates_perpendicular_axes(self):
        # n01 = 0: m = cos^2(N phi/2), zero at N = (2 kappa + 1) pi / phi
        phi = math.pi / 50.0
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), phi, (0.0, 1.0, 0.0), phi)
        cands = analytic_iteration_candidates(rot)
        assert cands == [round((2 * kappa + 1) * math.pi / phi)
                         for kappa in range(1, 11)]
        assert all(makhlin_g1(rot, n) < 1e-12 for n in cands)

    def test_analytic_candidates_of_identity_rotation_are_empty(self):
        identity = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 1.0), 0.0)
        assert analytic_iteration_candidates(identity) == []

    def test_analytic_candidates_of_near_identity_past_pi_are_empty(self):
        # branch 0 turns by just under 2 pi, branch 1 by just over 0: both
        # fold to an angle below the axis threshold, so n01 reads 1 unflipped
        rot = ConditionalRotation([[-1.0, 1e-13, 0.0, 0.0], [1.0, 1e-13, 0.0, 0.0]])
        assert analytic_iteration_candidates(rot) == []

    def test_analytic_candidates_need_equal_angles(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), 0.5, (-1.0, 0.0, 0.0), 0.9)
        with pytest.raises(ValueError):
            analytic_iteration_candidates(rot)

    @pytest.mark.parametrize("dot", [0.96, -0.96])
    @pytest.mark.parametrize("past_pi", [(False, True), (True, False), (True, True)],
                             ids=["branch1", "branch0", "both"])
    def test_analytic_candidates_fold_angles_past_pi(self, past_pi, dot):
        # three units turn branch j by phi, or by 2 pi - phi where past_pi[j]:
        # the same gate as 2 pi - phi about -n_j, folded into [0, pi]
        phi, N = 2.0, 3
        n0, n1 = np.array([0.6, 0.0, 0.8]), np.array([0.8, 0.0, 0.6]) * np.sign(dot)
        angles = [2.0 * math.pi - phi if p else phi for p in past_pi]
        rot = iterate(ConditionalRotation.from_axis_angles(
            n0, angles[0] / N, n1, angles[1] / N), N)
        assert (rot.quaternions[:, 0] < 0).tolist() == list(past_pi)
        folded = ConditionalRotation.from_axis_angles(
            -n0 if past_pi[0] else n0, phi, -n1 if past_pi[1] else n1, phi)
        expected = analytic_iteration_candidates(folded)
        # G1 vanishes only for a negative folded axis dot
        assert bool(expected) == (branch_angles(folded.quaternions)[2] < 0)
        assert analytic_iteration_candidates(rot) == expected


class TestUdd4Jumps:
    def test_direct_formula(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 25.0, (-1.0, 0.0, 0.0), math.pi / 26.0)
        phi_sum = math.pi / 25.0 + math.pi / 26.0
        hits = udd4_jump_locations(rot, 120)
        for kappa, n in enumerate(hits, start=1):
            assert n == round(2.0 * kappa * math.pi / phi_sum)

    def test_predictions_match_sign_changes(self):
        spin = NuclearSpinParams.from_khz("j", 60.0, 30.0, 314.0)
        electron = ElectronQubitSpec(0.5, -0.5)
        rot = unit_propagator(build_sequence("udd4", 3.1861e-6), spin, electron)
        hits = udd4_jump_locations(rot, 300)
        quats = [iterate(rot, n).quaternions for n in range(1, 302)]
        # the sign of the folded n0 . n1: a branch past pi (w < 0) flips its axis
        dots = np.array([q[0, 0] * q[1, 0] * (q[0, 1:] @ q[1, 1:]) for q in quats])
        sign_changes = [n + 1 for n in range(300)
                        if np.sign(dots[n + 1]) != np.sign(dots[n])]
        assert hits
        for n in hits:
            below = [s for s in sign_changes if s <= n]
            above = [s for s in sign_changes if s >= n]
            assert below and above
            assert above[0] - below[-1] <= 12

    def test_cpmg_has_none(self):
        spin = NuclearSpinParams.from_khz("j", 60.0, 30.0, 314.0)
        electron = ElectronQubitSpec(0.5, -0.5)
        rot = unit_propagator(build_sequence("cpmg", 3.0e-6), spin, electron)
        assert udd4_jump_locations(rot, 300) == []


def test_g1_invariant_under_local_conjugation():
    rng = np.random.default_rng(11)
    from .conftest import random_unit_vector

    for _ in range(30):
        rot = random_rotation_pair(rng)
        n, angle = random_unit_vector(rng), rng.uniform(0, 2 * math.pi)
        frame = ConditionalRotation.from_axis_angles(n, angle, n, angle).r0
        # conjugate the nucleus by F on both electron branches: I (x) F
        f = np.kron(np.eye(2), frame.matrix())
        u = f @ conditional_unitary([rot]) @ f.conj().T
        g1_ref, _ = magic_basis_invariants(u)
        assert makhlin_g1(rot, 1) == pytest.approx(g1_ref.real, abs=1e-10)


class TestG1OverIterations:
    COUNTS = [0, 1, 2, 7, 51, 300, 10_000]

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_equals_makhlin_g1_at_every_count(self, shape):
        rng = np.random.default_rng(len(shape))
        rots = [random_rotation_pair(rng) for _ in range(int(np.prod(shape)))]
        quats = np.stack([r.quaternions for r in rots], axis=-1)
        quats = quats.reshape((2, 4) + shape)
        g1 = g1_over_iterations(quats, self.COUNTS)
        assert g1.shape == shape + (len(self.COUNTS),)
        flat = g1.reshape(-1, len(self.COUNTS))
        for rot, row in zip(rots, flat):
            assert row.tolist() == [makhlin_g1(rot, n) for n in self.COUNTS]


class TestScalarG1:
    """makhlin_g1 reads one rotation on floats: the batch path's bits."""

    COUNTS = [0, 1, 10_000]

    @staticmethod
    def _rotations():
        electron = ElectronQubitSpec(0.0, -1.0)
        seq = build_sequence("cpmg", 7.3e-6)
        rng = np.random.default_rng(4)
        spins = [NuclearSpinParams.from_khz("r", a, b, 432.0)
                 for a, b in zip(rng.uniform(-100, 200, 200),
                                 rng.uniform(0, 200, 200))]
        rots = [unit_propagator(seq, s, electron) for s in spins]
        rots += [random_rotation_pair(rng) for _ in range(50)]
        near_identity = ConditionalRotation(
            [[1.0, 0.0, 0.0, 1e-13], [math.cos(0.3), 0.0, math.sin(0.3), 0.0]])
        assert branch_angles(near_identity.quaternions)[2] == 1.0
        return rots + [near_identity]

    def test_equals_g1_over_iterations(self):
        rots = self._rotations()
        # the batch path: the rotations stacked on a last axis
        ref = g1_over_iterations(np.stack([r.quaternions for r in rots], axis=-1),
                                 self.COUNTS).tolist()
        for rot, row in zip(rots, ref):
            assert [makhlin_g1(rot, n) for n in self.COUNTS] == row

    @pytest.mark.parametrize("q", [
        [[math.nan, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]],
        [[0.6, math.nan, 0.0, 0.8], [0.8, 0.6, 0.0, 0.0]],
        [[0.6, 0.0, 0.0, 0.8], [0.8, 0.6, 0.0, math.nan]],
        [[math.nan] * 4, [math.nan] * 4],
    ], ids=["w0", "x0", "z1", "all"])
    def test_nan_quaternion_stays_nan(self, q):
        rot = ConditionalRotation(q)
        ref = g1_over_iterations(rot.quaternions[..., None], self.COUNTS)
        assert np.isnan(ref).all()
        assert all(math.isnan(makhlin_g1(rot, n)) for n in self.COUNTS)

    @classmethod
    def _edge_quaternions(cls):
        """The rotations above, then trivial, w < 0, signed-zero and NaN cases."""
        quats = [r.quaternions for r in cls._rotations()]
        c, s = math.cos(0.4), math.sin(0.4)
        quats += [np.array(q, dtype=float) for q in (
            [[1.0, 0.0, 0.0, 0.0], [c, s, 0.0, 0.0]],           # s0 = 0
            [[1.0, 5e-13, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],     # both trivial
            [[-c, 0.0, 0.0, s], [-s, c, 0.0, 0.0]],             # w < 0
            [[-1.0, 0.0, -0.0, 0.0], [c, -s, 0.0, -0.0]],       # w = -1, s0 = 0
            [[-0.0, 0.0, 1.0, -0.0], [0.0, -0.0, -1.0, 0.0]],   # w = -0.0, +0.0
            [[-0.0, -0.0, -0.0, -0.0], [0.0, 0.0, 0.0, 0.0]],   # all zeros
        )]
        for pos in range(8):
            q = np.array([[c, 0.0, s, 0.0], [s, 0.0, 0.0, c]])
            q.flat[pos] = math.nan
            quats.append(q)
        return quats

    def test_one_rotation_equals_its_batch_column(self):
        quats = self._edge_quaternions()
        # the angles, and the phase rates read from them
        for read in (branch_angles, phase_rates):
            batch = read(np.stack(quats, axis=-1))
            for col, q in enumerate(quats):
                got = read(ConditionalRotation(q))
                # a rotation takes the float path
                assert [type(v) for v in got] == [float] * 3
                # and a lone (2, 4) array the array path, with the same values
                for values in (got, read(q)):
                    for value, ref in zip(values, batch):
                        assert value == ref[col] or (math.isnan(value) and math.isnan(ref[col]))

    def test_derived_invariants_of_edge_rotations(self):
        """entangling_power is the nuclear one-tangle, and the electron
        one-tangle multiplies (1 + 2 G1)/3 over the rotations, NaN included."""
        rots = [ConditionalRotation(q) for q in self._edge_quaternions()]

        def same(a, b):
            return a == b or (math.isnan(a) and math.isnan(b))

        # each rotation alone, those without a NaN, then all of them
        groups = [[rot] for rot in rots] + [rots[:-8], rots]
        for n in self.COUNTS:
            for rot in rots:
                assert same(entangling_power(rot, n), nuclear_one_tangle(rot, n))
            for group in groups:
                ref = 1.0 - math.prod((1.0 + 2.0 * makhlin_g1(r, n)) / 3.0 for r in group)
                assert same(electron_one_tangle(group, n, scaled=True), ref)
                assert same(electron_one_tangle(group, n), ref / 3.0)

    def test_g1_over_iterations_of_one_rotation_equals_its_batch(self):
        for q in self._edge_quaternions():
            assert np.array_equal(g1_over_iterations(q, self.COUNTS),
                                  g1_over_iterations(q[..., None], self.COUNTS)[0],
                                  equal_nan=True)


class TestRotationsPassedWhole:
    """Callers holding one rotation hand branch_angles the rotation: its
    stored angles, not a (2, 4) array built to be read back."""

    def test_no_quaternion_array_is_read(self, monkeypatch, capsys):
        reads = []
        array = ConditionalRotation.quaternions.fget
        monkeypatch.setattr(ConditionalRotation, "quaternions",
                            property(lambda rot: reads.append(rot) or array(rot)))
        reg = load_register("nv27")
        electron = reg.electron()
        c4, c5 = reg.by_label("C4"), reg.by_label("C5")
        rot = unit_propagator(build_sequence("cpmg", resonance_time(c4, electron, 3)),
                              c4, electron)
        assert optimal_iterations(rot, 300)
        minimize_unwanted_tangle(c4, c5, electron)
        assert cli.main(["sweep", "--register", "nv27", "--spin", "C5", "--k", "2",
                         "--n-min", "0", "--n-max", "300",
                         "--metrics", "g1,g2,ep,m,tangle"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 301
        assert reads == []


# half angles and axis dots as one rotation gives them, then the edges: NaN,
# infinite phases, and dots a few ulp outside [-1, 1]
_HALF_ANGLES = st.one_of(st.floats(-2 * math.pi, 2 * math.pi), st.sampled_from(
    [0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e307]))
_DOTS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(
    [s * (1.0 + k * math.ulp(1.0)) for s in (1.0, -1.0) for k in (1, 2, 4)]
    + [math.nan]))


@settings(max_examples=500, deadline=None)
# |N (h0 + h1)| reaches 1e6 at N = 80000
@given(h0=_HALF_ANGLES, h1=_HALF_ANGLES, n01=_DOTS,
       N=st.one_of(st.just(0), st.integers(0, 80_000)))
def test_g1_on_floats_equals_the_array_call(h0, h1, n01, N):
    """Python floats and an int count take math.cos: the array call's bits."""
    finite = math.isfinite(N * (h0 - h1)) and math.isfinite(N * (h0 + h1))
    with np.errstate(over="ignore", invalid="ignore"):  # infinite phases
        rates = _rates_of(h0, h1, n01)
        array_rates = _rates_of(np.array([h0]), np.array([h1]), np.array([n01]))
        for f in (phase_amplitude, g1_from_phase_rates):
            got = f(*rates, N)
            ref = f(*array_rates, N)[0]
            assert (np.float64(got).tobytes() == ref.tobytes()
                    or (math.isnan(got) and math.isnan(ref))), (got, ref)
            # an infinite phase, or a numpy count, keeps the numpy path
            assert (type(got) is float) == finite
            assert type(f(*rates, np.int64(N))) is np.float64


@settings(max_examples=500, deadline=None)
@given(h0=_HALF_ANGLES, h1=_HALF_ANGLES, n01=_DOTS, N=st.integers(0, 80_000))
def test_tangle_upper_bound_of_rates_is_the_angle_form(h0, h1, n01, N):
    """4 weight is 2(1 - n01) exactly, so the bound of the rates keeps its bits."""
    h0, h1, n01 = (np.array([v]) for v in (h0, h1, n01))
    with np.errstate(over="ignore", invalid="ignore"):  # infinite phases
        d, _, weight = _rates_of(h0, h1, n01)
        got = tangle_upper_bound(d, weight, N)[0]
        ref = (2.0 * (1.0 - n01) + (N * (h0 - h1)) ** 2)[0]
    assert got.tobytes() == ref.tobytes() or (math.isnan(got) and math.isnan(ref)), (got, ref)


def _float_bound_is_the_array_bound(d, weight, N):
    got = tangle_upper_bound(d, weight, N)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, inf - inf
        ref = tangle_upper_bound(np.array([d]), np.array([weight]), N)[0]
    assert type(got) is float
    assert (np.float64(got).tobytes() == ref.tobytes()
            or (math.isnan(got) and math.isnan(ref))), (got, ref)


@settings(max_examples=500, deadline=None)
@given(h0=_HALF_ANGLES, h1=_HALF_ANGLES, n01=_DOTS, N=st.integers(0, 80_000))
def test_tangle_upper_bound_on_floats_is_the_array_call(h0, h1, n01, N):
    """Python floats square as numpy does, x * x, with no OverflowError."""
    d, _, weight = _rates_of(h0, h1, n01)
    _float_bound_is_the_array_bound(d, weight, N)


@pytest.mark.parametrize("d, weight, N", [
    (1e200, 0.1, 10),  # (N d) ** 2 on floats raised OverflowError
    (-82584.46389250358, 0.0, 1),  # and C pow read ...412228 here
], ids=["overflow", "last-bit"])
def test_tangle_upper_bound_float_edges(d, weight, N):
    _float_bound_is_the_array_bound(d, weight, N)
