from __future__ import annotations

import math

import numpy as np
import pytest

from spintangle.fidelity import (
    CapacityError,
    RegisterPartition,
    kraus_coefficients,
    kraus_sum_by_enumeration,
    fidelity_with_local_target,
    target_subspace_fidelity,
)
from spintangle.oracle import conditional_unitary, numeric_kraus_fidelity
from spintangle.spin_model import ConditionalRotation

from .conftest import random_rotation_pair


def _partition(rng, K, m):
    return RegisterPartition(
        targets=[random_rotation_pair(rng) for _ in range(K)],
        unwanted=[random_rotation_pair(rng) for _ in range(m)])


class TestKrausCoefficients:
    def test_empty_environment(self):
        (c0, p0), (c1, p1) = kraus_coefficients([], 0)
        assert (c0, p0, c1, p1) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_angle_spin(self):
        rot = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 1.0), 0.0)
        (c0, p0), (c1, p1) = kraus_coefficients([rot], 0)
        assert c0 == c1 == 1.0 and p0 == p1 == 1.0
        (c0, p0), (c1, p1) = kraus_coefficients([rot], 1)
        # a zero-angle rotation cannot flip the spin
        assert p0 == p1 == 0.0

    def test_matches_matrix_elements(self):
        rng = np.random.default_rng(0)
        rot = random_rotation_pair(rng)
        u0 = rot.r0.matrix()
        u1 = rot.r1.matrix()
        (c0, p0), (c1, p1) = kraus_coefficients([rot], 0)
        assert c0 == pytest.approx(u0[0, 0], abs=1e-14)
        assert c1 == pytest.approx(u1[0, 0], abs=1e-14)
        (c0, p0), (c1, p1) = kraus_coefficients([rot], 1)
        assert p0 == pytest.approx(u0[1, 0], abs=1e-14)
        assert p1 == pytest.approx(u1[1, 0], abs=1e-14)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(1)
        with pytest.raises(IndexError):
            kraus_coefficients([random_rotation_pair(rng)], 2)

    def test_index_beyond_int64(self):
        # 70 bystanders: the index needs Python-int bit arithmetic
        rng = np.random.default_rng(15)
        unwanted = [random_rotation_pair(rng) for _ in range(70)]
        i = 2 ** 69 + 5
        c0 = p0 = c1 = p1 = complex(1.0)
        for pos, rot in enumerate(unwanted):
            u0, u1 = rot.r0.matrix(), rot.r1.matrix()
            # big-endian: spin 0 owns bit 69; bits 69, 2 and 0 are set
            if pos in (0, 67, 69):
                p0 *= u0[1, 0]
                p1 *= u1[1, 0]
            else:
                c0 *= u0[0, 0]
                c1 *= u1[0, 0]
        (g0, q0), (g1, q1) = kraus_coefficients(unwanted, i)
        assert (g0, q0, g1, q1) == pytest.approx((c0, p0, c1, p1), rel=1e-12)
        with pytest.raises(IndexError):
            kraus_coefficients(unwanted, 2 ** 70)

    def test_completeness(self):
        # sum_i |c0 p0|^2 = 1 for each branch (unitarity of the product)
        rng = np.random.default_rng(2)
        unwanted = [random_rotation_pair(rng) for _ in range(6)]
        t0 = t1 = 0.0
        for i in range(2 ** 6):
            (c0, p0), (c1, p1) = kraus_coefficients(unwanted, i)
            t0 += abs(c0 * p0) ** 2
            t1 += abs(c1 * p1) ** 2
        assert t0 == pytest.approx(1.0, abs=1e-9)
        assert t1 == pytest.approx(1.0, abs=1e-9)


class TestTargetSubspaceFidelity:
    def test_no_unwanted_spins_is_perfect(self):
        rng = np.random.default_rng(3)
        for K in (1, 2, 3):
            part = _partition(rng, K, 0)
            assert target_subspace_fidelity(part) == pytest.approx(1.0, abs=1e-14)

    def test_factorization_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            part = _partition(rng, int(rng.integers(1, 4)), int(rng.integers(1, 9)))
            k = part.K
            total = kraus_sum_by_enumeration(part)
            f_ref = (1.0 + 2.0 ** (k - 1) * total) / (2.0 ** (k + 1) + 1.0)
            assert target_subspace_fidelity(part) == pytest.approx(f_ref, abs=1e-12)

    def test_matches_numeric_kraus_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            K = int(rng.integers(1, 4))
            m = int(rng.integers(1, 11 - K))
            part = _partition(rng, K, m)
            u = conditional_unitary(list(part.targets) + list(part.unwanted))
            target = conditional_unitary(list(part.targets))
            f_ref = numeric_kraus_fidelity(u, target, K)
            assert target_subspace_fidelity(part) == pytest.approx(f_ref, abs=1e-10)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            part = _partition(rng, int(rng.integers(1, 4)), int(rng.integers(0, 12)))
            f = target_subspace_fidelity(part)
            assert 0.0 <= f <= 1.0 + 1e-12

    def test_trivial_unwanted_spins_do_not_hurt(self):
        rng = np.random.default_rng(7)
        targets = [random_rotation_pair(rng) for _ in range(2)]
        trivial = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.3, (0.0, 0.0, 1.0), 0.3)
        noisy = random_rotation_pair(rng)
        base = target_subspace_fidelity(RegisterPartition(targets, [trivial] * 4))
        hurt = target_subspace_fidelity(RegisterPartition(targets, [trivial, noisy]))
        assert base == pytest.approx(1.0, abs=1e-12)
        assert hurt <= base + 1e-12

    def test_capacity_error(self):
        rng = np.random.default_rng(8)
        part = _partition(rng, 1, 41)
        assert 0.0 <= target_subspace_fidelity(part) <= 1.0
        with pytest.raises(CapacityError):
            kraus_sum_by_enumeration(_partition(rng, 1, 21))

    def test_identity_bystanders_do_not_change_fidelity(self):
        rng = np.random.default_rng(10)
        targets = [random_rotation_pair(rng) for _ in range(2)]
        identity = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 1.0), 0.0)
        alone = target_subspace_fidelity(RegisterPartition(targets, []))
        crowded = target_subspace_fidelity(
            RegisterPartition(targets, [identity] * 1000))
        assert crowded == alone

    def test_large_register_runs_fast(self):
        rng = np.random.default_rng(9)
        part = _partition(rng, 2, 40)
        f = target_subspace_fidelity(part)
        assert 0.0 <= f <= 1.0


class TestLocalTargetFidelity:
    def test_equals_plain_fidelity_at_actual_rotations(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            part = _partition(rng, int(rng.integers(1, 4)), int(rng.integers(0, 5)))
            axes, angles = [], []
            for rot in part.targets:
                n0, phi0, _ = rot.r0.axis_angle()
                n1, phi1, _ = rot.r1.axis_angle()
                axes.append(np.stack([n0, n1]))
                angles.append([phi0, phi1])
            f = fidelity_with_local_target(part, axes, angles)
            assert f == pytest.approx(target_subspace_fidelity(part), abs=1e-12)

    def test_wrong_target_angle_lowers_fidelity(self):
        rng = np.random.default_rng(11)
        part = _partition(rng, 1, 2)
        n0, phi0, _ = part.targets[0].r0.axis_angle()
        n1, phi1, _ = part.targets[0].r1.axis_angle()
        good = fidelity_with_local_target(
            part, [np.stack([n0, n1])], [[phi0, phi1]])
        shifted = fidelity_with_local_target(
            part, [np.stack([n0, n1])], [[phi0 + math.pi, phi1 + math.pi]])
        assert shifted < good

    def test_orthogonal_pi_rotations_floor(self):
        # one target, both branches pi about x, compared against pi about y:
        # the overlap factors vanish and F drops to 1 / (2^(K+1) + 1)
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi, (1.0, 0.0, 0.0), math.pi)
        part = RegisterPartition([rot], [])
        f = fidelity_with_local_target(part, [(0.0, 1.0, 0.0)], [math.pi])
        assert f == pytest.approx(1.0 / (2.0 ** 2 + 1.0), abs=1e-12)

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        part = _partition(rng, 2, 0)
        with pytest.raises(ValueError):
            fidelity_with_local_target(part, [(0.0, 0.0, 1.0)], [0.5])


def test_partition_requires_target():
    with pytest.raises(ValueError):
        RegisterPartition([], [])
