from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintangle import spin_model
from spintangle.spin_model import (
    MAX_UDD_ORDER,
    RESONANCE_VARIANTS,
    ConditionalRotation,
    ElectronQubitSpec,
    NuclearSpinParams,
    PulseSequence,
    build_sequence,
    coherence,
    iterate,
    power,
    resonance_time,
    stack_quaternions,
    su2,
    unit_propagator,
    unit_quaternions,
)
from spintangle.constants import KHZ
from spintangle.datasets import load_register
from spintangle.designer import generate_random_ensemble
from spintangle.entanglement import (branch_angles, g1_over_iterations, makhlin_g1,
                                     nuclear_one_tangle)
from spintangle.designer import _spin_arrays
from spintangle.oracle import (_folded_angle, closed_form_angles, conditional_unitary,
                               dense_propagator, pauli_rotation,
                               segment_exponential_rotation, trivial_evolution_condition)

from .conftest import random_rotation_pair, random_spin, random_unit_vector


# ---------------------------------------------------------------------------
# domain types


class TestParams:
    def test_from_khz_scales_by_two_pi(self):
        s = NuclearSpinParams.from_khz("x", 80.0, 25.0, 314.0)
        assert s.A == pytest.approx(2.0 * math.pi * 80e3)
        assert s.omega_L == pytest.approx(2.0 * math.pi * 314e3)

    def test_negative_b_rejected(self):
        with pytest.raises(ValueError):
            NuclearSpinParams.from_khz("x", 10.0, -1.0, 314.0)

    def test_nonpositive_larmor_rejected(self):
        with pytest.raises(ValueError):
            NuclearSpinParams.from_khz("x", 10.0, 1.0, 0.0)

    def test_negative_a_allowed(self):
        NuclearSpinParams.from_khz("x", -20.72, 12.0, 432.0)

    def test_equal_projections_rejected(self):
        with pytest.raises(ValueError):
            ElectronQubitSpec(0.5, 0.5)

    @pytest.mark.parametrize("field", ["s0", "s1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_projection_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            ElectronQubitSpec(**{"s0": 0.0, "s1": -1.0, field: value})

    @pytest.mark.parametrize("field", ["A", "B", "omega_L"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
            NuclearSpinParams(**{"label": "x", "A": 1.0, "B": 1.0, "omega_L": 1.0,
                                 field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"A": math.nan}, "A must be finite, got nan"),
        ({"B": math.inf}, "B must be finite, got inf"),
        ({"omega_L": math.nan}, "omega_L must be finite, got nan"),
        ({"A": math.inf, "B": math.nan}, "A must be finite, got inf"),
        ({"B": -1.0}, "B must be >= 0, got -1.0"),
        ({"omega_L": 0.0}, "omega_L must be > 0, got 0.0"),
        ({"omega_L": -1.0}, "omega_L must be > 0, got -1.0"),
    ], ids=["nan-A", "inf-B", "nan-omega_L", "first-named", "negative-B",
            "zero-omega_L", "negative-omega_L"])
    def test_each_message_pinned(self, fields, message):
        with pytest.raises(ValueError) as info:
            NuclearSpinParams(**{"label": "x", "A": 1.0, "B": 1.0, "omega_L": 1.0,
                                 **fields})
        assert str(info.value) == message


class TestPulseSequence:
    @pytest.mark.parametrize("spacings, message", [
        ((-0.5, 1.0, 0.5), "nonnegative"),
        ((0.5, 0.5), "pulse count must be even"),
    ], ids=["negative", "odd-pulse-count"])
    def test_invalid_spacings_rejected(self, spacings, message):
        with pytest.raises(ValueError, match=message):
            PulseSequence(spacings, 1e-6)


class TestBuildSequence:
    def test_cpmg_spacings(self):
        seq = build_sequence("cpmg", 1e-6)
        assert tuple(seq.spacings) == (0.25, 0.5, 0.25)
        assert seq.pulse_count == 2

    @pytest.mark.parametrize("kind", ["udd1", "udd2"])
    def test_low_udd_orders_give_cpmg_spacings(self, kind):
        q = build_sequence(kind, 1e-6).spacings
        assert np.asarray(q) == pytest.approx(
            build_sequence("cpmg", 1e-6).spacings, abs=1e-15)

    def test_udd4_five_symmetric_spacings(self):
        seq = build_sequence("udd4", 1e-6)
        q = np.asarray(seq.spacings)
        assert len(q) == 5
        assert q[4] == pytest.approx(q[0], abs=1e-15)
        assert q[1] == pytest.approx(q[3], abs=1e-15)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_udd3_symmetrized_to_seven(self):
        seq = build_sequence("udd3", 1e-6)
        q = np.asarray(seq.spacings)
        base = np.sin(np.pi * np.arange(1, 5) / 8.0) ** 2 \
            - np.sin(np.pi * np.arange(0, 4) / 8.0) ** 2
        assert len(q) == 7
        assert seq.pulse_count == 6
        assert q[3] == pytest.approx((base[3] + base[0]) / 2.0, abs=1e-14)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_udd_orders_are_normalized(self, order):
        q = np.asarray(build_sequence(f"udd{order}", 1e-6).spacings)
        assert q.ndim == 1 and (len(q) - 1) % 2 == 0
        assert q == pytest.approx(q[::-1], abs=1e-15)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_udd_spacings_are_exact_mirrors(self, order):
        q = build_sequence(f"udd{order}", 1e-6).spacings
        assert q == q[::-1]

    @pytest.mark.parametrize("kind", ["udd3", "udd4"])
    def test_mirrored_udd_spacings_take_three_values(self, kind):
        assert len(set(build_sequence(kind, 1e-6).spacings)) == 3

    def test_custom_spacings_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="spacings"):
            build_sequence("custom", 1e-6, custom_spacings=[[0.5, 0.5]])

    def test_ragged_custom_spacings_named(self):
        with pytest.raises(ValueError, match="spacings must be a 1-D array"):
            build_sequence("custom", 1e-6, custom_spacings=[[0.5, 0.25], 0.25])

    def test_custom_needs_spacings(self):
        with pytest.raises(ValueError, match="custom sequence needs custom_spacings"):
            build_sequence("custom", 1e-6)

    def test_custom_must_normalize(self):
        with pytest.raises(ValueError):
            build_sequence("custom", 1e-6, custom_spacings=(0.3, 0.3, 0.3))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            build_sequence("cpmg", 0.0)

    def test_udd_order_below_three_rejected(self):
        with pytest.raises(ValueError):
            build_sequence("udd0", 1e-6)

    def test_udd_order_capped(self, monkeypatch):
        # N pulses, or 2N once an odd N is symmetrized
        assert build_sequence(f"udd{MAX_UDD_ORDER}", 1e-6).pulse_count >= MAX_UDD_ORDER

        def fail(n):
            raise AssertionError("spacings built")

        monkeypatch.setattr(spin_model, "_udd_spacings", fail)
        order = MAX_UDD_ORDER + 1
        with pytest.raises(ValueError, match=f"UDD order {order} is above the cap "
                                             f"{MAX_UDD_ORDER}"):
            build_sequence(f"udd{order}", 1e-6)


# ---------------------------------------------------------------------------
# unit propagator


class TestUnitPropagator:
    def test_resonant_axes_antiparallel(self, spin_80_25, half_electron):
        # the axes become antiparallel within a few ns of the analytic time
        t0 = resonance_time(spin_80_25, half_electron, 1)
        assert t0 == pytest.approx(3.1822e-6, abs=1e-9)
        dots = [branch_angles(unit_propagator(build_sequence("cpmg", t0 + dt * 1e-9),
                                              spin_80_25, half_electron).quaternions)[2]
                for dt in range(-50, 51)]
        assert min(dots) == pytest.approx(-1.0, abs=1e-3)

    def test_b_zero_axes_along_z(self, half_electron):
        spin = NuclearSpinParams.from_khz("z", 50.0, 0.0, 314.0)
        rot = unit_propagator(build_sequence("cpmg", 2e-6), spin, half_electron)
        assert branch_angles(rot.quaternions)[2] == pytest.approx(1.0, abs=1e-12)
        assert abs(rot.r0.v[2]) / np.linalg.norm(rot.r0.v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["cpmg", "udd3", "udd4"])
    def test_matches_matrix_exponential_oracle(self, kind, spin_60_30, half_electron):
        seq = build_sequence(kind, 3.1811e-6)
        rot = unit_propagator(seq, spin_60_30, half_electron)
        for branch, r in ((0, rot.r0), (1, rot.r1)):
            ref = segment_exponential_rotation(spin_60_30, half_electron, seq, branch)
            assert np.allclose(r.matrix(), ref, atol=1e-10)

    def test_zero_branch_frequency_does_not_rotate(self):
        # A = omega_L, B = 0: the s = -1 branch Hamiltonian vanishes
        spin = NuclearSpinParams.from_khz("c", 432.0, 0.0, 432.0)
        electron = ElectronQubitSpec(0.0, -1.0)
        seq = build_sequence("udd4", 3e-6)
        rot = unit_propagator(seq, spin, electron)
        for branch, r in ((0, rot.r0), (1, rot.r1)):
            ref = segment_exponential_rotation(spin, electron, seq, branch)
            assert np.allclose(r.matrix(), ref, rtol=0.0, atol=1e-12)

    def test_branch_swap_symmetry(self, spin_60_30):
        seq = build_sequence("cpmg", 2.5e-6)
        a = unit_propagator(seq, spin_60_30, ElectronQubitSpec(0.5, -0.5))
        b = unit_propagator(seq, spin_60_30, ElectronQubitSpec(-0.5, 0.5))
        a_h0 = branch_angles(a.quaternions)[0]
        b_h1 = branch_angles(b.quaternions)[1]
        assert 2.0 * a_h0 == pytest.approx(2.0 * b_h1, abs=1e-12)
        assert np.allclose(a.r0.v / np.linalg.norm(a.r0.v),
                           b.r1.v / np.linalg.norm(b.r1.v), atol=1e-12)


class TestIterate:
    def test_single_iteration_identity(self, spin_60_30, half_electron):
        rot = unit_propagator(build_sequence("cpmg", 2e-6), spin_60_30, half_electron)
        one = iterate(rot, 1)
        one_h0, h0 = branch_angles(one.quaternions)[0], branch_angles(rot.quaternions)[0]
        assert 2.0 * one_h0 == pytest.approx(2.0 * h0, abs=1e-15)
        assert np.allclose(one.r0.v / np.linalg.norm(one.r0.v),
                           rot.r0.v / np.linalg.norm(rot.r0.v))

    def test_angle_accumulates_on_fixed_axis(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 50.0, (0.0, 0.0, 1.0), math.pi / 50.0)
        out = iterate(rot, 25)
        h0 = branch_angles(out.quaternions)[0]
        assert 2.0 * h0 == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert np.allclose(out.r0.v / np.linalg.norm(out.r0.v), (1.0, 0.0, 0.0),
                           atol=1e-12)

    @pytest.mark.parametrize("branch", [0, 1], ids=["r0", "r1"])
    @pytest.mark.parametrize("N, atol", [(1, 1e-10), (37, 1e-10), (10 ** 5, 1e-8)],
                             ids=["N1", "N37", "N100000"])
    def test_matches_dense_matrix_power(self, N, atol, branch):
        rng = np.random.default_rng(7)
        rot = random_rotation_pair(rng)
        out = iterate(rot, N)
        unit, got = ((r.r0, r.r1)[branch] for r in (rot, out))
        ref = np.linalg.matrix_power(unit.matrix(), N)
        assert np.allclose(got.matrix(), ref, atol=atol)

    def test_nan_stays_nan(self):
        out = iterate(ConditionalRotation(np.full((2, 4), math.nan)), 5)
        assert np.isnan(out.quaternions).all()

    def test_invalid_count(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            iterate(random_rotation_pair(rng), 0)

    @pytest.mark.parametrize("N", [1.5, math.nan, 3.0])
    def test_count_must_be_an_integer(self, N):
        # fractional powers go through power
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match=re.escape(f"N must be an integer, got {N!r}")):
            iterate(random_rotation_pair(rng), N)

    def test_numpy_integer_count(self):
        rng = np.random.default_rng(8)
        rot = random_rotation_pair(rng)
        assert np.array_equal(iterate(rot, np.int64(82)).quaternions,
                              iterate(rot, 82).quaternions)

    def test_n01_constant_over_n_for_cpmg(self, spin_60_30, half_electron):
        rot = unit_propagator(build_sequence("cpmg", 2.9e-6), spin_60_30,
                              half_electron)
        base = branch_angles(rot.quaternions)[2]
        for n in range(1, 101):
            n01 = branch_angles(iterate(rot, n).quaternions)[2]
            assert n01 == pytest.approx(base, abs=1e-9)


class TestResonanceTime:
    def test_published_first_four(self, spin_80_25, half_electron):
        expected = (3.1822e-6, 9.5465e-6, 15.9108e-6, 22.2751e-6)
        for k, ref in enumerate(expected, start=1):
            t = resonance_time(spin_80_25, half_electron, k)
            assert t == pytest.approx(ref, abs=1e-9)

    def test_spin_one_projection_case(self):
        spin = NuclearSpinParams.from_khz("x", 60.0, 30.0, 314.0)
        t = resonance_time(spin, ElectronQubitSpec(0.0, -1.0), 1)
        assert t == pytest.approx(3.5102e-6, abs=1e-10)

    def test_c5_third_resonance(self, nv_electron):
        c5 = NuclearSpinParams.from_khz("C5", -11.346, 59.21, 432.0)
        t = resonance_time(c5, nv_electron, 3)
        assert t == pytest.approx(68.24e-6 / 6.0, abs=1e-9)

    def test_udd4_extra_doubles(self, spin_80_25, half_electron):
        t1 = resonance_time(spin_80_25, half_electron, 2)
        t2 = resonance_time(spin_80_25, half_electron, 2, variant="udd4_extra")
        assert t2 == pytest.approx(2.0 * t1, abs=1e-18)

    def test_invalid_k(self, spin_80_25, half_electron):
        with pytest.raises(ValueError):
            resonance_time(spin_80_25, half_electron, 0)

    @pytest.mark.parametrize("k, variant", [
        (2 ** 63 - 1, "primary"),  # the largest k read: 4 pi (2k - 1) is finite
        (10 ** 7, "udd4_extra"),  # only twice the time overflows
    ], ids=["float-overflow", "udd4-extra-overflow"])
    def test_k_whose_time_overflows_raises(self, k, variant, half_electron):
        # omega_0 + omega_1 = 2e-300 rad/s: t_k is finite up to k of about 1.4e7
        slow = NuclearSpinParams("slow", 0.0, 0.0, 1e-300)
        assert resonance_time(slow, half_electron, 10 ** 7) < math.inf
        with pytest.raises(ValueError, match=f"k={k} is too large: the resonance "
                                             f"time of slow overflows"):
            resonance_time(slow, half_electron, k, variant=variant)

    def test_overflowing_branch_frequency_raises(self):
        spin = NuclearSpinParams.from_khz("C1", 10.0, 20.0, 432.0)
        with pytest.raises(ValueError, match="C1: branch frequencies sum to inf"):
            resonance_time(spin, ElectronQubitSpec(0.0, -1e308), 1)

    def test_every_variant_accepted_and_no_other(self, spin_80_25, half_electron):
        for variant in RESONANCE_VARIANTS:
            assert resonance_time(spin_80_25, half_electron, 1, variant=variant) > 0
        with pytest.raises(ValueError, match="variant"):
            resonance_time(spin_80_25, half_electron, 1, variant="udd4")


class TestCoherence:
    def test_identity(self):
        rot = ConditionalRotation([[1.0, 0.0, 0.0, 0.0]] * 2)
        m, px = coherence(rot)
        assert m == 1.0 and px == 1.0

    def test_antiparallel_full_flip(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi, (-1.0, 0.0, 0.0), math.pi)
        m, px = coherence(rot)
        assert m == pytest.approx(-1.0, abs=1e-12)
        assert px == pytest.approx(0.0, abs=1e-12)

    def test_equal_angle_closed_form(self, spin_60_30, half_electron):
        rot = unit_propagator(build_sequence("cpmg", 3.0e-6), spin_60_30,
                              half_electron)
        m, _ = coherence(rot)
        h0, _, n01 = branch_angles(rot.quaternions)
        ref = 1.0 - math.sin(h0) ** 2 * (1.0 - n01)
        assert m == pytest.approx(ref, abs=1e-12)

    def test_resonance_is_local_minimum_of_px(self, spin_80_25, half_electron):
        t0 = resonance_time(spin_80_25, half_electron, 1)

        def px(t: float) -> float:
            rot = unit_propagator(build_sequence("cpmg", t), spin_80_25,
                                  half_electron)
            return coherence(iterate(rot, 20))[1]

        center = px(t0)
        assert px(t0 - 0.05e-6) > center
        assert px(t0 + 0.05e-6) > center


# ---------------------------------------------------------------------------
# trivial evolution


class TestTrivialEvolution:
    def test_on_circle_b_zero_spin_detected(self, half_electron):
        # A = 0, B = 0, t twice the Larmor decoupling period: both branch
        # circles pass through the point exactly (boundary radius)
        omega_L = 2.0 * math.pi * 314e3
        spin = NuclearSpinParams("d", 0.0, 0.0, omega_L)
        t = 2.0 * 8.0 * math.pi / omega_L
        ok, res = trivial_evolution_condition(spin, half_electron, t, 4)
        assert ok and res < 1e-9

    def test_constructed_circle_spins_detected(self):
        from spintangle.designer import spins_on_trivial_circle

        electron = ElectronQubitSpec(0.0, -1.0)
        omega_L = 2.0 * math.pi * 432e3
        t, spins = spins_on_trivial_circle(electron, omega_L, 2, 1, 3)
        for spin in spins:
            ok, res = trivial_evolution_condition(spin, electron, t, 3)
            assert ok and res < 1e-9

    def test_trivial_spin_has_no_tangle(self, half_electron):
        from spintangle.entanglement import nuclear_one_tangle
        from spintangle.designer import spins_on_trivial_circle

        electron = ElectronQubitSpec(0.0, -1.0)
        omega_L = 2.0 * math.pi * 432e3
        t, spins = spins_on_trivial_circle(electron, omega_L, 2, 1, 3)
        for spin in spins:
            rot = unit_propagator(build_sequence("cpmg", t), spin, electron)
            for n in (1, 7, 40):
                assert nuclear_one_tangle(rot, n, scaled=True) < 1e-4

    @pytest.mark.parametrize("t", [0.0, -1e-6])
    def test_nonpositive_time_rejected(self, spin_60_30, half_electron, t):
        with pytest.raises(ValueError, match="t must be positive"):
            trivial_evolution_condition(spin_60_30, half_electron, t, 3)

    def test_off_circle_residual_matches_geometry(self, half_electron):
        spin = NuclearSpinParams.from_khz("x", 55.0, 40.0, 314.0)
        t = 3.3e-6
        ok, res = trivial_evolution_condition(spin, half_electron, t, 3)
        assert not ok and res > 0
        # brute-force the worst branch residual
        worst = 0.0
        for s in (half_electron.s0, half_electron.s1):
            dx = spin.A + spin.omega_L / s
            d = math.hypot(dx, spin.B)
            best = math.inf
            for kappa in range(1, 4):
                radius = abs(8.0 * kappa * math.pi / (s * t))
                if radius ** 2 > dx ** 2:
                    best = min(best, abs(d - radius) / radius)
            worst = max(worst, best)
        assert res == pytest.approx(worst, rel=1e-12)


# ---------------------------------------------------------------------------
# axes, powers and closed forms


class TestAxes:
    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            ConditionalRotation.from_axis_angles((1.0, 1.0, 0.0), 0.5,
                                                 (0.0, 0.0, 1.0), 0.5)

    @pytest.mark.parametrize("branch, value, name", [
        (0, (math.nan, 0.0, 1.0), "n0"), (1, (0.0, math.inf, 1.0), "n1"),
        (0, (1.0, 0.0), "n0"), (1, (1.0, 0.0, 0.0, 0.0), "n1"),
        (1, ((1.0, 0.0), 0.0, 0.0), "n1"), (0, math.inf, "phi0"),
        (1, math.nan, "phi1")])
    def test_bad_axis_or_angle_named(self, branch, value, name):
        args = [(0.0, 0.0, 1.0), 0.5, (1.0, 0.0, 0.0), 0.5]
        args[2 * branch + name.startswith("phi")] = value
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ConditionalRotation.from_axis_angles(*args)

    @pytest.mark.parametrize("trivial_branch", [0, 1])
    def test_n01_is_one_with_a_trivial_branch(self, trivial_branch):
        rot = ConditionalRotation.from_axis_angles((1.0, 0.0, 0.0), 0.7,
                                                   (1.0, 0.0, 0.0), 0.7)
        q = rot.quaternions.copy()
        q[trivial_branch] = [1.0, 0.0, 0.0, 0.0]
        assert branch_angles(q)[2] == 1.0


class TestPower:
    @pytest.mark.parametrize("n", [0.5, 0.25, 2.5])
    def test_fractional_power_of_identity_keeps_z_axis(self, n):
        out = power(np.array([[1.0, 0.0, 0.0, 0.0]] * 2), n)
        assert out.tolist() == [[1.0, 0.0, 0.0, 0.0]] * 2
        h0, _, n01 = branch_angles(out)
        assert h0 == 0.0 and n01 == 1.0

    def test_half_powers_compose_to_the_rotation(self):
        rng = np.random.default_rng(12)
        n = random_unit_vector(rng)
        rot = ConditionalRotation.from_axis_angles(n, 2.3, n, 2.3)
        half = ConditionalRotation(power(rot.quaternions, 0.5))
        for r, h in ((rot.r0, half.r0), (rot.r1, half.r1)):
            assert np.allclose(h.matrix() @ h.matrix(), r.matrix(), atol=1e-14)

    def test_counts_broadcast_over_the_trailing_axes(self):
        # one count per spin, or every count for one rotation
        rng = np.random.default_rng(14)
        rots = [random_rotation_pair(rng) for _ in range(5)]
        quats = np.stack([r.quaternions for r in rots], axis=-1)
        counts = np.arange(1, 301)[:, None]
        got = power(quats, counts)
        assert got.shape == (2, 4, 300, 5)
        ref = [[iterate(r, n).quaternions for r in rots] for n in range(1, 301)]
        assert np.array_equal(got, np.transpose(ref, (2, 3, 0, 1)))
        assert power(rots[0].quaternions, np.linspace(0.0, 1.0, 7)).shape == (2, 4, 7)

    @pytest.mark.parametrize("n_spins", range(1, 7))
    @pytest.mark.parametrize("kind", ["cpmg", "udd4"])
    def test_matches_the_dense_oracle_power(self, n_spins, kind):
        rng = np.random.default_rng(20 + n_spins)
        spins = [random_spin(rng) for _ in range(n_spins)]
        for electron in (ElectronQubitSpec(0.5, -0.5), ElectronQubitSpec(0.0, -1.0)):
            t = resonance_time(spins[0], electron, 2)
            seq = build_sequence(kind, t)
            quats = unit_quaternions(*_spin_arrays(spins), electron, seq.spacings, t)
            for N in (1, 7, 82):
                got = power(quats, N)
                u = conditional_unitary([ConditionalRotation(got[..., i])
                                         for i in range(n_spins)])
                ref = dense_propagator(spins, electron, seq, N)
                assert np.max(np.abs(u - ref)) <= 1e-12

    def test_bundled_and_pooled_units_equal_iterate(self):
        for seq, el, spins in _bath_pools():
            units = [unit_propagator(seq, s, el) for s in spins]
            quats = np.stack([u.quaternions for u in units], axis=-1)
            ref = np.stack([iterate(u, 82).quaternions for u in units], axis=-1)
            assert np.array_equal(power(quats, 82), ref)


def _bath_pools():
    """(sequence, electron, spins) of the nv27 spins and three seeded 800-spin
    pools, as bath-ensemble draws them, at nv27 C4's k=3 CPMG time."""
    reg = load_register("nv27")
    el, c4 = reg.electron(), reg.by_label("C4")
    seq = build_sequence("cpmg", resonance_time(c4, el, 3))
    for seed in (None, 1, 2, 3):
        yield seq, el, reg.spins if seed is None else generate_random_ensemble(
            800, A_range_khz=(-100.0, 200.0), B_range_khz=(5.0, 200.0),
            distinctness_khz=2.0, seed=seed, larmor_khz=reg.larmor_khz)


class TestOneSpinPath:
    """The bath study's one-spin calls on floats give the array path's bits."""

    def test_tangles_and_stack_equal_the_array_path(self):
        for seq, el, spins in _bath_pools():
            units = [unit_propagator(seq, s, el) for s in spins]
            quats = stack_quaternions(units)
            assert np.array_equal(quats, np.stack([u.quaternions for u in units], -1))
            ref = 1.0 - g1_over_iterations(quats, [82])[:, 0]
            assert [nuclear_one_tangle(u, 82, scaled=True) for u in units] == ref.tolist()

    def test_tangle_before_or_after_iterate(self):
        # a unit's half angles are taken by whichever call comes first
        for seq, el, spins in _bath_pools():
            for spin in spins:
                first, second = (unit_propagator(seq, spin, el) for _ in range(2))
                tangle = nuclear_one_tangle(first, 82, scaled=True)
                rot = iterate(first, 82)
                assert iterate(second, 82).quaternions.tolist() == rot.quaternions.tolist()
                assert nuclear_one_tangle(second, 82, scaled=True) == tangle


class TestConditionalRotationStorage:
    def test_from_quaternions_stores_the_array(self):
        rng = np.random.default_rng(13)
        q = random_rotation_pair(rng).quaternions.copy()
        rot = ConditionalRotation(q)
        assert rot.quaternions.shape == (2, 4)
        assert np.array_equal(rot.quaternions, q)
        for row, r in zip(q, (rot.r0, rot.r1)):
            assert r.w == row[0]
            assert np.array_equal(r.v, row[1:])
        # the rotation owns its values: a later write to q reaches neither
        # its array nor its angles, read before the write or after it
        unread = ConditionalRotation(q)
        before, g1 = q.copy(), makhlin_g1(rot, 7)
        q[1] = (1.0, 0.0, 0.0, 0.0)
        for r in (rot, unread):
            assert np.array_equal(r.quaternions, before)
            assert makhlin_g1(r, 7) == g1

    def test_quaternions_are_read_only(self):
        rng = np.random.default_rng(14)
        q = random_rotation_pair(rng).quaternions.copy()
        rot = ConditionalRotation(q)
        with pytest.raises(ValueError):
            rot.quaternions[0, 0] = 0.5
        with pytest.raises(ValueError):
            rot.r1.v[0] = 0.5
        # the caller's array stays writable
        q[0, 0] = q[0, 0]

    @pytest.mark.parametrize("shape", [(3, 4), (4, 2), (2, 4, 1), (8,)],
                             ids=["3x4", "4x2", "2x4x1", "8"])
    def test_from_quaternions_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"\(2, 4\)"):
            ConditionalRotation(np.zeros(shape))


class TestClosedFormAngles:
    def test_cpmg_equal_angles(self, spin_60_30, half_electron):
        phi0, phi1 = closed_form_angles("cpmg", spin_60_30, half_electron, 3e-6)
        assert phi0 == pytest.approx(phi1, abs=1e-12)

    def test_udd4_unequal_angles(self, spin_60_30, half_electron):
        phi0, phi1 = closed_form_angles("udd4", spin_60_30, half_electron, 3e-6)
        assert abs(phi0 - phi1) > 1e-6

    @pytest.mark.parametrize("kind", ["cpmg", "udd3", "udd4"])
    def test_matches_propagator(self, kind, half_electron):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spin = NuclearSpinParams.from_khz(
                "r", rng.uniform(-150, 150), rng.uniform(0, 150), 314.0)
            t = rng.uniform(0.5e-6, 12e-6)
            phi0, phi1 = closed_form_angles(kind, spin, half_electron, t)
            rot = unit_propagator(build_sequence(kind, t), spin, half_electron)
            h0, h1, _ = branch_angles(rot.quaternions)
            assert phi0 == pytest.approx(_folded_angle(h0), abs=1e-9)
            assert phi1 == pytest.approx(_folded_angle(h1), abs=1e-9)

    def test_unknown_kind(self, spin_60_30, half_electron):
        with pytest.raises(ValueError):
            closed_form_angles("five_pi", spin_60_30, half_electron, 1e-6)

    @pytest.mark.parametrize("kind", ["udd5", "custom", "two_pi"])
    def test_other_sequence_kinds_rejected(self, kind, spin_60_30, half_electron):
        # udd5 and custom are build_sequence kinds with no closed form here
        with pytest.raises(ValueError, match=f"unsupported kind: '{kind}'"):
            closed_form_angles(kind, spin_60_30, half_electron, math.nan)


# ---------------------------------------------------------------------------
# properties


_AXES = st.lists(st.floats(-1, 1), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) >= 1e-3).map(lambda v: v / np.linalg.norm(v))
_ANGLES = st.floats(1e-6, math.pi - 1e-6)


@settings(max_examples=200, deadline=None)
@given(n0=_AXES, phi0=_ANGLES, n1=_AXES, phi1=_ANGLES)
def test_from_axis_angles_round_trip(n0, phi0, n1, phi1):
    rot = ConditionalRotation.from_axis_angles(n0, phi0, n1, phi1)
    h0, h1, n01 = branch_angles(rot.quaternions)
    assert h0 == pytest.approx(phi0 / 2.0, abs=1e-10)
    assert h1 == pytest.approx(phi1 / 2.0, abs=1e-10)
    assert n01 == pytest.approx(float(n0 @ n1), abs=1e-10)


_NEAR_IDENTITY = st.lists(st.floats(-1e-12, 1e-12), min_size=3, max_size=3).map(
    lambda v: [1.0, *v])
_UNIT_QUATERNIONS = st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(np.array).filter(
    lambda q: np.linalg.norm(q) >= 1e-3).map(lambda q: (q / np.linalg.norm(q)).tolist())
_QUATERNION_ROWS = st.one_of(
    _UNIT_QUATERNIONS, _NEAR_IDENTITY,
    st.lists(st.one_of(st.floats(-1, 1), st.just(math.nan)), min_size=4, max_size=4))


@settings(max_examples=300, deadline=None)
@given(quats=st.lists(st.one_of(_UNIT_QUATERNIONS, _NEAR_IDENTITY), min_size=1, max_size=5))
def test_su2_is_the_pauli_rotation(quats):
    """su2 against the oracle's w I - i (x X + y Y + z Z): equal, special
    unitary, and the same one quaternion at a time as in a (4, n) batch."""
    batch = su2(np.array(quats).T)
    assert batch.shape == (2, 2, len(quats))
    for i, q in enumerate(quats):
        m = su2(q)
        assert np.array_equal(m, pauli_rotation(q))
        assert np.allclose(m.conj().T @ m, np.eye(2), rtol=0.0, atol=1e-12)
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12
        assert np.array_equal(batch[..., i], m)


def test_rotation_matrix_is_su2_of_its_row():
    rng = np.random.default_rng(29)
    for _ in range(50):
        rot = random_rotation_pair(rng)
        for row, r in zip(rot.quaternions, (rot.r0, rot.r1)):
            assert r.matrix().tobytes() == su2(row).tobytes()


_COUNTS = st.one_of(st.integers(-1000, 10 ** 6), st.floats(-1e3, 1e3),
                    st.sampled_from((math.nan, math.inf, -math.inf, 0.5, 2.5)))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_QUATERNION_ROWS, _QUATERNION_ROWS), min_size=1, max_size=5),
       counts=st.lists(_COUNTS, min_size=1, max_size=5))
def test_power_on_arrays_equals_the_float_path(rows, counts):
    """power on one rotation and one count at a time, and iterate on Python
    floats for the counts it takes, against one array call with the counts
    broadcast over the rotations."""
    quats = np.array(rows).transpose(1, 2, 0)
    counts = (counts * len(rows))[:len(rows)]
    with np.errstate(invalid="ignore"):  # np.sin of an infinite angle
        batch = power(quats, np.array(counts))
        for i, (q, n) in enumerate(zip(np.array(rows), counts)):
            one = power(q, n)
            assert np.array_equal(one, batch[..., i], equal_nan=True)
            assert np.array_equal(one, power(q[..., None], n)[..., 0], equal_nan=True)
            if type(n) is int and n >= 1:
                assert np.array_equal(iterate(ConditionalRotation(q), n).quaternions,
                                      batch[..., i], equal_nan=True)


_ELECTRONS = (ElectronQubitSpec(0.5, -0.5), ElectronQubitSpec(0.0, -1.0),
              ElectronQubitSpec(1.0, 0.0))
_couplings = st.tuples(st.floats(-200, 200),
                       st.one_of(st.just(0.0), st.floats(0, 200)))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(("cpmg", "udd3", "udd4", "custom")),
       custom=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
       electron=st.sampled_from(_ELECTRONS),
       couplings=st.lists(_couplings, min_size=1, max_size=4),
       t_us=st.floats(0.05, 20.0))
def test_unit_quaternions_match_oracle(kind, custom, electron, couplings, t_us):
    """The one rotation kernel, scalar view and register batch, vs expm."""
    q = np.asarray(custom)
    seq = build_sequence(kind, t_us * 1e-6, q / q.sum() if kind == "custom" else None)
    spins = [NuclearSpinParams.from_khz("h", a, b, 314.0) for a, b in couplings]
    batch = unit_quaternions(np.array([s.A for s in spins]),
                             np.array([s.B for s in spins]), spins[0].omega_L,
                             electron, seq.spacings, seq.unit_time)
    assert batch.shape == (2, 4, len(spins))
    for i, spin in enumerate(spins):
        rot = unit_propagator(seq, spin, electron)
        batched = ConditionalRotation(batch[..., i])
        for branch in (0, 1):
            ref = segment_exponential_rotation(spin, electron, seq, branch)
            for view in (rot, batched):
                r = view.r0 if branch == 0 else view.r1
                assert np.allclose(r.matrix(), ref, rtol=0.0, atol=1e-9)


def _unit_quaternions_per_segment(A, B, omega_L, electron, spacings, t):
    """Reference loop: cos/sin evaluated afresh for every segment of both orders."""
    out = []
    for order in ((electron.s0, electron.s1), (electron.s1, electron.s0)):
        w, x, y, z = 1.0, 0.0, 0.0, 0.0
        for i, q in enumerate(spacings):
            s = order[i % 2]
            wz, wx = omega_L + s * A, s * B
            rate = np.hypot(wz, wx)
            still = rate == 0.0
            nx, nz = wx / (rate + still), (wz + still) / (rate + still)
            half = 0.5 * rate * t * q
            c, sn = np.cos(half), np.sin(half)
            w, x, y, z = (c * w - sn * (nx * x + nz * z),
                          c * x + sn * (nx * w - nz * y),
                          c * y + sn * (nz * x - nx * z),
                          c * z + sn * (nz * w + nx * y))
        out.append((w, x, y, z))
    return np.array(out)


@pytest.mark.parametrize("kind", ["cpmg", "udd3", "udd4"])
def test_unit_quaternions_equal_the_per_segment_loop(kind):
    reg = load_register("nv27")
    A = np.array([s.A for s in reg.spins])
    B = np.array([s.B for s in reg.spins])
    omega_L = reg.spins[0].omega_L
    spacings = build_sequence(kind, 1e-6).spacings
    times = np.linspace(2e-6, 30e-6, 501)[:, None]
    for a, b, t in ((A[3], B[3], 7.3e-6), (A, B, times)):
        got = unit_quaternions(a, b, omega_L, reg.electron(), spacings, t)
        ref = _unit_quaternions_per_segment(a, b, omega_L, reg.electron(),
                                            spacings, t)
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("electron", _ELECTRONS, ids=["no-zero", "zero-s0", "zero-s1"])
@pytest.mark.parametrize("kind", ["cpmg", "udd3", "udd4", "udd8"])
def test_composition_from_precomputed_axes_equals_unit_quaternions(kind, electron):
    """Axes taken once, composed at each time: unit_quaternions' bits, on
    arrays and on floats."""
    rng = np.random.default_rng(34)
    A = rng.uniform(-300.0, 300.0, 12) * KHZ
    B = np.concatenate([[0.0], rng.uniform(0.0, 300.0, 11)]) * KHZ
    omega_L = rng.uniform(100.0, 600.0, 12) * KHZ
    times = rng.uniform(1e-8, 3e-5, 7)
    spacings = build_sequence(kind, 1.0).spacings
    batch = unit_quaternions(A[:, None], B[:, None], omega_L[:, None], electron,
                             spacings, times)
    # arrays: over every time at once, and at each time as a float
    cases = [(spin_model._unit_axes(A[:, None], B[:, None], omega_L[:, None], electron),
              times, slice(None))]
    axes = spin_model._unit_axes(A, B, omega_L, electron)
    cases += [(axes, t, j) for j, t in enumerate(times.tolist())]
    for axes, t, at in cases:
        rows, floats = spin_model._unit_rows(axes, spacings, t)
        assert not floats
        want = batch[..., at]
        assert all(np.array_equal(np.broadcast_to(v, want.shape[2:]), want[b, i])
                   for b, row in enumerate(rows) for i, v in enumerate(row))
    for i in range(A.size):
        axes = spin_model._unit_axes(float(A[i]), float(B[i]), float(omega_L[i]), electron)
        for j, t in enumerate(times.tolist()):
            rows, floats = spin_model._unit_rows(axes, spacings, t)
            assert floats and all(type(v) is float for row in rows for v in row)
            assert rows == tuple(map(tuple, batch[:, :, i, j].tolist()))
            assert rows == tuple(map(tuple, unit_quaternions(
                float(A[i]), float(B[i]), float(omega_L[i]), electron, spacings, t).tolist()))


def _edge_spins(electron, larmor_khz=314.0):
    """B = 0, and a branch of zero frequency: A = -omega_L/s with B = 0."""
    omega_L = larmor_khz * KHZ
    s = electron.s0 if electron.s0 != 0 else electron.s1
    return [NuclearSpinParams("b0", 60.0 * KHZ, 0.0, omega_L),
            NuclearSpinParams("still", -omega_L / s, 0.0, omega_L)]


@pytest.mark.parametrize("electron", _ELECTRONS)
@pytest.mark.parametrize("kind", ["cpmg", "udd3", "udd4"])
def test_scalar_kernel_equals_the_batch_kernel(kind, electron):
    """unit_propagator's float path gives the array path's bits."""
    pool = generate_random_ensemble(800, A_range_khz=(-100.0, 200.0),
                                    B_range_khz=(5.0, 200.0),
                                    distinctness_khz=2.0, seed=11,
                                    larmor_khz=432.0)
    edges = _edge_spins(electron)
    still = edges[1]
    assert 0.0 in [still.omega_L + s * still.A for s in (electron.s0, electron.s1)]
    for spins in (load_register("nv27").spins, pool, edges):
        A = np.array([s.A for s in spins])
        B = np.array([s.B for s in spins])
        for t in (7.3e-6, 1e-12):
            seq = build_sequence(kind, t)
            batch = unit_quaternions(A, B, spins[0].omega_L, electron,
                                     seq.spacings, t)
            for i, spin in enumerate(spins):
                got = unit_propagator(seq, spin, electron).quaternions
                assert np.array_equal(got, batch[..., i]), (spin.label, t)


_KERNEL_ELECTRONS = (ElectronQubitSpec(0.0, -1.0), ElectronQubitSpec(-1.0, 0.0),
                     ElectronQubitSpec(-1.0, 1.0), ElectronQubitSpec(0.5, -0.5))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("cpmg", "udd3", "udd4")),
       electron=st.sampled_from(_KERNEL_ELECTRONS),
       couplings=st.lists(st.tuples(st.floats(-200, 200),
                                    st.one_of(st.just(0.0), st.floats(0, 200)),
                                    st.sampled_from((314.0, 432.0, 1070.7))),
                          min_size=1, max_size=5),
       mixed_larmor=st.booleans(),
       t_us=st.floats(0.05, 20.0))
def test_batch_kernel_equals_the_float_path_bit_for_bit(kind, electron, couplings,
                                                        mixed_larmor, t_us):
    """Every (spin, t) of a batch, signed zeros included, as the float path gives it.

    The batch runs with one Larmor frequency per spin and, when they share
    one, with it passed once, as the design scan passes it.
    """
    larmor = [wl if mixed_larmor else couplings[0][2] for _, _, wl in couplings]
    spins = [NuclearSpinParams.from_khz("h", a, b, wl)
             for (a, b, _), wl in zip(couplings, larmor)]
    # B = 0 and a branch of zero frequency
    spins += _edge_spins(electron, larmor[-1])
    A, B, omega_L = (np.array([getattr(s, f) for s in spins])[:, None]
                     for f in ("A", "B", "omega_L"))
    spacings = build_sequence(kind, 1.0).spacings
    times = np.array([0.0, 1e-12, t_us * 1e-6])
    batches = [unit_quaternions(A, B, omega_L, electron, spacings, times)]
    if not mixed_larmor:
        batches.append(unit_quaternions(A, B, omega_L[0], electron, spacings, times))
    for i, spin in enumerate(spins):
        for j, t in enumerate(times.tolist()):
            got = unit_quaternions(spin.A, spin.B, spin.omega_L, electron, spacings, t)
            for batch in batches:
                assert np.array_equal(got, batch[..., i, j]), (spin, t)
                assert np.array_equal(np.signbit(got), np.signbit(batch[..., i, j])), (
                    spin, t)


@pytest.mark.parametrize("kind", ["cpmg", "udd3", "udd4"])
@pytest.mark.parametrize("electron, spin, times", [
    (ElectronQubitSpec(0.5, -0.5), NuclearSpinParams.from_khz("b0", 60.0, 0.0, 314.0),
     (0.0, 1e-12, 7.3e-6)),
    (ElectronQubitSpec(0.0, -1.0), NuclearSpinParams.from_khz("s0", 60.0, 30.0, 314.0),
     (0.0, 1e-12, 7.3e-6)),
    # finite wz = 1.1e308 and wx = 1.6e308 under s = 1: hypot overflows to
    # inf, which at t = 0 makes every component NaN (0 * inf)
    (ElectronQubitSpec(1.0, 0.0), NuclearSpinParams("huge", 1e307, 1.6e308, 1e308),
     (0.0,)),
], ids=["b-zero", "s-zero-branch", "frequency-overflow"])
def test_scalar_kernel_equals_the_batch_kernel_at_edges(kind, electron, spin, times):
    """The float path's bits at B = 0, an s = 0 branch and an overflowing frequency."""
    spacings = build_sequence(kind, 1.0).spacings
    for t in times:
        with np.errstate(over="ignore", invalid="ignore"):  # inf frequency, 0 * inf
            batch = unit_quaternions(np.array([spin.A]), np.array([spin.B]),
                                     spin.omega_L, electron, spacings, t)[..., 0]
        got = unit_quaternions(spin.A, spin.B, spin.omega_L, electron, spacings, t)
        assert np.array_equal(got, batch, equal_nan=True), t
    if spin.label == "huge":
        assert np.isnan(got).all()
        # at t > 0 the inf frequency reaches math.cos(inf), not an OverflowError
        with pytest.raises(ValueError, match="math domain error"):
            unit_quaternions(spin.A, spin.B, spin.omega_L, electron, spacings, 7.3e-6)


@settings(max_examples=100, deadline=None)
@given(a_khz=st.floats(-200, 200), b_khz=st.floats(0, 200),
       t_us=st.floats(0.1, 20.0))
def test_px_bounded(a_khz, b_khz, t_us):
    spin = NuclearSpinParams.from_khz("p", a_khz, b_khz, 314.0)
    electron = ElectronQubitSpec(0.5, -0.5)
    rot = unit_propagator(build_sequence("cpmg", t_us * 1e-6), spin, electron)
    _, px = coherence(iterate(rot, 17))
    assert 0.0 <= px <= 1.0


def test_small_tilt_dot_product_quadratic_scaling(half_electron):
    """The weak-coupling dot-product form has an error scaling as (B/wL)^2."""

    def mismatch(larmor_khz: float) -> float:
        spin = NuclearSpinParams.from_khz("w", 60.0, 30.0, larmor_khz)
        t = 0.7 * resonance_time(spin, half_electron, 1)
        rot = unit_propagator(build_sequence("cpmg", t), spin, half_electron)
        h0, _, n01 = branch_angles(rot.quaternions)
        w0 = math.hypot(spin.omega_L + 0.5 * spin.A, 0.5 * spin.B)
        w1 = math.hypot(spin.omega_L - 0.5 * spin.A, 0.5 * spin.B)
        th0 = math.atan2(0.5 * spin.B, spin.omega_L + 0.5 * spin.A)
        th1 = math.atan2(-0.5 * spin.B, spin.omega_L - 0.5 * spin.A)
        approx = (4.0 * math.sin(th0 - th1) ** 2
                  * math.sin(w0 * t / 8.0) ** 2 * math.sin(w1 * t / 8.0) ** 2
                  / math.sin(h0) ** 2)
        return abs((1.0 - n01) - approx)

    # 10x larger Larmor frequency shrinks B/wL 10x, the mismatch ~100x
    assert mismatch(314.0) / mismatch(3140.0) > 50.0


class TestNonFiniteInputs:
    NAN_ROT = ConditionalRotation(np.full((2, 4), math.nan))

    def test_coherence_keeps_nan(self):
        m, px = coherence(self.NAN_ROT)
        assert math.isnan(m) and math.isnan(px)

    def test_closed_form_angles_keep_nan(self, spin_60_30, half_electron):
        phi0, phi1 = closed_form_angles("cpmg", spin_60_30, half_electron,
                                        math.nan)
        assert math.isnan(phi0) and math.isnan(phi1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_unit_time_rejected(self, t):
        with pytest.raises(ValueError, match="unit_time"):
            build_sequence("cpmg", t)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spacings_rejected(self, value):
        with pytest.raises(ValueError, match="spacings"):
            build_sequence("custom", 1e-6, custom_spacings=[value, 0.5, 0.5])
