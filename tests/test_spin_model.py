from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintangle.spin_model import (
    ConditionalRotation,
    ElectronQubitSpec,
    NuclearSpinParams,
    Rotation,
    build_sequence,
    closed_form_angles,
    coherence,
    iterate,
    resonance_time,
    trivial_evolution_condition,
    trivial_evolution_radius,
    unit_propagator,
    unit_quaternions,
)
from spintangle.oracle import segment_exponential_rotation

from .conftest import random_rotation_pair, random_unit_vector


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

    def test_custom_must_normalize(self):
        with pytest.raises(ValueError):
            build_sequence("custom", 1e-6, custom_spacings=(0.3, 0.3, 0.3))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            build_sequence("cpmg", 0.0)

    def test_udd_order_below_three_rejected(self):
        with pytest.raises(ValueError):
            build_sequence("udd0", 1e-6)


# ---------------------------------------------------------------------------
# unit propagator


class TestUnitPropagator:
    def test_resonant_axes_antiparallel(self, spin_80_25, half_electron):
        # the axes become antiparallel within a few ns of the analytic time
        t0 = resonance_time(spin_80_25, half_electron, 1)
        assert t0 == pytest.approx(3.1822e-6, abs=1e-9)
        dots = [unit_propagator(build_sequence("cpmg", t0 + dt * 1e-9),
                                spin_80_25, half_electron).axis_dot
                for dt in range(-50, 51)]
        assert min(dots) == pytest.approx(-1.0, abs=1e-3)

    def test_b_zero_axes_along_z(self, half_electron):
        spin = NuclearSpinParams.from_khz("z", 50.0, 0.0, 314.0)
        rot = unit_propagator(build_sequence("cpmg", 2e-6), spin, half_electron)
        assert rot.axis_dot == pytest.approx(1.0, abs=1e-12)
        assert abs(rot.n0[2]) == pytest.approx(1.0, abs=1e-12)

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
        assert a.phi0 == pytest.approx(b.phi1, abs=1e-12)
        assert np.allclose(a.n0, b.n1, atol=1e-12)


class TestIterate:
    def test_single_iteration_identity(self, spin_60_30, half_electron):
        rot = unit_propagator(build_sequence("cpmg", 2e-6), spin_60_30, half_electron)
        one = iterate(rot, 1)
        assert one.phi0 == pytest.approx(rot.phi0, abs=1e-15)
        assert np.allclose(one.n0, rot.n0)

    def test_angle_accumulates_on_fixed_axis(self):
        rot = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 50.0, (0.0, 0.0, 1.0), math.pi / 50.0)
        out = iterate(rot, 25)
        assert out.phi0 == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert np.allclose(out.n0, (1.0, 0.0, 0.0), atol=1e-12)

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
        nan = Rotation(math.nan, (math.nan,) * 3)
        out = iterate(ConditionalRotation(nan, nan), 5)
        assert np.isnan(out.quaternions).all()

    def test_invalid_count(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            iterate(random_rotation_pair(rng), 0)

    def test_axis_dot_constant_over_n_for_cpmg(self, spin_60_30, half_electron):
        rot = unit_propagator(build_sequence("cpmg", 2.9e-6), spin_60_30,
                              half_electron)
        base = rot.axis_dot
        for n in range(1, 101):
            assert iterate(rot, n).axis_dot == pytest.approx(base, abs=1e-9)


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


class TestCoherence:
    def test_identity(self):
        rot = ConditionalRotation(Rotation.identity(), Rotation.identity())
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
        ref = 1.0 - math.sin(rot.phi0 / 2.0) ** 2 * (1.0 - rot.axis_dot)
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
                radius = trivial_evolution_radius(s, t, kappa)
                if radius ** 2 > dx ** 2:
                    best = min(best, abs(d - radius) / radius)
            worst = max(worst, best)
        assert res == pytest.approx(worst, rel=1e-12)


# ---------------------------------------------------------------------------
# composition and closed forms


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(3)
        r = Rotation.from_axis_angle(random_unit_vector(rng), 1.1)
        out = r.compose(Rotation.identity())
        assert np.allclose(out.matrix(), r.matrix(), atol=1e-15)

    def test_same_axis_addition(self):
        rx = Rotation.from_axis_angle((1.0, 0.0, 0.0), math.pi / 2.0)
        out = rx.compose(rx)
        ref = Rotation.from_axis_angle((1.0, 0.0, 0.0), math.pi)
        assert np.allclose(out.matrix(), ref.matrix(), atol=1e-12)

    def test_random_pairs_match_matrix_product(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = Rotation.from_axis_angle(random_unit_vector(rng),
                                         rng.uniform(0, 2 * math.pi))
            b = Rotation.from_axis_angle(random_unit_vector(rng),
                                         rng.uniform(0, 2 * math.pi))
            out = a.compose(b)
            assert np.allclose(out.matrix(), a.matrix() @ b.matrix(), atol=1e-12)


class TestPower:
    @pytest.mark.parametrize("n", [0.5, 0.25, 2.5])
    def test_fractional_power_of_identity_keeps_z_axis(self, n):
        out = Rotation(1.0, (0.0, 0.0, 0.0)).power(n)
        assert out.w == 1.0
        assert np.array_equal(out.v, (0.0, 0.0, 0.0))
        axis, angle, trivial = out.axis_angle()
        assert trivial and angle == 0.0 and np.array_equal(axis, (0.0, 0.0, 1.0))

    def test_half_powers_compose_to_the_rotation(self):
        rng = np.random.default_rng(12)
        r = Rotation.from_axis_angle(random_unit_vector(rng), 2.3)
        half = r.power(0.5)
        assert np.allclose(half.compose(half).matrix(), r.matrix(), atol=1e-14)


class TestConditionalRotationStorage:
    def test_from_quaternions_stores_the_array(self):
        rng = np.random.default_rng(13)
        q = random_rotation_pair(rng).quaternions.copy()
        rot = ConditionalRotation.from_quaternions(q)
        assert rot.quaternions.shape == (2, 4)
        assert np.array_equal(rot.quaternions, q)
        assert np.shares_memory(rot.quaternions, q)
        for row, r in zip(q, (rot.r0, rot.r1)):
            assert r.w == row[0]
            assert np.array_equal(r.v, row[1:])

    def test_quaternions_are_read_only(self):
        rng = np.random.default_rng(14)
        q = random_rotation_pair(rng).quaternions.copy()
        rot = ConditionalRotation.from_quaternions(q)
        with pytest.raises(ValueError):
            rot.quaternions[0, 0] = 0.5
        with pytest.raises(ValueError):
            rot.r1.v[0] = 0.5
        # the caller's array stays writable
        q[0, 0] = q[0, 0]

    def test_rotation_pair_constructor_matches_rows(self):
        r0 = Rotation.from_axis_angle((0.0, 1.0, 0.0), 0.7)
        r1 = Rotation.from_axis_angle((1.0, 0.0, 0.0), 1.9)
        rot = ConditionalRotation(r0, r1)
        assert np.array_equal(rot.quaternions, [[r0.w, *r0.v], [r1.w, *r1.v]])
        with pytest.raises(ValueError):
            rot.quaternions[1, 2] = 0.0


class TestClosedFormAngles:
    def test_cpmg_equal_angles(self, spin_60_30, half_electron):
        phi0, phi1 = closed_form_angles("two_pi", spin_60_30, half_electron, 3e-6)
        assert phi0 == pytest.approx(phi1, abs=1e-12)

    def test_udd4_unequal_angles(self, spin_60_30, half_electron):
        phi0, phi1 = closed_form_angles("four_pi", spin_60_30, half_electron, 3e-6)
        assert abs(phi0 - phi1) > 1e-6

    @pytest.mark.parametrize("kind,seq_kind", [
        ("two_pi", "cpmg"), ("three_pi", "udd3"), ("four_pi", "udd4")])
    def test_matches_propagator(self, kind, seq_kind, half_electron):
        rng = np.random.default_rng(11)
        for _ in range(20):
            spin = NuclearSpinParams.from_khz(
                "r", rng.uniform(-150, 150), rng.uniform(0, 150), 314.0)
            t = rng.uniform(0.5e-6, 12e-6)
            phi0, phi1 = closed_form_angles(kind, spin, half_electron, t)
            rot = unit_propagator(build_sequence(seq_kind, t), spin, half_electron)
            assert phi0 == pytest.approx(rot.phi0, abs=1e-9)
            assert phi1 == pytest.approx(rot.phi1, abs=1e-9)

    def test_unknown_kind(self, spin_60_30, half_electron):
        with pytest.raises(ValueError):
            closed_form_angles("five_pi", spin_60_30, half_electron, 1e-6)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=200, deadline=None)
@given(nx=st.floats(-1, 1), ny=st.floats(-1, 1), nz=st.floats(-1, 1),
       phi=st.floats(1e-6, math.pi - 1e-6))
def test_axis_angle_round_trip(nx, ny, nz, phi):
    v = np.array([nx, ny, nz])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        return
    r = Rotation.from_axis_angle(v / norm, phi)
    axis, angle, trivial = r.axis_angle()
    assert not trivial
    rebuilt = Rotation.from_axis_angle(axis, angle)
    assert np.allclose(rebuilt.matrix(), r.matrix(), atol=1e-10)
    assert angle == pytest.approx(phi, abs=1e-10)


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
        batched = ConditionalRotation.from_quaternions(batch[..., i])
        for branch in (0, 1):
            ref = segment_exponential_rotation(spin, electron, seq, branch)
            for view in (rot, batched):
                r = view.r0 if branch == 0 else view.r1
                assert np.allclose(r.matrix(), ref, rtol=0.0, atol=1e-9)


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
        w0 = math.hypot(spin.omega_L + 0.5 * spin.A, 0.5 * spin.B)
        w1 = math.hypot(spin.omega_L - 0.5 * spin.A, 0.5 * spin.B)
        th0 = math.atan2(0.5 * spin.B, spin.omega_L + 0.5 * spin.A)
        th1 = math.atan2(-0.5 * spin.B, spin.omega_L - 0.5 * spin.A)
        approx = (4.0 * math.sin(th0 - th1) ** 2
                  * math.sin(w0 * t / 8.0) ** 2 * math.sin(w1 * t / 8.0) ** 2
                  / math.sin(rot.phi0 / 2.0) ** 2)
        return abs((1.0 - rot.axis_dot) - approx)

    # 10x larger Larmor frequency shrinks B/wL 10x, the mismatch ~100x
    assert mismatch(314.0) / mismatch(3140.0) > 50.0


class TestNonFiniteInputs:
    NAN_ROT = ConditionalRotation(Rotation(math.nan, (math.nan,) * 3),
                                  Rotation(math.nan, (math.nan,) * 3))

    def test_coherence_keeps_nan(self):
        m, px = coherence(self.NAN_ROT)
        assert math.isnan(m) and math.isnan(px)

    def test_closed_form_angles_keep_nan(self, spin_60_30, half_electron):
        phi0, phi1 = closed_form_angles("two_pi", spin_60_30, half_electron,
                                        math.nan)
        assert math.isnan(phi0) and math.isnan(phi1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_unit_time_rejected(self, t):
        with pytest.raises(ValueError, match="unit_time"):
            build_sequence("cpmg", t)
