from __future__ import annotations

import math

import numpy as np
import pytest

from spintangle import constants, designer
from spintangle.datasets import load_register
from spintangle.designer import (
    DesignConstraints,
    _scan_unit_times,
    _tangle_block,
    estimate_position,
    evaluate_design,
    find_common_iterations,
    gate_error_vs_bath,
    generate_random_ensemble,
    minimize_unwanted_tangle,
    optimize_register_gate,
    position_to_hyperfine,
    spins_on_trivial_circle,
)
from spintangle.entanglement import nuclear_one_tangle
from spintangle.fidelity import RegisterPartition, target_subspace_fidelity
from spintangle.spin_model import (
    ConditionalRotation,
    ElectronQubitSpec,
    NuclearSpinParams,
    build_sequence,
    iterate,
    resonance_time,
    unit_propagator,
    unit_quaternions,
)

from .conftest import random_rotation_pair


class TestFindCommonIterations:
    def test_ten_spin_register_all_participate(self):
        reg = load_register("rand-cpmg-k1")
        electron = reg.electron()
        seq = build_sequence("cpmg", 3.1874e-6)
        rots = [unit_propagator(seq, s, electron) for s in reg.spins]
        best, participants = find_common_iterations(rots, 300)
        assert best == 56
        assert participants == list(range(10))

    def test_identical_spins(self, spin_60_30, half_electron):
        from spintangle.spin_model import resonance_time

        t = resonance_time(spin_60_30, half_electron, 1)
        rot = unit_propagator(build_sequence("cpmg", t), spin_60_30, half_electron)
        best, participants = find_common_iterations([rot, rot], 300)
        from spintangle.entanglement import optimal_iterations

        assert participants == [0, 1]
        assert best in optimal_iterations(rot, N_max=300)

    def test_disjoint_sets_drop_second_spin(self):
        a = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 40.0, (-1.0, 0.0, 0.0), math.pi / 40.0)
        b = ConditionalRotation.from_axis_angles(
            (1.0, 0.0, 0.0), math.pi / 37.0, (-1.0, 0.0, 0.0), math.pi / 37.0)
        best, participants = find_common_iterations([a, b], 25, threshold=5e-4)
        assert participants == [0]
        assert best == 20

    def test_needs_two_spins(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            find_common_iterations([random_rotation_pair(rng)], 100)


class TestOptimizeRegisterGate:
    def test_single_spin_register_returns_none(self):
        spin = NuclearSpinParams.from_khz("only", 60.0, 30.0, 314.0)
        electron = ElectronQubitSpec(0.5, -0.5)
        design = optimize_register_gate([spin], electron, DesignConstraints(),
                                        0, 1)
        assert design is None

    def test_impossible_unwanted_threshold_returns_none(self):
        reg = load_register("nv27")
        cons = DesignConstraints(unwanted_tangle_max=1e-9,
                                 unwanted_tangle_mean_max=1e-9)
        design = optimize_register_gate(reg.spins, reg.electron(), cons,
                                        reg.labels.index("C23"), 3)
        assert design is None

    def test_round_trip_and_feasibility(self):
        reg = load_register("nv27")
        cons = DesignConstraints()
        design = optimize_register_gate(reg.spins, reg.electron(), cons,
                                        reg.labels.index("C23"), 3)
        assert design is not None
        # every reported number is recomputable from (t, N) alone
        idx = [reg.labels.index(l) for l in design.target_labels]
        redo = evaluate_design(reg.spins, reg.electron(), design.unit_time,
                               design.iterations, design.k,
                               design.anchor_label, idx)
        assert redo.gate_error == pytest.approx(design.gate_error, abs=1e-12)
        assert redo.target_tangles == pytest.approx(design.target_tangles,
                                                    abs=1e-12)
        assert redo.gate_time == pytest.approx(design.gate_time, abs=1e-15)
        # the returned design satisfies every constraint field
        assert design.gate_time <= cons.max_gate_time
        assert len(design.target_labels) >= 2
        assert min(design.target_tangles) > cons.target_tangle_min
        assert max(design.unwanted_tangles.values()) < cons.unwanted_tangle_max
        assert design.mean_unwanted_tangle < cons.unwanted_tangle_mean_max

    def test_deterministic(self):
        reg = load_register("nv27")
        args = (reg.spins, reg.electron(), DesignConstraints(),
                reg.labels.index("C23"), 3)
        a = optimize_register_gate(*args)
        b = optimize_register_gate(*args)
        assert a == b

    def test_empty_register_rejected(self):
        with pytest.raises(ValueError):
            optimize_register_gate([], ElectronQubitSpec(0.5, -0.5),
                                   DesignConstraints(), 0, 1)

    @pytest.mark.parametrize("anchor, k, targets, N, t", [
        ("C23", 3, ("C4", "C5", "C15"), 51, 11.4043455479e-6),
        ("C13", 4, ("C10", "C12"), 39, 16.5374981760e-6),
    ])
    def test_pinned_nv27_designs(self, anchor, k, targets, N, t):
        reg = load_register("nv27")
        design = optimize_register_gate(reg.spins, reg.electron(),
                                        DesignConstraints(),
                                        reg.labels.index(anchor), k)
        assert design.target_labels == targets
        assert design.iterations == N
        assert design.unit_time == pytest.approx(t, abs=1e-12)

    @pytest.mark.parametrize("elements", [1, 1 << 40])
    def test_chunk_size_does_not_change_design(self, monkeypatch, elements):
        # 1: one unit time per chunk; 1 << 40: the whole window in one chunk
        reg = load_register("nv27")
        args = (reg.spins, reg.electron(), DesignConstraints(),
                reg.labels.index("C13"), 4)
        ref = optimize_register_gate(*args)
        monkeypatch.setattr(designer, "_SCAN_CHUNK_ELEMENTS", elements)
        assert optimize_register_gate(*args) == ref

    @staticmethod
    def _grid_point(reg, anchor, k, cons, kind="cpmg"):
        """The scan's winning grid point (t, N, target indices)."""
        electron = reg.electron()
        seq = build_sequence(kind, resonance_time(reg.by_label(anchor),
                                                  electron, k))
        times = seq.unit_time + np.arange(-250, 251) * 1e-9
        quats = unit_quaternions(np.array([s.A for s in reg.spins]),
                                 np.array([s.B for s in reg.spins]),
                                 reg.spins[0].omega_L, electron, seq.spacings,
                                 times[:, None])
        return _scan_unit_times(quats, times, cons)

    @pytest.mark.parametrize("name, kind, anchor, k, cons", [
        ("nv27", "cpmg", "C23", 3, DesignConstraints()),
        ("rand-udd4-k2", "udd4", "S3", 2, DesignConstraints()),
        # a bystander bound above the target bound rules no point out early
        ("nv27", "cpmg", "C5", 2, DesignConstraints(
            target_tangle_min=0.5, unwanted_tangle_max=0.9,
            unwanted_tangle_mean_max=0.5, N_max=60)),
    ])
    def test_scan_matches_per_time_loop(self, name, kind, anchor, k, cons):
        reg = load_register(name)
        electron = reg.electron()
        A = np.array([s.A for s in reg.spins])
        B = np.array([s.B for s in reg.spins])
        seq = build_sequence(kind, resonance_time(reg.by_label(anchor),
                                                  electron, k))
        times = seq.unit_time + np.arange(-250, 251) * 1e-9
        # reference: one tangle block per unit time, points in (t, N) order
        set_times, set_best = {}, {}
        for t in times:
            N_values = np.arange(1, min(cons.N_max,
                                        int(cons.max_gate_time / t)) + 1)
            quats = unit_quaternions(A, B, reg.spins[0].omega_L, electron,
                                     seq.spacings, t)
            ok, tgt_mean, unw_mean, is_target = designer._feasibility(
                _tangle_block(quats, N_values), cons)
            for j in np.nonzero(ok)[0]:
                tset = tuple(np.nonzero(is_target[:, j])[0])
                key = (-tgt_mean[j], N_values[j] * t, unw_mean[j])
                set_times.setdefault(tset, set()).add(t)
                if tset not in set_best or key < set_best[tset][0]:
                    set_best[tset] = (key, t, int(N_values[j]))
        assert set_best
        winner = max(set_best,
                     key=lambda s: (len(set_times[s]), -set_best[s][0][0]))
        assert self._grid_point(reg, anchor, k, cons, kind) == (
            set_best[winner][1], set_best[winner][2], list(winner))

    @pytest.mark.parametrize("anchor, k", [("C23", 3), ("C13", 4), ("C4", 3),
                                           ("C26", 1)])
    def test_refinement_stays_near_grid_point(self, anchor, k):
        reg = load_register("nv27")
        cons = DesignConstraints()
        design = optimize_register_gate(reg.spins, reg.electron(), cons,
                                        reg.labels.index(anchor), k)
        t_grid, n_grid, target_idx = self._grid_point(reg, anchor, k, cons)
        grid = evaluate_design(reg.spins, reg.electron(), t_grid, n_grid, k,
                               anchor, target_idx)
        assert design.iterations == n_grid
        assert design.target_labels == grid.target_labels
        assert abs(design.unit_time - t_grid) <= 1e-9
        assert design.mean_target_tangle >= grid.mean_target_tangle

    def test_worse_refinement_falls_back_to_grid_point(self, monkeypatch):
        reg = load_register("nv27")
        cons = DesignConstraints()
        t_grid, n_grid, _ = self._grid_point(reg, "C23", 3, cons)
        # a refinement that returns the worse end of its bracket
        monkeypatch.setattr(designer, "_golden_section",
                            lambda f, lo, hi, xatol: max((lo, hi), key=f))
        design = optimize_register_gate(reg.spins, reg.electron(), cons,
                                        reg.labels.index("C23"), 3)
        assert design.unit_time == t_grid
        assert design.iterations == n_grid

    def test_mixed_larmor_register_uses_each_spins_frequency(self):
        reg = load_register("nv27")
        electron = reg.electron()
        spins = reg.spins[:-5] + [
            NuclearSpinParams(s.label, s.A, s.B, 0.8 * s.omega_L)
            for s in reg.spins[-5:]]
        design = optimize_register_gate(spins, electron, DesignConstraints(),
                                        reg.labels.index("C23"), 4)
        assert design is not None
        tangles = dict(zip(design.target_labels, design.target_tangles))
        tangles.update(design.unwanted_tangles)
        seq = build_sequence("cpmg", design.unit_time)
        for spin in spins:
            expected = nuclear_one_tangle(unit_propagator(seq, spin, electron),
                                          design.iterations, scaled=True)
            assert tangles[spin.label] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", ["cpmg", "udd4"])
    def test_tangle_block_matches_scalar_path(self, kind):
        reg = load_register("nv27")
        electron = reg.electron()
        t = resonance_time(reg.by_label("C23"), electron, 3)
        seq = build_sequence(kind, t)
        N_values = np.array([1, 2, 51, 137, 300])
        quats = unit_quaternions(np.array([s.A for s in reg.spins]),
                                 np.array([s.B for s in reg.spins]),
                                 reg.spins[0].omega_L, electron, seq.spacings, t)
        block = _tangle_block(quats, N_values)
        assert block.shape == (len(reg.spins), len(N_values))
        for i, spin in enumerate(reg.spins):
            rot = unit_propagator(seq, spin, electron)
            for j, n in enumerate(N_values):
                ref = nuclear_one_tangle(rot, int(n), scaled=True)
                assert block[i, j] == pytest.approx(ref, abs=1e-12)


class TestMinimizeUnwantedTangle:
    def test_generic_pair_reaches_small_tangle(self, spin_60_30, half_electron):
        unwanted = NuclearSpinParams.from_khz("u", 80.0, 25.0, 314.0)
        k, n, tangle = minimize_unwanted_tangle(spin_60_30, unwanted,
                                                half_electron)
        assert 1 <= k <= 5 and n >= 1
        assert tangle < 5e-2

    def test_uncoupled_bystander_is_exactly_zero(self, spin_60_30, half_electron):
        unwanted = NuclearSpinParams.from_khz("u", 0.0, 0.0, 314.0)
        _, _, tangle = minimize_unwanted_tangle(spin_60_30, unwanted,
                                                half_electron)
        assert tangle == pytest.approx(0.0, abs=1e-12)

    def test_copy_of_target_stays_maximal(self, spin_60_30, half_electron):
        copy = NuclearSpinParams.from_khz("copy", 60.0, 30.0, 314.0)
        _, _, tangle = minimize_unwanted_tangle(spin_60_30, copy, half_electron)
        assert tangle > 0.9


class TestRandomEnsemble:
    def test_deterministic_under_seed(self):
        a = generate_random_ensemble(10, seed=3)
        b = generate_random_ensemble(10, seed=3)
        assert [(s.A, s.B) for s in a] == [(s.A, s.B) for s in b]

    def test_ranges_and_distinctness(self):
        spins = generate_random_ensemble(8, seed=1)
        for s in spins:
            a, b = s.A / constants.KHZ, s.B / constants.KHZ
            assert 10.0 <= a <= 200.0 and 10.0 <= b <= 200.0
        vals = [(s.A / constants.KHZ, s.B / constants.KHZ) for s in spins]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                da = abs(vals[i][0] - vals[j][0])
                db = abs(vals[i][1] - vals[j][1])
                assert max(da, db) >= 25.0

    def test_overdense_request_fails(self):
        with pytest.raises(RuntimeError):
            generate_random_ensemble(2, A_range_khz=(10.0, 20.0),
                                     B_range_khz=(10.0, 20.0),
                                     distinctness_khz=50.0, seed=0,
                                     max_attempts_per_spin=50)

    def test_large_bath_ensemble(self):
        spins = generate_random_ensemble(300_000,
                                         A_range_khz=(10.0, 8000.0),
                                         B_range_khz=(10.0, 8000.0),
                                         distinctness_khz=3.0, seed=0)
        assert len(spins) == 300_000


class TestPositionEstimate:
    def test_table_rows(self):
        r, theta = estimate_position(195.78 * constants.KHZ,
                                     49.619 * constants.KHZ)
        assert r == pytest.approx(5.798, abs=2e-3)
        assert theta == pytest.approx(9.4595, abs=2e-3)
        r, theta = estimate_position(57.301 * constants.KHZ,
                                     157.25 * constants.KHZ)
        assert r == pytest.approx(5.7448, abs=2e-3)
        assert theta == pytest.approx(44.115, abs=2e-3)

    def test_on_axis(self):
        A = 100.0 * constants.KHZ
        r, theta = estimate_position(A, 0.0)
        assert theta == 0.0
        pref = (constants.MU0 * constants.GAMMA_E * constants.GAMMA_C13
                * constants.HBAR / (4.0 * math.pi))
        assert r == pytest.approx((2.0 * pref / A) ** (1.0 / 3.0)
                                  / constants.ANGSTROM, rel=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        lo, hi = 1e-4, 90.0 - 1e-4
        for th0 in [lo, hi] + list(rng.uniform(lo, hi, 50)):
            r0 = rng.uniform(3.0, 12.0)
            a, b = position_to_hyperfine(r0, th0)
            r1, th1 = estimate_position(a, b)
            assert r1 == pytest.approx(r0, rel=1e-9)
            assert th1 == pytest.approx(th0, rel=1e-9)

    def test_no_solution(self):
        with pytest.raises(ValueError):
            estimate_position(0.0, 0.0)
        with pytest.raises(ValueError):
            estimate_position(100.0, -1.0)


class TestTrivialCircle:
    def test_spins_are_trivial(self):
        electron = ElectronQubitSpec(0.0, -1.0)
        omega_L = 2.0 * math.pi * 432e3
        t, spins = spins_on_trivial_circle(electron, omega_L, 1, 1, 5)
        assert t == pytest.approx(8.0 * math.pi / omega_L, rel=1e-12)
        seq = build_sequence("cpmg", t)
        for spin in spins:
            rot = unit_propagator(seq, spin, electron)
            assert nuclear_one_tangle(rot, 40, scaled=True) < 1e-4

    def test_requires_zero_projection_branch(self):
        with pytest.raises(ValueError):
            spins_on_trivial_circle(ElectronQubitSpec(0.5, -0.5),
                                    2.0 * math.pi * 432e3, 1, 1, 3)


class TestGateErrorVsBath:
    def _pool(self, rng, n):
        pool = []
        for _ in range(n):
            rot = iterate(random_rotation_pair(rng), 1)
            pool.append((nuclear_one_tangle(rot, 1, scaled=True), rot))
        return pool

    def test_trivial_bath_gives_zero_error(self):
        rng = np.random.default_rng(4)
        trivial = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.3, (0.0, 0.0, 1.0), 0.3)
        pool = [(0.0, trivial)] * 20
        records = gate_error_vs_bath([random_rotation_pair(rng)], pool,
                                     [(0.0, 1.0)], [5, 10, 20], 4, seed=0)
        assert records
        for rec in records:
            assert rec["mean_error"] == pytest.approx(0.0, abs=1e-12)

    def test_large_identity_bath_gives_zero_error(self):
        rng = np.random.default_rng(8)
        identity = ConditionalRotation.from_axis_angles(
            (0.0, 0.0, 1.0), 0.0, (0.0, 0.0, 1.0), 0.0)
        records = gate_error_vs_bath([random_rotation_pair(rng)],
                                     [(0.0, identity)] * 64, [(0.0, 1.0)],
                                     [64], 2, seed=0)
        assert [r["bath_size"] for r in records] == [64]
        assert records[0]["mean_error"] == 0.0

    def test_empty_pool_empty_table(self):
        rng = np.random.default_rng(5)
        assert gate_error_vs_bath([random_rotation_pair(rng)], [],
                                  [(0.0, 1.0)], [1, 2], 3, seed=0) == []

    def test_small_bins_report_available_bath(self):
        rng = np.random.default_rng(6)
        pool = self._pool(rng, 3)
        records = gate_error_vs_bath([random_rotation_pair(rng)], pool,
                                     [(0.0, 1.0)], [10], 2, seed=0)
        assert len(records) == 1
        assert records[0]["bath_size"] == 3
        assert records[0]["requested_size"] == 10

    def test_matches_per_ensemble_partitions(self):
        """The gather over each bin's overlaps against one partition per ensemble."""
        rng = np.random.default_rng(9)
        pool = self._pool(rng, 40)
        targets = [random_rotation_pair(rng), random_rotation_pair(rng)]
        bins = [(0.0, 0.3), (0.3, 0.7), (0.7, 1.01)]
        sizes = [1, 3, 8, 40]
        records = gate_error_vs_bath(targets, pool, bins, sizes, 7, seed=11)

        ref_rng = np.random.Generator(np.random.Philox(11))
        expected = []
        for lo, hi in bins:
            members = [rot for tangle, rot in pool if lo <= tangle < hi]
            for size in sizes:
                eff = min(size, len(members))
                if eff == 0:
                    continue
                errors = []
                for _ in range(7):
                    order = ref_rng.permutation(len(members))[:eff]
                    part = RegisterPartition(tuple(targets),
                                             tuple(members[i] for i in order))
                    errors.append(1.0 - target_subspace_fidelity(part))
                expected.append(((lo, hi), eff, float(np.mean(errors))))
        assert len(records) == len(expected) > 4
        for rec, (b, eff, err) in zip(records, expected):
            assert (rec["bin"], rec["bath_size"]) == (b, eff)
            assert rec["mean_error"] == pytest.approx(err, rel=0.0, abs=1e-15)

    def test_error_grows_with_bath_size(self):
        rng = np.random.default_rng(7)
        pool = self._pool(rng, 40)
        records = gate_error_vs_bath([random_rotation_pair(rng)], pool,
                                     [(0.0, 1.0)], [1, 5, 20, 40], 64, seed=1)
        errors = [r["mean_error"] for r in records]
        assert errors[-1] > errors[0]
        assert all(e >= -1e-12 for e in errors)


class TestDesignConstraintsValidation:
    @pytest.mark.parametrize("field", ["max_gate_time", "time_window"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_bound_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DesignConstraints(**{field: value})
