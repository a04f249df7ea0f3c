from __future__ import annotations

import csv
import math
import re
import tracemalloc
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from spintangle import constants, designer
from spintangle.datasets import RegisterFile, load_register
from spintangle.designer import (
    DesignConstraints,
    _scan_unit_times,
    _winning_point,
    estimate_position,
    evaluate_design,
    gate_error_vs_bath,
    generate_random_ensemble,
    minimize_unwanted_tangle,
    optimize_register_gate,
    position_to_hyperfine,
    spins_on_trivial_circle,
)
from spintangle.entanglement import (g1_from_phase_rates, g1_over_iterations,
                                     nuclear_one_tangle)
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

    def test_design_without_bystanders(self):
        reg = load_register("nv27")
        spins = [reg.by_label("C4"), reg.by_label("C5")]
        design = evaluate_design(spins, reg.electron(), 11.4e-6, 51, 3,
                                 "C4", [0, 1])
        assert design.unwanted_tangles == {}
        assert design.mean_unwanted_tangle == 0.0
        assert design.gate_error == 0.0

    @pytest.mark.parametrize("targets", [[3, -1], [3, 3], [], [3, 99], [3.0, 4], [3, 4.5]],
                             ids=["negative", "duplicate", "empty", "out-of-range",
                                  "float-3.0", "float-4.5"])
    def test_bad_target_indices_named(self, targets):
        reg = load_register("nv27")
        c4 = reg.by_label("C4")
        t = resonance_time(c4, reg.electron(), 3)
        with pytest.raises(ValueError, match="target_indices"):
            evaluate_design(reg.spins, reg.electron(), t, 82, 3, "C4", targets)

    @pytest.mark.parametrize("N", [0, -3, 1.5, 82.0, "82", None])
    def test_bad_iteration_count_named(self, N):
        reg = load_register("nv27")
        t = resonance_time(reg.by_label("C4"), reg.electron(), 3)
        with pytest.raises(ValueError, match=r"^N must be (an integer|>= 1), got "):
            evaluate_design(reg.spins, reg.electron(), t, N, 3, "C4", [3, 4])

    def test_numpy_integers_pass(self):
        reg = load_register("nv27")
        t = resonance_time(reg.by_label("C4"), reg.electron(), 3)
        plain = evaluate_design(reg.spins, reg.electron(), t, 82, 3, "C4", [3, 4])
        numpy = evaluate_design(reg.spins, reg.electron(), t, np.int64(82), 3, "C4",
                                np.array([4, 3]))
        assert numpy == plain

    @pytest.mark.parametrize("anchor, k, targets", [("C4", 3, ["C4", "C5", "C15"]),
                                                    ("C23", 3, ["C4", "C23"])])
    def test_gate_error_equals_the_per_bystander_iterate_loop(self, anchor, k, targets):
        reg = load_register("nv27")
        el = reg.electron()
        seq = build_sequence("cpmg", resonance_time(reg.by_label(anchor), el, k))
        idx = [reg.labels.index(l) for l in targets]
        design = evaluate_design(reg.spins, el, seq.unit_time, 82, k, anchor, idx)
        rots = [iterate(unit_propagator(seq, s, el), 82)
                for i, s in enumerate(reg.spins) if i not in idx]
        part = RegisterPartition([iterate(unit_propagator(seq, reg.spins[i], el), 82)
                                  for i in idx], rots)
        assert design.gate_error == 1.0 - target_subspace_fidelity(part)

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

    @pytest.mark.parametrize("anchor, message", [
        (-1, "anchor_index must be in [0, 27), got -1"),
        (27, "anchor_index must be in [0, 27), got 27"),
        (2.0, "anchor_index must be an integer, got 2.0"),
        ("C4", "anchor_index must be an integer, got 'C4'"),
    ], ids=["negative", "past-the-end", "float", "label"])
    def test_bad_anchor_index_named(self, anchor, message):
        # -1 used to anchor on the last spin, C27
        reg = load_register("nv27")
        with pytest.raises(ValueError, match=re.escape(message)):
            optimize_register_gate(reg.spins, reg.electron(), DesignConstraints(),
                                   anchor, 3)

    @pytest.mark.parametrize("k", [2.5, 2.0, math.nan])
    def test_non_integer_k_named(self, k):
        # 2.5 used to scan around a unit time that is no resonance
        reg = load_register("nv27")
        message = f"k must be an integer, got {k!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            resonance_time(reg.by_label("C4"), reg.electron(), k)
        with pytest.raises(ValueError, match=re.escape(message)):
            optimize_register_gate(reg.spins, reg.electron(), DesignConstraints(), 3, k)

    def test_numpy_anchor_index_and_k_pass(self):
        reg = load_register("nv27")
        args = reg.spins, reg.electron(), DesignConstraints()
        assert (optimize_register_gate(*args, np.int64(22), np.int32(3))
                == optimize_register_gate(*args, 22, 3))

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

    @pytest.mark.parametrize("elements", [1, 1 << 40])
    def test_kernel_block_does_not_change_design(self, monkeypatch, elements):
        # 1: one unit time per kernel call; 1 << 40: the whole window in one
        reg = load_register("nv27")
        args = (reg.spins, reg.electron(), DesignConstraints(),
                reg.labels.index("C23"), 3)
        ref = optimize_register_gate(*args)
        monkeypatch.setattr(designer, "_KERNEL_BLOCK_ELEMENTS", elements)
        assert optimize_register_gate(*args) == ref

    def test_memory_bounded_by_the_blocks_not_the_window(self):
        # 200001 unit times: the whole grid at once took about 120 MB
        reg = load_register("nv27")
        spins = [reg.by_label(label) for label in ("C23", "C4", "C5")]
        cons = DesignConstraints(N_max=5, time_window=1e-4)
        tracemalloc.start()
        try:
            optimize_register_gate(spins, reg.electron(), cons, 0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    @staticmethod
    def _feasible_set(reg, anchor, k, cons, kind="cpmg"):
        """The scan's feasible set over the search's grid about the resonance:
        501 unit times at the default time_window."""
        electron = reg.electron()
        seq = build_sequence(kind, resonance_time(reg.by_label(anchor),
                                                  electron, k))
        steps = round(cons.time_window / 1e-9)
        times = seq.unit_time + np.arange(-steps, steps + 1) * 1e-9
        return _scan_unit_times(designer._spin_arrays(reg.spins), electron,
                                seq.spacings, times, cons)

    @staticmethod
    def _winner(feasible):
        """The _winning_point of a feasible set as (t, N, target indices), or None."""
        t, N, _, _, is_target = feasible
        if not t.size:
            return None
        j = _winning_point(*feasible)
        return float(t[j]), int(N[j]), np.flatnonzero(is_target[:, j]).tolist()

    @classmethod
    def _grid_point(cls, reg, anchor, k, cons, kind="cpmg"):
        """The scan's winning grid point (t, N, target indices), or None."""
        return cls._winner(cls._feasible_set(reg, anchor, k, cons, kind))

    # a reference sums a point's tangles in another order than the scan's
    # blocks; measured, its means differ by at most 2.22e-16
    MEAN_ATOL = 4.5e-16

    @classmethod
    def _assert_same_set(cls, got, ref, where=None):
        """got and ref hold the same points: t, N and masks ==, means to MEAN_ATOL."""
        (t, N, tgt, unw, is_target), (t_ref, N_ref, tgt_ref, unw_ref, is_target_ref) = got, ref
        assert np.array_equal(t, t_ref) and np.array_equal(N, N_ref), where
        assert np.array_equal(is_target, is_target_ref), where
        assert np.abs(tgt - tgt_ref).max(initial=0.0) <= cls.MEAN_ATOL, where
        assert np.abs(unw - unw_ref).max(initial=0.0) <= cls.MEAN_ATOL, where

    @pytest.mark.parametrize("name, kind, anchor, k, cons", [
        ("nv27", "cpmg", "C23", 3, DesignConstraints()),
        ("rand-udd4-k2", "udd4", "S3", 2, DesignConstraints()),
        # a bystander bound above the target bound rules no point out early
        ("nv27", "cpmg", "C5", 2, DesignConstraints(
            target_tangle_min=0.5, unwanted_tangle_max=0.9,
            unwanted_tangle_mean_max=0.5, N_max=60)),
        # seven targets
        ("rand-udd3-k3", "udd3", "S3", 3, DesignConstraints()),
        # N = 288, with the gate-time cap above N_max
        ("nv27", "cpmg", "C26", 1, DesignConstraints()),
        # no feasible point: the empty set
        ("nv27", "cpmg", "C9", 1, DesignConstraints()),
        ("nv27", "cpmg", "C18", 5, DesignConstraints()),
        # the float32 screen's widest margins: N up to 10**4 (the winner has
        # N = 7563), on 41 unit times
        ("nv27", "cpmg", "C2", 1, DesignConstraints(
            N_max=10 ** 4, max_gate_time=0.025, time_window=2e-8)),
    ])
    def test_scan_matches_per_time_loop(self, name, kind, anchor, k, cons):
        reg = load_register(name)
        electron = reg.electron()
        A = np.array([s.A for s in reg.spins])
        B = np.array([s.B for s in reg.spins])
        seq = build_sequence(kind, resonance_time(reg.by_label(anchor),
                                                  electron, k))
        steps = round(cons.time_window / 1e-9)
        times = seq.unit_time + np.arange(-steps, steps + 1) * 1e-9
        # reference: one tangle block per unit time, points in (t, N) order
        rows, set_times, set_best = [], {}, {}
        for t in times:
            N_values = np.arange(1, min(cons.N_max,
                                        int(cons.max_gate_time / t)) + 1)
            quats = unit_quaternions(A, B, reg.spins[0].omega_L, electron,
                                     seq.spacings, t)
            ok, tgt_mean, unw_mean, is_target = designer._feasibility(
                1.0 - g1_over_iterations(quats, N_values), cons)
            rows.append((np.full(ok.sum(), t), N_values[ok], tgt_mean[ok],
                         unw_mean[ok], is_target[:, ok]))
            for j in np.nonzero(ok)[0]:
                tset = tuple(np.nonzero(is_target[:, j])[0])
                key = (-tgt_mean[j], N_values[j] * t, unw_mean[j])
                set_times.setdefault(tset, set()).add(t)
                if tset not in set_best or key < set_best[tset][0]:
                    set_best[tset] = (key, t, int(N_values[j]))
        feasible = self._feasible_set(reg, anchor, k, cons, kind)
        self._assert_same_set(feasible, [np.hstack(c) for c in zip(*rows)])
        if not set_best:
            assert self._winner(feasible) is None
            return
        winner = max(set_best,
                     key=lambda s: (len(set_times[s]), -set_best[s][0][0]))
        assert self._winner(feasible) == (
            set_best[winner][1], set_best[winner][2], list(winner))

    @staticmethod
    def _full_scan(spins, electron, spacings, times, cons):
        """The feasible set with every (t, N) point scored."""
        cap = np.minimum(cons.N_max, cons.max_gate_time / times).astype(int)
        N_values = np.arange(1, cap.max() + 1)
        quats = unit_quaternions(*designer._spin_arrays(spins)[:, :, None],
                                 electron, spacings, times)
        valid = N_values <= cap[:, None]
        # (spin, point) with the points in (t, N) order
        ok, tgt_mean, unw_mean, is_target = designer._feasibility(
            1.0 - g1_over_iterations(quats, N_values)[:, valid], cons)
        return (np.broadcast_to(times[:, None], valid.shape)[valid][ok],
                np.broadcast_to(N_values, valid.shape)[valid][ok],
                tgt_mean[ok], unw_mean[ok], is_target[:, ok])

    @staticmethod
    def _reference_winner(t, N, tgt_mean, unw_mean, is_target):
        """The winner of a feasible set, ranked set by set, or None."""
        if not t.size:
            return None
        # one integer per target set; the registers here have < 63 spins
        sets = (1 << np.arange(is_target.shape[0])) @ is_target
        _, first, inverse = np.unique(sets, return_index=True,
                                      return_inverse=True)
        best = {}
        for u in range(first.size):
            j = np.flatnonzero(inverse == u)
            # lexsort is stable: ties go to the first point in (t, N) order
            p = j[np.lexsort((unw_mean[j], N[j] * t[j], -tgt_mean[j]))[0]]
            # most unit times, then highest mean, then the first-seen set
            best[len(set(t[j])), tgt_mean[p], -first[u]] = p
        p = best[max(best)]
        return float(t[p]), int(N[p]), np.flatnonzero(is_target[:, p]).tolist()

    @pytest.mark.parametrize("name, kind", [
        ("nv27", "cpmg"), ("rand-cpmg-k1", "cpmg"), ("rand-udd3-k3", "udd3"),
        # weakly coupled pools on the nv27 electron, where many a spin may
        # be a target but not in the band
        ("pool-1", "cpmg"), ("pool-2", "cpmg"),
        # the kernel's general path: one Larmor frequency per spin, and no
        # zero projection; every third spin anchors
        ("nv27-mixed-larmor", "cpmg"), ("nv27-spin-one", "cpmg"),
        # at the default constraints, two searches with no feasible point
        ("nv27-no-design", "cpmg")])
    def test_scan_matches_full_scoring_below_the_bystander_bound(self, name, kind):
        # with the target floor below the bystander bound, a spin is scored
        # where it may be a target although it cannot be in the band
        anchors = slice(None, None, 3 if name.startswith("nv27-") else 1)
        if name.startswith("pool-"):
            reg = RegisterFile(generate_random_ensemble(
                10, A_range_khz=(-60.0, 60.0), B_range_khz=(2.0, 40.0),
                distinctness_khz=5.0, seed=int(name[5:]), larmor_khz=432.0),
                s0=0.0, s1=-1.0)
        elif name == "nv27-mixed-larmor":
            reg = load_register("nv27")
            reg = RegisterFile([NuclearSpinParams(s.label, s.A, s.B,
                                                  s.omega_L * (1.0 + 0.01 * (i % 2)))
                                for i, s in enumerate(reg.spins)], s0=reg.s0, s1=reg.s1)
        elif name == "nv27-spin-one":
            reg = RegisterFile(load_register("nv27").spins, s0=-1.0, s1=1.0)
        elif name == "nv27-no-design":
            reg = load_register("nv27")
        else:
            reg = load_register(name)
        constraint_sets = [
            DesignConstraints(target_tangle_min=0.5, unwanted_tangle_max=0.9,
                              unwanted_tangle_mean_max=0.5, N_max=60),
            DesignConstraints(target_tangle_min=0.3, unwanted_tangle_max=0.6,
                              unwanted_tangle_mean_max=0.3, N_max=30)]
        searches = [(spin, k, cons) for spin in reg.spins[anchors]
                    for k in (1, 2, 3) for cons in constraint_sets]
        if name == "nv27-no-design":
            searches = [(reg.by_label("C9"), 1, DesignConstraints()),
                        (reg.by_label("C18"), 5, DesignConstraints())]
        electron = reg.electron()
        spins = designer._spin_arrays(reg.spins)
        found = 0
        for spin, k, cons in searches:
            seq = build_sequence(kind, resonance_time(spin, electron, k))
            times = seq.unit_time + np.arange(-100, 101) * 1e-9
            got = _scan_unit_times(spins, electron, seq.spacings, times, cons)
            ref = self._full_scan(reg.spins, electron, seq.spacings, times, cons)
            self._assert_same_set(got, ref, (spin.label, k, cons))
            assert self._winner(got) == self._reference_winner(*ref), (spin.label, k, cons)
            found += got[0].size > 0
        assert bool(found) != (name == "nv27-no-design")

    @staticmethod
    def _scored(monkeypatch) -> list:
        """A list that gathers the size of each G1 block scored from now on."""
        evaluated = []

        def counting(d, sigma, weight, N, out=None):
            evaluated.append(np.broadcast(d, sigma, weight, N).size)
            return g1_from_phase_rates(d, sigma, weight, N, out)

        monkeypatch.setattr(designer, "g1_from_phase_rates", counting)
        return evaluated

    @staticmethod
    def _without_bound(monkeypatch):
        # a NaN bound is never skipped
        monkeypatch.setattr(designer, "tangle_upper_bound",
                            lambda *args: np.full(np.broadcast(*args).shape,
                                                  np.nan))

    def test_scan_skips_spins_that_cannot_reach_the_band(self, monkeypatch):
        reg = load_register("nv27")
        cons = DesignConstraints()
        evaluated = self._scored(monkeypatch)
        skipping = self._feasible_set(reg, "C23", 3, cons)
        n_skipping = sum(evaluated)
        evaluated.clear()
        self._without_bound(monkeypatch)
        self._assert_same_set(self._feasible_set(reg, "C23", 3, cons), skipping)
        assert n_skipping < 0.7 * sum(evaluated)

    @pytest.mark.parametrize("anchor", ["C18", "C6"])
    def test_scan_scores_nothing_where_no_time_holds_two_targets(
            self, monkeypatch, anchor):
        reg = load_register("nv27")
        cons = DesignConstraints()
        evaluated = self._scored(monkeypatch)
        assert self._grid_point(reg, anchor, 5, cons) is None
        n_pruning = sum(evaluated)
        evaluated.clear()
        self._without_bound(monkeypatch)
        assert self._grid_point(reg, anchor, 5, cons) is None
        assert n_pruning < 0.1 * sum(evaluated)

    def test_scan_drops_points_that_cannot_hold_two_targets(self, monkeypatch):
        evaluated = self._scored(monkeypatch)
        self._grid_point(load_register("nv27"), "C23", 3, DesignConstraints())
        # the bystander band as the only rule scores 191,962 elements
        assert sum(evaluated) < 0.8 * 191962

    def test_a_point_scored_alone_gets_its_block_means(self):
        # numpy's sum() adds a lone (n_spins, 1) column pairwise and a wider
        # block row by row: a scan chunk with one survivor must not differ
        rng = np.random.default_rng(31)
        cons = DesignConstraints(target_tangle_min=0.5, unwanted_tangle_max=0.9,
                                 unwanted_tangle_mean_max=0.9)
        for _ in range(100):
            tangles = rng.uniform(0.0, 1.0, (27, 7))
            block = designer._feasibility(tangles, cons)
            for j in range(tangles.shape[1]):
                alone = designer._feasibility(tangles[:, j:j + 1], cons)
                assert [a[..., 0].tolist() for a in alone] == [b[..., j].tolist() for b in block]

    def test_scan_screens_in_float32_and_scores_in_float64(self, monkeypatch):
        # a float64 screen would give the same set, only slower: pin the types
        log = []

        def spy(d, sigma, weight, N, out=None):
            dtypes = {np.asarray(a).dtype for a in (d, sigma, weight, N)}
            log.append("32" if dtypes == {np.dtype(np.float32)} else
                       "64" if np.asarray(d).dtype == np.float64 else repr(dtypes))
            return g1_from_phase_rates(d, sigma, weight, N, out)

        feasibility = designer._feasibility
        monkeypatch.setattr(designer, "g1_from_phase_rates", spy)
        monkeypatch.setattr(designer, "_feasibility",
                            lambda *args: log.append("F") or feasibility(*args))
        assert self._grid_point(load_register("nv27"), "C23", 3, DesignConstraints())
        # per chunk: the per-spin screen, then one float64 scoring of the survivors
        assert re.fullmatch(r"((32)*64F)+", "".join(log)), log
        assert "32" in log

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.floats(-2 * math.pi, 2 * math.pi), st.floats(-2 * math.pi, 2 * math.pi),
                      st.floats(0.0, 1.0), st.integers(0, designer.MAX_N_MAX))
    @hypothesis.example(2 * math.pi, 2 * math.pi, 0.5, designer.MAX_N_MAX)
    @hypothesis.example(0.1, -2 * math.pi, 1.0, designer.MAX_N_MAX)
    @hypothesis.example(-2 * math.pi, 2 * math.pi - 1e-9, 0.999, designer.MAX_N_MAX - 1)
    def test_float32_tangle_within_the_screen_bound(self, d, sigma, weight, N):
        rates = np.array([[d], [sigma], [weight]])
        exact = 1.0 - g1_from_phase_rates(*rates, np.array([N]))
        screened = 1.0 - g1_from_phase_rates(*rates.astype(np.float32),
                                             np.array([N], dtype=np.float32))
        assert screened.dtype == np.float32
        assert abs(float(screened[0]) - float(exact[0])) <= designer._screen_error(d, sigma, N)

    def test_float32_tangle_within_the_screen_bound_on_a_batch(self):
        rng = np.random.default_rng(2024)
        d, sigma = rng.uniform(-2 * math.pi, 2 * math.pi, (2, 200_000))
        weight = rng.uniform(0.0, 1.0, d.size)
        N = rng.integers(0, designer.MAX_N_MAX + 1, d.size)
        exact = 1.0 - g1_from_phase_rates(d, sigma, weight, N)
        screened = 1.0 - g1_from_phase_rates(d.astype(np.float32), sigma.astype(np.float32),
                                             weight.astype(np.float32), N.astype(np.float32))
        assert screened.dtype == np.float32
        assert np.all(np.abs(screened - exact) <= designer._screen_error(d, sigma, N))

    @staticmethod
    def _mask(n_spins, sets):
        mask = np.zeros((n_spins, len(sets)), dtype=bool)
        for j, targets in enumerate(sets):
            mask[list(targets), j] = True
        return mask

    def test_winning_point_tie_breaks(self):
        # one target set; points 0 and 2 tie on mean, gate time and
        # bystander mean, so the earlier one wins
        t = np.array([1.0, 1.0, 2.0])
        N = np.array([2, 3, 1])
        tgt = np.array([0.95, 0.90, 0.95])
        unw = np.full(3, 0.05)
        assert _winning_point(t, N, tgt, unw, self._mask(3, [(0, 1)] * 3)) == 0
        # 70 spins: sets A and B differ only in spins 68 and 69, beyond the
        # first 64 bits, and B's key sorts first.  Both are feasible at two
        # unit times with best mean 0.95, so A, seen first, wins at point 2
        A, B = (0, 68), (0, 69)
        t = np.array([1.0, 1.0, 2.0, 2.0])
        N = np.array([1, 2, 1, 2])
        tgt = np.array([0.90, 0.95, 0.95, 0.90])
        unw = np.full(4, 0.05)
        assert _winning_point(t, N, tgt, unw,
                              self._mask(70, [A, B, A, B])) == 2
        # a third unit time makes B the winner, at its best point, although
        # A has as many points: the count is of distinct unit times
        t = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
        N = np.array([1, 2, 1, 2, 3, 1])
        tgt = np.array([0.90, 0.95, 0.95, 0.90, 0.85, 0.85])
        unw = np.full(6, 0.05)
        assert _winning_point(t, N, tgt, unw,
                              self._mask(70, [A, B, A, B, A, B])) == 1

    def test_bundled_searches_match_pinned_designs(self):
        """Every anchor of every bundled register, as pinned in the CSV."""
        path = Path(__file__).parent / "data" / "bundled_designs.csv"
        with open(path, newline="") as f:
            rows = list(csv.DictReader(
                line for line in f if not line.startswith("#")))
        assert len(rows) == 189
        assert sum(not row["targets"] for row in rows) == 5
        registers = {name: load_register(name)
                     for name in {row["register"] for row in rows}}
        for row in rows:
            reg = registers[row["register"]]
            design = optimize_register_gate(
                reg.spins, reg.electron(), DesignConstraints(),
                reg.labels.index(row["anchor"]), int(row["k"]),
                sequence_kind=row["sequence"])
            where = f"{row['register']} {row['anchor']} k={row['k']}"
            if not row["targets"]:
                assert design is None, where
                continue
            assert design.target_labels == tuple(row["targets"].split()), where
            assert design.iterations == int(row["N"]), where
            assert abs(design.unit_time - float(row["unit_time_s"])) <= 1e-15, where
            assert abs(design.gate_error - float(row["gate_error"])) <= 1e-7, where

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

    @pytest.mark.parametrize("anchor, k", [("C23", 3), ("C13", 4), ("C4", 3),
                                           ("C26", 1)])
    def test_refinement_objective_equals_the_per_target_formula(self, anchor, k):
        reg = load_register("nv27")
        electron = reg.electron()
        t_grid, n_grid, target_idx = self._grid_point(reg, anchor, k, DesignConstraints())
        targets = [reg.spins[i] for i in target_idx]
        spacings = build_sequence("cpmg", t_grid).spacings
        objective = designer._refinement_objective(targets, electron, spacings, n_grid)
        # across the refinement's bracket, the grid point one step either side
        for t in np.linspace(t_grid - 1e-9, t_grid + 1e-9, 2001).tolist():
            # each target's unit built whole, then its scaled one-tangle
            ref = -float(np.mean([nuclear_one_tangle(ConditionalRotation(unit_quaternions(
                s.A, s.B, s.omega_L, electron, spacings, t)), n_grid, scaled=True)
                for s in targets]))
            assert objective(t) == ref, t

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
        block = 1.0 - g1_over_iterations(quats, N_values)
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

    def test_target_without_entangling_count_rejected(self, spin_60_30,
                                                      half_electron):
        # B = 0: both branch axes lie along z, so G1 = 1 at every N
        target = NuclearSpinParams.from_khz("z", 50.0, 0.0, 314.0)
        with pytest.raises(ValueError, match="target has no entangling"):
            minimize_unwanted_tangle(target, spin_60_30, half_electron)

    def test_integer_budgets_pass(self):
        reg = load_register("nv27")
        args = reg.by_label("C4"), reg.by_label("C5"), reg.electron()
        k, n, tangle = minimize_unwanted_tangle(*args, pulse_budget=300)
        assert (k, n) == (5, 142) and tangle == pytest.approx(0.00197049, abs=1e-8)
        assert minimize_unwanted_tangle(*args, pulse_budget=np.int64(300)) == (k, n, tangle)

    @pytest.mark.parametrize("kind, budget", [("cpmg", -5), ("cpmg", 0), ("cpmg", 1),
                                              ("udd4", 3)])
    def test_budget_below_one_unit_named(self, kind, budget, monkeypatch):
        reg = load_register("nv27")
        pulses = build_sequence(kind, 1.0).pulse_count
        monkeypatch.setattr(designer, "resonance_time", None)  # no search is run
        with pytest.raises(ValueError, match=re.escape(
                f"pulse_budget must be in [{pulses}, {pulses * (designer.MAX_N_MAX + 1)}), "
                f"got {budget}")):
            minimize_unwanted_tangle(reg.by_label("C4"), reg.by_label("C5"), reg.electron(),
                                     pulse_budget=budget, sequence_kind=kind)

    @pytest.mark.parametrize("budget", [2, 3])
    def test_budget_of_one_unit_searches_one_iteration(self, budget):
        # the N cap is 1, where C4 has no nearly maximal one-tangle
        reg = load_register("nv27")
        with pytest.raises(ValueError, match="target has no entangling"):
            minimize_unwanted_tangle(reg.by_label("C4"), reg.by_label("C5"), reg.electron(),
                                     pulse_budget=budget)

    @pytest.mark.parametrize("budget", [math.nan, 300.0, "300", None])
    def test_non_integer_budget_named(self, spin_60_30, half_electron, budget):
        unwanted = NuclearSpinParams.from_khz("u", 80.0, 25.0, 314.0)
        with pytest.raises(ValueError, match=re.escape(
                f"pulse_budget must be an integer, got {budget!r}")):
            minimize_unwanted_tangle(spin_60_30, unwanted, half_electron,
                                     pulse_budget=budget)


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

    @staticmethod
    def _per_candidate(count, A_range_khz, B_range_khz, distinctness_khz,
                       seed, larmor_khz, max_attempts_per_spin):
        """The sampler as one rng.uniform call per coordinate of a candidate."""
        rng = np.random.Generator(np.random.Philox(seed))
        d, accepted = distinctness_khz, []
        for idx in range(count):
            for _ in range(max_attempts_per_spin):
                a = rng.uniform(*A_range_khz)
                b = rng.uniform(*B_range_khz)
                if not any(abs(pa - a) < d and abs(pb - b) < d
                           for pa, pb in accepted):
                    accepted.append((a, b))
                    break
            else:
                raise RuntimeError(
                    f"could not place spin {idx + 1} of {count} after "
                    f"{max_attempts_per_spin} attempts; range too dense for "
                    f"distinctness {distinctness_khz} kHz")
        return [NuclearSpinParams.from_khz(f"R{i + 1}", a, b, larmor_khz)
                for i, (a, b) in enumerate(accepted)]

    @pytest.mark.parametrize("settings", [
        # the bath-ensemble benchmark's pools
        dict(count=800, A_range_khz=(-100.0, 200.0), B_range_khz=(5.0, 200.0),
             distinctness_khz=2.0, larmor_khz=432.0, max_attempts_per_spin=1000),
        # the defaults
        dict(count=20, A_range_khz=(10.0, 200.0), B_range_khz=(10.0, 200.0),
             distinctness_khz=25.0, larmor_khz=314.0, max_attempts_per_spin=1000),
    ], ids=["bath-ensemble", "defaults"])
    @pytest.mark.parametrize("seed", [0, 1, 7, 123456])
    def test_stream_pinned_to_per_candidate_draws(self, settings, seed):
        got = generate_random_ensemble(seed=seed, **settings)
        assert got == self._per_candidate(seed=seed, **settings)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_overdense_request_fails_at_the_same_spin(self, seed):
        settings = dict(count=200, A_range_khz=(10.0, 200.0),
                        B_range_khz=(10.0, 200.0), distinctness_khz=25.0,
                        seed=seed, larmor_khz=314.0, max_attempts_per_spin=50)
        with pytest.raises(RuntimeError) as ref:
            self._per_candidate(**settings)
        assert "could not place spin" in str(ref.value)
        with pytest.raises(RuntimeError) as got:
            generate_random_ensemble(**settings)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("A_range_khz, B_range_khz", [
        ((10.0, math.inf), (10.0, 200.0)),
        ((10.0, 200.0), (math.nan, 200.0)),
    ])
    def test_non_finite_range_rejected(self, A_range_khz, B_range_khz):
        with pytest.raises(ValueError, match="must have finite bounds"):
            generate_random_ensemble(3, A_range_khz=A_range_khz,
                                     B_range_khz=B_range_khz)

    @pytest.mark.parametrize("d", [math.nan, -3.0, math.inf])
    def test_bad_distinctness_rejected_before_any_draw(self, d, monkeypatch):
        def no_stream(*args):
            raise AssertionError("built a random stream")

        monkeypatch.setattr(np.random, "Philox", no_stream)
        with pytest.raises(ValueError, match="distinctness_khz"):
            generate_random_ensemble(40, distinctness_khz=d, seed=100)

    @pytest.fixture
    def no_stream(self, monkeypatch):
        def fail(*args):
            raise AssertionError("built a random stream")

        monkeypatch.setattr(np.random, "Philox", fail)

    @pytest.mark.parametrize("d", [1e-308, 1e-310, 5e-324])
    def test_distinctness_too_small_for_the_ranges_rejected_before_any_draw(
            self, d, no_stream):
        # 200 / d overflows, so the d-sized grid has no integer cells
        with pytest.raises(ValueError, match="distinctness_khz .* too small"):
            generate_random_ensemble(5, distinctness_khz=d, seed=1)

    def test_non_finite_range_rejected_before_any_draw(self, no_stream):
        with pytest.raises(ValueError, match="must have finite bounds"):
            generate_random_ensemble(3, A_range_khz=(10.0, math.inf))

    @pytest.mark.parametrize("count", [-1, -3])
    def test_negative_count_rejected_before_any_draw(self, count, no_stream):
        with pytest.raises(ValueError, match=f"count must be >= 0, got {count}"):
            generate_random_ensemble(count, seed=1)

    @pytest.mark.parametrize("attempts", [0, -5])
    def test_attempt_budget_below_one_rejected_before_any_draw(self, attempts,
                                                               no_stream):
        with pytest.raises(ValueError,
                           match=f"max_attempts_per_spin must be >= 1, got {attempts}"):
            generate_random_ensemble(3, seed=1, max_attempts_per_spin=attempts)

    @pytest.mark.parametrize("count", [2.5, math.nan, "3"])
    def test_non_integer_count_rejected_before_any_draw(self, count, no_stream):
        # 2.5 used to give 26 spins, NaN none
        with pytest.raises(ValueError,
                           match=re.escape(f"count must be an integer, got {count!r}")):
            generate_random_ensemble(count, seed=1)

    def test_non_integer_attempt_budget_rejected_before_any_draw(self, no_stream):
        # misses == 2.5 never held: a range too dense for the count never
        # stopped.  The range here is roomy, so the old code returned spins.
        with pytest.raises(ValueError,
                           match="max_attempts_per_spin must be an integer, got 2.5"):
            generate_random_ensemble(3, seed=1, max_attempts_per_spin=2.5)

    def test_numpy_integer_counts_pass(self):
        settings = dict(distinctness_khz=25.0, seed=3)
        assert (generate_random_ensemble(np.int64(20), max_attempts_per_spin=np.int32(50),
                                         **settings)
                == generate_random_ensemble(20, max_attempts_per_spin=50, **settings))

    def test_tiny_distinctness_within_range_keeps_the_stream(self):
        settings = dict(count=5, A_range_khz=(10.0, 200.0),
                        B_range_khz=(10.0, 200.0), distinctness_khz=1e-300,
                        seed=1, larmor_khz=314.0, max_attempts_per_spin=1000)
        got = generate_random_ensemble(**settings)
        assert len(got) == 5
        assert got == self._per_candidate(**settings)

    def test_zero_distinctness_checks_nothing(self):
        # one attempt per spin in a 1 Hz square, where a 25 kHz check fails
        settings = dict(count=40, A_range_khz=(10.0, 10.001),
                        B_range_khz=(10.0, 10.001), distinctness_khz=0.0,
                        seed=100, larmor_khz=314.0, max_attempts_per_spin=1)
        got = generate_random_ensemble(**settings)
        assert len(got) == 40
        assert got == self._per_candidate(**settings)

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

    @pytest.mark.parametrize("A, B, message", [
        (math.nan, 1.0, "A must be finite, got nan"),
        (1.0, math.nan, "B must be finite, got nan"),
        (1.0, math.inf, "B must be finite, got inf"),
        (math.inf, 1.0, "A must be finite, got inf"),
        (-math.inf, 0.0, "A must be finite, got -inf"),
    ], ids=["nan-1.0", "1.0-nan", "1.0-inf", "inf-1.0", "-inf-0.0"])
    def test_non_finite_couplings_have_no_solution(self, A, B, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_position(A, B)


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

    def test_zero_projection_on_either_branch(self):
        omega_L = 2.0 * math.pi * 432e3
        assert (spins_on_trivial_circle(ElectronQubitSpec(-1.0, 0.0), omega_L,
                                        1, 1, 5)
                == spins_on_trivial_circle(ElectronQubitSpec(0.0, -1.0),
                                           omega_L, 1, 1, 5))

    def test_requires_zero_projection_branch(self):
        with pytest.raises(ValueError):
            spins_on_trivial_circle(ElectronQubitSpec(0.5, -0.5),
                                    2.0 * math.pi * 432e3, 1, 1, 3)

    @pytest.mark.parametrize("kappa_time", [0, -1, 1.5])
    def test_bad_kappa_time_named(self, kappa_time):
        with pytest.raises(ValueError, match=r"^kappa_time must be (an integer|>= 1), got "):
            spins_on_trivial_circle(ElectronQubitSpec(0.0, -1.0),
                                    2.0 * math.pi * 432e3, kappa_time, 1, 3)

    @pytest.mark.parametrize("kappa_time", [2, np.int64(2)], ids=["int", "numpy"])
    def test_kappa_time_two_unchanged(self, kappa_time):
        t, spins = spins_on_trivial_circle(ElectronQubitSpec(0.0, -1.0),
                                           2.0 * math.pi * 432e3, kappa_time, 1, 3)
        assert t == 1.8518518518518518e-05
        assert [(s.A, s.B) for s in spins] == [
            (1826046.3124752152, 1026083.0322919657),
            (1573080.8127610707, 734466.8331907357),
            (1412456.141932605, 383423.7208168825)]

    def test_cap_below_the_circle_rejected(self):
        with pytest.raises(ValueError, match="not host enough spins"):
            spins_on_trivial_circle(ElectronQubitSpec(0.0, -1.0),
                                    2.0 * math.pi * 432e3, 1, 1, 3,
                                    hf_cap=2.0 * math.pi * 1e3)


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
        # a bin around one spin's tangle holds that spin alone, and a bin
        # above every tangle, between two filled ones, holds none
        one = pool[5][0]
        bins = [(0.0, 0.3), (one, math.nextafter(one, math.inf)), (1.01, 2.0),
                (0.3, 0.7), (0.7, 1.01)]
        counts = [sum(lo <= tangle < hi for tangle, _ in pool) for lo, hi in bins]
        assert counts[1:3] == [1, 0] and min(counts[0], counts[3]) > 1
        # 50 is above every bin's count
        sizes = [1, 3, 8, 40, 50]
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
        assert len(records) == len(expected) == 20
        for rec, (b, eff, err) in zip(records, expected):
            assert (rec["bin"], rec["bath_size"]) == (b, eff)
            assert rec["mean_error"] == err

    def test_error_grows_with_bath_size(self):
        rng = np.random.default_rng(7)
        pool = self._pool(rng, 40)
        records = gate_error_vs_bath([random_rotation_pair(rng)], pool,
                                     [(0.0, 1.0)], [1, 5, 20, 40], 64, seed=1)
        errors = [r["mean_error"] for r in records]
        assert errors[-1] > errors[0]
        assert all(e >= -1e-12 for e in errors)

    @pytest.mark.parametrize("sizes, n_ensembles, name", [
        ([2], 0, "n_ensembles"),
        ([2], -1, "n_ensembles"),
        ([-2], 3, "bath_sizes"),
        ([4, 0], 3, "bath_sizes"),
    ], ids=["no-ensembles", "negative-ensembles", "negative-size", "zero-size"])
    def test_counts_below_one_rejected(self, sizes, n_ensembles, name):
        rng = np.random.default_rng(10)
        pool = self._pool(rng, 3)
        with pytest.raises(ValueError, match=name):
            gate_error_vs_bath([random_rotation_pair(rng)], pool, [(0.0, 1.0)],
                               sizes, n_ensembles, seed=0)

    @pytest.mark.parametrize("sizes, n_ensembles, message", [
        ([2.5], 3, "each of bath_sizes must be an integer, got 2.5"),
        ([2, 3.0], 3, "each of bath_sizes must be an integer, got 3.0"),
        ([2], 2.5, "n_ensembles must be an integer, got 2.5"),
    ], ids=["size", "float-size", "ensembles"])
    def test_non_integer_counts_named(self, sizes, n_ensembles, message):
        rng = np.random.default_rng(10)
        pool = self._pool(rng, 3)
        with pytest.raises(ValueError, match=re.escape(message)):
            gate_error_vs_bath([random_rotation_pair(rng)], pool, [(0.0, 1.0)],
                               sizes, n_ensembles, seed=0)

    def test_numpy_integer_counts_pass(self):
        rng = np.random.default_rng(10)
        pool = self._pool(rng, 6)
        args = [random_rotation_pair(rng)], pool, [(0.0, 1.0)]
        assert (gate_error_vs_bath(*args, [np.int64(2), np.int32(4)], np.int64(3), seed=0)
                == gate_error_vs_bath(*args, [2, 4], 3, seed=0))

    def test_generator_sizes_give_the_list_records(self):
        rng = np.random.default_rng(10)
        pool = self._pool(rng, 6)
        args = [random_rotation_pair(rng)], pool, [(0.0, 1.0)]
        records = gate_error_vs_bath(*args, (s for s in [2, 4]), 3, seed=0)
        assert len(records) == 2
        assert records == gate_error_vs_bath(*args, [2, 4], 3, seed=0)

    @pytest.mark.parametrize("sizes, message", [
        ([2, 2.5], "each of bath_sizes must be an integer, got 2.5"),
        ([4, 0], "each of bath_sizes must be >= 1, got 0"),
    ], ids=["float-size", "zero-size"])
    def test_bad_generator_size_named_before_any_draw(self, sizes, message,
                                                      monkeypatch):
        rng = np.random.default_rng(10)
        pool = self._pool(rng, 3)
        targets = [random_rotation_pair(rng)]

        def no_stream(*args):
            raise AssertionError("built a random stream")

        monkeypatch.setattr(np.random, "Philox", no_stream)
        with pytest.raises(ValueError, match=re.escape(message)):
            gate_error_vs_bath(targets, pool, [(0.0, 1.0)], (s for s in sizes), 3, seed=0)

    def test_no_target_rejected(self):
        pool = self._pool(np.random.default_rng(10), 3)
        with pytest.raises(ValueError, match="need at least one target spin"):
            gate_error_vs_bath([], pool, [(0.0, 1.0)], [2], 3, seed=0)

    @pytest.mark.parametrize("bad, message", [
        ((1.0, 0.0), "tangle bin (1.0, 0.0) must have lo < hi"),
        ((0.5, 0.5), "tangle bin (0.5, 0.5) must have lo < hi"),
        ((math.nan, 1.0), "tangle_bins must be finite, got nan"),
        ((0.0, math.nan), "tangle_bins must be finite, got nan"),
    ], ids=["reversed", "empty", "nan-lo", "nan-hi"])
    def test_empty_or_nan_bin_rejected_before_any_draw(self, bad, message, monkeypatch):
        rng = np.random.default_rng(10)
        pool = self._pool(rng, 3)
        targets = [random_rotation_pair(rng)]

        def no_stream(*args):
            raise AssertionError("built a random stream")

        monkeypatch.setattr(np.random, "Philox", no_stream)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gate_error_vs_bath(targets, pool, [(0.0, 1.01), bad], [2], 3, seed=0)


class TestDesignConstraintsValidation:
    @pytest.mark.parametrize("field", ["max_gate_time", "time_window"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_bound_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DesignConstraints(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("N_max", 0),
        ("N_max", designer.MAX_N_MAX + 1),
        ("time_window", designer.MAX_TIME_WINDOW * (1 + 1e-7)),
        ("target_tangle_min", 0.0),
        ("target_tangle_min", 1.5),
        ("unwanted_tangle_max", -0.1),
        ("unwanted_tangle_max", 1.0),
        ("unwanted_tangle_mean_max", -0.1),
        ("unwanted_tangle_mean_max", 1.0),
    ])
    def test_out_of_range_bound_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            DesignConstraints(**{field: value})

    @pytest.mark.parametrize("N_max", [300.5, 300.0, math.nan])
    def test_non_integer_n_max_named(self, N_max):
        # 300.5 used to be accepted, and the scan floored it
        with pytest.raises(ValueError,
                           match=re.escape(f"N_max must be an integer, got {N_max!r}")):
            DesignConstraints(N_max=N_max)
