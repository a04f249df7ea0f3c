"""Multi-spin gate synthesis and register utilities.

Covers the constrained register optimization over (unit time, iteration
count), unwanted-tangle minimization, random-ensemble generation,
hyperfine-to-position inversion, and bath-size gate-error studies.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import constants
from .entanglement import (MAX_N_MAX, g1_from_phase_rates, g1_over_iterations,
                           optimal_iterations, phase_rates, tangle_upper_bound)
from .fidelity import branch_overlaps, gate_error
from .spin_model import (ConditionalRotation, ElectronQubitSpec,
                         NuclearSpinParams, _integer, _real, _unit_axes, _unit_rows,
                         build_sequence, power, resonance_time, stack_quaternions,
                         unit_propagator, unit_quaternions)


# ---------------------------------------------------------------------------
# constrained register optimization

# caps on the inputs that size a search: the window sets the grid of unit
# times (2,000,001 at 1e-3 s), and one scoring row holds N_max x n_spins
# values, under entanglement's MAX_N_MAX
MAX_TIME_WINDOW = 1e-3


@dataclass(frozen=True)
class DesignConstraints:
    max_gate_time: float = 1.5e-3
    target_tangle_min: float = 0.8
    unwanted_tangle_max: float = 0.14
    unwanted_tangle_mean_max: float = 0.1
    time_window: float = 0.25e-6
    N_max: int = 300

    def __post_init__(self) -> None:
        _real(self.max_gate_time, "max_gate_time", 0)
        _real(self.time_window, "time_window", 0, MAX_TIME_WINDOW, "(]")
        _integer(self.N_max, "N_max", 1, MAX_N_MAX + 1)
        _real(self.target_tangle_min, "target_tangle_min", 0, 1, "(]")
        for name in ("unwanted_tangle_max", "unwanted_tangle_mean_max"):
            _real(getattr(self, name), name, 0, 1, "[)")


@dataclass(frozen=True)
class GateDesign:
    unit_time: float
    iterations: int
    k: int
    anchor_label: str
    target_labels: tuple
    target_tangles: tuple          # scaled, same order as target_labels
    unwanted_tangles: dict         # label -> scaled tangle
    gate_time: float
    gate_error: float

    @property
    def mean_target_tangle(self) -> float:
        return float(np.mean(self.target_tangles))

    @property
    def mean_unwanted_tangle(self) -> float:
        if not self.unwanted_tangles:
            return 0.0
        return float(np.mean(list(self.unwanted_tangles.values())))


def _spin_arrays(register: list[NuclearSpinParams]) -> np.ndarray:
    """A, B and omega_L of every spin, as the rows of a (3, n_spins) array."""
    return np.array([[s.A for s in register], [s.B for s in register],
                     [s.omega_L for s in register]])


def evaluate_design(register: list[NuclearSpinParams],
                    electron: ElectronQubitSpec, t: float, N: int, k: int,
                    anchor_label: str, target_indices: list[int],
                    sequence_kind: str = "cpmg") -> GateDesign:
    """Recompute all GateDesign figures of merit from (t, N) alone, for an
    t > 0, integers N and k >= 1 and a list of distinct integer target indices."""
    t = _real(t, "t", 0)
    N = _integer(N, "N", 1)
    k = _integer(k, "k", 1)
    n = len(register)
    try:
        idx = sorted(map(operator.index, target_indices))
    except TypeError:  # not integers, or not a sequence
        idx = []
    if not (idx and len(set(idx)) == len(idx) and 0 <= idx[0] and idx[-1] < n):
        raise ValueError(f"target_indices must be 1+ distinct indices in [0, {n}), "
                         f"got {target_indices!r}")
    quats = unit_quaternions(*_spin_arrays(register), electron,
                             build_sequence(sequence_kind, t).spacings, t)
    return _design(register, quats, t, N, k, anchor_label, idx)


def _design(register: list[NuclearSpinParams], quats: np.ndarray, t: float,
            N: int, k: int, anchor_label: str, targets: list[int]) -> GateDesign:
    """The GateDesign of the register's unit quaternions (2, 4, n_spins) at t,
    for the sorted target indices."""
    tangles = 1.0 - g1_over_iterations(quats, [N])[:, 0]
    others = [i for i in range(len(register)) if i not in targets]
    error = gate_error(len(targets), branch_overlaps(power(quats[..., others], N)))
    return GateDesign(
        unit_time=t, iterations=N, k=k, anchor_label=anchor_label,
        target_labels=tuple(register[i].label for i in targets),
        target_tangles=tuple(float(tangles[i]) for i in targets),
        unwanted_tangles={register[i].label: float(tangles[i]) for i in others},
        gate_time=N * t, gate_error=float(error))


# spacing of the unit-time grid the search scans
_TIME_STEP = 1e-9

# (unit time, spin, cos and sin pair) elements per kernel call of the scan.
# unit_quaternions holds one pair per (projection, distinct spacing), so this
# bounds its trig blocks to 4 MB for any sequence.  At CPMG's 4 pairs each
# other float64 temporary of the kernel and of phase_rates is 512 kB, and
# the default 501-point window is one call for up to 130 spins.
_KERNEL_BLOCK_ELEMENTS = 1 << 18

# (unit time, spin, N) elements per chunk of a block's scoring.  Bounds
# every float64 temporary of the scoring to 4 MB, even when the bound skips
# no spin and every point survives to be scored in full.  With the kernel
# blocks, no temporary of the scan grows with the time window; of each
# chunk only the feasible points are kept, for the grouping.
_SCAN_CHUNK_ELEMENTS = 1 << 19


# fewest targets of a feasible point; the scan prunes with the same rule
_MIN_TARGETS = 2


def _feasibility(tangles: np.ndarray, constraints: DesignConstraints):
    """Feasibility, target mean, bystander mean (0 with none) and target mask
    of each column of an (n_spins, n_points) block.  Feasible: at least
    _MIN_TARGETS targets (tangle above target_tangle_min), every bystander
    below unwanted_tangle_max and their mean below unwanted_tangle_mean_max;
    the scan's grid holds the gate time N t within max_gate_time."""
    is_target = tangles > constraints.target_tangle_min
    n_targets = is_target.sum(axis=0)
    unw_max = np.where(is_target, -np.inf, tangles).max(axis=0)
    # cumsum adds the spins in order at any width; sum() adds a lone column pairwise
    unw_sum = np.cumsum(np.where(is_target, 0.0, tangles), axis=0)[-1]
    n_unw = tangles.shape[0] - n_targets
    unw_mean = np.where(n_unw > 0, unw_sum / np.maximum(n_unw, 1), 0.0)
    tgt_sum = np.cumsum(np.where(is_target, tangles, 0.0), axis=0)[-1]
    tgt_mean = np.where(n_targets > 0, tgt_sum / np.maximum(n_targets, 1), 0.0)
    ok = ((n_targets >= _MIN_TARGETS)
          & (unw_max < constraints.unwanted_tangle_max)
          & (unw_mean < constraints.unwanted_tangle_mean_max))
    return ok, tgt_mean, unw_mean, is_target


def _winning_point(t, N, tgt_mean, unw_mean, is_target) -> int:
    """Index of the winner of a feasible set, as _scan_unit_times returns it:
    the target set feasible at the most unit times (the most robust to timing
    errors), and in it the highest target mean, then the shortest gate time
    N t, then the lowest bystander mean; ties go to the first-seen set, then
    to the first point in (t, N) order."""
    # lexsort is stable: each target set's group keeps (t, N) order
    sets = np.packbits(is_target, axis=0)
    by_set = np.lexsort(sets)
    sets, ts = sets[:, by_set], t[by_set]
    new_set = np.r_[True, (sets[:, 1:] != sets[:, :-1]).any(axis=0)]
    starts = np.flatnonzero(new_set)
    n_times = np.add.reduceat(new_set | np.r_[True, ts[1:] != ts[:-1]], starts)
    best = by_set[np.lexsort((unw_mean[by_set], N[by_set] * ts,
                              -tgt_mean[by_set], np.cumsum(new_set)))][starts]
    return int(best[np.lexsort((by_set[starts], -tgt_mean[best], -n_times))[0]])


def _screen_error(d, sigma, n_cap):
    """Bound on the error of 1 - G1 computed in float32 from float64 rates,
    at any N <= n_cap: the float32 phase N d is off by <= 2^-23 |N d|, numpy's
    float32 cos by a few ulp, and the roundings of m, 1 - m^2 and a float32
    band edge add a few 2^-24, so the tangle is off by <= 2^-21 |N d|
    + 2^-22 |N sigma| + 2.4e-6 to first order."""
    return 2.0 ** -20 * n_cap * (abs(d) + abs(sigma)) + 1e-5


def _scan_unit_times(spins: np.ndarray, electron: ElectronQubitSpec, spacings,
                     times: np.ndarray, constraints: DesignConstraints):
    """Feasible set of the grid, _feasibility's points in (t, N) order: (t, N,
    target mean, bystander mean, target masks (n_spins, n_points)), empty if none.

    spins holds the A, B and omega_L rows of _spin_arrays.  The points are
    every (t, N) with 1 <= N <= min(N_max, max_gate_time / t), a block of
    unit times per kernel call and a chunk of them at a time.  The spins are
    screened one after another on the points still in play, in float32 with
    a stated bound on its error, and two rules drop a point on the way:
    - band: a spin whose tangle is in the band between unwanted_tangle_max
      and target_tangle_min, each edge moved inward by the bound, rules the
      point out;
    - targets: the targets found (within the bound), plus the spins not yet
      scored that may still be one, are fewer than _MIN_TARGETS.
    A spin is scored only where tangle_upper_bound lets it reach the lower
    of the two floors; elsewhere it is neither in the band nor a target.  A
    unit time at which fewer than _MIN_TARGETS spins may be targets is not
    scored at all.  Both rules drop only points that _feasibility rejects,
    and the survivors are scored in full, in float64, so neither changes the
    set; the spins go by descending mean weight, and as neither rule ever
    raises a point's count, the order changes no survivor either.  The phase rates
    and weights of phase_amplitude are computed once per kernel block, and
    scoring a spin gathers them at the points it may reach.
    """
    n_cap = np.zeros(len(times), dtype=int)
    pos = times > 0
    n_cap[pos] = np.minimum(constraints.N_max,
                            constraints.max_gate_time / times[pos]).astype(int)
    N_values = np.arange(1, max(1, n_cap.max()) + 1)
    n_spins = spins.shape[1]
    # unit_quaternions holds a cos and sin block per (projection, spacing)
    pairs = len({electron.s0, electron.s1}) * len(set(spacings))
    block = max(1, _KERNEL_BLOCK_ELEMENTS // (n_spins * pairs))
    rows = max(1, _SCAN_CHUNK_ELEMENTS // (len(N_values) * n_spins))
    lo, hi = constraints.unwanted_tangle_max, constraints.target_tangle_min

    A, B, omega_L = spins[:, :, None]
    if (spins[2] == spins[2, :1]).all():
        # one Larmor frequency: the s = 0 trig of the kernel spans t alone
        omega_L = spins[2, :1]
    feasible = []
    for first in range(0, len(times), block):
        tb = times[first:first + block]
        d, sigma, weight = phase_rates(
            unit_quaternions(A, B, omega_L, electron, spacings, tb))
        # the spin loop screens in float32, with band edges (the rows top and
        # bottom) widened by the error bound: it drops only what _feasibility does
        err = _screen_error(d, sigma, n_cap[first:first + block])
        screen = np.stack([d, sigma, weight, hi - err, lo + err], axis=1,
                          dtype=np.float32)  # (spin, row, unit time)
        # (spin, unit time) masks, NaN bounds included: where the spin may be
        # a target, and where it is scored, as it may be a target or in the
        # band; elsewhere it is a bystander below both floors
        bound = tangle_upper_bound(d, weight, n_cap[first:first + block])
        may_target = ~(bound < hi - 1e-9)
        reach = ~(bound < min(lo, hi) - 1e-9)
        n_may = may_target.sum(axis=0)
        may_target_int = may_target.view(np.int8)
        # a unit time with too few possible targets has no point to score
        cap = np.where(n_may >= _MIN_TARGETS, n_cap[first:first + block], 0)
        # near-parallel branch axes (small weight) rarely rule a point out: last
        order = np.argsort(-weight.mean(axis=1))
        for start in range(0, len(tb), rows):
            # the points in play in (t, N) order, as rows: unit time index,
            # N from 1 to the time's cap, and the targets found plus the
            # unscored spins that may still be one, less the fewest a
            # feasible point holds
            caps = cap[start:start + rows]
            ti = np.repeat(np.arange(start, start + caps.size), caps)
            points = np.stack([ti, np.arange(1, ti.size + 1)
                               - np.repeat(np.cumsum(caps) - caps, caps),
                               n_may.take(ti) - _MIN_TARGETS])
            for s in order[reach[order, start:start + rows].any(axis=1)]:
                ti, N, spare = points
                hit = reach[s].take(ti)
                # take() and compress() are the fast forms of these gathers,
                # and a spin that may reach every point in play needs none
                at = slice(None) if hit.all() else np.flatnonzero(hit)
                t_at = ti[at]
                r = screen[s].take(t_at, axis=1)  # d, sigma, weight, top, bottom
                tangle = np.subtract(1.0, g1_from_phase_rates(
                    *r[:3], N[at].astype(np.float32), out=r[0]), out=r[0])
                is_target = tangle > r[3]
                spare[at] += is_target - may_target_int[s].take(t_at)
                # the points out of reach stay
                keep = ~hit
                keep[at] = (is_target | (tangle < r[4])) & (spare[at] >= 0)
                points = points.compress(keep, axis=1)
            ti, N, _ = points
            tangles = 1.0 - g1_from_phase_rates(
                *(rate.take(ti, axis=1) for rate in (d, sigma, weight)), N)
            ok, tgt_mean, unw_mean, targets = _feasibility(tangles, constraints)
            feasible.append((tb[ti[ok]], N[ok], tgt_mean[ok], unw_mean[ok],
                             targets[:, ok]))

    return tuple(map(np.hstack, zip(*feasible)))


def _golden_section(f, lo: float, hi: float, xatol: float) -> float:
    """Minimizer of a unimodal f on [lo, hi], to within xatol."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _refinement_objective(targets: list[NuclearSpinParams], electron: ElectronQubitSpec,
                          spacings: tuple, N: int):
    """The refinement's objective of the unit time t: minus the targets' mean
    scaled one-tangle at N, on Python floats per target from axes taken once.
    No PulseSequence, as the bracket may reach t <= 0."""
    axes = [_unit_axes(s.A, s.B, s.omega_L, electron) for s in targets]

    def objective(t: float) -> float:
        # np.mean, not sum: from 8 targets numpy sums pairwise, in another rounding
        return -float(np.mean([1.0 - g1_from_phase_rates(*phase_rates(
            ConditionalRotation._of(_unit_rows(a, spacings, t)[0])), N) for a in axes]))

    return objective


def optimize_register_gate(register: list[NuclearSpinParams],
                           electron: ElectronQubitSpec,
                           constraints: DesignConstraints,
                           anchor_index: int, k: int,
                           sequence_kind: str = "cpmg") -> GateDesign | None:
    """Search (t, N) near the anchor's k-th resonance for a feasible gate.

    The unit time is scanned on a fixed grid across the constraint window
    for the feasible set (_feasibility), whose _winning_point is then
    refined in unit time at fixed N.  The refined time is kept only if it
    is feasible with the same targets and its mean target tangle is no
    lower than at the grid point.  None when no grid point is feasible.
    """
    if not register:
        raise ValueError("empty register")
    anchor = register[_integer(anchor_index, "anchor_index", 0, len(register))]
    seq0 = build_sequence(sequence_kind, resonance_time(anchor, electron, k))
    spacings = seq0.spacings
    t0 = seq0.unit_time
    spins = _spin_arrays(register)

    steps = int(round(constraints.time_window / _TIME_STEP))
    times = t0 + np.arange(-steps, steps + 1) * _TIME_STEP
    t, N, _, _, is_target = feasible = _scan_unit_times(spins, electron, spacings,
                                                        times, constraints)
    if not t.size:
        return None
    j = _winning_point(*feasible)
    t_best, n_best, mask = float(t[j]), int(N[j]), is_target[:, j]
    target_idx = np.flatnonzero(mask).tolist()

    # local refinement of the unit time at fixed N and fixed target set
    objective = _refinement_objective([register[i] for i in target_idx], electron,
                                      spacings, n_best)
    t_ref = _golden_section(objective, t_best - _TIME_STEP, t_best + _TIME_STEP,
                            xatol=1e-13)
    quats = unit_quaternions(*spins, electron, spacings, t_ref)
    tangles = 1.0 - g1_over_iterations(quats, [n_best])[:, 0]
    ok, _, _, is_target = _feasibility(tangles[:, None], constraints)
    if not (ok[0] and np.array_equal(is_target[:, 0], mask)
            and n_best * t_ref <= constraints.max_gate_time
            and objective(t_ref) <= objective(t_best)):
        t_ref = t_best
        quats = unit_quaternions(*spins, electron, spacings, t_ref)
    # evaluate_design's figures, from the kernel of the check
    return _design(register, quats, t_ref, n_best, k, anchor.label, target_idx)


# ---------------------------------------------------------------------------
# unwanted-tangle minimization (single target, single bystander)


def minimize_unwanted_tangle(target: NuclearSpinParams,
                             unwanted: NuclearSpinParams,
                             electron: ElectronQubitSpec,
                             k_range=range(1, 6), pulse_budget: int = 300,
                             sequence_kind: str = "cpmg"
                             ) -> tuple[int, int, float]:
    """Minimize the bystander's scaled one-tangle over the target's resonances.

    Scans the target's first resonances (k_range) and all iteration counts
    in the target's nearly-maximal set, limited by the pulse budget; a
    budget below one unit's pulses, or whose N cap passes MAX_N_MAX, raises
    ValueError.
    Returns (k, N, scaled bystander tangle); the target's G1 stays below the
    maximal-tangle threshold at the returned point.
    """
    # the pulse count of a sequence kind is the same at every unit time
    pulses = build_sequence(sequence_kind, 1.0).pulse_count
    n_max = _integer(pulse_budget, "pulse_budget", pulses,
                     (MAX_N_MAX + 1) * pulses) // pulses
    best = None
    for k in k_range:
        t = resonance_time(target, electron, k)
        seq = build_sequence(sequence_kind, t)
        rot_t = unit_propagator(seq, target, electron)
        good_n = optimal_iterations(rot_t, N_max=n_max)
        if not good_n:
            continue
        tangles = 1.0 - g1_over_iterations(unit_propagator(seq, unwanted, electron), good_n)
        for n, tangle in zip(good_n, tangles.tolist()):
            if best is None or tangle < best[2]:
                best = (k, n, tangle)
    if best is None:
        raise ValueError("target has no entangling iteration count in range")
    return best


# ---------------------------------------------------------------------------
# random ensembles

# candidate (A, B) pairs per draw: larger blocks gain nothing at 800 spins
_SAMPLER_BLOCK = 128
# a spin's own grid cell and its eight neighbours, the cells a conflict can use
_NEIGHBOUR_CELLS = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))


def generate_random_ensemble(count: int,
                             A_range_khz: tuple[float, float] = (10.0, 200.0),
                             B_range_khz: tuple[float, float] = (10.0, 200.0),
                             distinctness_khz: float = 25.0,
                             seed: int = 0,
                             larmor_khz: float = 314.0,
                             max_attempts_per_spin: int = 1000
                             ) -> list[NuclearSpinParams]:
    """Uniformly sampled spins with pairwise-distinct hyperfine values.

    Two spins are distinct when at least one hyperfine component differs by
    distinctness_khz or more; it must be finite and >= 0, 0 checks nothing,
    and a positive one must leave every range bound / distinctness_khz
    finite.  Candidates violating this against any accepted spin are
    rejected; generation fails once a spin exhausts its attempt budget (the
    range cannot host the requested density).
    Candidates are drawn in blocks as lo + (hi - lo) u, Generator.uniform's
    arithmetic on the same stream of u: a seed gives the same pool, bit for
    bit, as one uniform draw per coordinate.
    """
    count = _integer(count, "count", 0)
    max_attempts_per_spin = _integer(max_attempts_per_spin, "max_attempts_per_spin", 1)
    d = _real(distinctness_khz, "distinctness_khz", 0, closed="[)")
    larmor_khz = _real(larmor_khz, "larmor_khz", 0)
    lo, hi = np.array([A_range_khz, B_range_khz], dtype=float).T
    if not np.all(np.isfinite(hi - lo)):
        raise ValueError(f"A_range_khz {A_range_khz} and B_range_khz {B_range_khz} "
                         "must have finite bounds")
    # the grid hashes a // d to an int, so every value / d must be finite
    if d > 0 and not all(math.isfinite(x / d) for x in lo.tolist() + hi.tolist()):
        raise ValueError(f"distinctness_khz {d} is too small for A_range_khz "
                         f"{A_range_khz} and B_range_khz {B_range_khz}")
    rng = np.random.Generator(np.random.Philox(_integer(seed, "seed", 0)))
    # spatial hash on a d-sized grid: conflicts only involve neighbor cells,
    # and two spins in one cell would conflict, so a cell holds one spin
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    # misses: candidates rejected since the last accepted spin
    spins, misses = [], 0
    while len(spins) < count:
        for a, b in (lo + (hi - lo) * rng.random((_SAMPLER_BLOCK, 2))).tolist():
            if d:  # d = 0: no check
                ci, cj = int(a // d), int(b // d)
                for di, dj in _NEIGHBOUR_CELLS:
                    p = cells.get((ci + di, cj + dj))
                    if p is not None and abs(p[0] - a) < d and abs(p[1] - b) < d:
                        break
                else:
                    p = None
                if p is not None:  # a conflict broke the loop
                    misses += 1
                    if misses == max_attempts_per_spin:
                        raise RuntimeError(
                            f"could not place spin {len(spins) + 1} of {count} after "
                            f"{max_attempts_per_spin} attempts; range too dense for "
                            f"distinctness {distinctness_khz} kHz")
                    continue
                cells[ci, cj] = (a, b)
            misses = 0
            spins.append(NuclearSpinParams.from_khz(f"R{len(spins) + 1}", a, b,
                                                    larmor_khz))
            if len(spins) == count:
                break
    return spins


# ---------------------------------------------------------------------------
# hyperfine -> lattice position


def estimate_position(A: float, B: float) -> tuple[float, float]:
    """Invert the point-dipole hyperfine model to (R in Angstrom, theta in deg).

    The couplings (angular rad/s) decompose as A = A0 (3 cos^2 theta - 1),
    B = 3 A0 cos theta sin theta with A0 = mu0 gamma_n gamma_e hbar/(4 pi R^3).
    Eliminating A0 gives sin(2 theta - atan2(B, A)) = B / (3 |(A, B)|), solved
    in closed form; finite A and B, B >= 0 and (A, B) != (0, 0) required.
    """
    A, B = _real(A, "A"), _real(B, "B", 0, closed="[)")
    if A == 0 and B == 0:
        raise ValueError("no dipolar solution for these couplings")
    prefactor = (constants.MU0 * constants.GAMMA_E * constants.GAMMA_C13
                 * constants.HBAR / (4.0 * math.pi))
    norm = math.hypot(A, B)
    # abs() maps B = -0.0 onto the B = 0 branch (theta = 90 deg for A < 0)
    theta = 0.5 * (math.atan2(abs(B), A) + math.asin(B / (3.0 * norm)))
    c, s = math.cos(theta), math.sin(theta)
    a0 = norm / math.hypot(3.0 * c * c - 1.0, 3.0 * s * c)
    r = (prefactor / a0) ** (1.0 / 3.0)
    return r / constants.ANGSTROM, math.degrees(theta)


def position_to_hyperfine(r_angstrom: float, theta_deg: float) -> tuple[float, float]:
    """Forward point-dipole model: (R > 0, finite theta) -> (A, B) in angular rad/s.

    R's cube in m^3 must stay within the float range (no underflow to 0, no
    overflow), or a ValueError names r_angstrom."""
    theta = math.radians(_real(theta_deg, "theta_deg"))
    r_angstrom = _real(r_angstrom, "r_angstrom", 0)
    try:
        r3 = (r_angstrom * constants.ANGSTROM) ** 3
    except OverflowError:
        r3 = math.inf
    if not 0.0 < r3 < math.inf:
        raise ValueError(f"r_angstrom must have a cube in m^3 within the float range, "
                         f"got {r_angstrom}")
    a0 = (constants.MU0 * constants.GAMMA_E * constants.GAMMA_C13
          * constants.HBAR / (4.0 * math.pi * r3))
    return (a0 * (3.0 * math.cos(theta) ** 2 - 1.0),
            3.0 * a0 * math.cos(theta) * math.sin(theta))


# ---------------------------------------------------------------------------
# trivial-evolution helpers


def spins_on_trivial_circle(electron: ElectronQubitSpec, omega_L: float,
                            kappa_time: int, kappa_circle: int, count: int,
                            hf_cap: float = 2.0 * math.pi * 300e3
                            ) -> tuple[float, list[NuclearSpinParams]]:
    """Spins that decouple from both electron branches at one unit time.

    Requires one branch with projection 0 (its decoupling fixes the unit
    time t = 8 kappa pi / omega_L); the returned spins sit on the other
    branch's decoupling circle, restricted to hyperfine values below hf_cap.
    Returns (t, spins).
    """
    omega_L = _real(omega_L, "omega_L", 0)
    hf_cap = _real(hf_cap, "hf_cap", 0)
    kappa_circle = _integer(kappa_circle, "kappa_circle", 1)
    count = _integer(count, "count", 0)
    if electron.s0 == 0:
        s = electron.s1
    elif electron.s1 == 0:
        s = electron.s0
    else:
        raise ValueError("need one electron branch with projection 0")
    t = 8.0 * _integer(kappa_time, "kappa_time", 1) * math.pi / omega_L
    if t == math.inf:
        raise ValueError(f"omega_L must keep the unit time 8 kappa_time pi / omega_L "
                         f"finite, got {omega_L}")
    radius = abs(8.0 * kappa_circle * math.pi / (s * t))
    center = -omega_L / s
    spins = []
    psi_values = np.linspace(1e-3, math.pi - 1e-3, 4 * count)
    for psi in psi_values:
        a = center + radius * math.cos(psi)
        b = radius * math.sin(psi)
        if b < 0 or abs(a) > hf_cap or b > hf_cap:
            continue
        spins.append(NuclearSpinParams(f"T{len(spins) + 1}", a, b, omega_L))
        if len(spins) == count:
            break
    if len(spins) < count:
        raise ValueError("circle does not host enough spins under the cap")
    return t, spins


# ---------------------------------------------------------------------------
# gate error vs bath size


def gate_error_vs_bath(targets: list[ConditionalRotation],
                       unwanted_pool: list[tuple[float, ConditionalRotation]],
                       tangle_bins: list[tuple[float, float]],
                       bath_sizes: list[int], n_ensembles: int, seed: int
                       ) -> list[dict]:
    """Mean gate error as the unwanted bath grows, per one-tangle bin.

    unwanted_pool holds (scaled one-tangle, iterated rotation) pairs.  For
    each bin, bath size and ensemble, a fresh random permutation of the
    bin's spins is drawn and its first bath-size spins form the bath; bins
    holding fewer spins than requested report the largest available bath.
    A bin (lo, hi) holds the tangles lo <= tangle < hi and needs finite lo < hi.
    Returns one record per (bin, bath size) with the ensemble-mean error.
    """
    n_ensembles = _integer(n_ensembles, "n_ensembles", 1)
    bath_sizes = [_integer(size, "each of bath_sizes", 1) for size in bath_sizes]
    if not targets:
        raise ValueError("need at least one target spin")
    for lo, hi in tangle_bins:
        if not _real(lo, "tangle_bins") < _real(hi, "tangle_bins"):
            raise ValueError(f"tangle bin {(lo, hi)} must have lo < hi")
    k = len(targets)
    rng = np.random.Generator(np.random.Philox(_integer(seed, "seed", 0)))
    tangles = np.array([tangle for tangle, _ in unwanted_pool], dtype=float)
    overlaps = branch_overlaps(stack_quaternions([rot for _, rot in unwanted_pool]))
    records = []
    for lo, hi in tangle_bins:
        members = overlaps[(lo <= tangles) & (tangles < hi)]
        n = len(members)
        if n == 0:
            continue
        order = np.broadcast_to(np.arange(n), (n_ensembles, n))
        for size in bath_sizes:
            eff = min(size, n)
            # one permutation per ensemble row, the stream of one
            # rng.permutation(n) call per ensemble; a C-order gather keeps
            # the product's reduction order
            baths = np.ascontiguousarray(rng.permuted(order, axis=1)[:, :eff])
            records.append({"bin": (lo, hi), "bath_size": eff,
                            "requested_size": size,
                            "mean_error": float(gate_error(k, members[baths]).mean()),
                            "n_ensembles": n_ensembles})
    return records
