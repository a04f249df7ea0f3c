"""Multi-spin gate synthesis and register utilities.

Covers the common-iteration intersection search, the constrained register
optimization over (unit time, iteration count), unwanted-tangle
minimization, random-ensemble generation, hyperfine-to-position inversion,
and bath-size gate-error studies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .entanglement import (G1_MAXIMAL_THRESHOLD, branch_angles, g1_amplitude,
                           g1_over_iterations, optimal_iterations)
from .fidelity import (RegisterPartition, _overlaps, _subspace_fidelity,
                       target_subspace_fidelity)
from .spin_model import (ConditionalRotation, ElectronQubitSpec,
                         NuclearSpinParams, build_sequence, iterate,
                         resonance_time, unit_propagator, unit_quaternions)


# ---------------------------------------------------------------------------
# common-iteration search


def find_common_iterations(spins: list[ConditionalRotation], N_max: int,
                           threshold: float = G1_MAXIMAL_THRESHOLD
                           ) -> tuple[int, list[int]]:
    """Find an iteration count entangling as many spins as possible.

    Each spin contributes the set of N with nearly maximal one-tangle at the
    shared unit time.  The first spin's set anchors a running intersection;
    spins whose sets do not meet the current intersection are dropped.
    Returns (N*, indices of participating spins); N* is the surviving N with
    the lowest mean G1 over participants (smallest N on ties).
    """
    if len(spins) < 2:
        raise ValueError("need at least two spins")
    sets = [set(optimal_iterations(r, N_max=N_max, threshold=threshold))
            for r in spins]
    if not sets[0]:
        raise ValueError("anchor spin has no entangling iteration count "
                         "at this unit time")
    common = set(sets[0])
    participants = [0]
    for j in range(1, len(spins)):
        nxt = common & sets[j]
        if nxt:
            common = nxt
            participants.append(j)
    candidates = sorted(common)
    g1 = np.zeros(len(candidates))
    for j in participants:
        prof = g1_over_iterations(spins[j], max(candidates))
        g1 += prof[np.asarray(candidates) - 1]
    best = candidates[int(np.argmin(g1))]
    return best, participants


# ---------------------------------------------------------------------------
# tangle blocks (for grid scans)


def _scaled_tangles(h0, h1, n01, N) -> np.ndarray:
    """Scaled one-tangles 1 - G1, broadcast over all arguments."""
    m = g1_amplitude(h0, h1, n01, N)
    return 1.0 - np.minimum(1.0, m * m)


def _tangle_block(quats: np.ndarray, N_values: np.ndarray) -> np.ndarray:
    """Scaled one-tangles 1 - G1, shape (n_spins, n_N), from unit quaternions."""
    h0, h1, n01 = (a[:, None] for a in branch_angles(quats))
    return _scaled_tangles(h0, h1, n01, N_values)


# ---------------------------------------------------------------------------
# constrained register optimization


@dataclass(frozen=True)
class DesignConstraints:
    max_gate_time: float = 1.5e-3
    target_tangle_min: float = 0.8
    unwanted_tangle_max: float = 0.14
    unwanted_tangle_mean_max: float = 0.1
    time_window: float = 0.25e-6
    N_max: int = 300

    def __post_init__(self) -> None:
        for name in ("max_gate_time", "time_window"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.N_max < 1:
            raise ValueError(f"N_max must be >= 1, got {self.N_max}")
        if not (0 < self.target_tangle_min <= 1):
            raise ValueError("target_tangle_min must be in (0, 1]")
        for name in ("unwanted_tangle_max", "unwanted_tangle_mean_max"):
            if not (0 <= getattr(self, name) < 1):
                raise ValueError(f"{name} must be in [0, 1)")


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
    """Recompute all GateDesign figures of merit from (t, N) alone."""
    quats = unit_quaternions(*_spin_arrays(register), electron,
                             build_sequence(sequence_kind, t).spacings, t)
    rots = [iterate(ConditionalRotation.from_quaternions(quats[..., i]), N)
            for i in range(len(register))]
    tangles = _tangle_block(quats, np.array([N]))[:, 0]
    targets = sorted(target_indices)
    others = [i for i in range(len(register)) if i not in targets]
    part = RegisterPartition(tuple(rots[i] for i in targets),
                             tuple(rots[i] for i in others))
    error = 1.0 - target_subspace_fidelity(part)
    return GateDesign(
        unit_time=t, iterations=N, k=k, anchor_label=anchor_label,
        target_labels=tuple(register[i].label for i in targets),
        target_tangles=tuple(float(tangles[i]) for i in targets),
        unwanted_tangles={register[i].label: float(tangles[i]) for i in others},
        gate_time=N * t, gate_error=float(error))


# spacing of the unit-time grid the search scans
_TIME_STEP = 1e-9

# (unit time, spin, N) elements per chunk of the scan.  Bounds every float64
# temporary to 4 MB, whatever the time window and even if no point is ruled
# out before the full scoring.
_SCAN_CHUNK_ELEMENTS = 1 << 19


def _feasibility(tangles: np.ndarray, constraints: DesignConstraints):
    """Feasibility and scores of each column of an (n_spins, n_points) block."""
    is_target = tangles > constraints.target_tangle_min
    n_targets = is_target.sum(axis=0)
    unw_max = np.where(is_target, -np.inf, tangles).max(axis=0)
    unw_sum = np.where(is_target, 0.0, tangles).sum(axis=0)
    n_unw = tangles.shape[0] - n_targets
    unw_mean = np.where(n_unw > 0, unw_sum / np.maximum(n_unw, 1), 0.0)
    tgt_sum = np.where(is_target, tangles, 0.0).sum(axis=0)
    tgt_mean = np.where(n_targets > 0, tgt_sum / np.maximum(n_targets, 1), 0.0)
    ok = ((n_targets >= 2)
          & (unw_max < constraints.unwanted_tangle_max)
          & (unw_mean < constraints.unwanted_tangle_mean_max))
    return ok, tgt_mean, unw_mean, is_target


def _scan_unit_times(quats: np.ndarray, times: np.ndarray,
                     constraints: DesignConstraints):
    """Winning grid point (t, N, target indices) of the scan, or None.

    quats holds the unit quaternions over (unit time, spin).  Every (t, N)
    with 1 <= N <= min(N_max, max_gate_time / t) is scored, a chunk of unit
    times at a time.  A spin whose tangle is neither above
    target_tangle_min nor below unwanted_tangle_max rules a point out, so
    the spins are scored one after another on the points still in play.
    The survivors are scored in full and go through _feasibility and the
    bookkeeping, in (t, N) order.
    """
    # angles as (spin, unit time) rows
    h0, h1, n01 = (np.ascontiguousarray(a.T) for a in branch_angles(quats))
    # spins with near-parallel branch axes stay weakly entangled and rarely
    # rule a point out, so they go last
    order = np.argsort(n01.mean(axis=1))
    n_cap = np.zeros(len(times), dtype=int)
    pos = times > 0
    n_cap[pos] = np.minimum(constraints.N_max,
                            constraints.max_gate_time / times[pos]).astype(int)
    N_values = np.arange(1, max(1, n_cap.max()) + 1)
    rows = max(1, _SCAN_CHUNK_ELEMENTS // (len(N_values) * h0.shape[0]))

    # per target set: feasible unit times and the best (t, N) point within
    set_times: dict[tuple, set] = {}
    set_best: dict[tuple, tuple] = {}
    for start in range(0, len(times), rows):
        ti, ni = np.nonzero(N_values <= n_cap[start:start + rows, None])
        ti += start
        N = N_values[ni]
        for s in order:
            tangle = _scaled_tangles(h0[s, ti], h1[s, ti], n01[s, ti], N)
            keep = ((tangle > constraints.target_tangle_min)
                    | (tangle < constraints.unwanted_tangle_max))
            ti, N = ti[keep], N[keep]
        if not ti.size:
            continue
        # take() keeps the (spin, point) block C-ordered, as a single-time
        # block is, so _feasibility sums over spins in the same order
        tangles = _scaled_tangles(h0.take(ti, axis=1), h1.take(ti, axis=1),
                                  n01.take(ti, axis=1), N)
        ok, tgt_mean, unw_mean, targets = _feasibility(tangles, constraints)
        for j, t, n, tgt, unw in zip(
                np.flatnonzero(ok).tolist(), times[ti[ok]].tolist(),
                N[ok].tolist(), tgt_mean[ok].tolist(), unw_mean[ok].tolist()):
            tset = tuple(np.flatnonzero(targets[:, j]))
            key = (-tgt, n * t, unw)
            set_times.setdefault(tset, set()).add(t)
            if tset not in set_best or key < set_best[tset][0]:
                set_best[tset] = (key, t, n)

    if not set_best:
        return None
    winner = max(set_best,
                 key=lambda s: (len(set_times[s]), -set_best[s][0][0]))
    _, t_best, n_best = set_best[winner]
    return t_best, n_best, list(winner)


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


def optimize_register_gate(register: list[NuclearSpinParams],
                           electron: ElectronQubitSpec,
                           constraints: DesignConstraints,
                           anchor_index: int, k: int,
                           sequence_kind: str = "cpmg") -> GateDesign | None:
    """Search (t, N) near the anchor's k-th resonance for a feasible gate.

    The unit time is scanned on a fixed grid across the constraint window,
    then refined around the best grid point.  Feasibility: at least two
    targets above target_tangle_min, every bystander below
    unwanted_tangle_max, bystander mean below unwanted_tangle_mean_max, and
    gate time within max_gate_time.  Among the feasible (t, N) points, the
    target set feasible at the largest number of unit times wins (it is the
    most robust to timing errors); within that set, the point with the
    highest mean target tangle is kept, with shorter gate time and lower
    bystander mean as tie-breakers.  The refined unit time is kept only if
    it is feasible with the same targets and its mean target tangle is no
    lower than at the grid point.
    """
    if not register:
        raise ValueError("empty register")
    anchor = register[anchor_index]
    seq0 = build_sequence(sequence_kind, resonance_time(anchor, electron, k))
    spacings = seq0.spacings
    t0 = seq0.unit_time
    spins = _spin_arrays(register)

    steps = int(round(constraints.time_window / _TIME_STEP))
    times = t0 + np.arange(-steps, steps + 1) * _TIME_STEP
    best = _scan_unit_times(
        unit_quaternions(*spins, electron, spacings, times[:, None]),
        times, constraints)
    if best is None:
        return None
    t_best, n_best, target_idx = best

    # local refinement of the unit time at fixed N and fixed target set
    def tangles_at(t: float, idx=slice(None)) -> np.ndarray:
        quats = unit_quaternions(*spins[:, idx], electron, spacings, t)
        return _tangle_block(quats, np.array([n_best]))[:, 0]

    def objective(t: float) -> float:
        return -float(np.mean(tangles_at(t, target_idx)))

    t_ref = _golden_section(objective, t_best - _TIME_STEP, t_best + _TIME_STEP,
                            xatol=1e-13)
    tangles = tangles_at(t_ref)
    ok, _, _, is_target = _feasibility(tangles[:, None], constraints)
    if not (ok[0] and list(np.nonzero(is_target[:, 0])[0]) == target_idx
            and n_best * t_ref <= constraints.max_gate_time
            and objective(t_ref) <= objective(t_best)):
        t_ref = t_best

    return evaluate_design(register, electron, t_ref, n_best, k,
                           anchor.label, target_idx, sequence_kind)


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
    in the target's nearly-maximal set, limited by the pulse budget.
    Returns (k, N, scaled bystander tangle); the target's G1 stays below the
    maximal-tangle threshold at the returned point.
    """
    best = None
    for k in k_range:
        t = resonance_time(target, electron, k)
        seq = build_sequence(sequence_kind, t)
        n_max = max(1, pulse_budget // seq.pulse_count)
        rot_t = unit_propagator(seq, target, electron)
        good_n = optimal_iterations(rot_t, N_max=n_max)
        if not good_n:
            continue
        rot_u = unit_propagator(seq, unwanted, electron)
        g1_u = g1_over_iterations(rot_u, max(good_n))
        for n in good_n:
            tangle = 1.0 - float(g1_u[n - 1])
            if best is None or tangle < best[2]:
                best = (k, n, tangle)
    if best is None:
        raise ValueError("target has no entangling iteration count in range")
    return best


# ---------------------------------------------------------------------------
# random ensembles


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
    distinctness_khz or more.  Candidates violating this against any
    accepted spin are rejected; generation fails once a spin exhausts its
    attempt budget (the range cannot host the requested density).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    d = distinctness_khz
    # spatial hash on a d-sized grid: conflicts only involve neighbor cells
    cells: dict[tuple[int, int], list[tuple[float, float]]] = {}

    def conflicts(a: float, b: float) -> bool:
        ci, cj = int(a // d), int(b // d)
        for i in range(ci - 1, ci + 2):
            for j in range(cj - 1, cj + 2):
                for (pa, pb) in cells.get((i, j), ()):
                    if abs(pa - a) < d and abs(pb - b) < d:
                        return True
        return False

    spins = []
    for idx in range(count):
        for attempt in range(max_attempts_per_spin):
            a = rng.uniform(*A_range_khz)
            b = rng.uniform(*B_range_khz)
            if d > 0 and conflicts(a, b):
                continue
            cells.setdefault((int(a // d), int(b // d)) if d > 0 else (0, 0),
                             []).append((a, b))
            spins.append(NuclearSpinParams.from_khz(f"R{idx + 1}", a, b,
                                                    larmor_khz))
            break
        else:
            raise RuntimeError(
                f"could not place spin {idx + 1} of {count} after "
                f"{max_attempts_per_spin} attempts; range too dense for "
                f"distinctness {distinctness_khz} kHz")
    return spins


# ---------------------------------------------------------------------------
# hyperfine -> lattice position


def estimate_position(A: float, B: float) -> tuple[float, float]:
    """Invert the point-dipole hyperfine model to (R in Angstrom, theta in deg).

    The couplings (angular rad/s) decompose as A = A0 (3 cos^2 theta - 1),
    B = 3 A0 cos theta sin theta with A0 = mu0 gamma_n gamma_e hbar/(4 pi R^3).
    Eliminating A0 gives sin(2 theta - atan2(B, A)) = B / (3 |(A, B)|), solved
    in closed form; B >= 0 and (A, B) != (0, 0) required.
    """
    if B < 0 or (A == 0 and B == 0):
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
    """Forward point-dipole model: (R, theta) -> (A, B) in angular rad/s."""
    theta = math.radians(theta_deg)
    r = r_angstrom * constants.ANGSTROM
    a0 = (constants.MU0 * constants.GAMMA_E * constants.GAMMA_C13
          * constants.HBAR / (4.0 * math.pi * r ** 3))
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
    if electron.s0 == 0:
        s = electron.s1
    elif electron.s1 == 0:
        s = electron.s0
    else:
        raise ValueError("need one electron branch with projection 0")
    t = 8.0 * kappa_time * math.pi / omega_L
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
    Returns one record per (bin, bath size) with the ensemble-mean error.
    """
    k = RegisterPartition(targets, ()).K
    rng = np.random.Generator(np.random.Philox(seed))
    records = []
    for lo, hi in tangle_bins:
        overlaps = _overlaps([rot for tangle, rot in unwanted_pool
                              if lo <= tangle < hi])
        for size in bath_sizes:
            eff = min(size, len(overlaps))
            if eff == 0:
                continue
            errors = []
            for _ in range(n_ensembles):
                order = rng.permutation(len(overlaps))[:eff]
                cross = np.prod(overlaps[order]).real
                errors.append(1.0 - _subspace_fidelity(k, 2.0 + 2.0 * cross))
            records.append({"bin": (lo, hi), "bath_size": eff,
                            "requested_size": size,
                            "mean_error": float(np.mean(errors)),
                            "n_ensembles": n_ensembles})
    return records
