"""bath-ensemble: the paper's study of gate error against bath size.

Op: draw a seeded random pool of POOL spins, propagate every spin at the
target gate's (t, N) through the scalar ``unit_propagator``/``iterate``
path, bin the spins by ``nuclear_one_tangle``, invert each spin's position
with ``estimate_position`` and run ``gate_error_vs_bath``.  The target gate
is nv27 C4 at its k=3 CPMG resonance with N=82.  The scalar spin_model path
dominates; the designer's scan is never called.

Checks, per op, on spins picked by the op's seed:
  * unit propagators against ``oracle.segment_exponential_rotation`` and
    iterated ones against its matrix power (PROP_TOL, PROP_N_TOL);
  * positions against the forward point-dipole model (POS_RTOL);
  * the factorised fidelity of a SAMPLE_UNWANTED-spin partition, and every
    record whose bin was used whole, against
    ``fidelity.kraus_sum_by_enumeration`` (FID_TOL);
  * record sizes against the bin counts.
"""
from __future__ import annotations

import random

import numpy as np

import spintangle.datasets as datasets
import spintangle.designer as designer
import spintangle.entanglement as entanglement
import spintangle.fidelity as fidelity
import spintangle.spin_model as spin_model

from common import InProcess, close_enough

TARGET = ("nv27", "C4", 3, 82)  # register, label, k, N
# an op this large averages over short swings in CPU speed (shared or
# frequency-scaled cores), so the median op latency does not jump between
# a fast and a slow mode
POOL = 800
# a pool this size packs well below the sampler's density limit
A_RANGE_KHZ = (-100.0, 200.0)
B_RANGE_KHZ = (5.0, 200.0)
DISTINCT_KHZ = 2.0
# the last bin usually holds fewer than the largest bath: it is used whole
BINS = ((0.0, 0.01), (0.01, 0.1), (0.1, 0.99), (0.99, 1.01))
BATH_SIZES = (1, 2, 4, 8, 16)
N_ENSEMBLES = 10
N_OP_SEEDS = 4096

CHECK_SPINS = 3
SAMPLE_UNWANTED = 12
PROP_TOL = 1e-9
PROP_N_TOL = 1e-8
POS_RTOL = 1e-9
FID_TOL = 1e-12


class Workload(InProcess):
    def __init__(self, seed: int, workdir=None):
        name, label, k, n = TARGET
        reg = datasets.load_register(name)
        self.electron = reg.electron()
        self.larmor_khz = reg.larmor_khz
        spin = reg.by_label(label)
        self.seq = spin_model.build_sequence(
            "cpmg", spin_model.resonance_time(spin, self.electron, k))
        self.n = n
        self.target = spin_model.iterate(
            spin_model.unit_propagator(self.seq, spin, self.electron), n)
        rng = random.Random(seed)
        self.ops = [rng.randrange(2 ** 31) for _ in range(N_OP_SEEDS)]

    def run(self, op_seed):
        el, seq, n = self.electron, self.seq, self.n
        pool = designer.generate_random_ensemble(
            POOL, A_range_khz=A_RANGE_KHZ, B_range_khz=B_RANGE_KHZ,
            distinctness_khz=DISTINCT_KHZ, seed=op_seed,
            larmor_khz=self.larmor_khz)
        units = [spin_model.unit_propagator(seq, s, el) for s in pool]
        rots = [spin_model.iterate(u, n) for u in units]
        tangles = [entanglement.nuclear_one_tangle(u, n, scaled=True)
                   for u in units]
        positions = [designer.estimate_position(s.A, s.B) for s in pool]
        records = designer.gate_error_vs_bath(
            [self.target], list(zip(tangles, rots)), list(BINS),
            list(BATH_SIZES), N_ENSEMBLES, seed=op_seed)
        return pool, units, rots, tangles, positions, records

    def _error_by_enumeration(self, unwanted) -> float:
        part = fidelity.RegisterPartition((self.target,), tuple(unwanted))
        total = fidelity.kraus_sum_by_enumeration(part)
        k = part.K
        return 1.0 - (1.0 + 2.0 ** (k - 1) * total) / (2.0 ** (k + 1) + 1.0)

    def check(self, op_seed, out):
        pool, units, rots, tangles, positions, records = out
        if len(pool) != POOL:
            return f"pool holds {len(pool)} spins, not {POOL}"
        import spintangle.oracle as oracle  # test-only reference, never timed

        rng = random.Random(op_seed)
        for i in rng.sample(range(POOL), CHECK_SPINS):
            spin = pool[i]
            for branch, (r_unit, r_n) in enumerate(
                    ((units[i].r0, rots[i].r0), (units[i].r1, rots[i].r1))):
                ref = oracle.segment_exponential_rotation(
                    spin, self.electron, self.seq, branch)
                if np.max(np.abs(r_unit.matrix() - ref)) > PROP_TOL:
                    return f"{spin.label} branch {branch}: unit propagator off oracle"
                ref_n = np.linalg.matrix_power(ref, self.n)
                if np.max(np.abs(r_n.matrix() - ref_n)) > PROP_N_TOL:
                    return f"{spin.label} branch {branch}: iterated propagator off oracle"
            a, b = designer.position_to_hyperfine(*positions[i])
            if not (close_enough(a, spin.A, POS_RTOL, 0.0)
                    and close_enough(b, spin.B, POS_RTOL, 0.0)):
                return f"{spin.label}: position does not map back to (A, B)"

        sample = [rots[i] for i in rng.sample(range(POOL), SAMPLE_UNWANTED)]
        part = fidelity.RegisterPartition((self.target,), tuple(sample))
        got = 1.0 - fidelity.target_subspace_fidelity(part)
        if not close_enough(got, self._error_by_enumeration(sample), 0.0, FID_TOL):
            return "factorised fidelity differs from Kraus enumeration"

        members = {b: [r for t, r in zip(tangles, rots) if b[0] <= t < b[1]]
                   for b in BINS}
        expected = [(b, min(size, len(members[b])))
                    for b in BINS for size in BATH_SIZES if members[b]]
        if [(tuple(r["bin"]), r["bath_size"]) for r in records] != expected:
            return "records do not match the bin counts"
        for r in records:
            whole = members[tuple(r["bin"])]
            if not 0.0 <= r["mean_error"] <= 1.0:
                return f"mean error {r['mean_error']!r} outside [0, 1]"
            if r["bath_size"] == len(whole) <= 20:
                if not close_enough(r["mean_error"],
                                    self._error_by_enumeration(whole), 0.0, FID_TOL):
                    return f"bin {r['bin']} used whole: error differs from enumeration"
        return None
