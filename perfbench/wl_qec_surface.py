"""qec-surface: bit-flip-code error surfaces over the electron input state.

Op: one ``error_surface`` on a GRID x GRID (gamma, delta) grid, for each
scheme, each error kind and each gate set: the ideal gates and the gates
designed from the fixed nv27 anchors in DESIGNS (CPMG).  The designs are
built in the set-up, as the CLI builds them, so spin_model and designer
show up in setup_s only; the ops are all qec.  The seed picks only the op
order and the checked grid points, so every seed does the same work.

Checks: ideal-gate surfaces are zero within IDEAL_TOL; on designed-gate
surfaces, CHECK_POINTS seeded grid points equal a single
``run_bitflip_code`` run within POINT_TOL.
"""
from __future__ import annotations

import math
import random

import numpy as np

import spintangle.datasets as datasets
import spintangle.designer as designer
import spintangle.qec as qec
import spintangle.spin_model as spin_model

from common import InProcess

GRID = 32  # an op this large averages over short swings in CPU speed
# (anchor, k): ROADMAP's C23 k=3 row, the paper's C4 k=3 gate and C13 k=4
DESIGNS = (("C4", 3), ("C23", 3), ("C13", 4))
SCHEMES = ("sequential", "multispin")
CHECK_POINTS = 4
IDEAL_TOL = 1e-12
POINT_TOL = 1e-12


def designed_gates(reg, electron, label: str, k: int) -> tuple:
    """The two encode gates the CLI's ``qec`` builds for one anchor."""
    design = designer.optimize_register_gate(
        reg.spins, electron, designer.DesignConstraints(),
        reg.labels.index(label), k)
    if design is None:
        raise RuntimeError(f"no design for nv27 {label} k={k}")
    seq = spin_model.build_sequence("cpmg", design.unit_time)
    return tuple(spin_model.iterate(
        spin_model.unit_propagator(seq, reg.by_label(l), electron),
        design.iterations) for l in design.target_labels[:2])


class Workload(InProcess):
    cycle = (len(DESIGNS) + 1) * len(SCHEMES) * len(qec.ERROR_KINDS)

    def __init__(self, seed: int, workdir=None):
        rng = random.Random(seed)
        reg = datasets.load_register("nv27")
        electron = reg.electron()
        self.gate_sets = {"ideal": None}
        for label, k in DESIGNS:
            self.gate_sets[f"{label}/k{k}"] = designed_gates(reg, electron, label, k)
        self.gammas = np.linspace(0.0, math.pi, GRID)
        self.deltas = np.linspace(0.0, 2.0 * math.pi, GRID)
        self.ops = [(gates, scheme, error) for gates in self.gate_sets
                    for scheme in SCHEMES for error in qec.ERROR_KINDS]
        rng.shuffle(self.ops)
        self._points = random.Random(seed + 1)

    def _scenario(self, op, **kw):
        gates, scheme, error = op
        return qec.QecScenario(scheme=scheme, encode_gates=self.gate_sets[gates],
                               error=error, **kw)

    def run(self, op):
        return qec.error_surface(self._scenario(op), self.gammas, self.deltas)

    def check(self, op, surf):
        if surf.shape != (GRID, GRID) or not np.all(np.isfinite(surf)):
            return f"surface shape {surf.shape} or non-finite values"
        if op[0] == "ideal":
            worst = float(np.max(np.abs(surf)))
            return None if worst <= IDEAL_TOL else f"ideal surface reaches {worst!r}"
        for _ in range(CHECK_POINTS):
            i, j = self._points.randrange(GRID), self._points.randrange(GRID)
            out = qec.run_bitflip_code(self._scenario(
                op, gamma=float(self.gammas[i]), delta=float(self.deltas[j])))
            want = 1.0 - out.recovery_probability
            if abs(surf[i, j] - want) > POINT_TOL:
                return f"point ({i}, {j}): {surf[i, j]!r} vs single run {want!r}"
        return None
