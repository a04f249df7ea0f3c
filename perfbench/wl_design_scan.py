"""design-scan: one constrained gate search per op, over every bundled anchor.

Every anchor of every bundled register is searched once per pass.  Each
``rand-*`` register uses the sequence and k in its name; ``nv27`` uses CPMG
with k from 1 to 5 spread evenly over its anchors by the seed, so the mix
of N ranges is the same for every seed.  The pass is interleaved so that
every prefix holds each register in proportion to its size: a run that
stops part-way through a pass sees the same mix as a full pass.

Check: each returned design is re-derived through the scalar path
(``unit_propagator`` + ``nuclear_one_tangle``), independent of the
designer's vectorised kernel; tangles must agree within TANGLE_TOL and the
design constraints must hold on the re-derived tangles.  A search that
returns no design is a valid answer and is counted by designer.found_frac.
"""
from __future__ import annotations

import random

import spintangle.datasets as datasets
import spintangle.designer as designer
import spintangle.entanglement as entanglement
import spintangle.spin_model as spin_model

from common import InProcess

TANGLE_TOL = 1e-9
NV27_KS = (1, 2, 3, 4, 5)


class Workload(InProcess):
    def __init__(self, seed: int, workdir=None):
        rng = random.Random(seed)
        self.constraints = designer.DesignConstraints()
        self.registers = {}
        keyed = []
        for name in datasets.BUNDLED:
            reg = datasets.load_register(name)
            self.registers[name] = (reg, reg.electron())
            n = len(reg.spins)
            if name == "nv27":
                kind = "cpmg"
                ks = [NV27_KS[i % len(NV27_KS)] for i in range(n)]
                rng.shuffle(ks)
            else:
                _, kind, k = name.split("-")
                ks = [int(k[1:])] * n
            order = list(range(n))
            rng.shuffle(order)
            for j, idx in enumerate(order):
                keyed.append(((j + rng.random()) / n, name, idx, ks[idx], kind))
        keyed.sort()
        self.ops = [entry[1:] for entry in keyed]

    def run(self, op):
        name, idx, k, kind = op
        reg, electron = self.registers[name]
        return designer.optimize_register_gate(
            reg.spins, electron, self.constraints, idx, k, sequence_kind=kind)

    def check(self, op, design):
        if design is None:
            return None
        name, idx, k, kind = op
        reg, electron = self.registers[name]
        cons = self.constraints
        if design.anchor_label != reg.spins[idx].label or design.k != k:
            return "design is not for the requested anchor and k"
        seq = spin_model.build_sequence(kind, design.unit_time)
        n = design.iterations
        scalar = {s.label: entanglement.nuclear_one_tangle(
            spin_model.unit_propagator(seq, s, electron), n, scaled=True)
            for s in reg.spins}
        targets = dict(zip(design.target_labels, design.target_tangles))
        if set(targets) | set(design.unwanted_tangles) != set(scalar) \
                or set(targets) & set(design.unwanted_tangles):
            return "targets and bystanders do not partition the register"
        if len(targets) < 2:
            return "fewer than two targets"
        for label, value in list(targets.items()) + list(design.unwanted_tangles.items()):
            if abs(scalar[label] - value) > TANGLE_TOL:
                return f"{label}: tangle {value!r} vs scalar path {scalar[label]!r}"
        if min(scalar[l] for l in targets) <= cons.target_tangle_min - TANGLE_TOL:
            return "a target is below target_tangle_min"
        unwanted = [scalar[l] for l in design.unwanted_tangles]
        if unwanted and max(unwanted) >= cons.unwanted_tangle_max + TANGLE_TOL:
            return "a bystander exceeds unwanted_tangle_max"
        if unwanted and sum(unwanted) / len(unwanted) \
                >= cons.unwanted_tangle_mean_max + TANGLE_TOL:
            return "bystander mean exceeds unwanted_tangle_mean_max"
        if abs(design.gate_time - n * design.unit_time) > 1e-15 \
                or design.gate_time > cons.max_gate_time * (1 + 1e-12):
            return "gate time is not N*t within max_gate_time"
        if not 0.0 <= design.gate_error <= 1.0:
            return f"gate error {design.gate_error!r} outside [0, 1]"
        return None
