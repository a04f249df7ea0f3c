"""Every integer input is read by spin_model._integer: one message grammar,
the parameter named first, checked before any random draw or kernel call,
in the int64 range, and a numpy integer giving the result of the Python int."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from spintangle import cli, designer, entanglement, qec, spin_model
from spintangle.datasets import load_register
from spintangle.spin_model import ConditionalRotation

from .conftest import random_rotation_pair

NOT_INTEGERS = [math.nan, math.inf, 2.5, 3.0, "3", None]
# past the float range, and far past the int64 range every integer is read in
HUGE = 10 ** 400
INT64 = 2 ** 63


def _rot():
    return random_rotation_pair(np.random.default_rng(5))


def _nv27():
    reg = load_register("nv27")
    return reg, reg.electron()


def _invariant(f):
    def make():
        rot = _rot()
        return lambda N: f(rot, N)
    return make


def _iterate():
    rot = _rot()
    return lambda N: spin_model.iterate(rot, N)._rows


def _resonance_time():
    reg, el = _nv27()
    return lambda k: spin_model.resonance_time(reg.by_label("C4"), el, k)


def _electron_one_tangle():
    rots = [_rot(), random_rotation_pair(np.random.default_rng(6))]
    return lambda N: entanglement.electron_one_tangle(rots, N)


def _evaluate_design(name):
    def make():
        reg, el = _nv27()
        t = spin_model.resonance_time(reg.by_label("C4"), el, 3)
        return lambda v: designer.evaluate_design(
            reg.spins, el, t, **{"N": 82, "k": 3, name: v}, anchor_label="C4",
            target_indices=[3, 4])
    return make


def _optimize_register_gate():
    reg, el = _nv27()
    cons = designer.DesignConstraints()
    return lambda i: designer.optimize_register_gate(reg.spins, el, cons, i, 3)


def _minimize_unwanted_tangle():
    reg, el = _nv27()
    return lambda budget: designer.minimize_unwanted_tangle(
        reg.by_label("C4"), reg.by_label("C5"), el, pulse_budget=budget)


def _ensemble(name):
    def make():
        return lambda v: designer.generate_random_ensemble(
            **{"count": 5, "seed": 3, "max_attempts_per_spin": 50, name: v})
    return make


def _trivial_circle(name):
    def make():
        el = spin_model.ElectronQubitSpec(0.0, -1.0)
        return lambda v: designer.spins_on_trivial_circle(
            el, 2.0 * math.pi * 432e3, **{"kappa_time": 1, "kappa_circle": 1, "count": 3,
                                          name: v})
    return make


def _bath(key, wrap=lambda v: v):
    def make():
        rng = np.random.default_rng(10)
        pool = [(float(tangle), random_rotation_pair(rng))
                for tangle in rng.uniform(0.0, 0.5, 6)]
        targets = [random_rotation_pair(rng)]
        return lambda v: designer.gate_error_vs_bath(
            targets, pool, [(0.0, 1.0)], **{"bath_sizes": [2, 4], "n_ensembles": 3,
                                            "seed": 0, key: wrap(v)})
    return make


def _trajectories():
    scenario = qec.QecScenario(encode_gates=(_rot(), _rot()))
    return lambda samples: {
        nucleus: {branch: path.tobytes() for branch, path in paths.items()}
        for nucleus, paths in qec.nuclear_trajectories(scenario, samples).items()}


# entry: (parameter name, least, below, a valid value, maker); the maker
# builds the inputs, and the call it returns runs the entry on one value
ENTRIES = {
    "iterate": ("N", 1, None, 82, _iterate),
    "resonance_time": ("k", 1, None, 3, _resonance_time),
    "makhlin_g1": ("N", 0, None, 82, _invariant(entanglement.makhlin_g1)),
    "makhlin_g2": ("N", 0, None, 82, _invariant(entanglement.makhlin_g2)),
    "nuclear_one_tangle": ("N", 0, None, 82, _invariant(entanglement.nuclear_one_tangle)),
    "entangling_power": ("N", 0, None, 82, _invariant(entanglement.entangling_power)),
    "electron_one_tangle": ("N", 0, None, 82, _electron_one_tangle),
    "optimal_iterations": ("N_max", None, designer.MAX_N_MAX + 1, 300,
                           _invariant(entanglement.optimal_iterations)),
    "DesignConstraints": ("N_max", 1, designer.MAX_N_MAX + 1, 300,
                          lambda: lambda v: designer.DesignConstraints(N_max=v)),
    "evaluate_design": ("N", 1, None, 82, _evaluate_design("N")),
    "evaluate_design-k": ("k", 1, None, 3, _evaluate_design("k")),
    "optimize_register_gate": ("anchor_index", 0, 27, 22, _optimize_register_gate),
    # CPMG has 2 pulses: a budget below 2 holds no unit, and one of
    # 2 (MAX_N_MAX + 1) would cap N above MAX_N_MAX
    "minimize_unwanted_tangle": ("pulse_budget", 2, 2 * (designer.MAX_N_MAX + 1), 300,
                                 _minimize_unwanted_tangle),
    "generate_random_ensemble-count": ("count", 0, None, 5, _ensemble("count")),
    "generate_random_ensemble-attempts": ("max_attempts_per_spin", 1, None, 50,
                                          _ensemble("max_attempts_per_spin")),
    "generate_random_ensemble-seed": ("seed", 0, None, 3, _ensemble("seed")),
    "spins_on_trivial_circle": ("kappa_time", 1, None, 2, _trivial_circle("kappa_time")),
    "spins_on_trivial_circle-kappa_circle": ("kappa_circle", 1, None, 1,
                                             _trivial_circle("kappa_circle")),
    "spins_on_trivial_circle-count": ("count", 0, None, 3, _trivial_circle("count")),
    "gate_error_vs_bath-ensembles": ("n_ensembles", 1, None, 3, _bath("n_ensembles")),
    "gate_error_vs_bath-size": ("each of bath_sizes", 1, None, 4,
                                _bath("bath_sizes", lambda v: [2, v])),
    "gate_error_vs_bath-seed": ("seed", 0, None, 0, _bath("seed")),
    "nuclear_trajectories": ("samples", 1, None, 8, _trajectories),
}


def _bad_values(least, below):
    """(value, expected message after the name) of every value the entry rejects."""
    out = [(v, f"must be an integer, got {v!r}") for v in NOT_INTEGERS]
    lo, hi = -INT64 if least is None else least, INT64 if below is None else below
    if least is not None:
        out.append((least - 1, f"must be >= {least}, got {least - 1}" if below is None
                    else f"must be in [{lo}, {hi}), got {least - 1}"))
    return out + [(v, f"must be in [{lo}, {hi}), got {v}")
                  for v in ([] if below is None else [below]) + [HUGE]]


CASES = [pytest.param(entry, value, message,
                      id=f"{entry}-{'10**400' if value == HUGE else repr(value)}")
         for entry, (_, least, below, _, _) in ENTRIES.items()
         for value, message in _bad_values(least, below)]


def _cut_off_work(monkeypatch):
    """Every random draw and kernel an entry reaches fails."""
    def fail(*args, **kwargs):
        raise AssertionError("reached a draw or a kernel")

    for owner, name in [(np.random, "Philox"), (spin_model, "_unit_rows"),
                        (spin_model, "branch_frequency"), (ConditionalRotation, "half_angles"),
                        (designer, "_unit_rows"),
                        (entanglement, "phase_rates"), (entanglement, "g1_over_iterations"),
                        (designer, "unit_quaternions"), (designer, "resonance_time"),
                        (designer, "branch_overlaps"), (designer, "NuclearSpinParams"),
                        (qec, "power"), (qec, "_nuclear_gates")]:
        monkeypatch.setattr(owner, name, fail)


@pytest.mark.parametrize("entry, value, message", CASES)
def test_bad_integer_named_before_any_work(entry, value, message, monkeypatch):
    name, _, _, _, make = ENTRIES[entry]
    call = make()  # the inputs are built before the work is cut off
    _cut_off_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
        call(value)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_integer_gives_the_int_result(entry):
    _, _, _, valid, make = ENTRIES[entry]
    call = make()
    assert call(np.int64(valid)) == call(valid)


@pytest.mark.parametrize("argv, message", [
    (["design", "--register", "nv27", "--anchor", "C5", "--k", "0"], "--k must be >= 1, got 0"),
    (["sweep", "--register", "nv27", "--spin", "C5", "--k", "-2"], "--k must be >= 1, got -2"),
    (["resonances", "--register", "nv27", "--k-min", "0"], "--k-min must be >= 1, got 0"),
    (["sweep", "--register", "nv27", "--spin", "C5", "--n-min", "-1"],
     "--n-min must be >= 0, got -1"),
], ids=["design-k", "sweep-k", "k-min", "n-min"])
def test_cli_floors_use_the_grammar(argv, message, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("entry", ["optimal_iterations", "minimize_unwanted_tangle"])
def test_iteration_cap_named_before_any_allocation(entry, monkeypatch):
    # 10**10 counts would be an 80 GB np.arange of int64
    name, least, _, _, make = ENTRIES[entry]
    call = make()
    asked = []

    def spy(*args, **kwargs):
        asked.append(args)
        raise AssertionError(f"np.arange{args} was asked")

    monkeypatch.setattr(entanglement.np, "arange", spy)
    lo = -INT64 if least is None else least
    with pytest.raises(ValueError, match=f"^{name} must be in \\[{lo}, "):
        call(10 ** 10)
    assert asked == []
