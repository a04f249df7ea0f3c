"""Every real-valued input is read by spin_model._real: one message grammar,
the parameter named first, checked before any random draw or kernel call, and
a numpy float or an int giving the result of the Python float."""
from __future__ import annotations

import argparse
import inspect
import math
import re

import numpy as np
import pytest

from spintangle import cli, designer, entanglement, fidelity, qec, spin_model
from spintangle.datasets import load_register, parse_register

from .conftest import random_rotation_pair
from .test_integer_inputs import ENTRIES as INTEGER_ENTRIES
from .test_integer_inputs import _cut_off_work

NOT_REALS = ["1.0", None, 1j]
NOT_FINITE = [math.nan, math.inf, -math.inf]


def _nv27():
    reg = load_register("nv27")
    return reg, reg.electron()


def _keyword(f):
    """A maker whose call passes its value as the keyword of the entry's name."""
    def make(name):
        return lambda v: f(**{name: v})
    return make


def _spin(name):
    return lambda v: spin_model.NuclearSpinParams(**{"label": "x", "A": 2.0, "B": 1.0,
                                                     "omega_L": 3.0, name: v})


def _from_khz(name):
    return lambda v: spin_model.NuclearSpinParams.from_khz(
        **{"label": "x", "a_khz": 2.0, "b_khz": 1.0, "larmor_khz": 3.0, name: v})


def _axis_angles(name):
    x, z = (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)
    return lambda v: spin_model.ConditionalRotation.from_axis_angles(
        **{"n0": x, "phi0": 1.0, "n1": z, "phi1": 2.0, name: v})._rows


def _qec(name):
    return lambda v: qec.run_bitflip_code(
        qec.QecScenario(error="electron", **{name: v})).recovery_probability


def _ensemble(name):
    return lambda v: designer.generate_random_ensemble(
        **{"count": 5, "seed": 3, "max_attempts_per_spin": 50, name: v})


def _position(name):
    return lambda v: designer.estimate_position(**{"A": 1e5, "B": 5e4, name: v})


def _hyperfine(name):
    return lambda v: designer.position_to_hyperfine(
        **{"r_angstrom": 5.0, "theta_deg": 30.0, name: v})


def _trivial_circle(name):
    el = spin_model.ElectronQubitSpec(0.0, -1.0)
    return lambda v: designer.spins_on_trivial_circle(
        el, **{"omega_L": 2.0 * math.pi * 432e3, "kappa_time": 1, "kappa_circle": 1,
               "count": 3, name: v})


def _optimal_iterations(name):
    rot = random_rotation_pair(np.random.default_rng(5))
    return lambda v: entanglement.optimal_iterations(rot, 300, v)


def _evaluate_design(name):
    reg, el = _nv27()
    return lambda v: designer.evaluate_design(reg.spins, el, v, 82, 3, "C4", [3, 4])


def _bath(name):
    rng = np.random.default_rng(10)
    pool = [(float(tangle), random_rotation_pair(rng)) for tangle in rng.uniform(0.0, 0.5, 6)]
    targets = [random_rotation_pair(rng)]
    # the lower end of the second bin; a NaN upper end is in test_designer
    return lambda v: designer.gate_error_vs_bath(targets, pool, [(0.0, 1.0), (v, 1.5)],
                                                 [2, 4], 3, 0)


def _sweep(name):
    reg, el = _nv27()

    def call(v):
        args = argparse.Namespace(metrics="g1", n_min=1, n_max=5, spin="C5", t_us=v,
                                  k=1, sequence="cpmg")
        return cli.cmd_sweep(args, reg, el)
    return call


def _register(name):
    text = "# s0=0\n# s1=-1\nlabel,A_kHz,B_kHz\nC1,10,20\n"
    return lambda v: parse_register(text, source="reg.csv", larmor_khz=v)


MAX_WINDOW = designer.MAX_TIME_WINDOW

# entry: (name the message starts with, low, high, closed, a valid value, an
# int, maker); the maker takes the parameter name and returns the call that
# runs the entry on one value.  The int is compared, accepted or rejected,
# with the float of the same value.
ENTRIES = {
    "NuclearSpinParams-A": ("A", None, None, "()", -2.5, -2, _spin),
    "NuclearSpinParams-B": ("B", 0, None, "[)", 1.5, 0, _spin),
    "NuclearSpinParams-omega_L": ("omega_L", 0, None, "()", 3.5, 3, _spin),
    "from_khz-a_khz": ("a_khz", None, None, "()", -2.5, -2, _from_khz),
    "from_khz-b_khz": ("b_khz", 0, None, "[)", 1.5, 0, _from_khz),
    "from_khz-larmor_khz": ("larmor_khz", 0, None, "()", 432.5, 314, _from_khz),
    "ElectronQubitSpec-s0": ("s0", None, None, "()", 0.5, 0,
                             lambda n: lambda v: spin_model.ElectronQubitSpec(v, -1.0)),
    "ElectronQubitSpec-s1": ("s1", None, None, "()", -0.5, -1,
                             lambda n: lambda v: spin_model.ElectronQubitSpec(0.0, v)),
    "PulseSequence-unit_time": ("unit_time", 0, None, "()", 2.5e-6, 1,
                                lambda n: lambda v: spin_model.PulseSequence(
                                    (0.25, 0.5, 0.25), v)),
    "from_axis_angles-phi0": ("phi0", None, None, "()", 1.5, 3, _axis_angles),
    "from_axis_angles-phi1": ("phi1", None, None, "()", -1.5, -3, _axis_angles),
    "DesignConstraints-max_gate_time": ("max_gate_time", 0, None, "()", 1e-3, 1,
                                        _keyword(designer.DesignConstraints)),
    "DesignConstraints-time_window": ("time_window", 0, MAX_WINDOW, "(]", 2e-8, 1,
                                      _keyword(designer.DesignConstraints)),
    "DesignConstraints-target_tangle_min": ("target_tangle_min", 0, 1, "(]", 0.5, 1,
                                            _keyword(designer.DesignConstraints)),
    "DesignConstraints-unwanted_tangle_max": ("unwanted_tangle_max", 0, 1, "[)", 0.2, 0,
                                              _keyword(designer.DesignConstraints)),
    "DesignConstraints-unwanted_tangle_mean_max": (
        "unwanted_tangle_mean_max", 0, 1, "[)", 0.05, 0,
        _keyword(designer.DesignConstraints)),
    "QecScenario-gamma": ("gamma", None, None, "()", 0.7, 2, _qec),
    "QecScenario-delta": ("delta", None, None, "()", -0.3, 4, _qec),
    "generate_random_ensemble-distinctness_khz": ("distinctness_khz", 0, None, "[)", 2.5, 25,
                                                  _ensemble),
    "generate_random_ensemble-larmor_khz": ("larmor_khz", 0, None, "()", 432.5, 314,
                                            _ensemble),
    "estimate_position-A": ("A", None, None, "()", -3e4, 100000, _position),
    "estimate_position-B": ("B", 0, None, "[)", 2.5e4, 0, _position),
    "position_to_hyperfine-r_angstrom": ("r_angstrom", 0, None, "()", 4.5, 7, _hyperfine),
    "position_to_hyperfine-theta_deg": ("theta_deg", None, None, "()", 54.5, 30, _hyperfine),
    "spins_on_trivial_circle-omega_L": ("omega_L", 0, None, "()", 2.5e6, 2714336,
                                        _trivial_circle),
    "spins_on_trivial_circle-hf_cap": ("hf_cap", 0, None, "()", 1.5e6, 2000000,
                                       _trivial_circle),
    "optimal_iterations-threshold": ("threshold", 0, 1, "(]", 0.05, 1, _optimal_iterations),
    "evaluate_design-t": ("t", 0, None, "()", 2.5e-6, 1, _evaluate_design),
    "gate_error_vs_bath-tangle_bins": ("tangle_bins", None, None, "()", 0.25, 1, _bath),
    "cmd_sweep-t_us": ("--t-us", 0, None, "()", 7.3, 7, _sweep),
    "parse_register-larmor_khz": ("reg.csv: larmor_kHz from the caller: larmor_kHz",
                                  0, None, "()", 432.5, 432, _register),
}


def _bad_values(low, high, closed):
    """(value, expected message after the name) of every value the entry rejects."""
    out = [(v, f"must be a real number, got {v!r}") for v in NOT_REALS]
    out += [(v, f"must be finite, got {v}") for v in NOT_FINITE]
    ends = (f"in {closed[0]}{low}, {high}{closed[1]}" if high is not None
            else f"{'>=' if closed[0] == '[' else '>'} {low}")
    # an open end is rejected itself, a closed one from the float past it
    if low is not None:
        v = float(low) if closed[0] == "(" else math.nextafter(low, -math.inf)
        out.append((v, f"must be {ends}, got {v}"))
    if high is not None:
        v = float(high) if closed[1] == ")" else math.nextafter(high, math.inf)
        out.append((v, f"must be {ends}, got {v}"))
    return out


# None asks for the default: the k-th resonance, the register's metadata line
NONE_IS_DEFAULT = {"cmd_sweep-t_us", "parse_register-larmor_khz"}

# values inside the interval whose result leaves the float range
PAST_THE_FLOAT_RANGE = {
    "position_to_hyperfine-r_angstrom": [
        (v, f"must have a cube in m^3 within the float range, got {v}")
        for v in (1e-200, 1e200)],
    "spins_on_trivial_circle-omega_L": [
        (1e-320, "must keep the unit time 8 kappa_time pi / omega_L finite, got 1e-320")],
}

CASES = [pytest.param(entry, value, message, id=f"{entry}-{value!r}")
         for entry, (_, low, high, closed, _, _, _) in ENTRIES.items()
         for value, message in (_bad_values(low, high, closed)
                                + PAST_THE_FLOAT_RANGE.get(entry, []))
         if not (value is None and entry in NONE_IS_DEFAULT)]


def _call(entry):
    return ENTRIES[entry][-1](entry.rsplit("-", 1)[1])


@pytest.mark.parametrize("entry, value, message", CASES)
def test_bad_real_named_before_any_work(entry, value, message, monkeypatch):
    name = ENTRIES[entry][0]
    call = _call(entry)  # the inputs are built before the work is cut off
    _cut_off_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
        call(value)


def _outcome(call, value):
    try:
        return "ok", call(value)
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_float_and_int_give_the_float_result(entry):
    _, _, _, _, valid, whole, _ = ENTRIES[entry]
    call = _call(entry)
    expected = _outcome(call, valid)
    assert expected[0] == "ok"
    assert _outcome(call, np.float64(valid)) == expected
    assert _outcome(call, whole) == _outcome(call, float(whole))
    assert _outcome(call, np.int64(whole)) == _outcome(call, float(whole))


@pytest.mark.parametrize("value", [True, False])
def test_bool_reads_as_its_int(value):
    assert spin_model._real(value, "x") == float(value)
    assert type(spin_model._real(value, "x")) is float


def test_integer_past_the_float_range_is_not_finite():
    with pytest.raises(ValueError, match=r"^x must be finite, got -inf$"):
        spin_model._real(-10 ** 400, "x")


# parameters annotated int or float that no table reads, each with its reason
EXEMPT = {
    "GateDesign": "an output record, built from checked inputs",
    "QecOutcome": "an output record, built from checked inputs",
    "Rotation": "a view that ConditionalRotation.r0 and r1 build from their own floats",
    "build_sequence.unit_time": "passed to PulseSequence, which reads it",
    "optimize_register_gate.k": "read by resonance_time",
    "branch_frequency.s": "a projection of an ElectronQubitSpec, read there",
    "gate_error.k": "always a len(...) of the caller",
}


def _annotated_numbers():
    """(owner, parameter) of every parameter annotated int or float in the
    public functions, classes and methods of the numeric modules."""
    found = []
    for mod in (spin_model, entanglement, fidelity, designer, qec):
        for name, obj in vars(mod).items():
            if (name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            owners = [(name, obj)]
            if inspect.isclass(obj):
                owners += [(m, getattr(f, "__func__", f)) for m, f in vars(obj).items()
                           if not m.startswith("_")
                           and inspect.isfunction(getattr(f, "__func__", f))]
            elif not inspect.isfunction(obj):
                continue
            for owner, f in owners:
                found += [(owner, p.name) for p in inspect.signature(f).parameters.values()
                          if p.annotation in ("int", "float")]
    return found


def test_every_numeric_parameter_is_read_or_exempt():
    tables = {(key.split("-")[0], row[0])
              for table in (INTEGER_ENTRIES, ENTRIES) for key, row in table.items()}
    missing = [f"{owner}.{param}" for owner, param in _annotated_numbers()
               if (owner, param) not in tables
               and owner not in EXEMPT and f"{owner}.{param}" not in EXEMPT]
    assert missing == []
