"""Shared pieces of the workload modules.

A workload is a class ``Workload(seed, workdir)`` whose constructor is the
set-up: it builds every input from the seed.  ``ops`` lists the op inputs in
the order the closed loop runs them (cyclically; an untraced run stops on a
multiple of ``cycle`` ops), ``run(op)`` is the timed
op, and ``check(op, out)``, run after the op outside its timing, returns
None or the reason the output is wrong.  Workload code calls spintangle
through module attributes (``designer.optimize_register_gate``), never
through names imported from them, so that the tracer's wrappers see every
call.
"""
from __future__ import annotations

import math
import time

import numpy as np


class InProcess:
    """A workload whose ops run in the benchmark's own interpreter."""

    rss_scope = "self"
    cycle = 1

    def trace_to(self, tracer) -> None:
        pass

    def span_sets(self, tracer) -> list:
        return [tracer.spans]

    def close(self) -> None:
        pass


def close_enough(got: float, want: float, rel: float, abs_: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= abs_ + rel * abs(want)


# Host-speed correction.  On a shared virtual machine the same op takes
# anywhere from 1x to 2x its quiet time, in stretches of a fraction of a
# second to minutes, and that swing is wider than any useful regression
# bound.  A fixed
# reference loop, in the same style as the program's hot paths (small
# numpy arrays driven from Python), slows down with the op: timed right
# before and right after each op, it gives the host's speed at that moment,
# and every reported time is rescaled to a host on which the loop takes
# REF_LOOP_S.  The loop is benchmark code, so no change to the program
# moves it.
REF_LOOP_S = 0.001
REF_ITERATIONS = 500
REF_REPEATS = 3
_REF_M = np.array([[1.0, 2.0j], [3.0, 4.0]])


def _reference_loop() -> float:
    acc, m = 0.0, _REF_M
    for i in range(REF_ITERATIONS):
        m = (m @ _REF_M) * 0.25
        acc += float(abs(m[0, 0])) + i * 0.5
    return acc


def reference_s() -> float:
    """Seconds the reference loop takes now: the best of REF_REPEATS runs."""
    best = math.inf
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, ref_before: float,
                       ref_after: float) -> float:
    """``seconds`` measured between two reference timings, at REF_LOOP_S."""
    return seconds * REF_LOOP_S / (0.5 * (ref_before + ref_after))
