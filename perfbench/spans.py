"""Span tracing at the boundaries of spintangle's modules.

``Tracer.install`` replaces every public module-level function of each layer
module, and every binding of it in other ``spintangle`` modules, with a
wrapper that records a span: layer, function name, op id, parent span,
thread and start/end times.  scipy functions bound in a layer module become
the ``scipy`` layer; a callable passed to them is wrapped as a span of the
binding module's layer, so time spent in the caller's objective function is
not charged to scipy.  A call into a layer from the same layer records no
span: its time is self time of the enclosing span, and private kernels
count towards the public function that calls them.

Spans are kept in memory; ``paused`` stops recording (the benchmark's own
checks) and ``uninstall`` restores the original bindings.
``attribute`` turns one process's spans into per-layer self time, and
``layer_metrics`` adds call counts and the other traced metrics.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("spin_model", "entanglement", "fidelity", "designer", "qec",
          "datasets", "cli")
ALL_LAYERS = LAYERS + ("scipy", "import")
# layer self times may exceed the traced wall time by this share (timer
# granularity) before the traced run fails instead of reporting bench.self_s < 0
OVER_ATTRIBUTED = 1e-3

# a span is (id, parent id, op, layer, name, thread, t0 ns, t1 ns, returned None)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._restore: list[tuple] = []
        self.paused = False

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def span(self, layer: str, name: str, fn, args, kwargs):
        stack = self._stack()
        if self.paused or (stack and stack[-1][1] == layer):
            return fn(*args, **kwargs)
        if stack:
            parent = stack[-1][0]
        else:
            # a pool thread's first span belongs to the main thread's open span
            main = self._stacks.get(self._main)
            parent = main[-1][0] if main else 0
        sid = next(self._ids)
        stack.append((sid, layer))
        t0 = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self.op, layer, name,
                               threading.get_ident(), t0, t1, result is None))

    def manual(self, layer: str, name: str, t0: int, t1: int) -> None:
        """Record a span measured outside a wrapper (e.g. an import)."""
        self.spans.append((next(self._ids), 0, self.op, layer, name,
                           threading.get_ident(), t0, t1, False))

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, layer: str, name: str, fn, callback_layer=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if callback_layer is not None:
                args = tuple(self._callback(callback_layer, a) for a in args)
            return self.span(layer, name, fn, args, kwargs)

        return wrapped

    def _callback(self, layer: str, obj):
        if not callable(obj) or inspect.isclass(obj):
            return obj
        # "<...>" names mark callbacks, which layer_metrics does not count as calls
        name = f"<{getattr(obj, '__qualname__', 'callback')}>"

        def cb(*args, **kwargs):
            return self.span(layer, name, obj, args, kwargs)

        return cb

    def install(self) -> None:
        """Wrap every layer boundary of the imported spintangle modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = {name: mod for name, mod in list(sys.modules.items())
                   if name == "spintangle" or name.startswith("spintangle.")}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = package.get(f"spintangle.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                if origin == mod.__name__:
                    wrappers[id(obj)] = self._wrapper(layer, name, obj)
                elif origin.split(".")[0] == "scipy":
                    wrappers[id(obj)] = self._wrapper("scipy", name, obj,
                                                      callback_layer=layer)
        for mod in package.values():
            for name, obj in list(vars(mod).items()):
                wrapped = wrappers.get(id(obj))
                if wrapped is not None:
                    setattr(mod, name, wrapped)
                    self._restore.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def attribute(spans: list[tuple]) -> dict[str, float]:
    """Self seconds per layer for the spans of one process.

    A sweep over span start/end events gives each instant to the innermost
    open spans (those with no open child, on any thread), split equally
    among them.  Single-threaded, this is a span's duration minus the part
    of it its children cover; with pool threads it still adds up to wall
    time.  Instants with no open span are not attributed.
    """
    layer = {s[0]: s[3] for s in spans}
    parent = {s[0]: s[1] for s in spans}
    events = []
    for s in spans:
        events.append((s[6], 1, s[0]))
        events.append((s[7], 0, s[0]))
    events.sort()
    out = {name: 0.0 for name in ALL_LAYERS}
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    last = None
    for t, is_start, sid in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves) * 1e-9
            for leaf in leaves:
                out[layer[leaf]] += share
        last = t
        p = parent[sid]
        if is_start:
            open_children[sid] = 0
            leaves.add(sid)
            if p in open_children:
                open_children[p] += 1
                leaves.discard(p)
        else:
            open_children.pop(sid, None)
            leaves.discard(sid)
            if p in open_children:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def layer_metrics(span_sets: list[list[tuple]], wall_s: float) -> dict:
    """Per-layer self_s and calls, designer.found_frac and bench.self_s."""
    metrics = {}
    self_s = {name: 0.0 for name in ALL_LAYERS}
    calls = {name: 0 for name in ALL_LAYERS}
    searches = found = 0
    for spans in span_sets:
        for name, value in attribute(spans).items():
            self_s[name] += value
        for s in spans:
            calls[s[3]] += not s[4].startswith("<")
            if s[3] == "designer" and s[4] == "optimize_register_gate":
                searches += 1
                found += not s[8]
    for name in ALL_LAYERS:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        if name != "import":
            metrics[f"{name}.calls"] = (calls[name], "count")
    # no search attempted reads as 0 found
    metrics["designer.found_frac"] = (found / searches if searches else 0.0,
                                      "ratio")
    bench_s = wall_s - sum(self_s.values())
    if bench_s < -OVER_ATTRIBUTED * wall_s:
        raise RuntimeError(f"spans cover {-bench_s:.6g} s more than the "
                           f"traced wall time {wall_s:.6g} s")
    metrics["bench.self_s"] = (bench_s, "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    return metrics
