"""Spans around the calls into each graspsynth layer, kept in memory.

A public function is wrapped where its caller looks it up: in every module
of the package that binds it under another layer (``graspsynth.search``'s
``force_curve`` is a span of layer ``beam``), in the package facades the
benchmark calls through, and at the few same-layer sites that a per-layer
count needs (cubic solves, branch tags, candidate evaluations, solver paths,
and the CLI entry point). Calls inside one layer are otherwise not spans, so
``force_curve``'s 500 calls to ``bistability_margin`` cost nothing. What a
function does inside (bisections, arc-length fallbacks in ``fe``) is not
visible from here.

A span records name, operation id, start, end, parent span and thread id;
design runs ``evaluate_candidate`` on worker threads, whose spans take the
operation thread's innermost open span as parent.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = {
    "graspsynth.config": "config",
    "graspsynth.cli": "cli",
    "graspsynth.search": "search",
    "graspsynth.beam": "beam",
    "graspsynth.mechanism": "mechanism",
    "graspsynth.fe.model": "fe",
    "graspsynth.fe.solver": "fe",
    "graspsynth.fe.compare": "fe",
}

# Same-layer call sites traced because a per-layer metric counts them.
SAME_LAYER_SITES = {
    ("graspsynth.cli", "run_command"),
    ("graspsynth.beam", "branch_loads"),
    ("graspsynth.beam", "solve_monostable_cubic"),
    ("graspsynth.search", "evaluate_candidate"),
    ("graspsynth.fe.solver", "solve_guided_sweep"),
}


class Span(NamedTuple):
    sid: int
    name: str
    op: int
    start: float
    end: float
    parent: int
    thread: int
    info: tuple


def _branch_tags(curve):
    return (len(curve.branches),
            sum(b.value == "Monostable" for b in curve.branches))


# What each span keeps from its call, read from arguments and return values.
_OBSERVE = {
    "beam.force_curve": lambda a, kw, r: (
        _branch_tags(r) + ((a[0].length_L, a[0].thickness_T, a[0].width_W,
                            a[0].tilt_theta),)),
    "beam.branch_loads": lambda a, kw, r: (r.branch.value == "Monostable",),
    "search.evaluate_candidate": lambda a, kw, r: (r.feasible,),
    "search.refine": lambda a, kw, r: (r.exhausted,),
    "fe.solve_guided_sweep": lambda a, kw, r: (
        len(r.steps), sum(s.iterations for s in r.steps)),
}


class Tracer:
    """Installs and removes span wrappers; collects spans per operation."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_stack = None
        self._patches = []
        self._wrappers = {}
        for modname, layer in LAYERS.items():
            module = sys.modules[modname]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == modname):
                    self._wrappers[fn] = (layer, self._wrap(fn, f"{layer}.{name}"))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        observe = _OBSERVE.get(name)
        spans, ids, now = self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._op_stack[-1] if self._op_stack else 0
            sid = next(ids)
            stack.append(sid)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
            info = observe(args, kwargs, result) if observe else ()
            spans.append(Span(sid, name, self._op, start, end, parent,
                              threading.get_ident(), info))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "graspsynth" and not modname.startswith("graspsynth."):
                continue
            facade = hasattr(module, "__path__")
            site_layer = LAYERS.get(modname)
            for name, value in list(vars(module).items()):
                entry = self._wrappers.get(value) if callable(value) else None
                if entry is None:
                    continue
                layer, wrapper = entry
                if (facade or layer != site_layer
                        or (modname, name) in SAME_LAYER_SITES):
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, value in reversed(self._patches):
            setattr(module, name, value)
        self._patches.clear()

    def run(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id under a root span."""
        self._op = op_id
        stack = self._stack()
        self._op_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, "op", op_id, start, end, 0,
                                   threading.get_ident(), ()))


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def op_profile(spans):
    """Per-operation totals from the spans of one operation.

    Returns (seconds by span name, self seconds by layer, observations by
    span name). Self time is a span's duration minus the union of its
    children's intervals clipped to it.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    seen = defaultdict(list)
    for s in spans:
        if s.name == "op":
            continue
        busy[s.name] += s.end - s.start
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.sid] if c.end > s.start and c.start < s.end)
        self_time[s.name.split(".")[0]] += (s.end - s.start) - covered
        seen[s.name].append(s.info)
    return busy, self_time, seen
