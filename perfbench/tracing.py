"""Span tracing of the `mubqkd` layers from outside the package.

The tracer wraps each layer's public functions wherever a module binds
them: `protocol` does `from .entangle import measure_first`, so the binding
`mubqkd.protocol.measure_first` is replaced as well as
`mubqkd.entangle.measure_first`.  `GfElem` arithmetic is wrapped on the
class.  Spans are kept in memory and written out when the operation ends.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("gf", "hilbert", "mub", "entangle", "protocol", "cli")

# Value helpers that every hilbert operation calls several times; their time
# stays in the caller's self time instead of costing a span each.
UNTRACED = {"hilbert.as_state", "hilbert.is_normalized", "hilbert.norm", "cli.main"}
GF_ARITH = ("__add__", "__neg__", "__sub__", "__mul__", "__pow__", "inverse", "trace")

ROUND_SPAN = "protocol.run_round"
NO_ROUND = -1


class Tracer:
    def __init__(self):
        # One entry per span in each column; flat arrays of ints allocate no
        # objects the garbage collector has to scan while the program runs.
        self.names: list[str] = []
        self.starts, self.ends = array("q"), array("q")
        self.parents, self.round_ids = array("q"), array("q")
        self.stack: list[int] = []
        self.round = NO_ROUND
        self.rounds_started = 0
        self.elem_created = 0
        self.miss_ns = 0
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        names, starts, ends, stack = self.names, self.starts, self.ends, self.stack
        new_round = name == ROUND_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_round:
                self.round = self.rounds_started
                self.rounds_started += 1
            idx = len(names)
            names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.round_ids.append(self.round)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
                if new_round:
                    self.round = NO_ROUND
        return traced

    def cached_span(self, name: str, fn):
        """Span around an lru_cache function that also times the calls that miss."""
        inner = self.span(name, fn)
        info = fn.cache_info

        def traced(*args, **kwargs):
            before = info().misses
            start = perf_counter_ns()
            try:
                return inner(*args, **kwargs)
            finally:
                if info().misses != before:
                    self.miss_ns += perf_counter_ns() - start
        traced.cache_info, traced.cache_clear = info, fn.cache_clear
        return traced

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "mubqkd"):
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if isinstance(obj, type) or not callable(obj) or name in UNTRACED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_"):
                    continue
                wrapped = (self.cached_span(name, obj) if hasattr(obj, "cache_info")
                           else self.span(name, obj))
                for module, bound in bindings(obj, package):
                    self._set(module, bound, wrapped)
        gf = sys.modules[f"{package}.gf"]
        for method in GF_ARITH:
            self._set(gf.GfElem, method, self.span("gf.arith", getattr(gf.GfElem, method)))
        post_init = gf.GfElem.__post_init__

        def counted(elem):
            self.elem_created += 1
            post_init(elem)
        self._set(gf.GfElem, "__post_init__", counted)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def spans(self) -> list[tuple]:
        """(name, start_ns, end_ns, parent index or -1, round id or -1) per span."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.round_ids))

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "round"]}) + "\n")
            for rec in self.spans():
                fh.write(json.dumps(rec) + "\n")


def bindings(fn, package: str = "mubqkd") -> list[tuple[object, str]]:
    """Every (module, name) of the package that binds fn, the callers' too."""
    return [(module, attr) for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == package
            for attr, value in list(vars(module).items()) if value is fn]


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: call count, total and self seconds."""
    agg = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for rec, own in zip(spans, self_times(spans)):
        row = agg[rec[0]]
        row["calls"] += 1
        row["total_s"] += (rec[2] - rec[1]) * 1e-9
        row["self_s"] += own * 1e-9
    return dict(agg)


def top_level_s(spans) -> float:
    return sum(rec[2] - rec[1] for rec in spans if rec[3] < 0) * 1e-9
