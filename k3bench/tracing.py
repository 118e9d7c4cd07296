"""Span tracing for the traced benchmark rounds.

The tracer wraps every public module-level function of the k3ade layer
modules with a timing wrapper that the benchmark owns, so nothing under
``src/`` changes.  The wrappers must be installed before
``k3ade.classifier`` and ``k3ade.cli`` are imported: those modules bind
names at import time (``from .genus import exists_even_lattice``, the
``lru_cache`` that ``classifier`` builds around it, and ``from
.classifier import classify_type`` in ``cli``), so a wrapper installed
later would never be called.  Modules are therefore imported one by one
in dependency order, each wrapped before the next is imported, and every
global that still names an unwrapped original is rebound.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written to a side file by :meth:`Tracer.write_spans` when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from array import array
from math import prod
from time import perf_counter

#: The layers, in dependency order.  ``refdata`` is left unwrapped: it
#: formats the table cells, so its time counts as the ``cli`` layer's
#: own formatting time.
LAYERS = ("exact_linalg", "fqf", "ade_types", "kernels", "lattice_ops",
          "local_invariants", "genus", "classifier", "cli")

#: Functions whose calls feed counters:
#: name -> function of (args, result) -> {counter: amount}.
_COUNTERS = {
    "kernels.isotropic_list": lambda args, res: {
        "kernels.elements_scanned": prod(args[0].orders),
        "kernels.isotropic_found": len(res)},
    "fqf.span": lambda args, res: {"fqf.span.elements": len(res)},
}


#: The classifier's per-type entry points: their span durations are the
#: per-type latencies.
_PER_TYPE = ("classifier.classify_type", "classifier.glue_candidates")

#: The memo tables of ``local_invariants`` whose sizes are reported.
_CACHES = ("_SET_CACHE", "_REC_CACHE")


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, qualname: str, fn):
        """A wrapper of fn that records a span named qualname."""
        nid = len(self.names)
        self.names.append(qualname)
        name_of, starts, ends, parents = (self.name_of, self.starts,
                                          self.ends, self.parents)
        stack = self._stack
        count = _COUNTERS.get(qualname)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_of.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                for key, amount in count(args, result).items():
                    counters[key] = counters.get(key, 0) + amount
            return result

        return wrapper

    def install(self) -> None:
        """Import the layer modules in order, wrapping each one's public
        functions before the next module is imported."""
        if any(f"k3ade.{name}" in sys.modules for name in LAYERS):
            raise RuntimeError("k3ade layers imported before the tracer")
        # id of an original -> its wrapper; the wrappers keep the
        # originals alive, so an id cannot be reused by another object.
        wrapped: dict[int, object] = {}
        for name in LAYERS:
            module = importlib.import_module(f"k3ade.{name}")
            for attr, fn in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    wrapped[id(fn)] = self.wrap(f"{name}.{attr}", fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and mod_name.startswith("k3ade."):
                    for attr, value in list(vars(mod).items()):
                        if id(value) in wrapped:
                            setattr(mod, attr, wrapped[id(value)])

    def reset(self) -> None:
        """Drop the spans and counts recorded so far, so that the figures
        cover only what runs after this call."""
        for arr in (self.name_of, self.starts, self.ends, self.parents):
            del arr[:]
        self.counters.clear()

    def self_times(self) -> tuple[list[float], list[float]]:
        """Per-span duration and self time (duration minus the part
        covered by the span's direct children)."""
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id, name, start and end in
        seconds relative to the first span."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t"
                         f"{self.names[self.name_of[i]]}\t"
                         f"{self.starts[i] - t0:.9f}\t"
                         f"{self.ends[i] - t0:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per wrapped function, self seconds per
        layer, the counters, and the figures derived from them."""
        dur, own = self.self_times()
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        per_type = []
        for i in range(len(dur)):
            name = self.names[self.name_of[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own[i]
            out[f"{name.split('.')[0]}.self_s"] += own[i]
            if name in _PER_TYPE:
                per_type.append(dur[i] * 1e3)
        out.update(self.counters)
        for key in ("kernels.elements_scanned", "kernels.isotropic_found",
                    "fqf.span.elements"):
            out.setdefault(key, 0)
        if len(per_type) >= 2:
            cuts = statistics.quantiles(per_type, n=100, method="inclusive")
            out["classifier.type_p50_ms"] = statistics.median(per_type)
            out["classifier.type_p99_ms"] = cuts[98]
        else:
            out["classifier.type_p50_ms"] = sum(per_type)
            out["classifier.type_p99_ms"] = sum(per_type)
        spans = out.get("fqf.span.calls", 0)
        out["classifier.glued_per_subgroup"] = (
            out.get("lattice_ops.overlattice.calls", 0) / spans
            if spans else 0.0)
        local = sys.modules["k3ade.local_invariants"]
        out["local_invariants.cache_entries"] = sum(
            len(getattr(local, cache, ())) for cache in _CACHES)
        memo = getattr(sys.modules["k3ade.classifier"], "_exists_cached",
                       None)
        info = memo.cache_info() if memo is not None else None
        lookups = info.hits + info.misses if info is not None else 0
        out["genus.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        return out
