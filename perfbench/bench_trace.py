"""Layer tracing for the powdom benchmark, installed from outside the package.

``Tracer.install()`` wraps the public functions of every powdom layer
module: module-level functions in each module namespace that imported
them, the public methods and arithmetic/comparison dunders of the layer's
classes, the lazily computed family properties of ``FunctionalSpace``,
and the section functions held in ``verify.SUITE``.  Each call is timed; a
layer's self time is its calls' duration minus the part covered by nested
traced calls.  A call whose caller sits in another layer is a boundary
crossing and is recorded as a span (job, id, parent span, name, start,
end), kept in memory up to ``SPAN_CAP`` and written out by
``write_spans``.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

from bench_metrics import LAYERS

# dunders that do work worth attributing to a layer
_DUNDERS = frozenset(
    (
        "__init__",
        "__post_init__",
        "__call__",
        "__add__",
        "__mul__",
        "__eq__",
        "__lt__",
        "__le__",
        "__gt__",
        "__ge__",
    )
)

# the lazily computed family filters are the only properties doing work;
# the rest are accessors whose wrappers would cost more than they measure
_PROPERTIES = frozenset(("hom_indices", "relaxed_indices", "free_indices"))

SPAN_CAP = 50_000

# extra per-call measures read off a traced call's result
_MEASURES = {
    "algebra.lift_pointwise": (
        "algebra.lift_entries",
        lambda algebra: sum(len(t) for t in algebra.tables.values()),
    ),
    "report.Report.to_json": ("report.bytes", len),
}


class Tracer:
    def __init__(self):
        self.stats = {}  # traced name -> [calls, calls from another layer, inclusive s]
        self.layer_self = {}  # layer -> [self seconds]
        self.values = Counter()
        self.spans = []
        self.dropped_spans = 0
        self.job = ""  # identifier shared by the spans of one job
        self._stack = [["", 0.0, -1]]  # [layer, nested seconds, span id]
        self._next_span = 0
        self._origin = time.perf_counter()
        self._restore = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer, key, fn):
        stack = self._stack
        push, pop = stack.append, stack.pop
        stat = self.stats.setdefault(key, [0, 0, 0.0])
        own = self.layer_self.setdefault(layer, [0.0])
        spans, values = self.spans, self.values
        measure = _MEASURES.get(key)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            caller = stack[-1]
            crossing = caller[0] != layer
            if crossing:
                span = tracer._next_span
                tracer._next_span = span + 1
            else:
                span = caller[2]
            frame = [layer, 0.0, span]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                elapsed = end - start
                own[0] += elapsed - frame[1]
                stack[-1][1] += elapsed
                stat[0] += 1
                stat[2] += elapsed
                if crossing:
                    stat[1] += 1
                    if len(spans) < SPAN_CAP:
                        spans.append((tracer.job, span, caller[2], key, start, end))
                    else:
                        tracer.dropped_spans += 1
            if measure is not None:
                values[measure[0]] += measure[1](result)
            return result

        return functools.update_wrapper(traced, fn)

    def _patch(self, owner, name, value):
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer, cls):
        namespace = vars(cls)
        for name, attr in list(namespace.items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if name == "__init__" and "__post_init__" in namespace:
                continue  # a dataclass: its __post_init__ does the work
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, property):
                if name not in _PROPERTIES:
                    continue
                wrapped = property(self._wrap(layer, key, attr.fget), attr.fset, attr.fdel, attr.__doc__)
            elif isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(layer, key, attr.__func__))
            elif isinstance(attr, staticmethod):
                wrapped = staticmethod(self._wrap(layer, key, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(layer, key, attr)
            else:
                continue
            self._patch(cls, name, wrapped)

    def install(self):
        """Wrap every layer's public functions; powdom must be importable."""
        modules = {layer: importlib.import_module(f"powdom.{layer}") for layer in LAYERS}
        package = sys.modules["powdom"]
        namespaces = [package] + list(modules.values())
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, (enum.Enum, BaseException)):
                        self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(layer, f"{layer}.{name}", obj)
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, alias, wrapped)
        verify = modules["verify"]
        sections = tuple(
            (name, self._wrap("verify", f"verify.section.{name}", fn))
            for name, fn in verify.SUITE
        )
        self._patch(verify, "SUITE", sections)
        # functional_space builds and hits come from its cache's own counters
        self._cache = modules["monad"]._functional_space
        self._cache_before = self._cache.cache_info()
        self._origin = time.perf_counter()

    def uninstall(self):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        after = self._cache.cache_info()
        used = {key: stat for key, stat in self.stats.items() if stat[0]}
        return {
            "space_builds": after.misses - self._cache_before.misses,
            "space_hits": after.hits - self._cache_before.hits,
            "calls": {key: stat[0] for key, stat in used.items()},
            "entries": {key: stat[1] for key, stat in used.items()},
            "incl_s": {key: stat[2] for key, stat in used.items()},
            "self_s": {layer: own[0] for layer, own in self.layer_self.items()},
            "values": dict(self.values),
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
        }

    def write_spans(self, path):
        """Write the recorded spans as JSON lines; times are seconds since
        install, and every span carries its job's identifier."""
        with open(path, "w", encoding="utf-8") as fh:
            for job, span, parent, key, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "job": job,
                            "id": span,
                            "parent": parent,
                            "name": key,
                            "start": round(start - self._origin, 9),
                            "end": round(end - self._origin, 9),
                        }
                    )
                    + "\n"
                )
