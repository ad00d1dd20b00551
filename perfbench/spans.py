"""Span recording around the program's public layer functions.

The benchmark wraps functions from the outside; nothing under ``src/``
is edited. Each wrapped call records a span (name, start, end, parent
span, run id), kept in memory and written out with the run's results.
Spans marked ``spark`` also carry the task metrics of the Spark stages
the call ran; they are read outside the span's own interval, so their
cost shows up as tracing overhead rather than as the layer's time.

Wrappers attach only to functions that exist; a target that a refactor
removed or renamed is recorded in ``missing`` and its metrics read 0.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: (span name, module, qualified name, record Spark stage metrics).
#: The span name's first component is the layer it is attributed to.
TARGETS = [
    ("graphs.load", "repro.graphs.datasets", "load", False),
    ("buildup.build_tables", "repro.core.buildup", "build_tables", True),
    ("buildup.root_pdf", "repro.core.buildup", "CountTables.root_pdf", False),
    ("alias.build", "repro.core.alias", "AliasSampler.__init__", False),
    ("sampler.sample_graphlets", "repro.core.sampler", "sample_graphlets", True),
    ("sampler.draw_roots", "repro.core.sampler", "draw_roots", False),
    ("sampler.unfold", "repro.core.sampler", "unfold_treelets", False),
    ("sampler.classify", "repro.core.sampler", "classify", False),
    ("ags.ags", "repro.core.ags", "ags", False),
    ("spanning.spanning_profile", "repro.core.spanning", "spanning_profile", False),
    ("local_sampler.init", "repro.core.local_sampler", "LocalSampler.__init__", False),
    ("local_sampler.draw", "repro.core.local_sampler", "LocalSampler.sample_graphlets", False),
    ("estimators.naive", "repro.core.estimators", "naive_estimates", False),
]

#: Memoized functions whose ``cache_info()`` gives call and hit counts;
#: too hot to wrap with a span per call.
CACHED = [
    ("graphlet.canonical", "repro.core.graphlet", "canonical"),
    ("spanning.spanning_profile", "repro.core.spanning", "spanning_profile"),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0
    spark: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(module: str, qualname: str):
    """(owner, attribute, function) or None if any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    """Records spans while ``active``; wrappers pass straight through
    otherwise."""

    def __init__(self, run_id: str, spark_window: Callable[[], Callable[[], dict]]):
        self.run_id = run_id
        self.spark_window = spark_window
        self.active = False
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    def install(self) -> None:
        for name, module, qualname, spark in TARGETS:
            found = _resolve(module, qualname)
            if found is None:
                self.missing.append(f"{module}.{qualname}")
                continue
            owner, attr, fn = found
            wrapper = self._wrap(fn, name, spark)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            # A module-level function may also be bound by name in other
            # modules (``from .x import f``): patch every reference.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "repro":
                    continue
                for ref, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, ref, wrapper)

    def _wrap(self, fn, name: str, spark: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            finish = self.spark_window() if spark else None
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.run_id, self._now())
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self._now()
                self._stack.pop()
                if finish is not None:
                    span.spark = finish()

        return wrapper

    def _now(self) -> float:
        return time.perf_counter() - self._t0


def cache_counts() -> dict[str, tuple[int, int]]:
    """(calls, hits) of each memoized layer function that exists."""
    out = {}
    for name, module, qualname in CACHED:
        found = _resolve(module, qualname)
        fn = found[2] if found else None
        # a traced function is our wrapper; the cache sits underneath it
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            ci = fn.cache_info()
            out[name] = (ci.hits + ci.misses, ci.hits)
    return out


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per layer: time in its spans not covered by their child spans."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.seconds
    out: dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.seconds - child.get(s.id, 0.0)
    return out
