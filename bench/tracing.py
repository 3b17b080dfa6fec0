"""Per-layer tracing, installed from the benchmark around the library.

The layers are the modules of ``hypergrowth``.  Every public function of
a layer module is wrapped, and every module binding that refers to it
(``from .core import contains`` in ``cli``, the package namespace, ...)
is patched to the wrapper, so calls between layers are seen too.  A
wrapper records a span (op id, span id, parent span, name, start, end)
in memory.  The per-edge functions ``edge_index``, ``Coloring.color`` and
``ColoringPattern.color``, and the edge iterator ``all_edges``, get
count-only wrappers, because a span per edge would swamp what it
measures.  ``multiprocessing.pool.Pool`` is counted at construction.

Spans are kept in memory and written out by ``write_spans`` when the run
ends.  ``pass_metrics`` turns one pass's spans and counters into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing.pool
import os
import resource
import sys
import time
from collections import defaultdict
from math import comb

LAYERS = ("ideals", "core", "matrices", "structure", "constructions", "cli")
COUNT_ONLY = {"core.edge_index", "core.all_edges"}
RECOGNIZERS = {"nuclear": "nuclear_decomposition", "tame": "is_p_tame",
               "rich": "is_r_rich", "simple": "is_c_simple",
               "wealthy": "is_wealthy"}


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self):
        # rows: (op_id, span_id, parent_id, name, outermost, start_ns, end_ns)
        self.spans: list[tuple] = []
        self.op_id = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []
        self.begin_pass()

    # --- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hypergrowth.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[obj] = self._counter(name, obj)
                else:
                    wrappers[obj] = self._span(name, obj)
        for modname, mod in list(sys.modules.items()):
            if not (modname == "hypergrowth"
                    or modname.startswith("hypergrowth.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        core = sys.modules["hypergrowth.core"]
        for cls in (core.Coloring, core.ColoringPattern):
            self._patch(cls, "color", self._counter("core.color", cls.color))
        pool_init = multiprocessing.pool.Pool.__init__
        self._patch(multiprocessing.pool.Pool, "__init__",
                    self._counter("ideals.pools", pool_init))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # --- wrappers -----------------------------------------------------------

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            sid = tracer._next_id
            parent = tracer._stack[-1] if tracer._stack else 0
            outer = tracer._active[name] == 0
            bound = signature.bind(*args, **kwargs) if observe else None
            before = observe(bound.arguments, None, None) if observe else None
            tracer._stack.append(sid)
            tracer._active[name] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._active[name] -= 1
                tracer._stack.pop()
                tracer.spans.append((tracer.op_id, sid, parent, name, outer,
                                     start, end))
            if observe:
                observe(bound.arguments, before, result)
            return result
        return wrapper

    # --- observers: called before (result None) and after each call --------

    def _observe_ideals_avoid_growth(self, a, before, result):
        if before is None:
            return (_children_cpu(),)
        c = self.counts
        counts, exact, nodes = result
        c["ideals.nodes"] += nodes
        c["ideals.members"] += sum(counts[n] for n in counts if exact.get(n))
        c["ideals.levels_exact"] += sum(1 for ok in exact.values() if ok)
        c["ideals.levels_unknown"] += sum(1 for ok in exact.values() if not ok)
        c["ideals.child_cpu_s"] += _children_cpu() - before[0]
        # one template per basis element and choice of the other images
        c["ideals.templates_computed"] += sum(
            comb(n - 1, b.n - 1) for n in exact if exact[n]
            for b in a["basis"] if not b.empty and b.n <= n)
        return None

    def _observe_ideals_growth(self, a, before, result):
        if before is None:
            return (self.counts["ideals.update_cache"],)
        if a.get("cache") is not None:
            missed = self.counts["ideals.update_cache"] > before[0]
            self.counts["ideals.cache.misses" if missed
                        else "ideals.cache.hits"] += 1
        return None

    def _observe_ideals_load_cache(self, a, before, result):
        if before is None:
            self.counts["ideals.cache.bytes"] += _file_size(a["path"])
            return ()
        return None

    def _observe_ideals_update_cache(self, a, before, result):
        if before is None:
            self.counts["ideals.update_cache"] += 1
            return ()
        self.counts["ideals.cache.bytes"] += _file_size(a["path"])
        return None

    def _observe_core_contains(self, a, before, result):
        if before is None:
            return ()
        if result is not None:
            self.counts["core.contains.hits"] += 1
        return None

    def _observe_cli_main(self, a, before, result):
        if before is None:
            return ()
        if result != 0:
            self.counts["cli.exit_nonzero"] += 1
        return None

    # --- per-pass metrics ---------------------------------------------------

    def begin_pass(self):
        self.counts = defaultdict(int)
        self._pass_start = len(self.spans)

    def pass_metrics(self) -> dict[str, float]:
        spans = self.spans[self._pass_start:]
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        child = defaultdict(float)
        for op, sid, parent, name, outer, start, end in spans:
            calls[name] += 1
            if outer:
                inclusive[name] += (end - start) / 1e9
            child[parent] += (end - start) / 1e9
        self_s = defaultdict(float)
        for op, sid, parent, name, outer, start, end in spans:
            self_s[name.split(".")[0]] += (end - start) / 1e9 - child[sid]
        c = self.counts
        m: dict[str, float] = {}
        m["ideals.avoid_growth.s"] = inclusive["ideals.avoid_growth"]
        for key in ("nodes", "members", "templates_computed", "pools",
                    "levels_exact", "levels_unknown", "child_cpu_s",
                    "cache.hits", "cache.misses", "cache.bytes"):
            m[f"ideals.{key}"] = c[f"ideals.{key}"]
        m["ideals.members_per_node"] = _ratio(c["ideals.members"],
                                              c["ideals.nodes"])
        m["ideals.cache.hit_ratio"] = _ratio(
            c["ideals.cache.hits"],
            c["ideals.cache.hits"] + c["ideals.cache.misses"])
        m["ideals.cache.load_s"] = inclusive["ideals.load_cache"]
        m["ideals.cache.update_s"] = inclusive["ideals.update_cache"]
        m["ideals.growth.calls"] = calls["ideals.growth"]
        m["ideals.growth.s"] = inclusive["ideals.growth"]
        m["ideals.verdict.s"] = inclusive["ideals.dichotomy_verdict"]
        m["ideals.pattern_basis.s"] = inclusive[
            "ideals.builtin_pattern_basis"]
        m["core.color.calls"] = c["core.color"]
        m["core.edge_index.calls"] = c["core.edge_index"]
        m["core.contains.calls"] = calls["core.contains"]
        m["core.contains.s"] = inclusive["core.contains"]
        m["core.contains.hit_ratio"] = _ratio(c["core.contains.hits"],
                                              calls["core.contains"])
        for short, fn in RECOGNIZERS.items():
            m[f"structure.{short}.s"] = inclusive[f"structure.{fn}"]
        m["structure.crossing_matrix.calls"] = \
            calls["structure.crossing_matrix"]
        m["matrices.metrics3.calls"] = calls["matrices.metrics3"]
        m["matrices.metrics3.s"] = inclusive["matrices.metrics3"]
        m["matrices.metrics2.calls"] = calls["matrices.metrics2"]
        makers = [n for n in calls if n.startswith("constructions.make_")]
        m["constructions.make.calls"] = sum(calls[n] for n in makers)
        m["constructions.make.s"] = sum(inclusive[n] for n in makers)
        m["cli.main.calls"] = calls["cli.main"]
        m["cli.exit_nonzero"] = c["cli.exit_nonzero"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        return m

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            for op, sid, parent, name, outer, start, end in self.spans:
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")
