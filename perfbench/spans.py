"""Traced mode: spans recorded from outside the program.

The benchmark never edits the program to trace it.  :class:`Patches`
swaps a wrapper in for a public function or method of one layer, the
wrapper opens a span around the original call, and :meth:`Patches.remove`
puts the original back.  Spans live in flat in-memory lists (name,
parent, start, end) and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the durations of the
spans opened inside it.  The sum of all self times equals the summed
duration of the root spans, so ``residual = traced wall - sum(self)``
is the time no wrapped layer accounts for: the benchmark's own glue
and any program code outside the wrapped entry points.
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

_perf = time.perf_counter

#: Every per-layer metric a traced run prints, with its unit.  Workloads
#: that do not use a layer report 0 for it, which is itself the finding
#: (e.g. no store paging outside ``analytics_paged``).
PER_LAYER: List[Tuple[str, str]] = [
    ("graph.construct_s", "s"),
    ("store.ingest_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.page_in_s", "s"),
    ("store.read_s", "s"),
    ("store.page_hits", "count"),
    ("store.page_misses", "count"),
    ("store.bytes_paged", "bytes"),
    ("store.hit_rate", "fraction"),
    ("store.runs_per_pass", "count"),
    ("store.materialize_s", "s"),
    ("kernels.scatter_s", "s"),
    ("kernels.frontier_s", "s"),
    ("kernels.intersect_s", "s"),
    ("tlav.pagerank_self_s", "s"),
    ("tlav.wcc_self_s", "s"),
    ("tlav.bfs_self_s", "s"),
    ("tlav.engine_s", "s"),
    ("delta.apply_s", "s"),
    ("delta.edges_changed", "count"),
    ("incremental.repair_s", "s"),
    ("incremental.pushes", "count"),
    ("incremental.init_s", "s"),
    ("matching.self_s", "s"),
    ("matching.candidates_scanned", "count"),
    ("parallel.dispatch_s", "s"),
    ("parallel.auto_serial", "count"),
    ("parallel.auto_thread", "count"),
    ("parallel.auto_process", "count"),
    ("sampler.sample_s", "s"),
    ("sampler.sampled_edges", "count"),
    ("gnn.tensors_s", "s"),
    ("loader.self_s", "s"),
    ("fetch.gather_s", "s"),
    ("fetch.rows", "count"),
    ("fetch.cache_hit_rate", "fraction"),
    ("compute.step_s", "s"),
    ("compute.eval_s", "s"),
    ("infer.compute_s", "s"),
    ("infer.messages", "count"),
    ("serve.dispatch_s", "s"),
    ("serve.cache_lookup_s", "s"),
    ("serve.cache_put_s", "s"),
    ("serve.cache_invalidate_s", "s"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.cache_promoted", "count"),
    ("serve.cache_invalidated", "count"),
    ("serve.engine_s.graph.neighbors", "s"),
    ("serve.engine_s.tlav.pagerank", "s"),
    ("serve.engine_s.tlav.bfs", "s"),
    ("serve.engine_s.tlav.wcc", "s"),
    ("serve.engine_s.matching.count", "s"),
    ("serve.engine_s.gnn.predict", "s"),
    ("serve.footprint_s", "s"),
    ("serve.registry_s", "s"),
    ("serve.sim_ops_p95", "ops"),
    ("obs.counter_incs", "count"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
    ("residual_s", "s"),
    ("residual_share", "fraction"),
]


class Tracer:
    """Flat, append-only span store plus named counts."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self.names: List[str] = []
        self.name_of: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.stack: List[int] = []
        self.ctx: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        self.end.append(0.0)
        self.start.append(_perf())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = _perf()
        self.stack.pop()

    # -- aggregation -------------------------------------------------------

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(name_id, inclusive, self)`` per span."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return np.asarray(self.name_of, dtype=np.int64), dur, dur - child

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name: summed inclusive time and summed self time."""
        names, incl, self_t = self.arrays()
        k = len(self.names)
        incl_sum = np.bincount(names, weights=incl, minlength=k)
        self_sum = np.bincount(names, weights=self_t, minlength=k)
        return (
            {n: float(incl_sum[i]) for i, n in enumerate(self.names)},
            {n: float(self_sum[i]) for i, n in enumerate(self.names)},
        )

    def root_seconds(self) -> float:
        """Summed duration of root spans (= the sum of all self times)."""
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return float(dur[parent < 0].sum())

    def write(self, path: str) -> None:
        """Write every span as compressed arrays plus the name table."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path,
            name=np.asarray(self.name_of, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            names=np.asarray(self.names),
        )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def span_wrapper(
    tr: Tracer,
    name: Any,
    ctx: Optional[str] = None,
    after: Optional[Callable[..., None]] = None,
) -> Callable[[Callable], Callable]:
    """Wrap a callable in one span.  ``name`` may be a function of the
    call's arguments; ``ctx`` marks the span as context for nested
    naming; ``after(result, args, kwargs)`` records counts."""

    def make(orig: Callable) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if ctx is not None:
                tr.ctx[ctx] += 1
            idx = tr.enter(label)
            try:
                result = orig(*args, **kwargs)
            finally:
                tr.exit(idx)
                if ctx is not None:
                    tr.ctx[ctx] -= 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    return make


def generator_wrapper(tr: Tracer, name: str, count_key: str) -> Callable[[Callable], Callable]:
    """Wrap a generator function: every ``next()`` is one span, and the
    items yielded per call are counted under ``count_key``."""

    def make(orig: Callable) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tr.counts[count_key + ".calls"] += 1
            inner = orig(*args, **kwargs)
            while True:
                idx = tr.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tr.exit(idx)
                tr.counts[count_key + ".items"] += 1
                yield item

        return wrapper

    return make


def call_counter(tr: Tracer, key: str) -> Callable[[Callable], Callable]:
    def make(orig: Callable) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tr.counts[key] += 1
            return orig(*args, **kwargs)

        return wrapper

    return make


class Patches:
    """A set of attribute swaps that can be applied and undone together."""

    def __init__(self) -> None:
        self._specs: List[Tuple[Any, str, Callable[[Callable], Callable]]] = []
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def add(self, target: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        self._specs.append((target, attr, make))

    @property
    def active(self) -> bool:
        return bool(self._saved)

    def apply(self) -> None:
        for target, attr, make in self._specs:
            own = inspect.isclass(target) and attr in vars(target)
            raw = vars(target)[attr] if own else getattr(target, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new: Any = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            # A class that inherits the attribute gets its own copy;
            # removing it restores the inherited one.
            self._saved.append((target, attr, raw, own or not inspect.isclass(target)))
            setattr(target, attr, new)

    def remove(self) -> None:
        for target, attr, raw, restore in reversed(self._saved):
            if restore:
                setattr(target, attr, raw)
            else:
                delattr(target, attr)
        self._saved = []


def manifest_bytes(manifest: Any) -> int:
    total = sum(int(f.nbytes) for f in manifest.files.values())
    for part in manifest.partitions:
        total += sum(int(f.nbytes) for f in part.files.values())
    return total


def program_patches(tr: Tracer) -> Patches:
    """Wrappers around every layer's public entry points."""
    from repro.gnn import dataloader, models, sampling, tensor, train
    from repro.gnn.layers import GraphTensors
    from repro.graph import csr, generators
    from repro.graph import store as store_pkg
    from repro.graph.store import stored
    from repro.matching import backtrack
    from repro.obs import metrics
    from repro.parallel.executor import ParallelExecutor
    from repro.serve import cache, endpoints, scheduler
    from repro.tlav import algorithms, incremental, vectorized

    p = Patches()
    counts = tr.counts

    # graph.generators / graph.csr: whole-graph construction.
    p.add(generators, "planted_partition", span_wrapper(tr, "graph.construct"))
    p.add(csr.Graph, "from_edges", span_wrapper(tr, "graph.construct"))

    # graph.store writer.
    def wrote(result, args, kwargs):
        counts["store.bytes_written"] += manifest_bytes(result)

    for fn in ("ingest_edge_stream", "build_store"):
        p.add(store_pkg, fn, span_wrapper(tr, "store.ingest", after=wrote))

    # graph.store paging: the shard cache, reads and materialization.
    def page_in(orig):
        @functools.wraps(orig)
        def wrapper(self, key, loader, nbytes):
            stats = self.stats
            misses, paged = stats.misses, stats.bytes_paged
            idx = tr.enter("store.page_in")
            try:
                return orig(self, key, loader, nbytes)
            finally:
                tr.exit(idx)
                missed = stats.misses - misses
                counts["store.page_misses"] += missed
                counts["store.page_hits"] += 1 - missed
                counts["store.bytes_paged"] += stats.bytes_paged - paged

        return wrapper

    p.add(stored.ShardCache, "get", page_in)
    p.add(stored.StoredGraph, "neighbors", span_wrapper(tr, "store.read"))
    p.add(stored.StoredGraph, "features", span_wrapper(tr, "store.read"))
    p.add(stored.StoredGraph, "iter_csr_runs", generator_wrapper(tr, "store.read", "store.runs"))
    p.add(stored.StoredGraph, "to_graph", span_wrapper(tr, "store.materialize"))

    # graph.kernels, at the call sites the engines use.
    p.add(vectorized, "scatter_add_ordered", span_wrapper(tr, "kernels.scatter"))
    p.add(vectorized, "expand_frontier", span_wrapper(tr, "kernels.frontier"))
    p.add(backtrack, "intersect_multi", span_wrapper(tr, "kernels.intersect"))

    # tlav.vectorized (dense) and tlav.algorithms (per-vertex engine).
    for fn, label in (("pagerank_dense", "tlav.pagerank"), ("wcc_dense", "tlav.wcc"),
                      ("bfs_dense", "tlav.bfs")):
        p.add(vectorized, fn, span_wrapper(tr, label))
    for fn in ("pagerank", "bfs", "wcc"):
        p.add(algorithms, fn, span_wrapper(tr, "tlav.engine"))

    # graph.delta and tlav.incremental.
    p.add(endpoints, "apply_edge_updates", span_wrapper(tr, "delta.apply"))
    p.add(incremental, "apply_edge_updates", span_wrapper(tr, "delta.apply"))

    def repair(orig):
        @functools.wraps(orig)
        def wrapper(self, *args, **kwargs):
            before = getattr(self, "pushes", 0)
            idx = tr.enter("incremental.apply")
            try:
                return orig(self, *args, **kwargs)
            finally:
                tr.exit(idx)
                counts["incremental.pushes"] += getattr(self, "pushes", 0) - before

        return wrapper

    p.add(incremental.IncrementalPageRank, "apply", repair)
    p.add(incremental.IncrementalPageRank, "__init__", span_wrapper(tr, "incremental.init"))

    # matching.
    def scanned(result, args, kwargs):
        stats = kwargs.get("stats")
        if stats is not None:
            counts["matching.candidates_scanned"] += stats.candidates_scanned

    p.add(backtrack, "count_matches", span_wrapper(tr, "matching.count", after=scanned))
    p.add(endpoints, "count_matches", span_wrapper(tr, "matching.count", after=scanned))

    # parallel: dispatch = fan-out wall minus the workers' busy time.
    def fan_out(orig):
        @functools.wraps(orig)
        def wrapper(self, fn, graph, payloads):
            busy_c = self.obs.counter("parallel.busy_seconds")
            auto_c = self.obs.counter("parallel.auto_decisions")
            busy0 = busy_c.total
            auto0 = {b: auto_c.value(backend=b) for b in ("serial", "thread", "process")}
            t0 = _perf()
            idx = tr.enter("parallel.map")
            try:
                return orig(self, fn, graph, payloads)
            finally:
                tr.exit(idx)
                wall = _perf() - t0
                backend = getattr(self, "_last_backend", "serial")
                workers = 1 if backend == "serial" else max(1, int(self.workers))
                counts["parallel.dispatch_s"] += max(0.0, wall - (busy_c.total - busy0) / workers)
                for b, v in auto0.items():
                    counts["parallel.auto_" + b] += auto_c.value(backend=b) - v

        return wrapper

    p.add(ParallelExecutor, "map_graph", fan_out)

    # gnn.sampling, gnn.layers, gnn.dataloader + caching.
    def sampled(result, args, kwargs):
        counts["sampler.sampled_edges"] += int(result.graph.num_edges)

    p.add(sampling.NeighborSampler, "sample", span_wrapper(tr, "sampler.sample", after=sampled))
    p.add(GraphTensors, "__init__", span_wrapper(tr, "gnn.tensors"))

    def fetch(orig):
        @functools.wraps(orig)
        def wrapper(self, node_ids):
            hits, misses = self.hits, self.misses
            idx = tr.enter("fetch.gather")
            try:
                return orig(self, node_ids)
            finally:
                tr.exit(idx)
                counts["fetch.rows"] += len(node_ids)
                counts["fetch.hits"] += self.hits - hits
                counts["fetch.misses"] += self.misses - misses

        return wrapper

    p.add(dataloader.FeatureFetcher, "fetch", fetch)

    # gnn.train / inference and model compute (named by context).
    def inferred(result, args, kwargs):
        report = kwargs.get("report")
        if report is not None and not tr.ctx["train"]:
            counts["infer.messages"] += report.messages

    p.add(train, "train_sampled", span_wrapper(tr, "gnn.train", ctx="train"))
    p.add(dataloader, "infer_sampled", span_wrapper(
        tr, lambda *a, **k: "gnn.eval" if tr.ctx["train"] else "gnn.infer",
        ctx="infer", after=inferred,
    ))

    def forward_name(*args, **kwargs):
        if tr.ctx["infer"]:
            return "compute.eval_forward" if tr.ctx["train"] else "compute.infer_forward"
        return "compute.forward"

    p.add(models.NodeClassifier, "__call__", span_wrapper(tr, forward_name))
    p.add(tensor.Tensor, "backward", span_wrapper(tr, "compute.backward"))
    p.add(models.Adam, "step", span_wrapper(tr, "compute.optim"))

    # serve.
    def looked(result, args, kwargs):
        counts["serve.cache_hits" if result[0] else "serve.cache_misses"] += 1

    def invalidate(orig):
        @functools.wraps(orig)
        def wrapper(self, *args, **kwargs):
            before = self.as_dict()
            idx = tr.enter("serve.cache_invalidate")
            try:
                return orig(self, *args, **kwargs)
            finally:
                tr.exit(idx)
                after = self.as_dict()
                for key in ("promoted", "invalidated"):
                    counts["serve.cache_" + key] += after[key] - before[key]

        return wrapper

    def changed(result, args, kwargs):
        counts["delta.edges_changed"] += int(len(result.inserts) + len(result.deletes))

    p.add(scheduler.Server, "run", span_wrapper(tr, "serve.run"))
    p.add(scheduler.Server, "submit", span_wrapper(tr, "serve.submit"))
    p.add(cache.ResultCache, "lookup", span_wrapper(tr, "serve.cache_lookup", after=looked))
    p.add(cache.ResultCache, "put", span_wrapper(tr, "serve.cache_put"))
    p.add(cache.ResultCache, "invalidate_graph", invalidate)
    p.add(endpoints.Endpoint, "run", span_wrapper(tr, lambda self, *a, **k: "serve.engine." + self.name))
    p.add(endpoints.Endpoint, "run_batch", span_wrapper(tr, lambda self, *a, **k: "serve.engine." + self.name))
    p.add(endpoints.Endpoint, "partitions_read", span_wrapper(tr, "serve.footprint"))
    p.add(endpoints.GraphRegistry, "apply_updates", span_wrapper(tr, "serve.update", after=changed))

    # obs: counter increments (counted, not timed: one per cache access).
    p.add(metrics.Counter, "inc", call_counter(tr, "obs.counter_incs"))
    return p


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(
    tr: Tracer,
    traced_wall: float,
    overhead: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Fold spans and counts into the :data:`PER_LAYER` metrics.

    ``traced_wall`` is the wall time the spans were recorded in;
    ``overhead`` the traced minus the untraced time of the same work.
    """
    incl, own = tr.totals()
    c = tr.counts

    def s(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    def inc(*names: str) -> float:
        return sum(incl.get(n, 0.0) for n in names)

    dispatch = float(c["parallel.dispatch_s"])
    runs_calls = c["store.runs.calls"]
    residual = traced_wall - tr.root_seconds()
    out = {
        "graph.construct_s": s("graph.construct"),
        "store.ingest_s": s("store.ingest"),
        "store.bytes_written": c["store.bytes_written"],
        "store.page_in_s": s("store.page_in"),
        "store.read_s": s("store.read"),
        "store.page_hits": c["store.page_hits"],
        "store.page_misses": c["store.page_misses"],
        "store.bytes_paged": c["store.bytes_paged"],
        "store.hit_rate": _ratio(c["store.page_hits"], c["store.page_hits"] + c["store.page_misses"]),
        "store.runs_per_pass": _ratio(c["store.runs.items"], runs_calls),
        "store.materialize_s": inc("store.materialize"),
        "kernels.scatter_s": s("kernels.scatter"),
        "kernels.frontier_s": s("kernels.frontier"),
        "kernels.intersect_s": s("kernels.intersect"),
        "tlav.pagerank_self_s": s("tlav.pagerank"),
        "tlav.wcc_self_s": s("tlav.wcc"),
        "tlav.bfs_self_s": s("tlav.bfs"),
        "tlav.engine_s": s("tlav.engine"),
        "delta.apply_s": s("delta.apply"),
        "delta.edges_changed": c["delta.edges_changed"],
        "incremental.repair_s": s("incremental.apply"),
        "incremental.pushes": c["incremental.pushes"],
        "incremental.init_s": s("incremental.init"),
        # In-process chunk work inside a fan-out is matching work.
        "matching.self_s": s("matching.count") + max(0.0, s("parallel.map") - dispatch),
        "matching.candidates_scanned": c["matching.candidates_scanned"],
        "parallel.dispatch_s": dispatch,
        "parallel.auto_serial": c["parallel.auto_serial"],
        "parallel.auto_thread": c["parallel.auto_thread"],
        "parallel.auto_process": c["parallel.auto_process"],
        "sampler.sample_s": s("sampler.sample"),
        "sampler.sampled_edges": c["sampler.sampled_edges"],
        "gnn.tensors_s": s("gnn.tensors"),
        "loader.self_s": s("loader.next"),
        "fetch.gather_s": s("fetch.gather"),
        "fetch.rows": c["fetch.rows"],
        "fetch.cache_hit_rate": _ratio(c["fetch.hits"], c["fetch.hits"] + c["fetch.misses"]),
        "compute.step_s": s("compute.forward", "compute.backward", "compute.optim", "gnn.train"),
        "compute.eval_s": s("gnn.eval", "compute.eval_forward"),
        "infer.compute_s": s("gnn.infer", "compute.infer_forward"),
        "infer.messages": c["infer.messages"],
        "serve.dispatch_s": s("serve.run", "serve.submit"),
        "serve.cache_lookup_s": s("serve.cache_lookup"),
        "serve.cache_put_s": s("serve.cache_put"),
        "serve.cache_invalidate_s": s("serve.cache_invalidate"),
        "serve.cache_hit_rate": _ratio(c["serve.cache_hits"], c["serve.cache_hits"] + c["serve.cache_misses"]),
        "serve.cache_promoted": c["serve.cache_promoted"],
        "serve.cache_invalidated": c["serve.cache_invalidated"],
        "serve.footprint_s": inc("serve.footprint"),
        "serve.registry_s": s("serve.update"),
        "obs.counter_incs": c["obs.counter_incs"],
        "trace.wall_s": traced_wall,
        "trace.spans": len(tr.start),
        "trace.overhead_s": overhead,
        "residual_s": residual,
        "residual_share": _ratio(residual, traced_wall),
    }
    for name, _ in PER_LAYER:
        if name.startswith("serve.engine_s."):
            out[name] = inc("serve.engine." + name[len("serve.engine_s."):])
    out["serve.sim_ops_p95"] = 0.0
    out.update(extra)
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return {name: float(out[name]) for name, _ in PER_LAYER}


def dump_summary(path: str, metrics: Dict[str, float], tr: Tracer) -> None:
    incl, own = tr.totals()
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "inclusive_s": incl, "self_s": own,
                   "counts": dict(tr.counts)}, fh, indent=1, sort_keys=True)
