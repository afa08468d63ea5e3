"""``analytics_paged``: dense TLAV queries and a pattern count on a store
paged through a shard cache smaller than its shards.

This is the larger-than-RAM path: the graph is streamed through
``ingest_edge_stream`` (hash partitioner, 8 partitions) and opened with
a shard-cache budget of half the store's CSR shard bytes, so every
superstep pages.  The pattern count materializes the store once and is
matching-bound.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

import reference as ref
from common import FAILED, Recorder, Workload, preferential_attachment

#: Vertices and edges per new vertex of the preferential-attachment graph.
N, M = 400, 5
PARTS = 8
#: Shard-cache budget as a share of the CSR shard bytes (``< 1`` pages).
BUDGET_SHARE = 0.5
PAGERANK_ITERATIONS = 5
BFS_PER_ROUND = 4


class AnalyticsPaged(Workload):
    name = "analytics_paged"
    #: The frequent operation (``op_p50_ms``) and the major one (``major_op_ms``).
    frequent, major = "bfs", "pagerank"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self._refs: Dict[str, object] = {}
        self._bfs_refs: Dict[int, np.ndarray] = {}
        self.last: Dict[str, object] = {}
        self.auto_choices: Dict[str, float] = {}

    def setup(self) -> None:
        from repro.graph import store
        from repro.matching import diamond_pattern
        from repro.parallel import ParallelExecutor

        rng = np.random.default_rng([self.seed, 1])
        self.edges = preferential_attachment(N, M, rng)
        path = os.path.join(self.workdir, "analytics")
        manifest = store.ingest_edge_stream(self.edges.tolist(), N, path, num_parts=PARTS)
        self.shard_bytes = sum(
            part.files[kind].nbytes
            for part in manifest.partitions
            for kind in ("indptr", "indices")
        )
        self.budget = int(self.shard_bytes * BUDGET_SHARE)
        self.graph = store.open_store(path, cache_budget=self.budget)
        self.executor = ParallelExecutor(backend="auto", workers=2)
        self.pattern = diamond_pattern()

    def prepare(self, r: int) -> None:
        self.sources = np.random.default_rng([self.seed, 2, r]).integers(N, size=BFS_PER_ROUND)

    def run_round(self, r: int, rec: Recorder) -> None:
        from repro.matching import backtrack
        from repro.matching.backtrack import MatchStats
        from repro.tlav import vectorized

        g = self.graph
        last = self.last
        last["pagerank"] = rec.timed(
            "pagerank", vectorized.pagerank_dense, g, iterations=PAGERANK_ITERATIONS
        )
        last["wcc"] = rec.timed("wcc", vectorized.wcc_dense, g)
        last["bfs"] = [
            (int(s), rec.timed("bfs", vectorized.bfs_dense, g, int(s))) for s in self.sources
        ]
        last["match"] = rec.timed(
            "match", backtrack.count_matches, g, self.pattern,
            executor=self.executor, stats=MatchStats(),
        )

    def _ref(self, key: str, make):
        if key not in self._refs:
            self._refs[key] = make()
        return self._refs[key]

    def check_round(self) -> List[str]:
        a = self._ref("adjacency", lambda: ref.adjacency(self.edges, N))
        last = self.last
        fails: List[str] = []
        if last["pagerank"] is not FAILED:
            fails += ref.check_pagerank(
                last["pagerank"],
                self._ref("pagerank", lambda: ref.pagerank_fixed(a, PAGERANK_ITERATIONS)),
            )
        if last["wcc"] is not FAILED:
            fails += ref.check_components(
                last["wcc"], self._ref("wcc", lambda: ref.component_min_labels(a))
            )
        for source, levels in last["bfs"]:
            if levels is FAILED:
                continue
            if source not in self._bfs_refs:
                self._bfs_refs[source] = ref.bfs_levels(a, source)
            fails += ref.check_levels(levels, self._bfs_refs[source])
        if last["match"] is not FAILED:
            fails += ref.check_count(
                last["match"], self._ref("diamonds", lambda: ref.diamond_count(a)), "diamond"
            )
        return fails

    def final_checks(self) -> List[str]:
        stored = self.graph.to_graph()
        src = np.repeat(np.arange(N, dtype=np.int64), np.diff(stored.indptr))
        pairs = np.stack([src, np.asarray(stored.indices, dtype=np.int64)], axis=1)
        return ref.check_edge_set(pairs, ref.edge_set(self.edges))

    def detail(self, rec: Recorder) -> Dict[str, float]:
        auto = self.executor.obs.counter("parallel.auto_decisions")
        return {
            "pagerank_s": rec.median_ms("pagerank") / 1000.0,
            "wcc_s": rec.median_ms("wcc") / 1000.0,
            "bfs_ms": rec.median_ms("bfs"),
            "match_s": rec.median_ms("match") / 1000.0,
            "shard_bytes": float(self.shard_bytes),
            "cache_budget_bytes": float(self.budget),
            **{f"auto_{b}": auto.value(backend=b) for b in ("serial", "thread", "process")},
        }

    def close(self) -> None:
        from repro.parallel import shutdown_pools

        self.graph.close()
        self.executor.close()
        shutdown_pools()
