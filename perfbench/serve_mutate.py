"""``serve_mutate``: a closed-loop client against a mutating served graph.

One client submits a request and calls ``Server.run`` before sending
the next.  The ``GraphRegistry`` holds two graphs: a hash-partitioned
in-memory graph that takes a seeded edge-update trickle through
``GraphRegistry.apply_updates`` (with an ``IncrementalPageRank`` kept in
lockstep), and a read-only stored graph for sampled ``gnn.predict``.
Serve dispatch and the result cache see writes beside reads (epoch
bumps, partition-scoped promotion); the per-vertex TLAV engine and
incremental maintenance do the work; the store and sampler are used
only lightly.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import numpy as np

import reference as ref
from common import FAILED, Recorder, Workload, percentile, preferential_attachment

#: The mutated graph: preferential attachment, hash-partitioned (32
#: partitions, as in ``repro.serve.loadgen``'s temporal scenario).
LIVE_N, LIVE_M, LIVE_PARTS = 1000, 3, 32
#: The stored graph behind ``gnn.predict``.
STORED_N, STORED_M, STORED_PARTS, FEATURE_DIM = 600, 3, 4, 8
#: Edges deleted (and as many inserted) per update batch, as a share of
#: the current edges: the temporal scenario's ``edge_fraction``.
UPDATE_SHARE = 0.004
INCREMENTAL_TOL = 1e-8
DAMPING = 0.85
#: ``graph.neighbors`` asks for one of the first ``HOT_SET`` vertices,
#: as the temporal scenario does.
HOT_SET = 48
#: Requests per round, by endpoint: the loadgen weights doubled to
#: whole counts.  ``graph.neighbors`` 6, ``tlav.pagerank`` 1,
#: ``tlav.bfs`` 1.5 and ``matching.count`` 0.5 come from the temporal
#: scenario, ``tlav.wcc`` 1 from the family mix, and ``gnn.predict`` 2
#: from the mixed scenario's stored-graph entry.  Parameters are theirs
#: too (4 PageRank iterations, uniform BFS sources, triangles, four
#: predicted nodes).
MIX = (
    ("graph.neighbors", 12),
    ("tlav.pagerank", 2),
    ("tlav.bfs", 3),
    ("matching.count", 1),
    ("tlav.wcc", 2),
    ("gnn.predict", 4),
)


class ServeMutate(Workload):
    name = "serve_mutate"
    frequent, major = "request", "update"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.responses: List[Tuple[str, dict, object]] = []
        self.sim_latencies: List[int] = []
        self.inc_errors: List[float] = []

    def setup(self) -> None:
        from repro.graph import store
        from repro.graph.csr import Graph
        from repro.graph.partition import hash_partition
        from repro.serve import GraphRegistry, Server
        from repro.tlav.incremental import IncrementalPageRank

        rng = np.random.default_rng([self.seed, 1])
        live_edges = preferential_attachment(LIVE_N, LIVE_M, rng)
        self.edges = ref.edge_set(live_edges)
        live = Graph.from_edges(live_edges.tolist(), num_vertices=LIVE_N)
        stored_edges = preferential_attachment(STORED_N, STORED_M, rng)
        stored = Graph.from_edges(stored_edges.tolist(), num_vertices=STORED_N)
        path = os.path.join(self.workdir, "serve-stored")
        store.build_store(stored, path, partition="hash", num_parts=STORED_PARTS,
                          features=rng.normal(size=(STORED_N, FEATURE_DIM)))
        self.graphs = GraphRegistry()
        self.graphs.register("live", store.InMemoryGraph(
            live, partition=hash_partition(live, LIVE_PARTS), name="live"))
        self.graphs.register("stored", path)
        self.server = Server(self.graphs)
        self.incremental = IncrementalPageRank(live, damping=DAMPING, tol=INCREMENTAL_TOL)

    # -- inputs --------------------------------------------------------------

    def _updates(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """Delete a share of the current edges and insert as many non-edges."""
        current = sorted(self.edges)
        k = max(1, int(round(UPDATE_SHARE * len(current))))
        dels = np.asarray([current[i] for i in rng.choice(len(current), k, replace=False)])
        ins = set()
        while len(ins) < k:
            u, v = (int(x) for x in rng.integers(LIVE_N, size=2))
            pair = (min(u, v), max(u, v))
            if u != v and pair not in self.edges:
                ins.add(pair)
        return np.asarray(sorted(ins), dtype=np.int64), dels.astype(np.int64)

    def _requests(self, rng: np.random.Generator) -> List[Tuple[str, dict, str]]:
        params = {
            "graph.neighbors": lambda: {"node": int(rng.integers(HOT_SET))},
            "tlav.pagerank": lambda: {"iterations": 4},
            "tlav.bfs": lambda: {"source": int(rng.integers(LIVE_N))},
            "matching.count": lambda: {"pattern": "triangle"},
            "tlav.wcc": lambda: {},
            "gnn.predict": lambda: {"nodes": sorted(
                int(v) for v in rng.choice(STORED_N, 4, replace=False))},
        }
        reqs = [
            (endpoint, params[endpoint](), "stored" if endpoint == "gnn.predict" else "live")
            for endpoint, count in MIX
            for _ in range(count)
        ]
        return [reqs[i] for i in rng.permutation(len(reqs))]

    # -- the round -------------------------------------------------------------

    def _update(self, ins: np.ndarray, dels: np.ndarray):
        delta = self.graphs.apply_updates("live", inserts=ins, deletes=dels)
        self.incremental.apply(ins, dels)
        return delta

    def _request(self, endpoint: str, params: dict, graph: str):
        from repro.serve import Request

        self.server.submit(Request(endpoint, params, graph=graph))
        (response,) = self.server.run()
        return response

    def prepare(self, r: int) -> None:
        rng = np.random.default_rng([self.seed, 2, r])
        self.batch = self._updates(rng)
        ins, dels = self.batch
        for pair in dels.tolist():
            self.edges.discard(tuple(pair))
        self.edges.update(tuple(p) for p in ins.tolist())
        self.requests = self._requests(rng)

    def run_round(self, r: int, rec: Recorder) -> None:
        self.updated = rec.timed("update", self._update, *self.batch) is not FAILED
        self.responses = []
        for endpoint, params, graph in self.requests:
            response = rec.timed("request", self._request, endpoint, params, graph)
            if response is not FAILED and not response.ok:
                rec.fail("request", f"{endpoint} answered {response.status}: {response.error}")
                response = FAILED
            self.responses.append((endpoint, params, response))

    def check_round(self) -> List[str]:
        pairs = np.asarray(sorted(self.edges), dtype=np.int64)
        a = ref.adjacency(pairs, LIVE_N)
        fails: List[str] = []
        adj: Dict[int, set] = {}
        for u, v in self.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        bfs_refs: Dict[int, np.ndarray] = {}
        for endpoint, params, response in self.responses:
            if response is FAILED:
                continue
            self.sim_latencies.append(int(response.latency))
            value = response.value
            if endpoint == "graph.neighbors":
                fails += ref.check_neighbors(value, adj.get(params["node"]), params["node"])
            elif endpoint == "tlav.bfs":
                src = params["source"]
                if src not in bfs_refs:
                    bfs_refs[src] = ref.bfs_levels(a, src)
                fails += ref.check_levels(value, bfs_refs[src], "served bfs")
            elif endpoint == "tlav.pagerank":
                want = ref.pagerank_fixed(a, params["iterations"])
                fails += ref.check_pagerank(value, want)
            elif endpoint == "tlav.wcc":
                fails += ref.check_components(value, ref.component_min_labels(a))
            elif endpoint == "matching.count":
                fails += ref.check_count(value, ref.triangle_count(a), "served triangle")
            elif endpoint == "gnn.predict":
                if len(value) != len(params["nodes"]) or not all(0 <= p < 3 for p in value):
                    fails.append(f"gnn.predict returned {value!r}")
        if self.updated:
            # Residual push stops with every residual below ``tol``, so
            # the summed error is at most n·tol/(1-d); twice that allows
            # for the renormalization to sum 1.
            exact = ref.pagerank_leaky(a, DAMPING)
            got = self.incremental.scores()
            self.inc_errors.append(float(np.abs(got - exact).sum()))
            fails += ref.check_l1(got, exact, 2 * LIVE_N * INCREMENTAL_TOL / (1.0 - DAMPING),
                                  "incremental pagerank")
        return fails

    def final_checks(self) -> List[str]:
        stats = self.server.stats
        fails = []
        if stats.in_flight != 0 or stats.admitted != (
            stats.completed + stats.shed + stats.expired + stats.degraded
        ):
            fails.append(
                f"ledger: admitted {stats.admitted} != completed {stats.completed} "
                f"+ shed {stats.shed} + expired {stats.expired} + degraded {stats.degraded}"
            )
        live = self.graphs.get("live").graph.to_graph()
        src = np.repeat(np.arange(LIVE_N, dtype=np.int64), np.diff(live.indptr))
        fails += ref.check_edge_set(
            np.stack([src, np.asarray(live.indices, dtype=np.int64)], 1),
            self.edges, "served snapshot",
        )
        return fails

    def detail(self, rec: Recorder) -> Dict[str, float]:
        requests = rec.samples["request"]
        return {
            "request_p50_ms": rec.median_ms("request"),
            "request_p95_ms": 1000.0 * percentile(requests, 95),
            "requests_per_s": len(requests) / sum(requests),
            "update_batch_ms": rec.median_ms("update"),
            "requests": float(len(requests)),
            "sim_ops_p95": self._sim_p95(),
            "cache_hit_rate": self.server.cache.hit_rate,
            "incremental_l1_error": max(self.inc_errors, default=0.0),
        }

    def _sim_p95(self) -> float:
        return percentile(self.sim_latencies, 95)

    def layer_extra(self) -> Dict[str, float]:
        return {"serve.sim_ops_p95": self._sim_p95()}

    def close(self) -> None:
        stored = self.graphs.get("stored").graph
        stored.close()
