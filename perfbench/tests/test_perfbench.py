"""The benchmark's own tests: every check rejects a wrong answer, runs
exit non-zero when a check fails, and the declared metrics match what
the runner prints.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import analytics_paged  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import serve_mutate  # noqa: E402
import spans  # noqa: E402
from common import preferential_attachment  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    edges = preferential_attachment(60, 3, np.random.default_rng(7))
    return edges, ref.adjacency(edges, 60)


# -- the references agree with brute force -----------------------------------


def test_diamond_and_triangle_counts_match_enumeration():
    edges = preferential_attachment(30, 4, np.random.default_rng(5))
    a = ref.adjacency(edges, 30)
    es = ref.edge_set(edges)
    adj = {v: set() for v in range(30)}
    for u, v in es:
        adj[u].add(v)
        adj[v].add(u)
    triangles = sum(1 for u, v in es for w in adj[u] & adj[v] if w > v)
    diamonds = 0
    for quad in itertools.combinations(range(30), 4):
        # A diamond on 4 vertices: some pair (the chord-free one may be
        # absent) is the shared edge of two triangles covering the rest.
        for x, y in itertools.combinations(quad, 2):
            p, q = [z for z in quad if z not in (x, y)]
            if y in adj[x] and {p, q} <= adj[x] & adj[y]:
                diamonds += 1
    assert ref.triangle_count(a) == triangles
    assert ref.diamond_count(a) == diamonds


def test_bfs_levels_match_python_bfs(graph):
    _, a = graph
    levels = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in a.indices[a.indptr[u]: a.indptr[u + 1]]:
                if int(w) not in levels:
                    levels[int(w)] = levels[u] + 1
                    nxt.append(int(w))
        frontier = nxt
    want = np.array([levels.get(v, -1) for v in range(60)])
    assert np.array_equal(ref.bfs_levels(a, 0), want)


def test_pagerank_references_are_fixed_points(graph):
    _, a = graph
    n = a.shape[0]
    p = ref.pagerank_leaky(a)
    deg = np.asarray(a.sum(axis=1)).ravel()
    step = 0.15 / n + 0.85 * (a.T @ (p / deg))
    assert np.allclose(step / step.sum(), p, atol=1e-12)
    x = ref.pagerank_fixed(a, 200)
    assert abs(x.sum() - 1.0) < 1e-12
    assert np.allclose(x, p, atol=1e-9)  # no dangling vertices: same limit


# -- each check rejects a wrong answer ------------------------------------------


def test_pagerank_check_rejects_swapped_entries(graph):
    _, a = graph
    want = ref.pagerank_fixed(a, 5)
    assert ref.check_pagerank(want.copy(), want) == []
    wrong = want.copy()
    hi, lo = int(np.argmax(want)), int(np.argmin(want))
    wrong[[hi, lo]] = wrong[[lo, hi]]
    assert ref.check_pagerank(wrong, want)
    assert ref.check_pagerank(want * 1.001, want)


def test_bfs_check_rejects_one_level_off(graph):
    _, a = graph
    want = ref.bfs_levels(a, 3)
    assert ref.check_levels(want.copy(), want) == []
    wrong = want.copy()
    wrong[int(np.argmax(want))] += 1
    assert ref.check_levels(wrong, want)


def test_components_check_rejects_a_wrong_partition():
    edges = np.array([[0, 1], [2, 3], [4, 5]])
    a = ref.adjacency(edges, 6)
    want = ref.component_min_labels(a)
    assert list(want) == [0, 0, 2, 2, 4, 4]
    assert ref.check_components(np.array([7, 7, 3, 3, 9, 9]), want) == []
    assert ref.check_components(np.array([0, 0, 0, 0, 4, 4]), want)
    assert ref.check_components(np.array([0, 1, 2, 2, 4, 4]), want)


def test_neighbors_check_rejects_a_missing_edge():
    assert ref.check_neighbors([1, 4, 9], {9, 4, 1}, 0) == []
    assert ref.check_neighbors([1, 9], {9, 4, 1}, 0)
    assert ref.check_neighbors([1, 4, 9, 11], {9, 4, 1}, 0)


def test_epoch_check_rejects_a_node_seen_twice():
    train = np.array([2, 5, 8, 13])
    assert ref.check_epoch_coverage([np.array([8, 2]), np.array([13, 5])], train) == []
    assert ref.check_epoch_coverage([np.array([8, 2]), np.array([13, 8])], train)
    assert ref.check_epoch_coverage([np.array([8, 2, 5]), np.array([13, 8])], train)
    assert ref.check_epoch_coverage([np.array([8, 2])], train)


def test_count_edge_set_and_model_checks_reject_wrong_answers(graph):
    edges, a = graph
    assert ref.check_count(ref.diamond_count(a) + 1, ref.diamond_count(a), "diamond")
    es = ref.edge_set(edges)
    assert ref.check_edge_set(edges, es) == []
    assert ref.check_edge_set(edges[1:], es)
    assert ref.check_losses([1.0, 0.7, 0.5]) == []
    assert ref.check_losses([1.0, 0.7, 1.2])
    assert ref.check_losses([1.0, float("nan"), 0.5])
    assert ref.check_accuracy(0.9, 3) == []
    assert ref.check_accuracy(0.4, 3)
    assert ref.check_predictions(np.array([0, 1, 2]), np.array([0, 1, 2]), "p") == []
    assert ref.check_predictions(np.array([0, 2, 2]), np.array([0, 1, 2]), "p")
    want = ref.pagerank_leaky(a)
    assert ref.check_l1(want + 1e-9, want, 1e-6, "inc") == []
    # One vertex's score off by a tenth of the mean is a partly broken repair.
    wrong = want.copy()
    wrong[0] += 0.1 / want.size
    assert ref.check_l1(wrong, want, 1e-6, "inc")


def test_sage_reference_matches_the_program_forward(graph):
    from repro.gnn.layers import GraphTensors
    from repro.gnn.models import NodeClassifier
    from repro.gnn.tensor import Tensor
    from repro.graph.csr import Graph

    edges, a = graph
    x = np.random.default_rng(1).normal(size=(60, 3))
    model = NodeClassifier(3, 8, 3, layer="sage", seed=2)
    got = model(GraphTensors(Graph.from_edges(edges.tolist(), num_vertices=60)), Tensor(x)).data
    weights = [(layer.weight.data, layer.bias.data) for layer in model.layers]
    assert np.allclose(ref.sage_forward(a, x, weights), got, atol=1e-12)


# -- a failed check makes the run fail -------------------------------------------


def _run(capsys, workload):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_run_exits_nonzero_on_swapped_pagerank(monkeypatch, capsys):
    from repro.tlav import vectorized

    real = vectorized.pagerank_dense

    def swapped(*args, **kwargs):
        values = real(*args, **kwargs)
        values[[0, 1]] = values[[1, 0]]
        return values

    monkeypatch.setattr(vectorized, "pagerank_dense", swapped)
    code, result = _run(capsys, "analytics_paged")
    assert code == 1 and result["correct"] is False


def test_run_exits_nonzero_on_missing_neighbor(monkeypatch, capsys):
    from repro.serve import endpoints

    real = endpoints.Endpoint.run

    def dropped(self, record, params, executor=None):
        value, cost = real(self, record, params, executor)
        if self.name == "graph.neighbors" and value:
            value = value[:-1]
        return value, cost

    monkeypatch.setattr(endpoints.Endpoint, "run", dropped)
    code, result = _run(capsys, "serve_mutate")
    assert code == 1 and result["correct"] is False


def test_failed_requests_are_counted_not_checked(monkeypatch, capsys):
    from repro.serve import endpoints

    real = endpoints.Endpoint.run

    def broken(self, record, params, executor=None):
        if self.name == "tlav.wcc":
            raise RuntimeError("injected fault")
        return real(self, record, params, executor)

    monkeypatch.setattr(endpoints.Endpoint, "run", broken)
    code, result = _run(capsys, "serve_mutate")
    wcc_share = dict(serve_mutate.MIX)["tlav.wcc"] / (sum(dict(serve_mutate.MIX).values()) + 1)
    assert code == 0 and result["correct"] is True
    assert result["failed"] == round(result["attempted"] * wcc_share)


def test_raised_operations_are_counted_not_checked(monkeypatch, capsys):
    from repro.tlav import vectorized

    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(vectorized, "wcc_dense", broken)
    code, result = _run(capsys, "analytics_paged")
    assert code == 0 and result["correct"] is True
    # One WCC in each round's 1 PageRank + 1 WCC + BFSs + 1 count.
    per_round = 3 + analytics_paged.BFS_PER_ROUND
    assert result["failed"] * per_round == result["attempted"]


def test_run_exits_nonzero_when_a_train_node_is_seen_twice(monkeypatch, capsys):
    from repro.gnn import dataloader

    real = dataloader.ItemSampler.batches

    def repeated(self, rng):
        for i, batch in enumerate(real(self, rng)):
            yield np.append(batch, batch[0]) if i == 0 else batch

    monkeypatch.setattr(dataloader.ItemSampler, "batches", repeated)
    code, result = _run(capsys, "gnn_minibatch")
    assert code == 1 and result["correct"] is False


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mutate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- declared metrics ---------------------------------------------------------------


def test_benchmark_json_declares_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_patches_restore_the_originals():
    from repro.graph.csr import Graph
    from repro.tlav import incremental, vectorized

    before = (vectorized.pagerank_dense, vars(Graph)["from_edges"],
              incremental.IncrementalPageRank.apply)
    tracer = spans.Tracer()
    patches = spans.program_patches(tracer)
    patches.apply()
    assert vectorized.pagerank_dense is not before[0]
    Graph.from_edges([(0, 1), (1, 2)])
    patches.remove()
    after = (vectorized.pagerank_dense, vars(Graph)["from_edges"],
             incremental.IncrementalPageRank.apply)
    assert after == before
    assert "apply" not in vars(incremental.IncrementalPageRank)
    assert tracer.names == ["graph.construct"]
