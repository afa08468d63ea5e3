"""Answers computed apart from the program, and the checks that use them.

Every function here works from the benchmark's own edge lists with
numpy/scipy only; none imports ``repro``.  A check returns a list of
failure messages (empty when the program's output is right), so a run
can report every failed check instead of stopping at the first.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse.linalg import spsolve


def adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetric 0/1 adjacency of an undirected edge list (no self-loops)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    keep = edges[:, 0] != edges[:, 1]
    u, v = edges[keep, 0], edges[keep, 1]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    a = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    a.sum_duplicates()
    a.data[:] = 1.0  # a pair listed twice is still one edge
    return a


def edge_set(edges: np.ndarray) -> set:
    """Undirected edges as ``{(min, max)}``, self-loops dropped."""
    out = set()
    for u, v in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        if u != v:
            out.add((min(u, v), max(u, v)))
    return out


def pagerank_fixed(a: sp.csr_matrix, iterations: int, damping: float = 0.85) -> np.ndarray:
    """Power iteration from uniform, dangling mass spread evenly."""
    n = a.shape[0]
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    pt = (a.T @ sp.diags(inv)).tocsr()
    x = np.full(n, 1.0 / n)
    dangling = deg == 0
    for _ in range(iterations):
        x = (1.0 - damping) / n + damping * (pt @ x + x[dangling].sum() / n)
    return x


def pagerank_leaky(a: sp.csr_matrix, damping: float = 0.85) -> np.ndarray:
    """Exact fixed point of ``p = (1-d)/n + d * P^T p`` (dangling mass
    leaks), normalized to sum 1 — the quantity a residual-push solver
    converges to."""
    n = a.shape[0]
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv = np.divide(1.0, deg, out=np.zeros(n), where=deg > 0)
    system = sp.identity(n, format="csc") - damping * (a.T @ sp.diags(inv)).tocsc()
    p = spsolve(system, np.full(n, (1.0 - damping) / n))
    return p / p.sum()


def component_min_labels(a: sp.csr_matrix) -> np.ndarray:
    """Each vertex labelled with the smallest vertex id in its component."""
    _, comp = csgraph.connected_components(a, directed=False)
    n = a.shape[0]
    first = np.full(comp.max() + 1 if n else 0, n, dtype=np.int64)
    np.minimum.at(first, comp, np.arange(n, dtype=np.int64))
    return first[comp]


def bfs_levels(a: sp.csr_matrix, source: int) -> np.ndarray:
    """Unweighted hop distance from ``source``; -1 when unreachable."""
    dist = csgraph.shortest_path(a, directed=False, unweighted=True, indices=source)
    out = np.full(dist.shape, -1, dtype=np.int64)
    finite = np.isfinite(dist)
    out[finite] = dist[finite].astype(np.int64)
    return out


def edge_triangles(a: sp.csr_matrix) -> np.ndarray:
    """Triangles on each edge ``u < v``: common-neighbor counts."""
    t = (a @ a).multiply(a).tocoo()
    return t.data[t.row < t.col].astype(np.int64)


def diamond_count(a: sp.csr_matrix) -> int:
    """Diamonds (two triangles sharing an edge, chord optional).

    Each diamond has exactly one shared edge, and an edge in ``t``
    triangles is the shared edge of ``C(t, 2)`` diamonds.
    """
    t = edge_triangles(a)
    return int((t * (t - 1) // 2).sum())


def triangle_count(a: sp.csr_matrix) -> int:
    return int(edge_triangles(a).sum() // 3)


# ----------------------------------------------------------------------
# Checks: each returns failure messages
# ----------------------------------------------------------------------


def check_pagerank(got: np.ndarray, want: np.ndarray, rtol: float = 1e-9) -> List[str]:
    got = np.asarray(got, dtype=np.float64)
    fails = []
    if got.shape != want.shape:
        return [f"pagerank shape {got.shape} != {want.shape}"]
    if abs(got.sum() - 1.0) > 1e-9:
        fails.append(f"pagerank sums to {got.sum():.12f}, not 1")
    err = float(np.max(np.abs(got - want) / np.maximum(want, 1e-300)))
    if not err <= rtol:
        fails.append(f"pagerank differs from power iteration by rel {err:.3e}")
    return fails


def check_components(got: np.ndarray, want_min_labels: np.ndarray) -> List[str]:
    got = np.asarray(got, dtype=np.int64)
    if got.shape != want_min_labels.shape:
        return [f"wcc shape {got.shape} != {want_min_labels.shape}"]
    # Same partition iff the label maps are bijective between the two.
    pairs = set(zip(got.tolist(), want_min_labels.tolist()))
    if len(pairs) != len(set(got.tolist())) or len(pairs) != len(
        set(want_min_labels.tolist())
    ):
        return ["wcc partition differs from connected_components"]
    return []


def check_levels(got: np.ndarray, want: np.ndarray, what: str = "bfs") -> List[str]:
    got = np.asarray(got, dtype=np.int64)
    if got.shape != want.shape:
        return [f"{what} shape {got.shape} != {want.shape}"]
    bad = np.flatnonzero(got != want)
    if bad.size:
        v = int(bad[0])
        return [f"{what} level of vertex {v} is {int(got[v])}, want {int(want[v])}"]
    return []


def check_count(got: int, want: int, what: str) -> List[str]:
    return [] if int(got) == int(want) else [f"{what} count {got} != {want}"]


def check_edge_set(got: Iterable, want: set, what: str = "store") -> List[str]:
    got_set = edge_set(np.asarray(list(got), dtype=np.int64))
    if got_set == want:
        return []
    missing = len(want - got_set)
    extra = len(got_set - want)
    return [f"{what} edge set differs: {missing} missing, {extra} extra"]


def check_epoch_coverage(seen: Sequence[np.ndarray], train_nodes: np.ndarray) -> List[str]:
    """Every train node appears exactly once across one epoch's batches."""
    got = np.concatenate(list(seen)) if len(seen) else np.empty(0, dtype=np.int64)
    if got.size != train_nodes.size or not np.array_equal(
        np.sort(got), np.sort(train_nodes)
    ):
        dupes = got.size - np.unique(got).size
        return [
            f"epoch saw {got.size} seeds ({dupes} repeated) for "
            f"{train_nodes.size} train nodes"
        ]
    return []


def check_losses(epoch_losses: Sequence[float]) -> List[str]:
    fails = []
    if not all(np.isfinite(epoch_losses)):
        fails.append("non-finite training loss")
    if len(epoch_losses) >= 2 and not epoch_losses[-1] < epoch_losses[0]:
        fails.append(
            f"last epoch loss {epoch_losses[-1]:.4f} not below first "
            f"{epoch_losses[0]:.4f}"
        )
    return fails


def check_accuracy(acc: float, num_classes: int, floor_factor: float = 2.0) -> List[str]:
    """Accuracy far above the 1/C chance level: at least ``factor / C``."""
    floor = floor_factor / num_classes
    return [] if acc >= floor else [f"val accuracy {acc:.3f} below {floor:.3f}"]


def sage_forward(a: sp.csr_matrix, x: np.ndarray, layers: Sequence) -> np.ndarray:
    """Full-graph GraphSAGE-mean forward from ``(weight, bias)`` pairs.

    Mean over the closed neighborhood (self-loop included), concat with
    the vertex's own row, affine map, ReLU between layers.
    """
    n = a.shape[0]
    closed = (a + sp.identity(n, format="csr")).tocsr()
    deg = np.asarray(closed.sum(axis=1)).ravel()
    mean_op = sp.diags(1.0 / deg) @ closed
    h = x
    for i, (weight, bias) in enumerate(layers):
        h = np.concatenate([h, mean_op @ h], axis=1) @ weight + bias
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h


def check_predictions(got: np.ndarray, want: np.ndarray, what: str) -> List[str]:
    got = np.asarray(got, dtype=np.int64)
    if got.shape != want.shape:
        return [f"{what} shape {got.shape} != {want.shape}"]
    bad = int(np.count_nonzero(got != want))
    return [f"{what}: {bad} of {got.size} predictions differ"] if bad else []


def check_l1(got: np.ndarray, want: np.ndarray, bound: float, what: str) -> List[str]:
    err = float(np.abs(np.asarray(got) - want).sum())
    return [] if err <= bound else [f"{what} L1 error {err:.3e} above {bound:.3e}"]


def check_neighbors(got: Sequence[int], want: Optional[set], node: int) -> List[str]:
    want_list = sorted(want or ())
    if list(got) != want_list:
        return [
            f"neighbors({node}) served {len(got)} ids, want {len(want_list)}"
        ]
    return []

