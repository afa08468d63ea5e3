"""``gnn_minibatch``: sampled GraphSAGE training and inference on a store.

A planted-partition graph with informative features is stored with hash
partitions and feature shards.  Each round trains one epoch with
``train_sampled`` (SAGE, fanouts (10, 10), batch 64, the CLI's default
32-row LRU feature cache, ``prefetch=0``, sampled per-epoch evaluation)
and then runs ``infer_sampled`` over every vertex.  The sampler,
``GraphTensors``, feature fetch with its cache accounting, and model
compute do the work; the store only serves point reads.  Set-up is
dominated by the generator.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

import numpy as np

import reference as ref
from common import FAILED, Recorder, Workload, perf

CLASSES = 3
COMMUNITY = 600
P_IN, P_OUT = 0.02, 0.002
FEATURE_NOISE = 1.5
PARTS = 8
BATCH = 64
FANOUTS = (10, 10)
CACHE_ROWS = 32  # ``repro minibatch``'s default LRU capacity
#: Nodes whose sampled prediction (fanout >= max degree) is compared
#: with a full-graph forward computed apart from the program.
EXACT_NODES = 192


class GnnMinibatch(Workload):
    name = "gnn_minibatch"
    frequent, major = "step", "infer"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self._rec: Optional[Recorder] = None
        self.epoch_seeds: List[List[np.ndarray]] = []
        self.epoch_losses: List[float] = []
        self.val_accuracy: List[float] = []
        self.infer_accuracy: List[float] = []
        self.last: Dict[str, object] = {}

    def setup(self) -> None:
        from repro.gnn.caching import LRUCache
        from repro.gnn.dataloader import MiniBatchLoader
        from repro.gnn.models import NodeClassifier
        from repro.graph import generators, store
        from repro.obs import MetricsRegistry

        graph, labels = generators.planted_partition(
            CLASSES, COMMUNITY, P_IN, P_OUT, seed=self.seed
        )
        self.n = n = graph.num_vertices
        self.indptr = np.asarray(graph.indptr)
        self.indices = np.asarray(graph.indices)
        self.labels = labels
        rng = np.random.default_rng([self.seed, 1])
        self.gen_features = np.eye(CLASSES)[labels] + rng.normal(0, FEATURE_NOISE, (n, CLASSES))
        self.train_mask = np.zeros(n, dtype=bool)
        self.train_mask[rng.permutation(n)[: n // 2]] = True
        self.val_mask = ~self.train_mask
        self.train_nodes = np.flatnonzero(self.train_mask)
        path = os.path.join(self.workdir, "gnn")
        store.build_store(graph, path, partition="hash", num_parts=PARTS,
                          features=self.gen_features)
        self.graph = store.open_store(path)
        self.features = self.graph.features()
        self.model = NodeClassifier(CLASSES, 16, CLASSES, layer="sage", seed=self.seed)
        # One registry for cache, loader and trainer, as ``repro minibatch`` wires it.
        self.obs = MetricsRegistry()
        self.loader = MiniBatchLoader(
            self.graph, items=self.train_nodes, batch_size=BATCH, fanouts=FANOUTS,
            features=self.features, seed=self.seed,
            cache=LRUCache(CACHE_ROWS, obs=self.obs), prefetch=0, obs=self.obs,
        )
        self._epoch = self.loader.epoch
        self.loader.epoch = self._timed_epoch

    def _timed_epoch(self):
        """The loader's epoch, with one step timed per batch.

        A step runs from the moment a batch reaches the trainer to the
        moment the next one is staged (or the epoch ends): the model's
        compute on the batch plus staging its successor.
        """
        inner = self._epoch()
        seen: List[np.ndarray] = []
        self.epoch_seeds.append(seen)
        rec, tracer = self._rec, self.tracer
        last = None
        while True:
            idx = tracer.enter("loader.next") if tracer is not None else None
            try:
                mb = next(inner, None)
            finally:
                if idx is not None:
                    tracer.exit(idx)
            if last is not None:
                rec.add("step", perf() - last)
            if mb is None:
                return
            seen.append(np.array(mb.seeds))
            last = perf()
            yield mb

    def run_round(self, r: int, rec: Recorder) -> None:
        from repro.gnn import dataloader, train

        self._rec = rec
        report = rec.timed(
            "epoch", train.train_sampled,
            self.model, self.graph, self.features, self.labels, self.train_mask,
            self.val_mask, epochs=1, batch_size=BATCH, fanouts=FANOUTS,
            seed=self.seed, obs=self.obs, loader=self.loader,
        )
        infer_report = dataloader.InferReport()
        preds = rec.timed(
            "infer", dataloader.infer_sampled, self.model, self.graph,
            features=self.features, batch_size=BATCH, fanouts=FANOUTS,
            seed=self.seed + r, report=infer_report,
        )
        self.last = {"report": report, "preds": preds}

    def check_round(self) -> List[str]:
        report, preds = self.last["report"], self.last["preds"]
        fails: List[str] = []
        if report is not FAILED:
            fails += ref.check_epoch_coverage(self.epoch_seeds[-1], self.train_nodes)
            losses = np.asarray(report.losses, dtype=np.float64)
            if not np.all(np.isfinite(losses)):
                fails.append("non-finite training loss")
            self.epoch_losses.append(float(losses.mean()))
            self.val_accuracy.append(float(report.final_val_accuracy))
        if preds is not FAILED:
            preds = np.asarray(preds)
            if preds.shape != (self.n,) or preds.min() < 0 or preds.max() >= CLASSES:
                fails.append("inference returned out-of-range classes")
            else:
                self.infer_accuracy.append(float(np.mean(preds == self.labels)))
        return fails

    def final_checks(self) -> List[str]:
        from repro.gnn import dataloader

        fails: List[str] = []
        if self.epoch_losses:  # some epoch did not fail
            fails += ref.check_losses(self.epoch_losses)
            fails += ref.check_accuracy(self.val_accuracy[-1], CLASSES)
        if not np.array_equal(self.features, self.gen_features):
            fails.append("feature shards differ from the generated features")
        a = ref.adjacency(
            np.stack([np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices], 1),
            self.n,
        )
        max_degree = int(np.diff(self.indptr).max())
        nodes = np.sort(
            np.random.default_rng([self.seed, 3]).choice(self.n, EXACT_NODES, replace=False)
        )
        got = dataloader.infer_sampled(
            self.model, self.graph, features=self.features, nodes=nodes,
            batch_size=BATCH, fanouts=(max_degree, max_degree), seed=self.seed,
        )
        weights = [(layer.weight.data, layer.bias.data) for layer in self.model.layers]
        want = ref.sage_forward(a, self.features, weights)[nodes].argmax(axis=1)
        fails += ref.check_predictions(got, want, "exact-fanout inference")
        return fails

    def detail(self, rec: Recorder) -> Dict[str, float]:
        if not self.epoch_losses:
            return {}
        return {
            "epoch_s": rec.median_ms("epoch") / 1000.0,
            "step_ms": rec.median_ms("step"),
            "infer_nodes_per_s": self.n / (rec.median_ms("infer") / 1000.0),
            "val_accuracy": self.val_accuracy[-1],
            "infer_accuracy": self.infer_accuracy[-1] if self.infer_accuracy else 0.0,
            "epochs": float(len(self.epoch_losses)),
            "first_epoch_loss": self.epoch_losses[0],
            "last_epoch_loss": self.epoch_losses[-1],
            "feature_cache_hit_rate": self.loader.fetcher.hit_rate,
        }

    def close(self) -> None:
        self.graph.close()
