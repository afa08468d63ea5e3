"""Timing, memory and statistics helpers shared by the workloads."""

from __future__ import annotations

import collections
import os
import resource
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

perf = time.perf_counter

#: The output of an operation that failed.
FAILED = object()


def process_age() -> float:
    """Seconds since this process started (interpreter start-up included).

    Read from ``/proc``: start time in clock ticks since boot against
    the system uptime, both at 10 ms resolution.  Returns 0 where that
    is unavailable or implausible, so set-up time then counts from the
    first line of the runner.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age <= 30.0 else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Recorder:
    """Per-kind latency samples and the count of operations attempted
    and failed.

    An operation fails when it raises, or when the workload marks its
    answer as a failure (a served request that is not ok).  A failed
    operation's output is :data:`FAILED`, and the checks skip it: they
    speak of the operations that did not fail.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def timed(self, kind: str, fn: Callable, *args, **kwargs):
        """Run one operation of ``kind`` and record its wall time."""
        self.attempted += 1
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - counted, reported, not fatal
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return FAILED
        self.samples[kind].append(perf() - t0)
        return result

    def fail(self, kind: str, why: str) -> None:
        """Count one attempted operation of ``kind`` as failed."""
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{kind}: {why}")

    def add(self, kind: str, seconds: float) -> None:
        """Record a sample the caller timed inside an operation (e.g. one
        training step of an epoch)."""
        self.samples[kind].append(seconds)

    def median_ms(self, kind: str) -> float:
        return 1000.0 * median(self.samples[kind])


class Workload:
    """What the runner drives; each workload module subclasses this.

    ``frequent`` and ``major`` name the sample kinds reported as
    ``op_p50_ms`` and ``major_op_ms``.  ``tracer`` is set by the runner
    during traced rounds only.
    """

    name = ""
    frequent = major = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def setup(self) -> None:
        """Generate the inputs and build what the rounds query (timed)."""
        raise NotImplementedError

    def prepare(self, r: int) -> None:
        """Make round ``r``'s inputs (untimed)."""

    def run_round(self, r: int, rec: Recorder) -> None:
        """Run round ``r``'s operations, timing each into ``rec``."""
        raise NotImplementedError

    def check_round(self) -> List[str]:
        """Failures in the last round's outputs (untimed)."""
        raise NotImplementedError

    def final_checks(self) -> List[str]:
        return []

    def detail(self, rec: Recorder) -> Dict[str, float]:
        """The workload's own figures, printed beside the metrics."""
        return {}

    def layer_extra(self) -> Dict[str, float]:
        """Per-layer values only the workload can read."""
        return {}

    def close(self) -> None:
        pass


def preferential_attachment(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Barabási–Albert edge list: each new vertex links to ``m`` distinct
    earlier vertices drawn in proportion to their degree."""
    edges = [(v, m) for v in range(m)]
    pool = [x for e in edges for x in e]
    for v in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            targets.add(pool[int(rng.integers(len(pool)))])
        for t in sorted(targets):
            edges.append((v, t))
            pool.extend((v, t))
    return np.asarray(edges, dtype=np.int64)
