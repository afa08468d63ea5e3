#!/usr/bin/env python3
"""Steadiness check: two sets of runs, compared metric by metric.

    python3 perfbench/steady.py

Runs ``BENCHMARK.json``'s command ten times per workload in each of two
sets, each run with its own seed (set k uses seeds ``k*100+1 ..``),
workloads interleaved so a slow spell of the host hits all of them.
For every workload and end-to-end metric it prints each set's median
and interquartile range (``statistics.quantiles(n=4)``) as a share of
the median, and how far the second median moved from the first
(positive: worse), next to the metric's bound.  A spread or a move in
either direction beyond the bound, or a failed-operation share that
differs between the sets, is flagged ``FAIL`` and makes the exit
status 1 -- except a ``setup_s`` spread, which is flagged
``unresolved``: each run times one cold set-up, so its spread is the
host's and only its median is compared.  Spreads above a third of the
bound are marked too.  Raw values go to ``.perfbench/``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = (1, 2)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    raw: Dict[str, Dict[int, list]] = {w: {k: [] for k in SETS} for w in workloads}
    for k in SETS:
        for i in range(1, RUNS + 1):
            for w in workloads:
                t0 = time.time()
                result = run_once(spec, w, 100 * k + i)
                raw[w][k].append(result)
                print(f"set {k} run {i} {w}: {time.time() - t0:.1f}s "
                      f"correct={result['correct']} failed={result['failed']}",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':16} {'metric':12} {'median1':>10} {'iqr1':>7} "
          f"{'median2':>10} {'iqr2':>7} {'moved':>7} {'bound':>6}  verdict")
    for w in workloads:
        first_set, second_set = raw[w][1], raw[w][2]
        fail_shares = {
            sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
            for s in (first_set, second_set)
        }
        if len(fail_shares) > 1 or not all(r["correct"] for r in first_set + second_set):
            ok = False
            print(f"{w:16} FAIL: failed shares {sorted(fail_shares)} or a check failed")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first, second = (
                spread([r["metrics"][name]["value"] for r in s]) for s in (first_set, second_set)
            )
            sign = 1.0 if m["better"] == "lower" else -1.0
            moved = sign * (second["median"] - first["median"]) / first["median"]
            wide = any(st["iqr_share"] > bound for st in (first, second))
            verdict = []
            if wide and name != "setup_s":
                verdict.append("spread")
            if abs(moved) > bound:
                verdict.append("moved")
            ok = ok and not verdict
            note = "FAIL " + ",".join(verdict) if verdict else "ok"
            if wide and name == "setup_s":
                note += " (unresolved: spread above bound)"
            elif any(st["iqr_share"] > bound / 3 for st in (first, second)):
                note += " (spread above bound/3)"
            print(f"{w:16} {name:12} {first['median']:10.4g} {first['iqr_share']:7.3f} "
                  f"{second['median']:10.4g} {second['iqr_share']:7.3f} {moved:+7.3f} "
                  f"{bound:6.2f}  {note}")
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
