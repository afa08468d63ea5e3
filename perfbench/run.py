#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analytics_paged --seed 1 \\
        --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``.  After a warm-up
round, whole rounds of the workload's operations run until
``--seconds`` of measured time have passed; every round's outputs are
checked (outside the timed region) against answers computed apart from
the program.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the workload's own figures under their own names.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps every
layer's entry points in spans (alternating traced and untraced rounds,
so the difference is the tracing overhead) and reports the per-layer
metrics instead; the spans are written to ``.perfbench/`` at the end.

An operation that raises, or a served request that is not ok, counts
in ``failed``; its output is not checked, and the checks (``correct``)
speak of the operations that did not fail.

Exit status: 0 when every check passed, 1 when a check failed (the
result line still prints, with ``"correct": false``), 2 when the
program cannot be found.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import Recorder, median, peak_rss_mb, perf, process_age  # noqa: E402

#: Process age when this file started running (start-up and imports
#: before ``_T0`` belong to set-up too).
START_AGE = process_age() - (perf() - _T0)

#: Workload name -> module holding its class (same name, CamelCase).
WORKLOADS = {
    "analytics_paged": "AnalyticsPaged",
    "gnn_minibatch": "GnnMinibatch",
    "serve_mutate": "ServeMutate",
}

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_s", "s"),
    ("op_p50_ms", "ms"),
    ("major_op_ms", "ms"),
]

#: Measured rounds run even when ``--seconds`` has already passed.
MIN_ROUNDS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ImportError(f"no program sources under {src}")
    sys.path.insert(0, src)
    importlib.import_module("repro")


def run(args) -> int:
    import spans

    module = importlib.import_module(args.workload)
    workload = getattr(module, WORKLOADS[args.workload])
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    tracer = spans.Tracer() if args.trace else None
    patches = spans.program_patches(tracer) if tracer is not None else None
    wl = workload(args.seed, workdir)
    warm, rec = Recorder(), Recorder()
    round_times = []
    traced = untraced = 0.0
    failures = []
    try:
        if patches is not None:
            patches.apply()
        t0 = perf()
        wl.setup()
        setup_work = perf() - t0
        setup_s = START_AGE + (perf() - _T0)
        if patches is not None:
            patches.remove()
        # Round 0 warms caches and pools; it is checked, not timed.
        wl.prepare(0)
        wl.run_round(0, warm)
        failures += wl.check_round()
        r = 1
        measured = 0.0
        # Traced runs trace odd rounds and stop after an even number of
        # measured rounds, so traced and untraced rounds pair up.
        while r <= MIN_ROUNDS or measured < args.seconds or (args.trace and r % 2 == 0):
            wl.prepare(r)
            traced_round = patches is not None and r % 2 == 1
            if traced_round:
                patches.apply()
                wl.tracer = tracer
            t0 = perf()
            wl.run_round(r, rec)
            dt = perf() - t0
            if traced_round:
                patches.remove()
                wl.tracer = None
                traced += dt
            else:
                untraced += dt
            measured += dt
            round_times.append(dt)
            failures += wl.check_round()
            r += 1
        failures += wl.final_checks()
        detail = wl.detail(rec)
        extra = wl.layer_extra()
    finally:
        if patches is not None and patches.active:
            patches.remove()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        values = spans.layer_metrics(
            tracer, setup_work + traced, traced - untraced, extra
        )
        units = dict(spans.PER_LAYER)
        out_dir = os.path.join(ROOT, ".perfbench")
        stem = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}")
        tracer.write(stem + ".npz")
        spans.dump_summary(stem + ".json", values, tracer)
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "round_s": median(round_times),
            "op_p50_ms": rec.median_ms(wl.frequent),
            "major_op_ms": rec.median_ms(wl.major),
        }
        units = dict(END_TO_END)
    detail.update(rounds=len(round_times), measured_s=sum(round_times))
    print(json.dumps({"workload": args.workload, "detail": detail,
                      "check_failures": failures[:10],
                      "failed_operations": (warm.errors + rec.errors)[:10]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": warm.attempted + rec.attempted,
        "failed": warm.failed + rec.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
