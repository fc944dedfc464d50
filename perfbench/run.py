"""Benchmark of pballs: one workload per run, end to end or traced by layer.

    python3 perfbench/run.py --workload {scan,verify,mc} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; pballs is imported from its
``src/`` directory, never from an installed copy.  One process, one
thread.  A run repeats timed passes over the workload's fixed inputs
until S seconds have gone by, each untraced pass after fresh set-ups,
then checks every pass's outputs against an independent reference.  The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics when --trace 0 and the
per-layer metrics when --trace 1.  Raw timings, the failed operations
and, when traced, the spans of the first pass go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")

# Fresh set-ups before each untraced pass; setup_s is the median of all of
# them.  Spreading them over the run, rather than doing them all at its
# start, samples the same slow and fast spells of the host as the passes.
SETUPS_PER_PASS = 3


def _fresh_setup(workload_cls, seed: int):
    """Import pballs anew, build the workload's inputs and warm up; time it all."""
    for name in [m for m in sys.modules if m == "pballs" or m.startswith("pballs.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    pballs = importlib.import_module("pballs")
    importlib.import_module("pballs.cli")
    workload = workload_cls(seed)
    workload.warm_up()
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(pballs.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported pballs from {pballs.__file__}, not from {SRC}")
    return elapsed, workload


def _run(workload_cls, seed: int, seconds: float, tracer=None):
    """Repeat whole timed passes until ``seconds`` have gone by.

    Untraced, each pass follows SETUPS_PER_PASS fresh set-ups.  Traced, one
    set-up precedes the tracer's installation and all the passes.
    """
    setups, outputs, times = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        if tracer is None or not times:
            for _ in range(SETUPS_PER_PASS if tracer is None else 1):
                elapsed, workload = _fresh_setup(workload_cls, seed)
                setups.append(elapsed)
        if tracer is not None:
            if not times:
                tracer.install()
            tracer.keep_spans = not times
        t0 = time.perf_counter()
        outputs.append(workload.run_pass())
        times.append(time.perf_counter() - t0)
    return workload, setups, outputs, times


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(SRC, "pballs", "__init__.py")):
        print(f"perfbench: no pballs source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401  (the harness's own dependency, loaded before any set-up is timed)

    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else None
    try:
        workload, setups, outputs, times = _run(cls, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import reference

    result = workload.check(outputs)
    ref_problems = reference.self_check()
    result.structural += [f"reference self-check: {p}" for p in ref_problems]

    if tracer is None:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "pass_s": _metric(statistics.median(times), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = {name: _metric(v, u) for name, (v, u) in tracer.metrics(len(times)).items()}
        metrics["trace.pass_s"] = _metric(statistics.median(times), "s")

    failed_ops = sorted({op for op, _ in result.failed})
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_s": setups, "pass_s": times, "peak_rss_mb": peak_rss_mb,
        "attempted": result.attempted, "failed": len(result.failed),
        "failures": {op: probs for op, probs in result.failed},
        "structural": result.structural,
        "metrics": metrics,
    }
    if tracer is not None:
        raw["spans"] = tracer.spans
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)

    for problem in result.structural:
        print(f"perfbench: {problem}", file=sys.stderr)
    for op in failed_ops:
        print(f"perfbench: failed: {op}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.structural,
        "attempted": result.attempted,
        "failed": len(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
