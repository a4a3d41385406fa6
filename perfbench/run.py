"""Benchmark of sketchls, run from the root of a source checkout:

    python3 perfbench/run.py --workload desk-normal --seed 1 --seconds 30 --trace 0

Each run builds its inputs from ``--seed``, runs rounds of the workload for
``--seconds`` (at least one round), checks every output against an
independent reference, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs half the time untraced and half
traced and reports the per-layer metrics.  Workloads, metrics and why each
workload was chosen are described in ``perfbench/README.md``.

The library is imported from ``src/`` of the checkout and nowhere else, and
the BLAS thread count is pinned in this process's environment before numpy
loads, so replication workers x BLAS threads never exceed the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_out")
# Names are repeated from workloads.py, which imports numpy and so may only
# be imported after the BLAS threads are pinned.
WORKLOAD_NAMES = ("desk-normal", "top-lognormal", "suite-t2")
#: the harness workload runs replications on a thread pool with one-thread BLAS
POOLED = {"suite-t2"}
MIN_SETUPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: self-test sizes that finish in seconds")
    parser.add_argument("--inject-failure", action="store_true",
                        help="self-test: the first operation raises a SketchlsError")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def thread_budget(workload: str) -> tuple[int, int]:
    """(BLAS threads, replication workers) with their product <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    if workload in POOLED:
        return 1, min(2, nproc)
    return nproc, 1


def run_phase(runner, seconds, tracer=None):
    rounds, start = [], time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(runner.round(len(rounds), tracer))
    return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sketchls", "__init__.py")):
        print(f"error: no sketchls sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    blas_threads, workers = thread_budget(args.workload)
    for var in THREAD_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, SRC)

    import sketchls

    if os.path.dirname(os.path.abspath(sketchls.__file__)) != os.path.join(SRC, "sketchls"):
        print(f"error: imported sketchls from {sketchls.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import report
    from tracer import Tracer
    from workloads import Runner, get_workload

    wl = get_workload(args.workload, args.size)
    os.makedirs(SCRATCH, exist_ok=True)
    runner = Runner(wl, args.seed, workers, SCRATCH, args.inject_failure)
    env = report.environment(wl, THREAD_VARS, blas_threads, workers,
                             len(os.sched_getaffinity(0)))
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    if args.trace:
        timed = run_phase(runner, args.seconds / 2)
        tracer = Tracer()
        missing = tracer.install()
        try:
            traced = run_phase(runner, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics, untraced = report.per_layer(wl, timed, traced, missing, workers)
        units = {name: unit for name, unit, _ in report.per_layer_spec()}
        spans_path = os.path.join(SCRATCH, f"spans-{wl.name}-seed{args.seed}.jsonl")
        with open(spans_path, "w") as fh:
            for i, rnd in enumerate(traced):
                for s in rnd.spans:
                    fh.write(json.dumps({"round": i, **s._asdict()}) + "\n")
        print("trace " + json.dumps({"untraced": untraced, "spans": spans_path,
                                     "overhead_s": metrics["trace.overhead_s"]}))
        rounds = timed + traced
    else:
        rounds = timed = run_phase(runner, args.seconds)
        extra = [runner.setup_only(len(rounds) + i)
                 for i in range(max(0, MIN_SETUPS - len(rounds)))]
        metrics = report.end_to_end(rounds, extra)
        units = dict(report.END_TO_END)

    detail = {
        "workload": wl.name, "seed": args.seed, "rounds": len(rounds),
        "ops": report.op_summary(timed),
        "csv_sha256": [r.csv_sha256 for r in rounds if r.csv_sha256],
        "warmup_errors": sorted({e for r in rounds for e in r.warmup_errors}),
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    ops = [op for r in rounds for op in r.ops]
    result = {
        "correct": not any(op.failure and not op.raised for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failure is not None for op in ops),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
