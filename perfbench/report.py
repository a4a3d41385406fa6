"""Metrics of the sketchls benchmark: the environment record, end-to-end
metrics from untraced rounds, and per-layer metrics from traced rounds.

Per-layer times and counts are per round (mean over the traced rounds);
per-method figures are medians over the traced calls of that method, except
``iters``, which is taken on the first round's dataset so that it repeats
exactly for a seed.  Byte counts are computed from array shapes, not
measured.
"""

from __future__ import annotations

import glob
import os
import platform
import resource
import statistics
from collections import defaultdict

import numpy as np
import scipy

from tracer import SOLVER_ENTRY, SpanTree
from workloads import ITERATIVE, ONE_SHOT, Workload

END_TO_END = (("setup_s", "s"), ("round_s", "s"), ("peak_rss_mb", "MiB"))

TIMED = ("datagen.make_dataset", "sketch.srht_apply", "sketch.leverage_sample",
         "sketch.aopt_select", "linalg.gram", "linalg.cholesky", "linalg.solve_spd",
         "linalg.sym_eigvals", "linalg.validate", "precond.build_m", "precond.delta")
BENCH_RUNS = ("bench.converge", "bench.delta", "bench.ridge", "bench.lambda_sweep")
ITER_FIELDS = (("solve_s", "s"), ("setup_s", "s"), ("iter_s", "s"), ("iters", "count"),
               ("self_s", "s"), ("x_pass_equiv", "ratio"), ("sketch_share", "ratio"))
ONE_SHOT_FIELDS = (("solve_s", "s"), ("self_s", "s"), ("sketch_share", "ratio"))
_ENTRY_OF = {method: f"solvers.{fn}" for fn, method in SOLVER_ENTRY.items()}
#: span that roots one call of each method: the solver entry point, or the
#: benchmark's own operation span for the one-shot estimates
_ROOTS = {span: method for method, span in _ENTRY_OF.items()}
_ROOTS.update({f"op.{method}": method for method in ONE_SHOT})


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name in TIMED:
        spec += [(f"{name}_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    spec += [("linalg.validate_bytes", "B", "lower"), ("linalg.x_pass_s", "s", "lower")]
    for method in ITERATIVE:
        spec += [(f"solvers.{method}.{f}", unit, "lower") for f, unit in ITER_FIELDS]
    for method in ONE_SHOT:
        spec += [(f"solvers.{method}.{f}", unit, "lower") for f, unit in ONE_SHOT_FIELDS]
    spec += [(f"{name}_s", "s", "lower") for name in BENCH_RUNS]
    spec += [("bench.self_s", "s", "lower"), ("bench.worker_busy", "ratio", "higher"),
             ("bench.failures", "count", "lower"), ("bench.descent_violations", "count", "lower"),
             ("bench.reps_per_s", "1/s", "higher"),
             ("cli.self_s", "s", "lower"), ("cli.bytes_written", "B", "lower"),
             ("trace.overhead_s", "s", "lower"), ("trace.untraced", "count", "lower")]
    return spec


def expected_spans(wl: Workload) -> set:
    """Span names the workload must record; a zero count means a wrap target
    no longer sees the calls it was meant to see."""
    names = {"datagen.make_dataset", "sketch.aopt_select", "linalg.gram",
             "linalg.cholesky", "linalg.solve_spd", "linalg.validate", "precond.build_m"}
    if wl.kind == "suite":
        return names | {"sketch.srht_apply", "sketch.draw_sketch", "linalg.sym_eigvals",
                        "precond.delta", "solvers.acc_ihs_solve", "solvers.pw_gradient_solve",
                        "solvers.aopt_ihs_solve", "solvers.preconditioned_descent",
                        "cli.main", *BENCH_RUNS}
    names |= {_ENTRY_OF[op] for op in wl.ops if op in _ENTRY_OF}
    if {"ihs", "acc-ihs", "pw-gradient"} & set(wl.ops):
        names |= {"sketch.draw_sketch", "sketch.srht_apply"}
    if "srht-cs" in wl.ops:
        names |= {"sketch.srht_apply", "solvers.cs_estimate"}
    if "lev-cs" in wl.ops:
        names |= {"sketch.leverage_sample", "solvers.cs_estimate"}
    if "aopt-cs" in wl.ops:
        names.add("solvers.aopt_cs_estimate")
    return names


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds, extra_setups) -> dict:
    return {
        "setup_s": _median([r.setup_s for r in rounds] + list(extra_setups)),
        "round_s": _median([r.ops_s for r in rounds]),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_summary(rounds) -> dict:
    """Per operation: sample count, median, min and max seconds, the highest
    percentile with at least ten samples above it (when there are 11 or
    more), iterations per round (None for a failed or one-shot call) and
    failure reasons."""
    out = {}
    for r in rounds:
        for op in r.ops:
            entry = out.setdefault(op.name, {"seconds": [], "iters": [], "failures": []})
            entry["iters"].append(op.iters)
            if op.failure is None:
                entry["seconds"].append(op.seconds)
            else:
                entry["failures"].append(op.failure)
    for entry in out.values():
        secs = sorted(entry.pop("seconds"))
        entry.update(n=len(secs), median_s=_median(secs), min_s=min(secs, default=0.0),
                     max_s=max(secs, default=0.0))
        if len(secs) > 10:
            entry.update(p_high=round(100 * (len(secs) - 10) / len(secs), 1),
                         p_high_s=secs[-11])
    return out


def per_layer(wl: Workload, untraced_rounds, traced_rounds, missing, workers):
    """Per-layer metrics and the ``untraced`` coverage list."""
    tot = defaultdict(float)
    samples = defaultdict(list)
    seen = defaultdict(int)
    busy = capacity = 0.0
    for i, rnd in enumerate(traced_rounds):
        spans = rnd.spans
        tree = SpanTree(spans)
        for s in spans:
            seen[s.name] += 1
            dur = s.end - s.start
            if s.name in TIMED:
                tot[f"{s.name}.calls"] += 1
                if not tree.has_ancestor(s, lambda p, name=s.name: p.name == name):
                    tot[f"{s.name}_s"] += dur
                if s.name == "linalg.validate":
                    tot["linalg.validate_bytes"] += s.extra["bytes"] if s.extra else 0
            if s.name in BENCH_RUNS:
                tot[f"{s.name}_s"] += dur
                extents = {}
                for c in tree.children[s.sid]:
                    if c.worker:
                        lo, hi = extents.get(c.request, (c.start, c.end))
                        extents[c.request] = (min(lo, c.start), max(hi, c.end))
                busy += sum(hi - lo for lo, hi in extents.values())
                capacity += dur * workers
            if s.name.startswith("bench."):
                tot["bench.self_s"] += tree.self_s[s.sid]
            if s.name == "cli.main":
                tot["cli.self_s"] += tree.self_s[s.sid]
        for method, root in ((_ROOTS[s.name], s) for s in spans if s.name in _ROOTS):
            sub = tree.subtree(root)
            own = sum(tree.self_s[x.sid] for x in sub if x.name.startswith("solvers."))
            sketch = sum(x.end - x.start for x in sub if x.name.startswith("sketch.")
                         and not tree.has_ancestor(x, lambda p: p.name.startswith("sketch.")))
            key = f"solvers.{method}"
            samples[f"{key}.self_s"].append(own)
            samples[f"{key}.sketch_share"].append(sketch / (root.end - root.start))
            if root.extra:
                samples[f"{key}.setup_s"].append(root.extra["setup_s"])
                samples[f"{key}.iter_s"].append(root.extra["iter_s"])
                if i == 0:  # one seeded dataset, so the count repeats exactly
                    samples[f"{key}.iters"].append(root.extra["iters"])
                if root.extra["iters"] and rnd.x_pass_s:
                    samples[f"{key}.x_pass_equiv"].append(
                        own / root.extra["iters"] / rnd.x_pass_s)

    n_traced = max(len(traced_rounds), 1)
    all_rounds = list(untraced_rounds) + list(traced_rounds)
    metrics = {}
    for name, _, _ in per_layer_spec():
        if name in tot:
            metrics[name] = tot[name] / n_traced
        elif name in samples:
            metrics[name] = _median(samples[name])
        else:
            metrics[name] = 0.0
    for method, entry in op_summary(untraced_rounds).items():
        if f"solvers.{method}.solve_s" in metrics:
            metrics[f"solvers.{method}.solve_s"] = entry["median_s"]
    metrics["linalg.x_pass_s"] = _median([r.x_pass_s for r in traced_rounds if r.x_pass_s])
    if capacity:
        metrics["bench.worker_busy"] = busy / capacity
    if wl.kind == "suite":
        metrics["bench.reps_per_s"] = _median(
            [len(r.ops) * wl.reps / r.ops_s for r in untraced_rounds])
    metrics["bench.failures"] = statistics.mean(r.harness_failures for r in all_rounds)
    metrics["bench.descent_violations"] = statistics.mean(
        r.descent_violations for r in all_rounds)
    metrics["cli.bytes_written"] = statistics.mean(r.bytes_written for r in all_rounds)
    metrics["trace.overhead_s"] = (_median([r.ops_s for r in traced_rounds])
                                   - _median([r.ops_s for r in untraced_rounds]))
    untraced = sorted(missing) + sorted(n for n in expected_spans(wl) if not seen[n])
    metrics["trace.untraced"] = float(len(untraced))
    return metrics, untraced


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return caches


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def environment(wl: Workload, thread_vars, blas_threads: int, workers: int,
                nproc: int) -> dict:
    """Software, thread and hardware record printed with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _caches()
    llc = max((_size_bytes(v) for k, v in caches.items() if "Instruction" not in k), default=0)
    x_bytes = wl.x_bytes
    ratio = x_bytes / llc if llc else None
    if ratio is None:
        note = "no cache sizes readable"
    elif ratio >= 4:
        note = f"X is {ratio:.2f}x the last-level cache"
    else:
        note = (f"X is {ratio:.2f}x the last-level cache, not the 4x a bandwidth "
                f"measurement wants; the paper's shape is kept, not resized")
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {v: os.environ.get(v) for v in thread_vars},
        "blas_threads": blas_threads,
        "replication_workers": workers,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": caches,
        "shape": [wl.n, wl.d],
        "x_bytes_computed_from_shape": x_bytes,
        "x_vs_last_level_cache": note,
    }
