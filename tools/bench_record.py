"""Record the benchmark for a change against its parent, in one session.

    python3 tools/bench_record.py --parent HEAD --out BENCH_36.json
    python3 tools/bench_record.py --parent HEAD~1 --out BENCH_37.json --pairs 12

The parent side is ``src/`` at ``--parent`` (``git archive``) and the change
side is the working tree's ``src/``; both get a copy of the working tree's
``perfbench/``, so both run identical benchmark code.  Each side lives in its
own temporary directory, and the repository is only read; a sha256 over
each side's sorted ``src/`` files ties the record to the code it timed.
Pair ``i`` runs ``perfbench/run.py --trace 0`` once per side on seed
``i + 1``, the parent first in even pairs and the change first in odd ones,
and reads the last JSON line each run prints.

The output file holds, per workload and end-to-end metric of
``BENCHMARK.json``, both sides' values, medians and quartiles, the pairs the
change won (ties count for neither) and a verdict:

- ``improved``: there are at least ten pairs, the change won at least nine
  tenths of them, its median is better than the parent's by more than the
  parent's interquartile range, and no larger share of its operations
  failed (with fewer pairs no gain is claimed, and the rules below decide);
- ``unresolved``: otherwise, when the parent's interquartile range exceeds
  the metric's bound (relative to its median) and not every change run reads
  better than every parent run;
- ``worse``: otherwise, when the change's median is worse than the parent's
  by more than the bound;
- ``no worse``: otherwise.

Each workload also keeps, as ``run_env``, the environment record its first
run printed: numpy's version, the BLAS build, nproc and the thread variables.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
MIN_PAIRS = 10


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--out", required=True, help="path of the BENCH json file to write")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    return args


def git(*args) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def build_roots(parent: str, tmp: str) -> dict:
    """``{"parent": root, "change": root}``: a checkout-shaped directory per
    side, each with its own ``src/`` and the working tree's ``perfbench/``."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", parent, "src"], check=True,
                             capture_output=True).stdout
    roots = {side: os.path.join(tmp, side) for side in ("parent", "change")}
    # extraction filters exist from Python 3.10.12, 3.11.4 and 3.12
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(roots["parent"], **safe)
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(roots["change"], "src"), ignore=skip)
    for root in roots.values():
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(root, "perfbench"),
                        ignore=skip)
    return roots


def src_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of ``root/src``'s files, in
    sorted order."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(src) for f in files)
    for path in paths:
        digest.update(os.path.relpath(path, src).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_once(root: str, workload: str, seed: int, seconds: float, size: str) -> tuple:
    """(result, env) of one benchmark run: its last JSON line and the
    environment record it printed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env


def quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, [25, 75])]


def verdict(parent, change, sign: float, bound: float, more_failures: bool) -> tuple:
    """(pairs the change won, verdict) of one metric; ``sign`` is +1 when
    lower is better and -1 when higher is."""
    p, c = sign * np.asarray(parent), sign * np.asarray(change)
    won = int((c < p).sum())
    p_med, c_med = float(np.median(p)), float(np.median(c))
    q1, q3 = np.percentile(p, [25, 75])
    scale = abs(p_med) or 1.0
    if (len(p) >= MIN_PAIRS and won >= WIN_SHARE * len(p) and p_med - c_med > q3 - q1
            and not more_failures):
        return won, "improved"
    if (q3 - q1) / scale > bound and not c.max() < p.min():
        return won, "unresolved"
    if (c_med - p_med) / scale > bound:
        return won, "worse"
    return won, "no worse"


def summarize(runs: dict, first: list, specs: list) -> dict:
    """The record of one workload from its runs per side."""
    failed = {side: [r["failed"] for r in rs] for side, rs in runs.items()}
    attempted = {side: [r["attempted"] for r in rs] for side, rs in runs.items()}
    share = {side: sum(failed[side]) / max(1, sum(attempted[side])) for side in runs}
    more_failures = share["change"] > share["parent"]
    metrics = {}
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        sign = 1.0 if spec["better"] == "lower" else -1.0
        won, word = verdict(values["parent"], values["change"], sign, spec["bound"],
                            more_failures)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **values,
            "parent_median": float(np.median(values["parent"])),
            "change_median": float(np.median(values["change"])),
            "parent_quartiles": quartiles(values["parent"]),
            "change_quartiles": quartiles(values["change"]),
            "pairs_won": won, "pairs": len(values["parent"]), "verdict": word,
        }
    return {"first": first, "failed": failed, "attempted": attempted,
            "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
            "more_failures": more_failures, "metrics": metrics}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    args = parse_args(argv, [w["name"] for w in benchmark["workloads"]])
    specs = benchmark["end_to_end"]
    record = {
        "parent": {"rev": args.parent, "commit": git("rev-parse", "--verify",
                                                      f"{args.parent}^{{commit}}")},
        "change": {"head": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench"))},
        "size": args.size, "seconds": args.seconds, "pairs": args.pairs,
        "seeds": [i + 1 for i in range(args.pairs)], "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        roots = build_roots(args.parent, tmp)
        for side, root in roots.items():
            record[side]["src_sha256"] = src_digest(root)
        for workload in args.workloads:
            runs, first, run_env = {"parent": [], "change": []}, [], None
            for i, seed in enumerate(record["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                first.append(order[0])
                for side in order:
                    result, env = run_once(roots[side], workload, seed, args.seconds, args.size)
                    runs[side].append(result)
                    run_env = run_env or env
                    print(f"{workload} pair {i} {side}: "
                          + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                          file=sys.stderr, flush=True)
            record["workloads"][workload] = {"run_env": run_env,
                                             **summarize(runs, first, specs)}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: parent {m['parent_median']:.4g} change "
                  f"{m['change_median']:.4g} {m['unit']}, won {m['pairs_won']}/{m['pairs']}, "
                  f"{m['verdict']}")
    if args.pairs < MIN_PAIRS:
        print(f"{args.pairs} pairs: a gain needs {MIN_PAIRS}, so none is claimed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
