"""Command-line interface: ``sketchls gen | solve | bench <sub>``.

``gen`` materializes a synthetic dataset as CSV, ``solve`` runs one solver on
CSV data (centering by default), and ``bench`` drives the experiment suite
from a JSON config.  Every command writes a manifest alongside its outputs
with the fully resolved configuration, library version, and PRNG algorithm;
re-running a command with the manifest's configuration reproduces the CSVs
byte for byte (wall-clock columns aside).

CSV conventions: RFC 4180 with a header row; floats are serialized with 17
significant digits so a read-write round trip is exact.  All errors go to
stderr with an ``error:`` prefix and a non-zero exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, replace
from itertools import zip_longest

import numpy as np

from . import __version__
from .bench import (
    DELTA_VARIANTS,
    ExperimentConfig,
    lambda_sweep,
    run_convergence,
    run_delta_table,
    run_init_comparison,
    run_ridge_ablation,
    run_time_to_precision,
)
from .datagen import DISTRIBUTIONS, DataSpec, center, make_dataset
from .errors import ConfigError, ParseError, SketchlsError
from .precond import LambdaRule
from .sketch import derive_rng
from .solvers import METHODS as SOLVERS
from .solvers import SolveTrace, full_ls

PRNG_ALGORITHM = "numpy-pcg64"
SOLVE_METHODS = ("full", *SOLVERS)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv_atomic(path: str, header, rows) -> None:
    """Write an RFC 4180 CSV via a temp file + rename so readers never see a
    partial file."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row[key]) for key in header])
    _atomic_write_text(path, buf.getvalue())


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path: str, command: str, config: dict, started: float, extra=None):
    manifest = {
        "command": command,
        "config": config,
        "library_version": __version__,
        "prng_algorithm": PRNG_ALGORITHM,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra:
        manifest.update(extra)
    _atomic_write_text(path, json.dumps(manifest, indent=2, default=str) + "\n")


def read_matrix_csv(path: str) -> np.ndarray:
    """Read a numeric CSV with a header row; errors carry row/column."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        width = len(header)
        data = []
        for i, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ParseError(f"{path}: row {i} has {len(row)} fields, expected {width}")
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                bad = next(j for j, cell in enumerate(row) if not _is_float(cell))
                raise ParseError(
                    f"{path}: row {i}, column {bad + 1} ({header[bad]!r}) is not numeric"
                ) from None
            if not all(np.isfinite(values)):
                bad = next(j for j, v in enumerate(values) if not np.isfinite(v))
                raise ParseError(
                    f"{path}: row {i}, column {bad + 1} ({header[bad]!r}) is not finite"
                )
            data.append(values)
    if not data:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(data)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def read_vector_csv(path: str) -> np.ndarray:
    mat = read_matrix_csv(path)
    if mat.shape[1] != 1:
        raise ParseError(f"{path}: expected a single column, found {mat.shape[1]}")
    return mat[:, 0]


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags with the machine-parsable prefix."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=os.environ.get("SKETCHLS_THREADS", "1"),
        help="replication worker threads (env SKETCHLS_THREADS)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sketchls", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--dist", choices=DISTRIBUTIONS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--sigma-noise", type=float, default=3.0)
    _add_common(gen)

    solve = sub.add_parser("solve", help="run one solver on CSV data")
    solve.add_argument("--x", required=True, help="design matrix CSV")
    solve.add_argument("--y", required=True, help="response CSV (one column)")
    solve.add_argument("--method", choices=SOLVE_METHODS, required=True)
    solve.add_argument("--m", type=int, help="sketch/subsample size")
    solve.add_argument("--n-iter", type=int, default=20)
    solve.add_argument("--lam", type=float, help="explicit ridge weight")
    solve.add_argument(
        "--lam-rule",
        choices=("concentrated", "heavy-tailed"),
        default="concentrated",
        help="ridge rule when --lam is not given",
    )
    solve.add_argument(
        "--tol",
        type=float,
        default=0.0,
        help="early-stop displacement (aopt-ihs only; 0 disables it)",
    )
    solve.add_argument(
        "--no-center", action="store_true", help="skip centering the data"
    )
    solve.add_argument(
        "--scale",
        action="store_true",
        help="divide each column by its standard deviation after centering",
    )
    _add_common(solve)

    bench = sub.add_parser("bench", help="run a benchmark from a JSON config")
    bench_sub = bench.add_subparsers(dest="experiment", required=True)
    for name in ("init", "converge", "delta", "time", "ridge", "lambda-sweep"):
        b = bench_sub.add_parser(name)
        b.add_argument("--config", required=True, help="JSON config path")
        if name == "converge":
            b.add_argument(
                "--init",
                choices=("default", "aopt-for-all"),
                default=None,
                help="initializer policy override",
            )
        _add_common(b)
    return parser


def cmd_gen(args) -> int:
    started = time.time()
    spec = DataSpec(args.dist, args.n, args.d, args.seed, args.sigma_noise)
    ds = make_dataset(spec)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    d = ds.x.shape[1]
    write_csv_atomic(
        os.path.join(out, "X.csv"),
        [f"x{j}" for j in range(d)],
        [{f"x{j}": float(row[j]) for j in range(d)} for row in ds.x],
    )
    write_csv_atomic(
        os.path.join(out, "y.csv"), ["y"], [{"y": float(v)} for v in ds.y]
    )
    write_csv_atomic(
        os.path.join(out, "beta_star.csv"),
        ["beta_star"],
        [{"beta_star": float(v)} for v in ds.beta_star],
    )
    write_manifest(
        os.path.join(out, "gen_manifest.json"), "gen", asdict(spec), started
    )
    return 0


def cmd_solve(args) -> int:
    started = time.time()
    x = read_matrix_csv(args.x)
    y = read_vector_csv(args.y)
    if y.size != x.shape[0]:
        raise ParseError(
            f"y has {y.size} rows but X has {x.shape[0]}; the files do not match"
        )
    if not args.no_center:
        x, y = center(x, y)
    if args.scale:
        stds = x.std(axis=0)
        flat = np.flatnonzero(stds == 0.0)
        if flat.size:
            raise ParseError(f"{args.x}: column {flat[0] + 1} is constant, cannot scale")
        x = x / stds
    beta_ls = full_ls(x, y)
    method = args.method
    if method != "full" and args.m is None:
        raise ConfigError("m", f"--m is required for method {method!r}")

    if method == "full":
        trace = SolveTrace(
            betas=[beta_ls],
            objective=[0.5 * float(((x @ beta_ls - y) ** 2).sum())],
            dist_to_ls=[0.0],
        )
    else:
        lam = (
            float(args.lam)
            if args.lam is not None
            else LambdaRule(args.lam_rule.replace("-", "_")).resolve(x)
        )
        trace = SOLVERS[method](
            x, y, args.m, args.n_iter, derive_rng(args.seed), lam,
            beta_ls=beta_ls, tol=args.tol,
        )

    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    # alphas[t - 1] is the step to iterate t; unit-step methods record none
    trace_rows = [
        {"iter": it, "alpha": alpha, "objective": trace.objective[it],
         "dist_to_ls": trace.dist_to_ls[it]}
        for it, alpha in zip_longest(range(len(trace.betas)), [None, *trace.alphas])
    ]
    write_csv_atomic(
        os.path.join(out, "trace.csv"),
        ["iter", "alpha", "objective", "dist_to_ls"],
        trace_rows,
    )
    write_csv_atomic(
        os.path.join(out, "beta.csv"), ["beta"], [{"beta": float(v)} for v in trace.final]
    )
    config = {
        "x": args.x,
        "y": args.y,
        "method": method,
        "m": args.m,
        "n_iter": args.n_iter,
        "lam": args.lam,
        "lam_rule": args.lam_rule,
        "tol": args.tol,
        "center": not args.no_center,
        "scale": args.scale,
        "seed": args.seed,
    }
    write_manifest(os.path.join(out, "solve_manifest.json"), "solve", config, started)
    return 0


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError("config", f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"config file is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "config root must be a JSON object")
    return raw


_CONFIG_KEYS = {
    "dist", "n", "d", "m", "n_iter", "reps", "seed", "sigma_noise",
    "lambda_rule", "methods", "trim", "tol", "init_policy", "iter_cap",
    "n_grid", "proportions", "variants",
}


#: optional ExperimentConfig keys and their parsers; an absent key takes the
#: dataclass default
_OPTIONAL_KEYS = {
    "methods": tuple, "trim": float, "tol": float, "init_policy": str, "iter_cap": int,
}


def _lambda_rule_from(raw, dist: str) -> LambdaRule:
    if raw is None:
        return LambdaRule.for_distribution(dist)
    if isinstance(raw, (int, float)):
        return LambdaRule("explicit", float(raw))
    if isinstance(raw, str) and raw.replace("-", "_") in ("concentrated", "heavy_tailed"):
        return LambdaRule(raw.replace("-", "_"))
    raise ConfigError("lambda_rule", f"invalid lambda_rule: {raw!r}")


def parse_experiment_config(raw: dict, experiment: str, seed_override=None):
    """Validate a JSON config dict; missing/unknown keys raise ConfigError
    naming the offending key."""
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], f"unknown config key {sorted(unknown)[0]!r}")
    required = ["dist", "d", "m", "n_iter", "reps"]
    if experiment == "init":
        required.append("n_grid")
    else:
        required.append("n")
    for key in required:
        if key not in raw:
            raise ConfigError(key)
    seed = seed_override if seed_override is not None else int(raw.get("seed", 0))
    if experiment == "init":
        return {
            "n_grid": [int(v) for v in raw["n_grid"]],
            "d": int(raw["d"]),
            "m": int(raw["m"]),
            "n_iter": int(raw["n_iter"]),
            "reps": int(raw["reps"]),
            "dist": raw["dist"],
            "seed": seed,
            "sigma_noise": float(raw.get("sigma_noise", DataSpec.sigma_noise)),
            "trim": float(raw.get("trim", ExperimentConfig.trim)),
        }
    noise = {"sigma_noise": float(raw["sigma_noise"])} if "sigma_noise" in raw else {}
    spec = DataSpec(raw["dist"], int(raw["n"]), int(raw["d"]), seed, **noise)
    return ExperimentConfig(
        data=spec,
        m=int(raw["m"]),
        n_iter=int(raw["n_iter"]),
        reps=int(raw["reps"]),
        lambda_rule=_lambda_rule_from(raw.get("lambda_rule"), spec.dist),
        **{key: parse(raw[key]) for key, parse in _OPTIONAL_KEYS.items() if key in raw},
    )


def cmd_bench(args) -> int:
    started = time.time()
    raw = load_config(args.config)
    exp = args.experiment
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    threads = max(1, args.threads)

    cfg = parse_experiment_config(raw, exp, args.seed if "seed" not in raw else None)
    if exp == "init":
        rows, meta = run_init_comparison(threads=threads, **cfg)
        name, header = "init_mse.csv", ["n", "estimator", "mse1", "failures"]
        meta = {"failures": {f"{k[0]}/{k[1]}": v for k, v in meta["failures"].items()},
                "budget": meta["budget"]}
    else:
        if getattr(args, "init", None):
            cfg = replace(cfg, init_policy=args.init)
        if exp == "converge":
            rows, meta = run_convergence(cfg, threads=threads)
            name, header = "converge_mse.csv", ["method", "iter", "mse1", "mse2", "failures"]
        elif exp == "delta":
            variants = raw.get("variants", DELTA_VARIANTS)
            rows, meta = run_delta_table(cfg, variants=variants, threads=threads)
            name, header = "delta.csv", ["dist", "d", "variant", "delta_mean", "failures"]
        elif exp == "time":
            rows, meta = run_time_to_precision(cfg, threads=threads)
            name, header = "time.csv", ["method", "dist", "d", "mean_seconds", "mean_iters", "status"]
        elif exp == "ridge":
            rows, meta = run_ridge_ablation(cfg, threads=threads)
            name, header = "ridge_mse.csv", ["variant", "iter", "mse1", "mse2", "failures"]
        else:
            proportions = raw.get("proportions", [round(0.1 * k, 1) for k in range(1, 11)])
            rows, meta = lambda_sweep(cfg, proportions, threads=threads)
            name, header = "lambda_sweep.csv", ["dist", "d", "proportion", "delta_mean", "failures"]

    write_csv_atomic(os.path.join(out, name), header, rows)
    write_manifest(
        os.path.join(out, f"bench_{exp.replace('-', '_')}_manifest.json"),
        f"bench {exp}",
        cfg if isinstance(cfg, dict) else asdict(cfg),
        started,
        extra={
            "threads": threads,
            "meta": meta,
            "timing_note": (
                "wall-clock columns include sketch and preconditioner setup, "
                "exclude dataset generation, and are not byte-reproducible"
            ),
        },
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_bench(args)
    except (SketchlsError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
