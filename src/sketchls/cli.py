"""Command-line interface: ``sketchls gen | solve | bench <sub>``.

``gen`` materializes a synthetic dataset as CSV, ``solve`` runs one solver on
CSV data (centering by default), and ``bench`` drives the experiment suite
from a JSON config file, the one source of every setting of a run besides
``--out-dir`` and ``--threads``.  Every command writes a manifest alongside
its outputs with the settings the run read (a ``solve`` manifest: the flags
its method reads, and the ridge weight it resolved), library version, and
PRNG algorithm.  A bench manifest's ``config`` holds the config keys its
experiment reads (:data:`BENCH_CSV`), defaults filled in from
``_CONFIG_KEYS``, and ``unread`` names the others the file set: written to
a file and passed as ``--config``, ``config`` reruns the command and
reproduces its CSV byte for byte (wall-clock columns aside).

CSV conventions: RFC 4180 with a header row; floats are serialized with 17
significant digits so a read-write round trip is exact.  All errors go to
stderr with an ``error:`` prefix and a non-zero exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import secrets
import sys
import time
from dataclasses import asdict, fields
from itertools import zip_longest

import numpy as np

from . import __version__
from .bench import (
    DELTA_VARIANTS,
    ExperimentConfig,
    _reads,
    lambda_sweep,
    run_convergence,
    run_delta_table,
    run_init_comparison,
    run_ridge_ablation,
    run_time_to_precision,
)
from .datagen import DISTRIBUTIONS, DataSpec, _center, make_dataset
from .errors import ConfigError, ParseError, SketchlsError
from .linalg import _check_xy, _finite_nonneg, _full_ls, _whole
from .precond import LambdaRule
from .sketch import _next_pow2, derive_rng
from .solvers import METHODS as SOLVERS
from .solvers import SolveTrace

PRNG_ALGORITHM = "numpy-pcg64"

#: the config keys of a data set, read by every experiment but ``init``
_DATA_KEYS = ("dist", "n", "d", "seed", "sigma_noise")


def _flat_failures(rows, meta):  # init's failures, keyed n/estimator, not (n, estimator)
    return rows, {**meta, "failures": {f"{n}/{e}": k for (n, e), k in meta["failures"].items()}}


#: each bench experiment: its CSV file and header, the config keys it reads
#: (``converge`` and ``time`` read ``lambda_rule`` only when one of their
#: ``methods`` reads a ridge weight), and the call giving its (rows, meta)
#: from (read config, threads), with meta's failure counts keyed by strings.
#: The calls look the library runners up in this module when they run, so a
#: wrapper patched onto one of those names sees the call.
BENCH_CSV = {
    "init": ("init_mse.csv", ["n", "estimator", "mse1", "failures"],
             ("dist", "n_grid", "d", "seed", "sigma_noise", "m", "n_iter", "reps", "trim"),
             lambda cfg, threads: _flat_failures(*run_init_comparison(threads=threads, **cfg))),
    "converge": ("converge_mse.csv", ["method", "iter", "mse1", "mse2", "failures"],
                 (*_DATA_KEYS, "m", "n_iter", "reps", "lambda_rule", "methods", "trim",
                  "init_policy"),
                 lambda cfg, threads: run_convergence(_experiment_config(cfg), threads)),
    "delta": ("delta.csv", ["dist", "d", "variant", "delta_mean", "failures"],
              (*_DATA_KEYS, "m", "reps", "lambda_rule", "variants"),
              lambda cfg, threads: run_delta_table(
                  _experiment_config(cfg), cfg["variants"], threads)),
    "time": ("time.csv", ["method", "dist", "d", "mean_seconds", "mean_iters", "status"],
             (*_DATA_KEYS, "m", "reps", "lambda_rule", "methods", "tol", "iter_cap"),
             lambda cfg, threads: run_time_to_precision(_experiment_config(cfg), threads)),
    "ridge": ("ridge_mse.csv", ["variant", "iter", "mse1", "mse2", "failures"],
              (*_DATA_KEYS, "m", "n_iter", "reps", "lambda_rule", "trim"),
              lambda cfg, threads: run_ridge_ablation(_experiment_config(cfg), threads)),
    "lambda-sweep": ("lambda_sweep.csv", ["dist", "d", "proportion", "delta_mean", "failures"],
                     (*_DATA_KEYS, "m", "reps", "proportions"),
                     lambda cfg, threads: lambda_sweep(
                         _experiment_config(cfg), cfg["proportions"], threads)),
}

_TIMING_NOTE = ("wall-clock columns include sketch and preconditioner setup, "
                "exclude dataset generation, and are not byte-reproducible")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle on a new file beside ``path``, which replaces ``path``
    when the block ends and is removed on an error, so readers never see a
    partial file.  Its mode is that of a plain ``open``: 0o666 less the umask."""
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{secrets.token_hex(8)}.part")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`_atomic_open`."""
    with _atomic_open(path) as handle:
        handle.write(text)


def _write_outputs(out: str, tables: dict, command: str, config: dict, started: float,
                   extra=None) -> None:
    """Write each ``{file: (header, rows)}`` table as an RFC 4180 CSV into
    ``out`` (created when missing), then the manifest file of ``command``.
    Each row is a sequence in header order, written as it is read."""
    os.makedirs(out, exist_ok=True)
    for name, (header, rows) in tables.items():
        with _atomic_open(os.path.join(out, name)) as handle:
            writer = csv.writer(handle, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(map(_fmt, row) for row in rows)
    record = {
        "command": command,
        "config": config,
        "library_version": __version__,
        "prng_algorithm": PRNG_ALGORITHM,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **(extra or {}),
    }
    manifest = command.replace(" ", "_").replace("-", "_") + "_manifest.json"
    _atomic_write_text(os.path.join(out, manifest),
                       json.dumps(record, indent=2, default=str) + "\n")


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned by every
    later one: parsing reads it and never changes it."""
    parser = _Parser(prog="sketchls", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--dist", choices=DISTRIBUTIONS, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--sigma-noise", type=float, default=DataSpec.sigma_noise)
    gen.add_argument("--seed", type=int, default=0, help="master seed")
    gen.add_argument("--out-dir", default=".", help="output directory")

    solve = sub.add_parser("solve", help="run one solver on CSV data")
    solve.add_argument("--x", required=True, help="design matrix CSV")
    solve.add_argument("--y", required=True, help="response CSV (one column)")
    solve.add_argument("--method", choices=("full", *SOLVERS), required=True)
    solve.add_argument("--m", type=int, help="sketch/subsample size")
    solve.add_argument("--n-iter", type=int, default=20)
    solve.add_argument("--lam", default="concentrated",
                       help="ridge weight >= 0, or the name of a ridge profile (aopt-ihs only)")
    solve.add_argument("--tol", type=float, default=0.0,
                       help="early-stop displacement (aopt-ihs only; 0 disables it)")
    solve.add_argument("--no-center", action="store_true", help="skip centering the data")
    solve.add_argument("--scale", action="store_true",
                       help="divide each column by its standard deviation after centering")
    solve.add_argument("--seed", type=int, default=0, help="seed of the randomized methods")
    solve.add_argument("--out-dir", default=".", help="output directory")

    bench = sub.add_parser("bench", help="run a benchmark from a JSON config")
    bench_sub = bench.add_subparsers(dest="experiment", required=True)
    for name in BENCH_CSV:
        b = bench_sub.add_parser(name)
        # the config file holds every setting of the run, its seed included
        b.add_argument("--config", required=True, help="JSON config path")
        b.add_argument("--out-dir", default=".", help="output directory")
        b.add_argument("--threads", type=int, default=1,
                       help="replication worker threads (>= 1)")
    return parser


def cmd_gen(args) -> int:
    started = time.time()
    spec = DataSpec(args.dist, args.n, args.d, args.seed, args.sigma_noise)
    ds = make_dataset(spec)
    # one row of Python floats at a time
    tables = {
        "X.csv": ([f"x{j}" for j in range(spec.d)], map(np.ndarray.tolist, ds.x)),
        "y.csv": (["y"], map(np.ndarray.tolist, ds.y[:, None])),
        "beta_star.csv": (["beta_star"], map(np.ndarray.tolist, ds.beta_star[:, None])),
    }
    _write_outputs(args.out_dir, tables, "gen", asdict(spec), started)
    return 0


def cmd_solve(args) -> int:
    started = time.time()
    _whole(args.n_iter, "--n-iter", least=0)
    _finite_nonneg(args.tol, "--tol")  # an inf tol would stop after one step
    _whole(args.seed, "--seed", least=0)
    try:
        lam = float(args.lam)
    except ValueError:
        lam = args.lam
    try:
        rule = _ridge_rule(lam)
    except ValueError:
        raise ConfigError(
            "--lam", f"--lam must be a finite number >= 0 or a profile name, got {args.lam}"
        ) from None
    method = args.method
    entry = SOLVERS.get(method)  # None for the full solve, which reads no setting
    reads = entry.reads if entry else ()
    if entry and args.m is None:
        raise ConfigError("m", f"--m is required for method {method!r}")
    if args.m is not None:
        _whole(args.m, "--m", least=1)
    x = read_matrix_csv(args.x)
    y = read_vector_csv(args.y)
    if y.size != x.shape[0]:
        raise ParseError(f"y has {y.size} rows but X has {x.shape[0]}; the files do not match")
    # a method that reads rng keeps m of the padded rows; the others m of the n rows
    rows = _next_pow2(x.shape[0]) if "rng" in reads else x.shape[0]
    if entry:
        _whole(args.m, "--m", most=rows)
    # X and y, this command's own, are centered and scaled in place, then
    # X is checked once, and once by the solve
    if not args.no_center:
        _center(x, y)
    if args.scale:
        stds = x.std(axis=0)
        flat = np.flatnonzero(stds == 0.0)
        if flat.size:
            raise ParseError(f"{args.x}: column {flat[0] + 1} is constant, cannot scale")
        x /= stds
    x, y = _check_xy(x, y)
    beta_ls = _full_ls(x, y)

    ridge_weight = rule._resolve(x) if "lam" in reads else None
    if entry is None:
        trace = SolveTrace(betas=[beta_ls], dist_to_ls=[0.0],
                           objective=[0.5 * float(((x @ beta_ls - y) ** 2).sum())])
    else:
        settings = entry.settings(rng=derive_rng(args.seed), lam=ridge_weight, tol=args.tol)
        trace = entry.solve(x, y, args.m, args.n_iter, beta_ls=beta_ls, **settings)

    # alphas[t - 1] is the step to iterate t; unit-step methods record none
    trace_rows = [(it, alpha, trace.objective[it], trace.dist_to_ls[it])
                  for it, alpha in zip_longest(range(len(trace.betas)), [None, *trace.alphas])]
    tables = {
        "trace.csv": (["iter", "alpha", "objective", "dist_to_ls"], trace_rows),
        "beta.csv": (["beta"], map(np.ndarray.tolist, trace.final[:, None])),
    }
    # the manifest records the flags the method reads, and its ridge weight
    config = {"x": args.x, "y": args.y, "method": method}
    if entry:
        config.update(m=args.m, n_iter=args.n_iter)
    flags = {"rng": ("seed", args.seed), "lam": ("lam", lam), "tol": ("tol", args.tol)}
    config.update(flags[setting] for setting in reads if setting in flags)
    config.update(center=not args.no_center, scale=args.scale)
    _write_outputs(args.out_dir, tables, "solve", config, started,
                   {"ridge_weight": ridge_weight} if "lam" in reads else None)
    return 0


def _json(types, convert=None):
    """Parser of a JSON value of one of ``types`` (never a boolean), passed
    through ``convert`` when that is given."""

    def parse(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(value)
        return value if convert is None else convert(value)

    return parse


def _finite(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _integral(value) -> int:
    if value != int(value):
        raise ValueError(value)
    return int(value)


_INT, _REAL, _STR = _json((int, float), _integral), _json((int, float), _finite), _json(str)


def _list_of(item):
    return _json(list, lambda value: tuple(map(item, value)))


def _ridge_rule(value) -> LambdaRule:
    """The rule of a ridge weight >= 0 or of a profile name other than
    ``explicit`` (``-`` may stand for ``_``)."""
    if not isinstance(value, str):
        return LambdaRule("explicit", _REAL(value))
    rule = LambdaRule(value.replace("-", "_"))
    if rule.profile == "explicit":
        raise ValueError(value)
    return rule


def _lambda_rule(value):
    """A ``lambda_rule`` value, kept as given once it names a ridge rule."""
    _ridge_rule(value)
    return value


#: every config key: the parser of its JSON value, and its value when a config
#: file leaves it out (None: every file sets it; ``lambda_rule``'s is the
#: profile of the file's ``dist``)
_CONFIG_KEYS = {
    "dist": (_STR, None), "n_grid": (_list_of(_INT), None),
    **dict.fromkeys(("n", "d", "m", "n_iter", "reps"), (_INT, None)), "seed": (_INT, 0),
    "sigma_noise": (_REAL, DataSpec.sigma_noise),
    "lambda_rule": (_lambda_rule, lambda cfg: LambdaRule.for_distribution(cfg["dist"]).profile),
    "methods": (_list_of(_STR), ExperimentConfig.methods), "trim": (_REAL, ExperimentConfig.trim),
    "tol": (_REAL, ExperimentConfig.tol), "init_policy": (_STR, ExperimentConfig.init_policy),
    "iter_cap": (_INT, ExperimentConfig.iter_cap), "variants": (_list_of(_STR), DELTA_VARIANTS),
    "proportions": (_list_of(_REAL), tuple(round(0.1 * k, 1) for k in range(1, 11))),
}


def _resolve_config(path: str, keys) -> tuple:
    """The config of an experiment reading ``keys`` from the JSON file ``path``
    (``lambda_rule`` only if one of the ``methods`` reads a ridge weight) and
    the file's other keys, sorted.  ConfigError names a bad or missing key."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError("config", f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", f"config file {path} does not hold a JSON object")
    unknown = sorted(set(raw) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(unknown[0], f"unknown config key {unknown[0]!r}")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = _CONFIG_KEYS[key][0](value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(key, f"invalid {key}: {json.dumps(value)}") from None
    config = {}
    for key in keys:
        value = values.get(key, _CONFIG_KEYS[key][1])
        if value is None:
            raise ConfigError(key)
        config[key] = value(values) if callable(value) else value
    if "methods" in config and not _reads(config["methods"], "lam"):
        config.pop("lambda_rule", None)
    return config, sorted(set(values) - set(config))


def _experiment_config(cfg: dict) -> ExperimentConfig:
    """The ExperimentConfig of an experiment's read config.  Of the fields
    without a default, one the experiment does not read takes a placeholder:
    ``n_iter`` 0 or the concentrated ridge rule."""
    given = {f.name: cfg[f.name] for f in fields(ExperimentConfig) if f.name in cfg}
    return ExperimentConfig(**{
        "n_iter": 0, **given, "data": DataSpec(*(cfg[key] for key in _DATA_KEYS)),
        "lambda_rule": _ridge_rule(cfg.get("lambda_rule", "concentrated"))})


def cmd_bench(args) -> int:
    started = time.time()
    _whole(args.threads, "--threads", least=1)
    name, header, keys, run = BENCH_CSV[args.experiment]
    config, unread = _resolve_config(args.config, keys)
    rows, meta = run(config, args.threads)
    extra = {"unread": unread, "threads": args.threads, "meta": meta, "timing_note": _TIMING_NOTE}
    _write_outputs(args.out_dir, {name: (header, ([row[k] for k in header] for row in rows))},
                   f"bench {args.experiment}", config, started, extra)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_bench(args)
    except (SketchlsError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
