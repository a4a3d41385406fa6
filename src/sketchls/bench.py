"""Benchmark orchestration: MSE-versus-iteration curves, initializer
comparisons across n, preconditioner-quality tables, time/iterations to a
target precision, ridge ablations, and ridge-weight sweeps.

Every experiment runs through one replication fold.  Replication r builds
its dataset with seed ``seed ^ r`` (master seed XOR replication index) and
passes it to the experiment's ``start(r, ds)``, which does the work the
replication's entries share (a ridge weight, a start, a mask) and returns
``measure(key)``, which computes one entry: one method, estimator, variant or
proportion.  The delta tables read the Gram matrix ``ds.gram`` that
:func:`~sketchls.datagen.make_dataset` formed for ``beta_ls``.  X was
checked when it was generated, so ``start`` and ``measure`` call the
library's unchecked cores on it, and only each public solve scans it again.
Replications run in order on the calling thread when ``threads = 1`` or X
has fewer than ``_FAN_OUT = 2**16`` entries, else in a pool of ``threads``
workers, each entry with its own generator stream, and the fold hands each
key's successful values, in replication order, to the experiment's
``row(key, values, failures)``, which yields that key's CSV rows.  So
results are byte-identical regardless of the worker count.
Solvers are looked up by name in :data:`sketchls.solvers.METHODS`.

Any library error (:class:`~sketchls.errors.SketchlsError`) raised while
replication r builds its dataset or in its ``start`` fails every entry of r;
one raised in ``measure``, or a solve that ends ``diverge``, fails that
entry only.  Neither aborts the run.  Failed entries are excluded from the
means and counted in a ``failures`` column (a ``diverge`` status in the time
table).  An invalid :class:`ExperimentConfig`, such as ``m > n`` or a
``tol`` that is not finite and positive, raises ``ValueError`` when it is
built, as does an empty, repeated or unknown method, variant, proportion or
row-count list, a proportion that is not finite and positive, and
:func:`run_init_comparison`'s sizes and ``trim``, before the first
replication.  Wall-clock columns include sketch construction and
preconditioner build but exclude dataset generation; they are the only
non-deterministic outputs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .datagen import DataSpec, Dataset, make_dataset
from .errors import DimensionMismatch, EmptyInput, SketchlsError
from .linalg import _finite_nonneg, _gram, _real, _row_sq_norms, _whole
from .precond import LambdaRule, _build_m, delta_from_matrix, delta_measure
from .sketch import _aopt_select, _sketcher, derive_rng
from .solvers import METHODS as SOLVERS
from .solvers import SolveTrace, _aopt_cs_estimate, cs_estimate, preconditioned_descent
# perfbench/tracer.py wraps these names here; the experiments call their cores
from .linalg import gram  # noqa: F401
from .precond import build_m  # noqa: F401
from .sketch import leverage_sample, srht_apply  # noqa: F401
from .solvers import aopt_cs_estimate  # noqa: F401

__all__ = [
    "METHODS",
    "INITIALIZERS",
    "ExperimentConfig",
    "trimmed_mean",
    "run_convergence",
    "run_init_comparison",
    "run_delta_table",
    "run_time_to_precision",
    "run_ridge_ablation",
    "lambda_sweep",
]

METHODS = tuple(SOLVERS)
INITIALIZERS = ("full", "srht-cs", "lev-cs", "aopt-cs")
DELTA_VARIANTS = ("zero", "rule", "srht")
RIDGE_VARIANTS = ("ridged", "raw", "identity")

#: fixed per-purpose stream tags so replication streams never collide
_STREAMS = {"ihs": 1, "acc-ihs": 2, "pw-gradient": 3, "aopt-ihs": 4,
            "srht-cs": 5, "lev-cs": 6, "delta-srht": 7}

#: replications fan out to workers from this many entries of X (crossover: 4096 x 10 to x 16)
_FAN_OUT = 1 << 16  # smaller ones are interpreter-bound, so workers only contend for the GIL

#: slack for the non-increasing-objective check; exact line search guarantees
#: descent in exact arithmetic, this absorbs roundoff at the plateau
_DESCENT_RTOL = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully determines one benchmark run (including every random stream)."""

    data: DataSpec
    m: int
    n_iter: int
    reps: int
    lambda_rule: LambdaRule
    methods: tuple = METHODS
    trim: float = 0.025
    tol: float = 1e-10
    init_policy: str = "default"  # "default" (zero for baselines) | "aopt-for-all"
    iter_cap: int = 500

    def __post_init__(self):
        for name, kind in (("data", DataSpec), ("lambda_rule", LambdaRule)):
            if not isinstance(value := getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        _check_sizes(self.m, self.n_iter, self.reps, self.trim)
        _whole(self.iter_cap, "iter_cap", least=1)
        _whole(self.m, "m", most=self.data.n)
        _finite_nonneg(self.tol, "tol", positive=True)
        if self.init_policy not in ("default", "aopt-for-all"):
            raise ValueError(f"unknown init policy {self.init_policy!r}")
        object.__setattr__(self, "methods", _distinct("methods", self.methods, METHODS))


def _check_sizes(m: int, n_iter: int, reps: int, trim: float, least_iter: int = 0):
    """The size checks of every run: whole m and reps at least 1, a whole
    n_iter at least ``least_iter`` and a trim fraction in [0, 0.5)."""
    for name, value, least in (("m", m, 1), ("n_iter", n_iter, least_iter), ("reps", reps, 1)):
        _whole(value, name, least=least)
    _finite_nonneg(trim, "trim", below=0.5)


def _distinct(name: str, keys, allowed=None) -> tuple:
    """``keys`` as a non-empty tuple without repeats, each one of ``allowed``
    when that is given.  A string is not a list of keys."""
    if isinstance(keys, str):
        raise ValueError(f"{name} must be a list, got {keys!r}")
    keys = tuple(keys)
    if not keys or len(set(keys)) < len(keys):
        raise ValueError(f"{name} must list distinct entries, got {list(keys)}")
    unknown = set(keys) - set(keys if allowed is None else allowed)
    if unknown:
        raise ValueError(f"unknown {name}: {sorted(unknown)}")
    return keys


def trimmed_mean(values, frac: float) -> float:
    """Mean after dropping floor(frac * len) values from each tail of a real
    1-D sequence, whose non-finite values may be among those dropped."""
    _finite_nonneg(frac, "trim fraction", below=0.5)
    values = _real(values, "values")
    if values.ndim != 1:
        raise DimensionMismatch(f"values must be 1-D, got shape {values.shape}")
    values = np.sort(values)
    if values.size == 0:
        raise EmptyInput("trimmed_mean of an empty sequence")
    k = int(np.floor(frac * values.size))
    return float(values[k : values.size - k].mean())


def _table(spec: DataSpec, start, keys, reps: int, threads: int, row):
    """The replication fold of every experiment (see the module docstring)
    over the datasets of ``spec``: the rows that ``row(key, values,
    failures)`` yields for each key in order, and each key's failure count.
    ``threads`` is checked before the first replication and caps the pool;
    the replications run in order on the calling thread when ``threads`` is
    1 or X has fewer than ``_FAN_OUT`` entries."""
    _whole(threads, "threads", least=1)

    def one_rep(rep):
        values = dict.fromkeys(keys)  # None marks a failed entry
        try:
            ds = make_dataset(replace(spec, seed=spec.seed ^ rep))
            measure = start(rep, ds)
        except SketchlsError:
            return values
        for key in keys:
            with suppress(SketchlsError):
                values[key] = measure(key)
        return values

    if threads == 1 or spec.n * spec.d < _FAN_OUT:
        per_rep = [one_rep(r) for r in range(reps)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(pool.map(one_rep, range(reps)))
    rows, failures = [], {}
    for key in keys:
        values = [r[key] for r in per_rep if r[key] is not None]
        failures[key] = reps - len(values)
        rows.extend(row(key, values, failures[key]))
    return rows, failures


def _curves(cfg: ExperimentConfig, label: str, start, keys, threads: int):
    """A squared-error curve experiment through :func:`_table`.  Each
    ``measure`` gives ``((mse1, mse2), descent_violations)``.  A key with a
    successful replication gets one row (label, iter, mse1, mse2, failures)
    per iteration, holding the trimmed means at that iteration; the meta
    sums the descent violations and counts each key's failures."""
    violations = []

    def row(key, oks, failures):
        violations.extend(v for _, v in oks)
        if not oks:
            return
        mse1 = np.stack([c[0] for c, _ in oks])
        mse2 = np.stack([c[1] for c, _ in oks])
        for it in range(cfg.n_iter + 1):
            yield {
                label: key,
                "iter": it,
                "mse1": trimmed_mean(mse1[:, it], cfg.trim),
                "mse2": trimmed_mean(mse2[:, it], cfg.trim),
                "failures": failures,
            }

    rows, failures = _table(cfg.data, start, keys, cfg.reps, threads, row)
    return rows, {"descent_violations": sum(violations), "failures": failures}


def _delta_row(cfg: ExperimentConfig, label: str):
    """The ``row`` of a delta table: the mean delta over the replications
    where a key succeeded, as (dist, d, label, delta_mean, failures)."""

    def row(key, vals, failures):
        yield {
            "dist": cfg.data.dist,
            "d": cfg.data.d,
            label: key,
            "delta_mean": float(np.mean(vals)) if vals else None,
            "failures": failures,
        }

    return row


def _reads(methods, setting: str) -> bool:
    """Whether any of ``methods`` (unknown names aside) reads ``setting``."""
    return any(setting in SOLVERS[name].reads for name in methods if name in SOLVERS)


def _rep_rng(cfg: ExperimentConfig, rep: int, stream: str):
    return derive_rng(cfg.data.seed, rep, _STREAMS[stream])


class _Diverged(SketchlsError):
    """A divergent solve, which fails its replication."""


def _rep_solve(cfg: ExperimentConfig, rep: int, ds: Dataset, method: str, n_iter: int,
               beta0=None, stop_at_dist: float = 0.0) -> SolveTrace:
    """One configured method on one replication, passed the settings it reads
    of its own stream, the config's ridge weight for X and the start ``beta0``."""
    entry = SOLVERS[method]
    lam = cfg.lambda_rule._resolve(ds.x) if "lam" in entry.reads else None
    trace = entry.solve(ds.x, ds.y, cfg.m, n_iter, beta_ls=ds.beta_ls, stop_at_dist=stop_at_dist,
                        **entry.settings(rng=_rep_rng(cfg, rep, method), lam=lam, beta0=beta0))
    if trace.status == "diverge":
        raise _Diverged(method)
    return trace


def _descent_violations(objective) -> int:
    obj = np.asarray(objective)
    prev = obj[:-1]
    return int((obj[1:] > prev * (1.0 + _DESCENT_RTOL) + 1e-300).sum())


def _sq_error_curves(trace: SolveTrace, beta_star, n_iter: int):
    """Per-iteration squared errors vs the ground truth and the exact
    solution, padded to n_iter+1 by repeating the final iterate (an early
    ``converged`` stop means the iterate is a fixed point)."""
    betas = trace.betas + [trace.betas[-1]] * (n_iter - trace.iterations)
    b = np.stack(betas)
    mse1 = ((b - beta_star) ** 2).sum(axis=1)
    d2 = np.asarray(trace.dist_to_ls)
    d2 = np.concatenate([d2, np.full(n_iter - trace.iterations, d2[-1])])
    return mse1, d2**2


def run_convergence(cfg: ExperimentConfig, threads: int = 1):
    """MSE curves per iteration for each configured method.

    Iteration 0 records the initializer: the zero vector for the baseline
    methods under the default policy, the largest-norm-rows estimate for
    ``aopt-ihs`` and, under ``aopt-for-all``, for every method.  Returns
    ``(rows, meta)`` where rows follow the schema
    (method, iter, mse1, mse2, failures).
    """

    shares_start = cfg.init_policy == "aopt-for-all" and _reads(cfg.methods, "beta0")

    def start(rep, ds):
        beta0 = _aopt_cs_estimate(ds.x, ds.y, cfg.m)[0] if shares_start else None

        def measure(method):
            trace = _rep_solve(cfg, rep, ds, method, cfg.n_iter, beta0=beta0)
            viol = _descent_violations(trace.objective) if method == "aopt-ihs" else 0
            return _sq_error_curves(trace, ds.beta_star, cfg.n_iter), viol

        return measure

    return _curves(cfg, "method", start, cfg.methods, threads)


def run_init_comparison(
    n_grid,
    d: int,
    m: int,
    n_iter: int,
    reps: int,
    dist: str = "lognormal",
    seed: int = 0,
    sigma_noise: float = 3.0,
    trim: float = 0.025,
    threads: int = 1,
):
    """One-shot estimator comparison across row counts with a fixed total
    sketch budget ``M = n_iter * m`` rows (the budget an iterative run would
    consume).  Rows follow (n, estimator, mse1, failures).  ``n_grid``
    lists whole row counts (512.0 runs as 512).
    """
    _check_sizes(m, n_iter, reps, trim, least_iter=1)
    n_grid = _distinct("n_grid", n_grid)
    if not all(isinstance(n, Real) and float(n).is_integer() for n in n_grid):
        raise ValueError(f"n_grid must list whole row counts, got {list(n_grid)}")
    n_grid = [int(n) for n in n_grid]
    budget = n_iter * m
    if min(n_grid) < budget:
        raise ValueError(f"n={min(n_grid)} is smaller than the sketch budget {budget}")
    rows = []
    meta = {"budget": budget, "failures": {}}
    for n in n_grid:

        def start(rep, ds):
            def measure(est):
                if est == "full":
                    beta = ds.beta_ls
                elif est == "aopt-cs":
                    beta = _aopt_cs_estimate(ds.x, ds.y, budget)[0]
                else:
                    rng = derive_rng(seed, n, rep, _STREAMS[est])
                    variant = "srht" if est == "srht-cs" else "leverage"
                    beta = cs_estimate(*_sketcher(ds.x, ds.y, variant, budget, rng)())
                return float(((beta - ds.beta_star) ** 2).sum())

            return measure

        def row(est, vals, failures):
            if vals:
                yield {
                    "n": n,
                    "estimator": est,
                    "mse1": trimmed_mean(vals, trim),
                    "failures": failures,
                }

        spec = DataSpec(dist, n, d, seed, sigma_noise)
        n_rows, failures = _table(spec, start, INITIALIZERS, reps, threads, row)
        rows += n_rows
        meta["failures"].update(((n, est), count) for est, count in failures.items())
    return rows, meta


def run_delta_table(cfg: ExperimentConfig, variants=DELTA_VARIANTS, threads: int = 1):
    """Average conditioning-improvement measure per preconditioner variant.

    Variants: ``zero`` (masked Gram, no ridge), ``rule`` (ridge weight from
    the config rule), ``srht`` (Gram of an SRHT sketch of the same size), and
    ``identity`` (scaled identity control, exactly 0 up to roundoff).  Rows
    follow (dist, d, variant, delta_mean, failures).
    """
    variants = _distinct("variants", variants, DELTA_VARIANTS + ("identity",))

    def start(rep, ds):
        q = ds.gram
        mask = _aopt_select(ds.x, cfg.m)
        lam = cfg.lambda_rule._resolve(ds.x)

        def measure(variant):
            if variant == "zero":
                return delta_measure(_build_m(ds.x, mask, 0.0), q)
            if variant == "rule":
                return delta_measure(_build_m(ds.x, mask, lam), q)
            if variant == "srht":
                draw = _sketcher(ds.x, ds.y, "srht", cfg.m, _rep_rng(cfg, rep, "delta-srht"))
                return delta_from_matrix(_gram(draw()[0]), q)
            return delta_from_matrix(lam * np.eye(ds.x.shape[1]), q)

        return measure

    rows, _ = _table(cfg.data, start, variants, cfg.reps, threads, _delta_row(cfg, "variant"))
    return rows, {"lambda_profile": cfg.lambda_rule.profile}


def run_time_to_precision(cfg: ExperimentConfig, threads: int = 1):
    """Mean wall-clock seconds and iterations until the distance to the exact
    solution drops to ``cfg.tol`` (iteration cap ``cfg.iter_cap``).

    Rows follow (method, dist, d, mean_seconds, mean_iters, status) with
    status ``ok`` when every replication reached the target, ``diverge`` when
    any diverged or failed, else ``cap`` when any hit the iteration cap.
    Divergent, failed and capped replications contribute no time.  Timing
    covers per-iteration work plus sketch/preconditioner setup; dataset
    generation and the exact solve are excluded.
    """

    def start(rep, ds):
        def measure(method):
            trace = _rep_solve(cfg, rep, ds, method, cfg.iter_cap, stop_at_dist=cfg.tol)
            secs = trace.setup_seconds + float(np.sum(trace.elapsed))
            return trace.dist_to_ls[-1] <= cfg.tol, trace.iterations, secs

        return measure

    def row(method, results, failures):
        reached = [r for r in results if r[0]]
        capped = len(reached) < len(results)
        status = "diverge" if failures else "cap" if capped else "ok"
        yield {
            "method": method,
            "dist": cfg.data.dist,
            "d": cfg.data.d,
            "mean_seconds": float(np.mean([r[2] for r in reached])) if reached else None,
            "mean_iters": float(np.mean([r[1] for r in reached])) if reached else None,
            "status": status,
        }

    rows, _ = _table(cfg.data, start, cfg.methods, cfg.reps, threads, row)
    return rows, {"tol": cfg.tol, "iter_cap": cfg.iter_cap}


def run_ridge_ablation(cfg: ExperimentConfig, threads: int = 1):
    """Exact-line-search runs with the ridged preconditioner, its no-ridge
    masked-Gram component, and the identity (plain gradient descent with
    exact line search).  All three share the same largest-norm-rows
    initializer per replication.  Rows follow
    (variant, iter, mse1, mse2, failures).
    """

    def start(rep, ds):
        lam = cfg.lambda_rule._resolve(ds.x)
        beta0, mask = _aopt_cs_estimate(ds.x, ds.y, cfg.m)

        def measure(variant):
            if variant == "ridged":
                apply_inv = _build_m(ds.x, mask, lam).solve
            elif variant == "raw":
                apply_inv = _build_m(ds.x, mask, 0.0).solve
            else:
                apply_inv = lambda v: v
            trace = preconditioned_descent(
                ds.x, ds.y, beta0, apply_inv, cfg.n_iter, beta_ls=ds.beta_ls
            )
            curves = _sq_error_curves(trace, ds.beta_star, cfg.n_iter)
            return curves, _descent_violations(trace.objective)

        return measure

    return _curves(cfg, "variant", start, RIDGE_VARIANTS, threads)


def lambda_sweep(cfg: ExperimentConfig, proportions, threads: int = 1):
    """Average conditioning-improvement measure of the ridged preconditioner
    as the ridge weight sweeps over proportions of the total squared row
    norm.  Rows follow (dist, d, proportion, delta_mean, failures).
    """
    proportions = [float(_finite_nonneg(p, "proportion", positive=True))
                   for p in _distinct("proportions", proportions)]

    def start(rep, ds):
        mask = _aopt_select(ds.x, cfg.m)
        total = float(_row_sq_norms(ds.x).sum())
        return lambda prop: delta_measure(_build_m(ds.x, mask, prop * total), ds.gram)

    rows, _ = _table(cfg.data, start, proportions, cfg.reps, threads,
                     _delta_row(cfg, "proportion"))
    return rows, {}
