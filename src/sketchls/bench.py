"""Benchmark orchestration: MSE-versus-iteration curves, initializer
comparisons across n, preconditioner-quality tables, time/iterations to a
target precision, ridge ablations, and ridge-weight sweeps.

Replications run in a thread pool; each replication derives its own dataset
seed (master seed XOR replication index) and per-method generator streams, and
aggregation is a deterministic fold over replication order, so results are
byte-identical regardless of the worker count.  Solvers are looked up by name
in :data:`sketchls.solvers.METHODS`.

Any library error (:class:`~sketchls.errors.SketchlsError`) raised inside a
replication fails that replication only, for the affected method or variant
(for all of them when it is raised while the replication is prepared), and
never aborts the run.  Failed or divergent replications are excluded from the
means and surfaced in a ``failures`` column (a ``diverge`` status in the time
table).  An invalid :class:`ExperimentConfig`, such as ``m > n`` or
``tol <= 0``, raises ``ValueError`` when it is built, as does an empty,
repeated or unknown method, variant, proportion or row-count list before
the first replication.  Wall-clock columns include sketch construction and
preconditioner build but exclude dataset generation; they are the only
non-deterministic outputs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .datagen import DataSpec, Dataset, make_dataset
from .errors import EmptyInput, SketchlsError
from .linalg import gram, row_sq_norms
from .precond import LambdaRule, build_m, delta_from_matrix, delta_measure
from .sketch import aopt_select, derive_rng, leverage_sample, srht_apply
from .solvers import METHODS as SOLVERS
from .solvers import SolveTrace, aopt_cs_estimate, cs_estimate, preconditioned_descent

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
        if not 0.0 <= self.trim < 0.5:
            raise ValueError("trim must lie in [0, 0.5)")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n_iter < 0:
            raise ValueError(f"n_iter must be >= 0, got {self.n_iter}")
        if self.iter_cap < 1:
            raise ValueError(f"iter_cap must be >= 1, got {self.iter_cap}")
        if not 1 <= self.m <= self.data.n:
            raise ValueError(f"m must lie in [1, n = {self.data.n}], got {self.m}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.init_policy not in ("default", "aopt-for-all"):
            raise ValueError(f"unknown init policy {self.init_policy!r}")
        object.__setattr__(self, "methods", _distinct("methods", self.methods, METHODS))


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
    """Mean after dropping floor(frac * len) values from each tail."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    if values.size == 0:
        raise EmptyInput("trimmed_mean of an empty sequence")
    if not 0.0 <= frac < 0.5:
        raise ValueError("trim fraction must lie in [0, 0.5)")
    k = int(np.floor(frac * values.size))
    return float(values[k : values.size - k].mean())


def _map_reps(fn, reps: int, threads: int):
    """Apply ``fn`` to 0..reps-1, preserving replication order."""
    if threads <= 1:
        return [fn(r) for r in range(reps)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(reps)))


def _or_failure(fn, arg):
    """``fn(arg)``, or None when it raises a library error."""
    try:
        return fn(arg)
    except SketchlsError:
        return None


def _replicate(start, keys, reps: int, threads: int) -> dict:
    """Run every replication and return, for each key, its successful values
    in replication order; ``reps`` minus their count is the key's failures.

    ``start(rep)`` prepares replication ``rep`` and returns ``measure(key)``,
    which computes one entry.  A library error in ``measure`` fails that
    entry only; one in ``start`` fails every entry of the replication.
    """

    def one_rep(rep):
        measure = _or_failure(start, rep)
        return {key: None if measure is None else _or_failure(measure, key)
                for key in keys}

    per_rep = _map_reps(one_rep, reps, threads)
    return {key: [r[key] for r in per_rep if r[key] is not None] for key in keys}


def _curve_rows(label: str, per_key: dict, cfg: ExperimentConfig):
    """Per-iteration trimmed means of the squared-error curves of each key.

    Each value is ``((mse1, mse2), descent_violations)``.  Rows follow
    (label, iter, mse1, mse2, failures).
    """
    rows = []
    meta = {"descent_violations": 0, "failures": {}}
    for key, oks in per_key.items():
        failures = cfg.reps - len(oks)
        meta["failures"][key] = failures
        meta["descent_violations"] += sum(v for _, v in oks)
        if not oks:
            continue
        mse1 = np.stack([c[0] for c, _ in oks])
        mse2 = np.stack([c[1] for c, _ in oks])
        for it in range(cfg.n_iter + 1):
            rows.append(
                {
                    label: key,
                    "iter": it,
                    "mse1": trimmed_mean(mse1[:, it], cfg.trim),
                    "mse2": trimmed_mean(mse2[:, it], cfg.trim),
                    "failures": failures,
                }
            )
    return rows, meta


def _mean_rows(label: str, per_key: dict, cfg: ExperimentConfig):
    """Mean of each key's delta over the replications where it succeeded.

    Rows follow (dist, d, label, delta_mean, failures).
    """
    rows = []
    for key, vals in per_key.items():
        rows.append(
            {
                "dist": cfg.data.dist,
                "d": cfg.data.d,
                label: key,
                "delta_mean": float(np.mean(vals)) if vals else None,
                "failures": cfg.reps - len(vals),
            }
        )
    return rows


def _rep_dataset(spec: DataSpec, rep: int) -> Dataset:
    return make_dataset(replace(spec, seed=spec.seed ^ rep))


def _rep_rng(cfg: ExperimentConfig, rep: int, stream: str):
    return derive_rng(cfg.data.seed, rep, _STREAMS[stream])


class _Diverged(SketchlsError):
    """A divergent solve, which fails its replication."""


def _rep_solve(cfg: ExperimentConfig, rep: int, ds: Dataset, lam: float, method: str,
               n_iter: int, **kwargs) -> SolveTrace:
    """One configured method on one replication, on the method's own stream."""
    trace = SOLVERS[method](ds.x, ds.y, cfg.m, n_iter, _rep_rng(cfg, rep, method), lam,
                            beta_ls=ds.beta_ls, **kwargs)
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

    def start(rep):
        ds = _rep_dataset(cfg.data, rep)
        lam = cfg.lambda_rule.resolve(ds.x)
        beta0 = None
        if cfg.init_policy == "aopt-for-all":
            beta0 = aopt_cs_estimate(ds.x, ds.y, cfg.m)[0]

        def measure(method):
            trace = _rep_solve(cfg, rep, ds, lam, method, cfg.n_iter, beta0=beta0)
            viol = _descent_violations(trace.objective) if method == "aopt-ihs" else 0
            return _sq_error_curves(trace, ds.beta_star, cfg.n_iter), viol

        return measure

    return _curve_rows("method", _replicate(start, cfg.methods, cfg.reps, threads), cfg)


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
    consume).  Rows follow (n, estimator, mse1, failures).
    """
    for name, value in (("m", m), ("n_iter", n_iter), ("reps", reps)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    n_grid = _distinct("n_grid", n_grid)
    budget = n_iter * m
    if min(n_grid) < budget:
        raise ValueError(f"n={min(n_grid)} is smaller than the sketch budget {budget}")
    rows = []
    meta = {"budget": budget, "failures": {}}
    for n in n_grid:
        spec = DataSpec(dist, int(n), d, seed, sigma_noise)

        def start(rep):
            ds = _rep_dataset(spec, rep)

            def measure(est):
                if est == "full":
                    beta = ds.beta_ls
                elif est == "srht-cs":
                    rng = derive_rng(seed, n, rep, _STREAMS["srht-cs"])
                    beta = cs_estimate(*srht_apply(ds.x, ds.y, budget, rng))
                elif est == "lev-cs":
                    rng = derive_rng(seed, n, rep, _STREAMS["lev-cs"])
                    beta = cs_estimate(*leverage_sample(ds.x, ds.y, budget, rng))
                else:
                    beta = aopt_cs_estimate(ds.x, ds.y, budget)[0]
                return float(((beta - ds.beta_star) ** 2).sum())

            return measure

        for est, vals in _replicate(start, INITIALIZERS, reps, threads).items():
            failures = reps - len(vals)
            meta["failures"][(int(n), est)] = failures
            if vals:
                rows.append(
                    {
                        "n": int(n),
                        "estimator": est,
                        "mse1": trimmed_mean(vals, trim),
                        "failures": failures,
                    }
                )
    return rows, meta


def run_delta_table(cfg: ExperimentConfig, variants=DELTA_VARIANTS, threads: int = 1):
    """Average conditioning-improvement measure per preconditioner variant.

    Variants: ``zero`` (masked Gram, no ridge), ``rule`` (ridge weight from
    the config rule), ``srht`` (Gram of an SRHT sketch of the same size), and
    ``identity`` (scaled identity control, exactly 0 up to roundoff).  Rows
    follow (dist, d, variant, delta_mean, failures).
    """
    variants = _distinct("variants", variants, DELTA_VARIANTS + ("identity",))

    def start(rep):
        ds = _rep_dataset(cfg.data, rep)
        q = gram(ds.x)
        mask = aopt_select(ds.x, cfg.m)
        lam = cfg.lambda_rule.resolve(ds.x)

        def measure(variant):
            if variant == "zero":
                return delta_measure(build_m(ds.x, mask, 0.0), q)
            if variant == "rule":
                return delta_measure(build_m(ds.x, mask, lam), q)
            if variant == "srht":
                sx, _ = srht_apply(ds.x, ds.y, cfg.m, _rep_rng(cfg, rep, "delta-srht"))
                return delta_from_matrix(gram(sx), q)
            return delta_from_matrix(lam * np.eye(ds.x.shape[1]), q)

        return measure

    rows = _mean_rows("variant", _replicate(start, variants, cfg.reps, threads), cfg)
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

    def start(rep):
        ds = _rep_dataset(cfg.data, rep)
        lam = cfg.lambda_rule.resolve(ds.x)

        def measure(method):
            trace = _rep_solve(cfg, rep, ds, lam, method, cfg.iter_cap, stop_at_dist=cfg.tol)
            secs = trace.setup_seconds + float(np.sum(trace.elapsed))
            return trace.dist_to_ls[-1] <= cfg.tol, trace.iterations, secs

        return measure

    rows = []
    for method, results in _replicate(start, cfg.methods, cfg.reps, threads).items():
        reached = [r for r in results if r[0]]
        failed, capped = len(results) < cfg.reps, len(reached) < len(results)
        status = "diverge" if failed else "cap" if capped else "ok"
        rows.append(
            {
                "method": method,
                "dist": cfg.data.dist,
                "d": cfg.data.d,
                "mean_seconds": float(np.mean([r[2] for r in reached])) if reached else None,
                "mean_iters": float(np.mean([r[1] for r in reached])) if reached else None,
                "status": status,
            }
        )
    return rows, {"tol": cfg.tol, "iter_cap": cfg.iter_cap}


def run_ridge_ablation(cfg: ExperimentConfig, threads: int = 1):
    """Exact-line-search runs with the ridged preconditioner, its no-ridge
    masked-Gram component, and the identity (plain gradient descent with
    exact line search).  All three share the same largest-norm-rows
    initializer per replication.  Rows follow
    (variant, iter, mse1, mse2, failures).
    """

    def start(rep):
        ds = _rep_dataset(cfg.data, rep)
        lam = cfg.lambda_rule.resolve(ds.x)
        beta0, mask = aopt_cs_estimate(ds.x, ds.y, cfg.m)

        def measure(variant):
            if variant == "ridged":
                apply_inv = build_m(ds.x, mask, lam).solve
            elif variant == "raw":
                apply_inv = build_m(ds.x, mask, 0.0).solve
            else:
                apply_inv = lambda v: v
            trace = preconditioned_descent(
                ds.x, ds.y, beta0, apply_inv, cfg.n_iter, beta_ls=ds.beta_ls
            )
            curves = _sq_error_curves(trace, ds.beta_star, cfg.n_iter)
            return curves, _descent_violations(trace.objective)

        return measure

    return _curve_rows("variant", _replicate(start, RIDGE_VARIANTS, cfg.reps, threads), cfg)


def lambda_sweep(cfg: ExperimentConfig, proportions, threads: int = 1):
    """Average conditioning-improvement measure of the ridged preconditioner
    as the ridge weight sweeps over proportions of the total squared row
    norm.  Rows follow (dist, d, proportion, delta_mean, failures).
    """
    proportions = [float(p) for p in _distinct("proportions", proportions)]
    if any(p <= 0 for p in proportions):
        raise ValueError("proportions must be positive")

    def start(rep):
        ds = _rep_dataset(cfg.data, rep)
        q = gram(ds.x)
        mask = aopt_select(ds.x, cfg.m)
        total = float(row_sq_norms(ds.x).sum())
        return lambda prop: delta_measure(build_m(ds.x, mask, prop * total), q)

    return _mean_rows("proportion", _replicate(start, proportions, cfg.reps, threads), cfg), {}
