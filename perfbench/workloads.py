"""Workloads of the sketchls benchmark: seeded inputs, the operations one
round runs, and the independent checks on every output.

A round sets up fresh inputs (timed as set-up), then runs each operation of
the workload once, closed loop from one caller.  The library only receives
the generated data; the seed is the benchmark's.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np

import sketchls as sl
import sketchls.cli  # noqa: F401  (makes ``sl.cli`` resolvable at call time)

#: target distance to the exact solution for the iterative solvers
TOL = 1e-10
ITER_CAP = 500
#: a converged iterate must lie within REF_SLACK * TOL of the lstsq reference
REF_SLACK = 2.0
#: a one-shot estimate may exceed the reference residual sum of squares by at
#: most CS_EXCESS * d / m (the classical-sketch excess is about d / m)
CS_EXCESS = 5.0
#: slack on the non-increasing objective of aopt-ihs, as in the library
DESCENT_RTOL = 1e-9
#: delta(M) of a scaled identity is exactly 0 up to roundoff
IDENTITY_DELTA_ATOL = 1e-8

ITERATIVE = ("ihs", "acc-ihs", "pw-gradient", "aopt-ihs")
ONE_SHOT = ("srht-cs", "lev-cs", "aopt-cs")
SUITE_CSV = {
    "converge": "converge_mse.csv",
    "delta": "delta.csv",
    "ridge": "ridge_mse.csv",
    "lambda-sweep": "lambda_sweep.csv",
}
#: iterations per solve in the harness's fixed-iteration mode
SUITE_N_ITER = 20
_STREAMS = {"ihs": 1, "acc-ihs": 2, "pw-gradient": 3, "srht-cs": 5, "lev-cs": 6}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" | "suite"
    dist: str
    n: int
    d: int
    m: int
    ops: tuple
    lambda_rule: str = ""
    reps: int = 0

    @property
    def x_bytes(self) -> int:
        """Bytes of X computed from its shape (float64)."""
        return self.n * self.d * 8


#: why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "desk-normal": Workload(
        "desk-normal", "solve", "normal", 2**14, 50, 1000, ITERATIVE,
        lambda_rule="concentrated",
    ),
    # ihs is left out at top scale: one solve to 1e-10 takes about 55 s there.
    "top-lognormal": Workload(
        "top-lognormal", "solve", "lognormal", 2**17, 200, 4000,
        ITERATIVE[1:] + ONE_SHOT,
        lambda_rule="heavy_tailed",
    ),
    "suite-t2": Workload(
        "suite-t2", "suite", "t2", 2**14, 50, 1000, tuple(SUITE_CSV),
        reps=10,
    ),
}

#: sizes for the self-test; every workload finishes a round in well under 1 s
TINY = {
    "desk-normal": dict(n=2**11, d=6, m=300),
    "top-lognormal": dict(n=2**12, d=10, m=400),
    "suite-t2": dict(n=2**11, d=6, m=300, reps=4),
}
#: shape of the untimed warm-up problem run in every set-up
WARM = dict(n=512, d=4, m=128)


def get_workload(name: str, size: str) -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **TINY[name]) if size == "tiny" else wl


def sub_seed(seed: int, *key: int) -> int:
    """Deterministic 32-bit seed for one part of a run."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class OpResult:
    name: str
    seconds: float
    failure: str | None = None
    raised: bool = False
    iters: int | None = None


@dataclass
class RoundResult:
    setup_s: float
    ops: list = field(default_factory=list)
    spans: list | None = None
    x_pass_s: float | None = None
    csv_sha256: str | None = None
    bytes_written: int = 0
    harness_failures: int = 0
    descent_violations: int = 0
    warmup_errors: list = field(default_factory=list)

    @property
    def ops_s(self) -> float:
        return sum(op.seconds for op in self.ops)


def x_pass_seconds(x, reps: int = 5) -> float:
    """Median seconds of a plain numpy X @ v then X.T @ r: the memory-bound
    floor of one solver iteration."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(x.shape[1])
    r = rng.standard_normal(x.shape[0])
    times = []
    for _ in range(reps):
        tic = time.perf_counter()
        x @ v
        x.T @ r
        times.append(time.perf_counter() - tic)
    return statistics.median(times)


# ---------------------------------------------------------------- solve ops

def _solve_op(op: str, ds, wl: Workload, data_seed: int):
    x, y, m = ds.x, ds.y, wl.m
    stop = {"beta_ls": ds.beta_ls, "stop_at_dist": TOL}
    if op == "aopt-ihs":
        lam = sl.LambdaRule(wl.lambda_rule).resolve(x)
        return sl.aopt_ihs_solve(x, y, m, ITER_CAP, lam, **stop)
    if op == "aopt-cs":
        return sl.aopt_cs_estimate(x, y, m)[0]
    rng = sl.derive_rng(data_seed, _STREAMS[op])
    if op == "srht-cs":
        return sl.cs_estimate(*sl.srht_apply(x, y, m, rng))
    if op == "lev-cs":
        return sl.cs_estimate(*sl.leverage_sample(x, y, m, rng))
    solver = {"ihs": sl.ihs_solve, "acc-ihs": sl.acc_ihs_solve,
              "pw-gradient": sl.pw_gradient_solve}[op]
    return solver(x, y, sl.SketchKind("srht", m), ITER_CAP, rng, **stop)


def _rss(x, y, beta) -> float:
    r = x @ beta - y
    return float(r @ r)


def check_solve(op: str, out, ds, ref, wl: Workload) -> str | None:
    """Score one output against the lstsq (SVD) reference; None when it
    passes, else the reason it failed."""
    if op in ITERATIVE:
        if out.status == "diverge":
            return "diverged"
        if not out.dist_to_ls[-1] <= TOL:
            return f"iteration cap {ITER_CAP} reached"
        err = float(np.linalg.norm(out.final - ref))
        if not err <= REF_SLACK * TOL:
            return f"final iterate is {err:.3e} from the lstsq reference"
        if op == "aopt-ihs":
            obj = np.asarray(out.objective)
            if (obj[1:] > obj[:-1] * (1.0 + DESCENT_RTOL)).any():
                return "objective increased (descent violation)"
        return None
    if not np.isfinite(out).all():
        return "non-finite estimate"
    excess = _rss(ds.x, ds.y, out) / _rss(ds.x, ds.y, ref) - 1.0
    if not excess <= CS_EXCESS * wl.d / wl.m:
        return f"residual excess {excess:.3g} over the reference"
    return None


# ---------------------------------------------------------------- suite ops

def _suite_config(wl: Workload, seed: int, reps: int, n: int, d: int, m: int, n_iter: int):
    return {
        "dist": wl.dist, "n": n, "d": d, "m": m, "n_iter": n_iter,
        "reps": reps, "seed": seed,
        "methods": ["acc-ihs", "pw-gradient", "aopt-ihs"],
        "variants": ["zero", "rule", "srht", "identity"],
        "proportions": [0.01, 0.1, 0.4],
    }


def _suite_op(op: str, cfg_path: str, out_dir: str, workers: int) -> int:
    return sl.cli.main(["bench", op, "--config", cfg_path, "--out-dir", out_dir,
                        "--threads", str(workers)])


def check_suite(op: str, rc: int, out_dir: str, tally: RoundResult) -> str | None:
    """Check one harness subcommand's CSV and manifest; None when it passes."""
    if rc != 0:
        return f"exit code {rc}"
    with open(os.path.join(out_dir, SUITE_CSV[op]), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, f"bench_{op.replace('-', '_')}_manifest.json")) as fh:
        meta = json.load(fh)["meta"]
    failures = sum(int(row["failures"]) for row in rows)
    violations = int(meta.get("descent_violations", 0))
    tally.harness_failures += failures
    tally.descent_violations += violations
    if not rows:
        return "empty CSV"
    if failures:
        return f"{failures} failed replications"
    if violations:
        return f"{violations} descent violations"
    for row in rows:
        for key in ("mse1", "mse2", "delta_mean"):
            if key in row and not math.isfinite(float(row[key] or "nan")):
                return f"non-finite {key}"
    if op in ("delta", "lambda-sweep"):
        deltas = {row.get("variant", row.get("proportion")): float(row["delta_mean"])
                  for row in rows}
        if max(deltas.values()) > 1.0:
            return "delta(M) above 1"
        if op == "delta" and not abs(deltas["identity"]) <= IDENTITY_DELTA_ATOL:
            return f"identity delta {deltas['identity']:.3e} is not 0"
    if op == "converge":
        for method in {row["method"] for row in rows}:
            mse2 = [float(r["mse2"]) for r in rows if r["method"] == method]
            if not mse2[-1] < mse2[0]:
                return f"{method} did not approach the exact solution"
    return None


# ---------------------------------------------------------------- rounds

class Runner:
    """Runs rounds of one workload; round ``r`` is fully determined by the
    run seed and ``r``."""

    def __init__(self, wl: Workload, seed: int, workers: int, scratch: str,
                 inject_failure: bool = False):
        self.wl = wl
        self.seed = seed
        self.workers = workers
        self.scratch = scratch
        self.inject_failure = inject_failure

    def _paused(self, tracer):
        return tracer.paused() if tracer is not None else contextlib.nullcontext()

    def _op(self, tracer, name):
        return tracer.op(name) if tracer is not None else contextlib.nullcontext()

    def _run_op(self, res: RoundResult, name: str, inject: bool, tracer, call, check):
        with self._op(tracer, name):
            tic = time.perf_counter()
            try:
                if inject:
                    raise sl.SketchlsError("injected failure")
                out = call()
            except Exception as err:  # one bad operation must not abort the run
                seconds = time.perf_counter() - tic
                res.ops.append(OpResult(name, seconds, f"{type(err).__name__}: {err}", True))
                return
            seconds = time.perf_counter() - tic
        try:
            failure = check(out)
        except Exception as err:  # an output the check cannot read is wrong
            failure = f"check raised {type(err).__name__}: {err}"
        res.ops.append(OpResult(name, seconds, failure, False, getattr(out, "iterations", None)))

    # -- solve workloads

    def _solve_setup(self, r: int, tracer, res: RoundResult):
        wl = self.wl
        data_seed = sub_seed(self.seed, r, 0)
        ds = sl.make_dataset(sl.DataSpec(wl.dist, wl.n, wl.d, data_seed))
        ref = np.linalg.lstsq(ds.x, ds.y, rcond=None)[0]
        with self._paused(tracer):
            tiny_wl = replace(wl, **WARM)
            tiny_seed = sub_seed(self.seed, r, 1)
            tiny = sl.make_dataset(sl.DataSpec(wl.dist, tiny_wl.n, tiny_wl.d, tiny_seed))
            np.linalg.lstsq(tiny.x, tiny.y, rcond=None)
            for op in wl.ops:
                try:
                    _solve_op(op, tiny, tiny_wl, tiny_seed)
                except Exception as err:  # recorded; the timed call is checked
                    res.warmup_errors.append(f"{op}: {type(err).__name__}: {err}")
        return ds, ref, data_seed

    def _solve_round(self, r: int, tracer, inject: bool) -> RoundResult:
        res = RoundResult(setup_s=0.0)
        tic = time.perf_counter()
        ds, ref, data_seed = self._solve_setup(r, tracer, res)
        res.setup_s = time.perf_counter() - tic
        for i, op in enumerate(self.wl.ops):
            self._run_op(
                res, op, inject and i == 0, tracer,
                lambda op=op: _solve_op(op, ds, self.wl, data_seed),
                lambda out, op=op: check_solve(op, out, ds, ref, self.wl),
            )
        if tracer is not None:
            res.x_pass_s = x_pass_seconds(ds.x)
        return res

    # -- suite workload

    def _suite_setup(self, r: int, tracer, res: RoundResult, tmp: str) -> str:
        wl = self.wl
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(_suite_config(wl, sub_seed(self.seed, r, 0), wl.reps,
                                    n=wl.n, d=wl.d, m=wl.m, n_iter=SUITE_N_ITER), fh)
        with self._paused(tracer):
            warm_cfg = os.path.join(tmp, "warm.json")
            with open(warm_cfg, "w") as fh:
                json.dump(_suite_config(wl, sub_seed(self.seed, r, 1), 2,
                                        n_iter=3, **WARM), fh)
            warm_out = os.path.join(tmp, "warm")
            for op in wl.ops:
                try:
                    rc = _suite_op(op, warm_cfg, warm_out, self.workers)
                except Exception as err:  # recorded; the timed call is checked
                    rc = f"{type(err).__name__}: {err}"
                if rc != 0:
                    res.warmup_errors.append(f"{op}: {rc}")
        return cfg_path

    def _suite_round(self, r: int, tracer, inject: bool) -> RoundResult:
        res = RoundResult(setup_s=0.0)
        tmp = tempfile.mkdtemp(prefix="suite-", dir=self.scratch)
        try:
            tic = time.perf_counter()
            cfg_path = self._suite_setup(r, tracer, res, tmp)
            res.setup_s = time.perf_counter() - tic
            out_dir = os.path.join(tmp, "out")
            for i, op in enumerate(self.wl.ops):
                self._run_op(
                    res, op, inject and i == 0, tracer,
                    lambda op=op: _suite_op(op, cfg_path, out_dir, self.workers),
                    lambda rc, op=op: check_suite(op, rc, out_dir, res),
                )
            digest = hashlib.sha256()
            for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
                path = os.path.join(out_dir, name)
                res.bytes_written += os.path.getsize(path)
                if name.endswith(".csv"):
                    with open(path, "rb") as fh:
                        digest.update(name.encode() + b"\0" + fh.read())
            res.csv_sha256 = digest.hexdigest()
            if tracer is not None:
                x = np.random.default_rng(0).standard_normal((self.wl.n, self.wl.d))
                res.x_pass_s = x_pass_seconds(x)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return res

    # -- public

    def round(self, r: int, tracer=None) -> RoundResult:
        inject = self.inject_failure and r == 0
        if self.wl.kind == "suite":
            res = self._suite_round(r, tracer, inject)
        else:
            res = self._solve_round(r, tracer, inject)
        if tracer is not None:
            res.spans = tracer.take()
        return res

    def setup_only(self, r: int) -> float:
        """Seconds of one round's set-up alone (its inputs are discarded)."""
        res = RoundResult(setup_s=0.0)
        tic = time.perf_counter()
        if self.wl.kind == "suite":
            tmp = tempfile.mkdtemp(prefix="suite-", dir=self.scratch)
            try:
                self._suite_setup(r, None, res, tmp)
                return time.perf_counter() - tic
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
        self._solve_setup(r, None, res)
        return time.perf_counter() - tic
