"""Least-squares estimators and iterative sketched solvers.

The iterative schemes all minimize f(beta) = 0.5 * ||X beta - y||^2 and
differ in how they precondition the gradient:

* :func:`ihs_solve` re-sketches the Gram matrix every iteration and takes
  unit Newton-like steps;
* :func:`pw_gradient_solve` freezes a single sketch (unit steps, may
  diverge);
* :func:`acc_ihs_solve` freezes a single sketch and runs preconditioned
  conjugate gradient on the normal equations;
* :func:`aopt_ihs_solve` initializes from the largest-norm rows, builds one
  ridged preconditioner from the same rows, and takes exact-line-search
  steps, which makes the objective sequence non-increasing by construction.

:data:`METHODS` maps each solver's name to an adapter with one call
signature; the benchmark harness and the CLI dispatch through it only.

Each solver returns a :class:`SolveTrace` holding the full iterate history,
so correctness oracles (the closed-form trajectory, isometry reports, the
geometric contraction bound) can audit a run after the fact.  Gradients and
objective values are always computed against the unpadded data; zero padding
exists only inside the SRHT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    HypothesisViolated,
    NotPositiveDefinite,
    RankDeficient,
    ZeroDirection,
)
from .linalg import as_matrix, as_vector, cholesky, gram, solve_spd, sym_eigvals
from .precond import build_m
from .sketch import SketchKind, aopt_select, draw_sketch

__all__ = [
    "METHODS",
    "SolveTrace",
    "IsometryReport",
    "full_ls",
    "cs_estimate",
    "hs_estimate",
    "aopt_cs_estimate",
    "ihs_solve",
    "closed_form_trajectory",
    "isometry_check",
    "contraction_bound",
    "exact_alpha",
    "preconditioned_descent",
    "aopt_ihs_solve",
    "pw_gradient_solve",
    "acc_ihs_solve",
]

#: direction norms at/below this are treated as a vanished gradient
ZERO_DIRECTION_FLOOR = 1e-300

#: a run is declared divergent when its error grows by this factor over the
#: smallest error seen so far
DIVERGENCE_GROWTH = 10.0


@dataclass
class SolveTrace:
    """Per-iteration record of a solver run.

    ``betas`` has one more entry than iterations performed (index 0 is the
    initializer); ``alphas`` is empty for unit-step methods.  ``dist_to_ls``
    is filled only when the exact solution was supplied.  ``elapsed`` holds
    per-iteration wall-clock seconds; one-time work (sketching, factoring,
    initial estimate) is in ``setup_seconds``.  ``sketches`` holds the
    sketched matrices when :func:`ihs_solve` is asked to record them.
    """

    betas: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    dist_to_ls: list | None = None
    elapsed: list = field(default_factory=list)
    setup_seconds: float = 0.0
    status: str = "ok"  # ok | converged | diverge
    sketches: list | None = None

    @property
    def iterations(self) -> int:
        return len(self.betas) - 1

    @property
    def final(self) -> np.ndarray:
        return self.betas[-1]


@dataclass(frozen=True)
class IsometryReport:
    """How far a sketch is from acting as an isometry on the column space.

    ``eps1``/``eps2`` are the lower/upper defects of the sketched Gram pencil
    against 1; ``satisfies`` is True when eps1 < 1/2 and eps2 < 1 - eps1, the
    regime in which :func:`contraction_bound` applies.
    """

    eps: float
    eps1: float
    eps2: float
    satisfies: bool


def _objective(x, y, beta) -> float:
    r = x @ beta - y
    return 0.5 * float(r @ r)


class _Recorder:
    """Shared trace bookkeeping for the iterative solvers."""

    def __init__(self, x, y, beta0, beta_ls, setup_seconds=0.0):
        self.x, self.y, self.beta_ls = x, y, beta_ls
        self.trace = SolveTrace(
            dist_to_ls=None if beta_ls is None else [],
            setup_seconds=setup_seconds,
        )
        self.record(beta0)

    def record(self, beta, alpha=None, seconds=None):
        self.trace.betas.append(beta.copy())
        self.trace.objective.append(_objective(self.x, self.y, beta))
        if self.beta_ls is not None:
            self.trace.dist_to_ls.append(float(np.linalg.norm(beta - self.beta_ls)))
        if alpha is not None:
            self.trace.alphas.append(float(alpha))
        if seconds is not None:
            self.trace.elapsed.append(seconds)

    @property
    def last_dist(self):
        return self.trace.dist_to_ls[-1] if self.beta_ls is not None else None

    def hit_target(self, stop_at_dist) -> bool:
        return (
            stop_at_dist > 0.0
            and self.beta_ls is not None
            and self.trace.dist_to_ls[-1] <= stop_at_dist
        )


def full_ls(x, y) -> np.ndarray:
    """Exact least-squares solution via Cholesky of the Gram matrix."""
    x = as_matrix(x)
    y = as_vector(y)
    return solve_spd(cholesky(gram(x)), x.T @ y)


def cs_estimate(sx, sy) -> np.ndarray:
    """Classical sketch: least squares on the fully sketched pair (SX, Sy)."""
    return full_ls(sx, sy)


def hs_estimate(sx, xty) -> np.ndarray:
    """Hessian sketch: sketched Gram matrix against the exact gradient X^T y."""
    sx = as_matrix(sx)
    return solve_spd(cholesky(gram(sx)), as_vector(xty))


def aopt_cs_estimate(x, y, m: int):
    """Least squares on the ``m`` largest-norm rows.

    Returns ``(estimate, mask)`` so the mask can be recycled to build the
    preconditioner from the same rows.  The 1/m sketch scaling cancels in the
    normal equations, so the fit runs on the raw selected rows.
    """
    x = as_matrix(x)
    y = as_vector(y)
    mask = aopt_select(x, m)
    idx = mask.indices
    return full_ls(x[idx], y[idx]), mask


def ihs_solve(
    x,
    y,
    kind: SketchKind,
    n_iter: int,
    rng,
    beta0=None,
    beta_ls=None,
    record_sketches: bool = False,
    stop_at_dist: float = 0.0,
) -> SolveTrace:
    """Iterative Hessian sketch with a fresh sketch every iteration.

    Each step solves the sketched normal equations for the exact-gradient
    Newton-like update ``beta += ((S_t X)^T S_t X)^{-1} X^T (y - X beta)``.
    The default initializer is the zero vector.  With ``record_sketches``
    the sketched matrices are attached to the trace (``trace.sketches``) for
    the closed-form oracle.
    """
    x = as_matrix(x)
    y = as_vector(y)
    beta = np.zeros(x.shape[1]) if beta0 is None else as_vector(beta0).copy()
    rec = _Recorder(x, y, beta, beta_ls)
    sketches = rec.trace.sketches = [] if record_sketches else None
    for t in range(1, n_iter + 1):
        tic = time.perf_counter()
        sx, _ = draw_sketch(x, y, kind, rng)
        try:
            fac = cholesky(gram(sx))
        except NotPositiveDefinite:
            err = NotPositiveDefinite(
                f"sketched Gram matrix not positive definite at iteration {t}"
            )
            err.iteration = t
            raise err from None
        if sketches is not None:
            sketches.append(sx)
        beta = beta + solve_spd(fac, x.T @ (y - x @ beta))
        rec.record(beta, seconds=time.perf_counter() - tic)
        if rec.hit_target(stop_at_dist):
            break
    return rec.trace


def closed_form_trajectory(x, y, beta0, sketches) -> np.ndarray:
    """Closed-form value of the re-sketched iteration after ``len(sketches)``
    steps.

    With A_t the sketched-Gram-preconditioned Gram matrix of sketch t, the
    recursion ``beta_t = (I - A_t) beta_{t-1} + A_t beta_ls`` telescopes to

        beta_t = P beta0 + (I - P) beta_ls,   P = (I - A_t) ... (I - A_1).

    This is an audit oracle for :func:`ihs_solve`, not a production path.
    """
    x = as_matrix(x)
    y = as_vector(y)
    beta0 = as_vector(beta0)
    q = gram(x)
    beta_ls = full_ls(x, y)
    d = x.shape[1]
    prod = np.eye(d)
    for sx in sketches:
        a = solve_spd(cholesky(gram(sx)), q)
        prod = (np.eye(d) - a) @ prod
    return prod @ beta0 + (np.eye(d) - prod) @ beta_ls


def isometry_check(x, sx) -> IsometryReport:
    """Measure how far a sketched matrix is from an isometry on col(X).

    Forms the Gram matrix of the sketched orthonormal basis through the thin
    factorization (triangular solves against the Cholesky factor of X^T X)
    and reports its eigenvalue defects around 1.
    """
    x = as_matrix(x)
    sx = as_matrix(sx)
    try:
        fac = cholesky(gram(x))
    except NotPositiveDefinite:
        raise RankDeficient("X does not have full column rank") from None
    w = scipy.linalg.solve_triangular(fac.lower, sx.T, lower=True)
    g = w @ w.T
    ev = sym_eigvals((g + g.T) * 0.5)
    lo, hi = float(ev[0]), float(ev[-1])
    eps1 = max(0.0, 1.0 - lo)
    eps2 = max(0.0, hi - 1.0)
    return IsometryReport(
        eps=max(abs(1.0 - lo), abs(hi - 1.0)),
        eps1=eps1,
        eps2=eps2,
        satisfies=bool(eps1 < 0.5 and eps2 < 1.0 - eps1),
    )


def contraction_bound(eps1: float, eps2: float, t: int, init_err: float) -> float:
    """Geometric error bound ``(max(eps1, eps2) / (1 - eps1))**t * init_err``.

    Valid whenever every sketch in the run satisfies the isometry condition
    with defects at most (eps1, eps2); exact-isometry defects of 0 are
    accepted as the limiting case.
    """
    if not (0.0 <= eps1 < 0.5 and 0.0 <= eps2 < 1.0 - eps1):
        raise HypothesisViolated(
            f"need eps1 in [0, 1/2) and eps2 in [0, 1 - eps1), got {eps1}, {eps2}"
        )
    if t < 0:
        raise HypothesisViolated("iteration count must be >= 0")
    return (max(eps1, eps2) / (1.0 - eps1)) ** t * init_err


def exact_alpha(v, u, p) -> float:
    """Exact line-search step ``v.u / p.p`` for a quadratic objective.

    ``v`` is the gradient, ``u`` the (preconditioned) direction and
    ``p = X u`` its image.  Raises :class:`ZeroDirection` when ``p`` is
    numerically zero, which signals that the gradient has vanished and the
    iterate is already optimal.
    """
    v = as_vector(v)
    u = as_vector(u)
    p = as_vector(p)
    denom = float(p @ p)
    if np.linalg.norm(p) <= ZERO_DIRECTION_FLOOR or denom <= 0.0:
        raise ZeroDirection("line-search direction is numerically zero")
    return float(v @ u) / denom


def preconditioned_descent(
    x,
    y,
    beta0,
    apply_inv: Callable[[np.ndarray], np.ndarray],
    n_iter: int,
    tol: float = 0.0,
    beta_ls=None,
    stop_at_dist: float = 0.0,
    setup_seconds: float = 0.0,
) -> SolveTrace:
    """Fixed-preconditioner steepest descent with exact line search.

    ``apply_inv`` maps a gradient v to the direction M^{-1} v.  A vanished
    direction ends the run with status ``converged`` (success: the iterate is
    a fixed point).  When ``tol`` > 0 the run also stops once the iterate
    moves by at most ``tol`` in Euclidean norm.
    """
    x = as_matrix(x)
    y = as_vector(y)
    beta = as_vector(beta0).copy()
    rec = _Recorder(x, y, beta, beta_ls, setup_seconds)
    for _ in range(n_iter):
        tic = time.perf_counter()
        v = x.T @ (y - x @ beta)
        u = apply_inv(v)
        p = x @ u
        try:
            alpha = exact_alpha(v, u, p)
        except ZeroDirection:
            rec.trace.status = "converged"
            break
        beta = beta + alpha * u
        rec.record(beta, alpha=alpha, seconds=time.perf_counter() - tic)
        if tol > 0.0 and abs(alpha) * float(np.linalg.norm(u)) <= tol:
            rec.trace.status = "converged"
            break
        if rec.hit_target(stop_at_dist):
            break
    return rec.trace


def aopt_ihs_solve(
    x,
    y,
    m: int,
    n_iter: int,
    lam: float,
    tol: float = 0.0,
    beta_ls=None,
    stop_at_dist: float = 0.0,
) -> SolveTrace:
    """Deterministic sketched solver: largest-norm initialization, one ridged
    preconditioner, exact line search.

    The initial estimate comes from :func:`aopt_cs_estimate`; its row mask is
    recycled to build ``M = (n/m) * masked Gram + lam * I`` once, and every
    step applies M^{-1} to the exact gradient with the exact line-search step
    length, so the objective never increases.  ``tol`` enables early stopping
    on the iterate displacement (0 disables it).
    """
    x = as_matrix(x)
    y = as_vector(y)
    tic = time.perf_counter()
    beta0, mask = aopt_cs_estimate(x, y, m)
    pre = build_m(x, mask, lam)
    setup = time.perf_counter() - tic
    return preconditioned_descent(
        x,
        y,
        beta0,
        pre.solve,
        n_iter,
        tol=tol,
        beta_ls=beta_ls,
        stop_at_dist=stop_at_dist,
        setup_seconds=setup,
    )


def _frozen_sketch(x, y, kind, rng, beta0, beta_ls):
    """Shared setup of the frozen-sketch solvers: one sketch and the Cholesky
    factor of its Gram matrix (timed as setup), then a recorder started at
    the initializer."""
    x = as_matrix(x)
    y = as_vector(y)
    tic = time.perf_counter()
    sx, _ = draw_sketch(x, y, kind, rng)
    fac = cholesky(gram(sx))
    setup = time.perf_counter() - tic
    beta = np.zeros(x.shape[1]) if beta0 is None else as_vector(beta0).copy()
    return x, y, fac, beta, _Recorder(x, y, beta, beta_ls, setup)


def pw_gradient_solve(
    x,
    y,
    kind: SketchKind,
    n_iter: int,
    rng,
    beta0=None,
    beta_ls=None,
    stop_at_dist: float = 0.0,
) -> SolveTrace:
    """Frozen-sketch unit-step iteration (single sketch, no line search).

    Convergence is not guaranteed: when the error grows by 10x over the best
    seen so far (or turns non-finite), the run stops with status ``diverge``
    instead of crashing.  The error metric is the distance to the exact
    solution when available, the gradient norm otherwise.
    """
    x, y, fac, beta, rec = _frozen_sketch(x, y, kind, rng, beta0, beta_ls)

    def metric(b):
        if beta_ls is not None:
            return rec.trace.dist_to_ls[-1]
        return float(np.linalg.norm(x.T @ (y - x @ b)))

    best = metric(beta)
    for _ in range(n_iter):
        t0 = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            beta = beta + solve_spd(fac, x.T @ (y - x @ beta))
        if not np.isfinite(beta).all():
            rec.trace.status = "diverge"
            break
        rec.record(beta, seconds=time.perf_counter() - t0)
        err = metric(beta)
        if not np.isfinite(err) or err > DIVERGENCE_GROWTH * best:
            rec.trace.status = "diverge"
            break
        best = min(best, err)
        if rec.hit_target(stop_at_dist):
            break
    return rec.trace


def acc_ihs_solve(
    x,
    y,
    kind: SketchKind,
    n_iter: int,
    rng,
    beta0=None,
    beta_ls=None,
    stop_at_dist: float = 0.0,
) -> SolveTrace:
    """Frozen-sketch preconditioned conjugate gradient on the normal
    equations (baseline, reconstructed from its standard form).

    The preconditioner is the sketched Gram matrix; directions use the
    Polak-Ribiere update, which coincides with Fletcher-Reeves on an exact
    quadratic.  Terminates in at most d steps in exact arithmetic.
    """
    x, y, fac, beta, rec = _frozen_sketch(x, y, kind, rng, beta0, beta_ls)
    r = x.T @ (y - x @ beta)
    z = solve_spd(fac, r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(n_iter):
        t0 = time.perf_counter()
        if np.linalg.norm(r) <= ZERO_DIRECTION_FLOOR or rz <= 0.0:
            rec.trace.status = "converged"
            break
        w = x.T @ (x @ p)
        pw = float(p @ w)
        if pw <= 0.0:
            rec.trace.status = "converged"
            break
        alpha = rz / pw
        beta = beta + alpha * p
        r_next = r - alpha * w
        z_next = solve_spd(fac, r_next)
        rz_next = float(r_next @ z_next)
        mix = float(z_next @ (r_next - r)) / rz
        p = z_next + mix * p
        r, z, rz = r_next, z_next, rz_next
        rec.record(beta, alpha=alpha, seconds=time.perf_counter() - t0)
        if rec.hit_target(stop_at_dist):
            break
    return rec.trace


def _sketched(solve):
    """Registry adapter for a randomized solver on SRHT sketches of size m."""

    def run(x, y, m, n_iter, rng, lam, beta0=None, beta_ls=None,
            stop_at_dist=0.0, tol=0.0):
        return solve(x, y, SketchKind("srht", m), n_iter, rng, beta0=beta0,
                     beta_ls=beta_ls, stop_at_dist=stop_at_dist)

    return run


def _aopt_ihs(x, y, m, n_iter, rng, lam, beta0=None, beta_ls=None,
              stop_at_dist=0.0, tol=0.0):
    return aopt_ihs_solve(x, y, m, n_iter, lam, tol=tol, beta_ls=beta_ls,
                          stop_at_dist=stop_at_dist)


#: The one table of iterative methods, by name.  Every entry is called as
#: ``METHODS[name](x, y, m, n_iter, rng, lam, beta0=None, beta_ls=None,
#: stop_at_dist=0.0, tol=0.0)``.  The randomized methods read ``rng`` and
#: ``beta0`` and sketch with an SRHT of ``m`` rows; ``aopt-ihs`` reads
#: ``lam`` and ``tol`` and starts from its own largest-norm-rows estimate.
METHODS: dict[str, Callable[..., SolveTrace]] = {
    "ihs": _sketched(ihs_solve),
    "acc-ihs": _sketched(acc_ihs_solve),
    "pw-gradient": _sketched(pw_gradient_solve),
    "aopt-ihs": _aopt_ihs,
}
