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

:data:`METHODS` maps each solver's name to the solver and the settings it
reads; the benchmark harness and the CLI dispatch through it only, passing
each solver only those.  A randomized solver's ``kind`` may be a row count
m, for an SRHT of m rows, which is how the table calls it.

Each method is a generator of its iterates, and all four run through one
loop, :func:`_iterate`, which checks the inputs, times the method's setup,
owns the trace and ends a run at the target or at a non-finite iterate.  A
method does its setup, then yields each iterate with its residual
``y - X beta``, so it owns the residual: a step that forms the image ``X u``
of its direction carries ``r - alpha X u`` forward, and the others form
``y - X beta``.  Every method reads X twice per iteration (``ihs`` also draws
one sketch).

Each solver returns a :class:`SolveTrace` holding the full iterate history,
so correctness oracles (the closed-form trajectory, isometry reports, the
geometric contraction bound) can audit a run after the fact.  Gradients and
objective values are always computed against the unpadded data; zero padding
exists only inside the SRHT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    HypothesisViolated,
    NotPositiveDefinite,
    RankDeficient,
    ZeroDirection,
)
from .linalg import (_check_coef, _check_xy, as_matrix, as_vector, cholesky, gram,
                     solve_spd, sym_eigvals)
from .precond import build_m
from .sketch import SketchKind, _sketcher, aopt_select, draw_sketch

__all__ = [
    "METHODS",
    "Method",
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

#: ``pw-gradient`` is declared divergent when its error grows by this factor
#: over the smallest error seen so far
DIVERGENCE_GROWTH = 10.0


@dataclass
class SolveTrace:
    """Per-iteration record of a solver run.

    ``betas`` has one more entry than iterations performed (index 0 is the
    initializer); ``alphas`` is empty for unit-step methods.  ``dist_to_ls``
    is filled only when the exact solution was supplied.  ``elapsed`` holds
    per-iteration wall-clock seconds; one-time work (sketching, factoring,
    initial estimate, the start's residual) is in ``setup_seconds``.
    ``status`` is ``diverge`` when the last iterate's objective is not finite,
    whatever the method.  ``sketches`` holds the sketched matrices when
    :func:`ihs_solve` is asked to record them.
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


def _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, run):
    """The one entry and loop of the iterative solvers.  It checks ``(X, y)``,
    ``beta0`` (zero when None) and ``beta_ls`` (None allowed), then drives the
    generator ``run(x, y, beta0, beta_ls)``.

    ``run`` does its setup and yields ``(beta, alpha, status, resid)`` for the
    start and then for each step, with ``resid = y - X beta`` and ``alpha``
    None for the start and for unit steps.  It returns a status to end the run
    without a new iterate.  The loop records each yield: the iterate, its
    objective ``0.5 r.r``, its distance to ``beta_ls`` and its step length.
    It stops after ``n_iter`` steps (the start only when ``n_iter <= 0``), at
    a yield whose status is not ``"ok"``, at the first iterate (the start
    included) within ``stop_at_dist`` of ``beta_ls``, and as ``diverge`` at
    the first with a non-finite objective, so numpy's overflow and invalid
    warnings are off.  A :class:`NotPositiveDefinite` from the setup or step t
    leaves with ``iteration`` 0 or t, named in its message.  The first yield
    is timed as ``setup_seconds``, so that covers the setup and the start's
    residual; each step's seconds cover its work and its recording.
    """
    x, y = _check_xy(x, y)
    beta0 = np.zeros(x.shape[1]) if beta0 is None else _check_coef(x, beta0, "beta0")
    beta_ls = None if beta_ls is None else _check_coef(x, beta_ls, "beta_ls")
    trace = SolveTrace(dist_to_ls=None if beta_ls is None else [])
    targeted = stop_at_dist > 0.0 and beta_ls is not None
    iterates = run(x, y, beta0, beta_ls)
    for t in range(max(n_iter, 0) + 1):
        tic = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                beta, alpha, trace.status, resid = next(iterates)
            except StopIteration as end:
                trace.status = end.value
                break
            except NotPositiveDefinite as err:
                err.iteration, err.args = t, (f"{err} at iteration {t}",)
                raise
            trace.betas.append(beta.copy())
            trace.objective.append(0.5 * float(resid @ resid))
            if beta_ls is not None:
                trace.dist_to_ls.append(float(np.linalg.norm(beta - beta_ls)))
        if alpha is not None:
            trace.alphas.append(float(alpha))
        trace.elapsed.append(time.perf_counter() - tic)
        if not np.isfinite(trace.objective[-1]):
            trace.status = "diverge"
        reached = targeted and trace.dist_to_ls[-1] <= stop_at_dist
        if trace.status != "ok" or reached:
            break
    trace.setup_seconds = trace.elapsed.pop(0)
    return trace


def full_ls(x, y) -> np.ndarray:
    """Exact least-squares solution via Cholesky of the Gram matrix."""
    x, y = _check_xy(x, y)
    return solve_spd(cholesky(gram(x)), x.T @ y)


def cs_estimate(sx, sy) -> np.ndarray:
    """Classical sketch: least squares on the fully sketched pair (SX, Sy)."""
    return full_ls(sx, sy)


def hs_estimate(sx, xty) -> np.ndarray:
    """Hessian sketch: sketched Gram matrix against the exact gradient X^T y."""
    return solve_spd(cholesky(gram(sx)), as_vector(xty))


def aopt_cs_estimate(x, y, m: int):
    """Least squares on the ``m`` largest-norm rows.

    Returns ``(estimate, mask)`` so the mask can be recycled to build the
    preconditioner from the same rows.  The 1/m sketch scaling cancels in the
    normal equations, so the fit runs on the raw selected rows.
    """
    x, y = _check_xy(x, y)
    mask = aopt_select(x, m)
    idx = mask.indices
    return full_ls(x[idx], y[idx]), mask


def ihs_solve(
    x,
    y,
    kind: SketchKind | int,
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
    the closed-form oracle.  The sketches are successive :func:`draw_sketch`
    draws on ``rng``, set up once per solve, where a bad ``m`` raises.
    """
    kind = _as_kind(kind)
    sketches = [] if record_sketches else None

    def run(x, y, beta, beta_ls):
        draw = _sketcher(x, y, kind.variant, kind.m, rng)
        resid = y - x @ beta
        yield beta, None, "ok", resid
        while True:
            sx, _ = draw()
            fac = cholesky(gram(sx))
            if sketches is not None:
                sketches.append(sx)
            beta = beta + solve_spd(fac, x.T @ resid)
            resid = y - x @ beta
            yield beta, None, "ok", resid

    trace = _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, run)
    trace.sketches = sketches
    return trace


def closed_form_trajectory(x, y, beta0, sketches) -> np.ndarray:
    """Closed-form value of the re-sketched iteration after ``len(sketches)``
    steps.

    With A_t the sketched-Gram-preconditioned Gram matrix of sketch t, the
    recursion ``beta_t = (I - A_t) beta_{t-1} + A_t beta_ls`` telescopes to

        beta_t = P beta0 + (I - P) beta_ls,   P = (I - A_t) ... (I - A_1).

    This is an audit oracle for :func:`ihs_solve`, not a production path.
    """
    x, y = _check_xy(x, y)
    beta0 = _check_coef(x, beta0, "beta0")
    q = gram(x)
    beta_ls = solve_spd(cholesky(q), x.T @ y)
    d = x.shape[1]
    prod = np.eye(d)
    for sx in sketches:
        a = solve_spd(cholesky(gram(sx)), q)
        prod = (np.eye(d) - a) @ prod
    return prod @ beta0 + (np.eye(d) - prod) @ beta_ls


def isometry_check(x, sx) -> IsometryReport:
    """Measure how far a sketched matrix is from an isometry on col(X).

    Forms the Gram matrix of the sketched orthonormal basis through the thin
    factorization (products with the inverse Cholesky factor of X^T X)
    and reports its eigenvalue defects around 1.
    """
    sx = as_matrix(sx)
    try:
        fac = cholesky(gram(x))
    except NotPositiveDefinite:
        raise RankDeficient("X does not have full column rank") from None
    w = fac.inv_lower @ sx.T
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

    ``init_err`` and the returned bound are in the Gram-weighted (prediction)
    norm ``||X (beta - beta_ls)||``.  The Euclidean distance ``||beta -
    beta_ls||`` obeys the same rate only up to a factor ``sqrt(cond(X'X))``:
    the iteration matrix is non-normal, so a single Euclidean step can exceed
    the rate.
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
    numerically zero (``p.p`` underflows to 0 below ``||p||`` of about
    1e-162), which signals that the gradient has vanished and the iterate is
    already optimal.
    """
    v = as_vector(v)
    u = as_vector(u)
    p = as_vector(p)
    denom = float(p @ p)
    if denom <= 0.0:
        raise ZeroDirection("line-search direction is numerically zero")
    return float(v @ u) / denom


def _descent(x, y, beta, apply_inv, tol):
    """The iterates of :func:`preconditioned_descent` and
    :func:`aopt_ihs_solve` on a checked ``(X, y)``: each step reads X twice,
    for the gradient and for the image ``p = X u`` that gives both the step
    length and the next residual."""
    resid = y - x @ beta
    yield beta, None, "ok", resid
    while True:
        v = x.T @ resid
        u = apply_inv(v)
        p = x @ u
        try:
            alpha = exact_alpha(v, u, p)
        except ZeroDirection:
            return "converged"
        done = tol > 0.0 and abs(alpha) * float(np.linalg.norm(u)) <= tol
        beta = beta + alpha * u
        resid = resid - alpha * p
        yield beta, alpha, "converged" if done else "ok", resid


def preconditioned_descent(
    x,
    y,
    beta0,
    apply_inv: Callable[[np.ndarray], np.ndarray],
    n_iter: int,
    tol: float = 0.0,
    beta_ls=None,
    stop_at_dist: float = 0.0,
) -> SolveTrace:
    """Fixed-preconditioner steepest descent with exact line search.

    ``apply_inv`` maps a gradient v to the direction M^{-1} v.  A vanished
    direction ends the run with status ``converged`` (success: the iterate is
    a fixed point).  When ``tol`` > 0 the run also stops once the iterate
    moves by at most ``tol`` in Euclidean norm.
    """
    return _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist,
                    lambda x, y, beta0, beta_ls: _descent(x, y, beta0, apply_inv, tol))


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

    def run(x, y, beta0, beta_ls):
        start, mask = aopt_cs_estimate(x, y, m)
        return (yield from _descent(x, y, start, build_m(x, mask, lam).solve, tol))

    return _iterate(x, y, None, beta_ls, n_iter, stop_at_dist, run)


def _as_kind(kind) -> SketchKind:
    """``kind``, or an SRHT of ``kind`` rows when it is a row count."""
    return kind if isinstance(kind, SketchKind) else SketchKind("srht", kind)


def _sketch_factor(x, y, kind, rng):
    """Cholesky factor of the Gram matrix of one sketch of ``(X, y)``."""
    return cholesky(gram(draw_sketch(x, y, kind, rng)[0]))


def pw_gradient_solve(
    x,
    y,
    kind: SketchKind | int,
    n_iter: int,
    rng,
    beta0=None,
    beta_ls=None,
    stop_at_dist: float = 0.0,
) -> SolveTrace:
    """Frozen-sketch unit-step iteration (single sketch, no line search).

    Convergence is not guaranteed: when the error grows by 10x over the best
    seen so far, the run stops with status ``diverge`` instead of crashing.
    The error metric is the distance to the exact solution when available,
    the gradient norm otherwise; that gradient is then the next step's, so
    either way an iteration reads X twice.  Errors up to sqrt(eps) times
    ``||beta_ls||`` (else ``||X'y||``, formed at setup) are roundoff, not
    growth, so an exact start does not read as divergent.
    """
    kind = _as_kind(kind)

    def run(x, y, beta, beta_ls):
        fac = _sketch_factor(x, y, kind, rng)
        floor = np.sqrt(np.finfo(float).eps) * np.linalg.norm(
            x.T @ y if beta_ls is None else beta_ls)
        status, best = "ok", np.inf
        while True:
            resid = y - x @ beta
            grad = None if beta_ls is not None else x.T @ resid
            err = float(np.linalg.norm(beta - beta_ls if grad is None else grad))
            if err > max(DIVERGENCE_GROWTH * best, floor):
                status = "diverge"
            best = min(best, err)
            yield beta, None, status, resid
            beta = beta + solve_spd(fac, x.T @ resid if grad is None else grad)

    return _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, run)


def acc_ihs_solve(
    x,
    y,
    kind: SketchKind | int,
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
    quadratic.  Terminates in at most d steps in exact arithmetic.  The
    gradient is updated recursively, and ``X p`` also updates the residual.
    """
    kind = _as_kind(kind)

    def run(x, y, beta, beta_ls):
        fac = _sketch_factor(x, y, kind, rng)
        resid = y - x @ beta
        yield beta, None, "ok", resid
        r = x.T @ resid  # later gradients are updated recursively
        p = solve_spd(fac, r)
        rz = float(r @ p)
        while True:
            if rz <= 0.0:
                return "converged"
            xp = x @ p
            w = x.T @ xp
            pw = float(p @ w)
            if pw <= 0.0:
                return "converged"
            alpha = rz / pw
            r_next = r - alpha * w
            z_next = solve_spd(fac, r_next)
            rz_next = float(r_next @ z_next)
            mix = float(z_next @ (r_next - r)) / rz
            beta = beta + alpha * p
            resid = resid - alpha * xp
            p = z_next + mix * p
            r, rz = r_next, rz_next
            yield beta, alpha, "ok", resid

    return _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, run)


class Method(NamedTuple):
    """A :data:`METHODS` entry: a solver, run as ``solve(x, y, m, n_iter,
    beta_ls=None, stop_at_dist=0.0, **settings)`` on ``m`` sketch rows, and
    the names ``reads`` that ``settings`` may hold (others are a TypeError)."""

    solve: Callable[..., SolveTrace]
    reads: tuple

    def settings(self, **offered) -> dict:
        """The entries of ``offered`` that this method reads."""
        return {key: value for key, value in offered.items() if key in self.reads}


#: The one table of iterative methods, by name.  ``aopt-ihs`` starts from its
#: own largest-norm-rows estimate, so it reads no ``beta0``.
METHODS: dict[str, Method] = {
    "ihs": Method(ihs_solve, ("rng", "beta0")),
    "acc-ihs": Method(acc_ihs_solve, ("rng", "beta0")),
    "pw-gradient": Method(pw_gradient_solve, ("rng", "beta0")),
    "aopt-ihs": Method(aopt_ihs_solve, ("lam", "tol")),
}
