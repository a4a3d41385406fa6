"""Least-squares estimators and iterative sketched solvers.

The iterative schemes all minimize f(beta) = 0.5 * ||X beta - y||^2.  Each
is a start (``beta0``, or for ``aopt-ihs`` the fit on the largest-norm
rows), a source of the ``M_t^{-1}`` of each step t and a step rule:

* sources: a fresh sketch per step (``ihs``) or one frozen sketch
  (``pw-gradient``, ``acc-ihs``), both from :func:`_sketch_inv`; the ridged
  Gram matrix of the start's rows (``aopt-ihs``); a given ``apply_inv``
  (:func:`preconditioned_descent`);
* steps: the unit step :func:`_unit` (``ihs``, and ``pw-gradient`` with its
  growth test as a status hook); the exact line search :func:`_descent`,
  which never increases the objective; conjugate gradient :func:`_cg`.

:data:`METHODS` maps each solver's name to the solver and the settings it
reads; the benchmark harness and the CLI dispatch through it only, passing
each solver only those.  A row that reads ``rng`` is randomized: its
``kind`` may be a row count m, for an SRHT keeping m of the padded rows,
which is how the table calls it; the other rows select m of the n rows.

Every solve runs through one loop, :func:`_iterate`, which checks the
inputs, times the setup, forms and records the start with its residual
``y - X beta``, drives the step and ends a run at the target or at a
non-finite iterate.  Its :class:`SolveTrace` holds the full iterate history,
so correctness oracles (the closed-form trajectory, isometry reports, the
contraction bound) can audit a run after the fact.  A step begins at its
first step and yields each iterate with its residual, carried forward as
``r - alpha X u`` by a step that forms the image ``X u`` of its direction.
Every step reads X twice.  Gradients and objective values are always
computed against the unpadded data; zero padding exists only inside the SRHT.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, HypothesisViolated, NotPositiveDefinite, ZeroDirection
from .linalg import (_check_coef, _check_xy, _finite_nonneg, _full_ls, _full_rank_factor, _gram,
                     _whole, as_matrix, as_vector, cholesky, solve_spd)
from .precond import _build_m, pencil_eigvals
from .sketch import SketchKind, _aopt_select, _sketcher
# perfbench/tracer.py wraps these names here; the solvers call their cores
from .linalg import gram, sym_eigvals  # noqa: F401
from .precond import build_m  # noqa: F401
from .sketch import aopt_select, draw_sketch  # noqa: F401

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
    whatever the method.  ``sketches`` holds the sketched matrices SX, one
    per step, when :func:`ihs_solve` is asked to record them.
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


def _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, setup, step):
    """The one entry and loop of the iterative solvers.  It checks
    ``n_iter``, ``stop_at_dist`` (finite and >= 0), ``(X, y)``, ``beta0``
    (zero when None) and ``beta_ls`` (None allowed).  ``setup(x, y, beta0,
    beta_ls)`` does the one-time work and gives the start, the source and any
    hook; the loop forms the start's residual ``resid = y - X start``,
    records the start and drives ``step(x, y, start, resid, *source)``.  The
    step begins at its first step: it yields ``(beta, alpha, status, resid)``
    for each step (``alpha`` None for unit steps) or returns a status to end
    without a new iterate.  The loop records each iterate, its objective
    ``0.5 r.r``, its distance to ``beta_ls`` and its step length.  It stops
    after ``n_iter`` steps (the start only when ``n_iter <= 0``), at a status
    other than ``"ok"``, at the first iterate (the start included) within
    ``stop_at_dist`` of ``beta_ls``, and as ``diverge`` at the first with a
    non-finite objective, so numpy's overflow and invalid warnings are off.
    A :class:`NotPositiveDefinite` from the setup or step t leaves with
    ``iteration`` 0 or t, named in its message.  The setup and the start's
    residual and record are timed as ``setup_seconds``.
    """
    n_iter = _whole(n_iter, "n_iter")
    _finite_nonneg(stop_at_dist, "stop_at_dist")
    x, y = _check_xy(x, y)
    beta0 = np.zeros(x.shape[1]) if beta0 is None else _check_coef(x, beta0, "beta0")
    beta_ls = None if beta_ls is None else _check_coef(x, beta_ls, "beta_ls")
    trace = SolveTrace(dist_to_ls=None if beta_ls is None else [])
    targeted = stop_at_dist > 0.0 and beta_ls is not None

    def run():
        start, *source = setup(x, y, beta0, beta_ls)
        resid = y - x @ start
        yield start, None, "ok", resid
        return (yield from step(x, y, start, resid, *source))

    iterates = run()
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


def _sketch_inv(x, kind, rng, fresh=False, record=None):
    """The source ``v -> ((S X)' S X)^{-1} v`` of ``kind`` sketches S of a
    checked X (a row count m is an SRHT of m rows), from one sketcher set up
    here, where a bad ``m`` raises.  It draws and factors one frozen sketch
    here, or with ``fresh`` a new one at each call (each step), and appends
    each SX to ``record`` when that is a list."""
    kind = kind if isinstance(kind, SketchKind) else SketchKind("srht", kind)
    draw = _sketcher(x, None, kind.variant, kind.m, rng)

    def factor():
        sx = draw()[0]
        if record is not None:
            record.append(sx)
        return cholesky(_gram(sx))

    if fresh:
        return lambda v: solve_spd(factor(), v)
    fac = factor()  # the frozen source keeps the factor, not the sketch buffers
    return lambda v: solve_spd(fac, v)


def _unit(x, y, beta, resid, inv, watch=lambda beta, resid: ("ok", None)):
    """The unit step ``beta + M_t^{-1} X' (y - X beta)``.  ``watch(beta,
    resid)`` gives each iterate's status and the gradient if it formed it,
    from the start on (whose status is ``"ok"``)."""
    grad = watch(beta, resid)[1]
    while True:
        beta = beta + inv(x.T @ resid if grad is None else grad)
        resid = y - x @ beta
        status, grad = watch(beta, resid)
        yield beta, None, status, resid


def _growth(x, y, beta_ls):
    """:func:`pw_gradient_solve`'s growth test, as a status hook."""
    floor = np.sqrt(np.finfo(float).eps) * np.linalg.norm(x.T @ y if beta_ls is None else beta_ls)
    best = [np.inf]  # the least error so far

    def watch(beta, resid):
        grad = None if beta_ls is not None else x.T @ resid
        err = float(np.linalg.norm(beta - beta_ls if grad is None else grad))
        status = "diverge" if err > max(DIVERGENCE_GROWTH * best[0], floor) else "ok"
        best[0] = min(best[0], err)
        return status, grad

    return watch


def _descent(x, y, beta, resid, inv, tol):
    """The exact line-search step along ``u = M_t^{-1} X' r``, whose image
    ``X u`` also gives the next residual.  A vanished direction ends the run
    as ``converged``, as does a step that moves beta by at most ``tol`` > 0."""
    while True:
        v = x.T @ resid
        u = inv(v)
        p = x @ u
        try:
            alpha = _exact_alpha(v, u, p)
        except ZeroDirection:
            return "converged"
        done = tol > 0.0 and abs(alpha) * float(np.linalg.norm(u)) <= tol
        beta = beta + alpha * u
        resid = resid - alpha * p
        yield beta, alpha, "converged" if done else "ok", resid


def _cg(x, y, beta, resid, inv):
    """Preconditioned conjugate gradient on the normal equations, for a
    frozen source: the gradient is updated recursively, and ``X p`` also
    updates the residual.  A curvature <= 0 ends the run as ``converged``."""
    r = x.T @ resid  # later gradients are updated recursively
    p = inv(r)
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
        z_next = inv(r_next)
        mix = float(z_next @ (r_next - r)) / rz
        beta = beta + alpha * p
        resid = resid - alpha * xp
        r, rz, p = r_next, float(r_next @ z_next), z_next + mix * p
        yield beta, alpha, "ok", resid


def full_ls(x, y) -> np.ndarray:
    """Exact least-squares solution via Cholesky of the Gram matrix."""
    return _full_ls(*_check_xy(x, y))


def cs_estimate(sx, sy) -> np.ndarray:
    """Classical sketch: least squares on the fully sketched pair (SX, Sy)."""
    return full_ls(sx, sy)


def hs_estimate(sx, xty) -> np.ndarray:
    """Hessian sketch: sketched Gram matrix against the exact gradient X^T y."""
    sx, xty = as_matrix(sx), as_vector(xty)
    if xty.size != sx.shape[1]:
        raise DimensionMismatch(f"xty has length {xty.size}, sx has {sx.shape[1]} columns")
    return solve_spd(cholesky(_gram(sx)), xty)


def aopt_cs_estimate(x, y, m: int):
    """Least squares on the ``m`` largest-norm rows.

    Returns ``(estimate, mask)`` so the mask can be recycled to build the
    preconditioner from the same rows.  The 1/m sketch scaling cancels in the
    normal equations, so the fit runs on the raw selected rows.
    """
    return _aopt_cs_estimate(*_check_xy(x, y), m)


def _aopt_cs_estimate(x: np.ndarray, y: np.ndarray, m: int):
    """:func:`aopt_cs_estimate` of a checked ``(X, y)``."""
    mask = _aopt_select(x, m)
    idx = mask.indices
    return _full_ls(x[idx], y[idx]), mask


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
    the closed-form oracle.  The sketches are of X alone, drawn on ``rng``
    as successive :func:`draw_sketch` calls draw them; without y's column an
    SRHT's SX can differ from :func:`draw_sketch`'s in the last bits.
    """
    sketches = [] if record_sketches else None
    setup = lambda x, y, beta0, beta_ls: (beta0, _sketch_inv(x, kind, rng, True, sketches))
    trace = _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, setup, _unit)
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
    d = x.shape[1]
    sketches = [_check_sketch(sx, d, f"sketches[{i}]") for i, sx in enumerate(sketches)]
    q = _gram(x)
    beta_ls = _full_ls(x, y, q)
    prod = np.eye(d)
    for sx in sketches:
        a = solve_spd(cholesky(_gram(sx)), q)
        prod = (np.eye(d) - a) @ prod
    return prod @ beta0 + (np.eye(d) - prod) @ beta_ls


def isometry_check(x, sx) -> IsometryReport:
    """Measure how far a sketched matrix is from an isometry on col(X).

    The Gram matrix of the sketched orthonormal basis X L^{-T} (X'X = L L')
    is L^{-1} (SX)'SX L^{-T}, whose spectrum is that of the pencil
    ((SX)'SX, X'X); reports its eigenvalue defects around 1.
    """
    x = as_matrix(x)
    sx = _check_sketch(sx, x.shape[1], "sx")
    ev = pencil_eigvals(None, _gram(sx), _full_rank_factor(x))
    lo, hi = float(ev[0]), float(ev[-1])
    eps1 = max(0.0, 1.0 - lo)
    eps2 = max(0.0, hi - 1.0)
    return IsometryReport(
        eps=max(abs(1.0 - lo), abs(hi - 1.0)),
        eps1=eps1,
        eps2=eps2,
        satisfies=bool(eps1 < 0.5 and eps2 < 1.0 - eps1),
    )


def _check_sketch(sx, d: int, name: str) -> np.ndarray:
    """A sketch ``name`` of an X with d columns: a finite float64 2-D array
    with d columns."""
    sx = as_matrix(sx)
    if sx.shape[1] != d:
        raise DimensionMismatch(f"{name} has {sx.shape[1]} columns, X has {d}")
    return sx


def contraction_bound(eps1: float, eps2: float, t: int, init_err: float) -> float:
    """Geometric error bound ``(max(eps1, eps2) / (1 - eps1))**t * init_err``.

    Valid whenever every sketch in the run satisfies the isometry condition
    with defects at most (eps1, eps2); exact-isometry defects of 0 are
    accepted as the limiting case.

    ``init_err`` and the returned bound are in the Gram-weighted (prediction)
    norm ``||X (beta - beta_ls)||``.  The Euclidean distance ``||beta -
    beta_ls||`` obeys the same rate only up to a factor ``sqrt(cond(X'X))``:
    the iteration matrix is non-normal, so a single Euclidean step can exceed
    the rate.  ``t`` must be a whole number and ``init_err`` finite and >= 0.
    """
    if not (0.0 <= eps1 < 0.5 and 0.0 <= eps2 < 1.0 - eps1):
        raise HypothesisViolated(
            f"need eps1 in [0, 1/2) and eps2 in [0, 1 - eps1), got {eps1}, {eps2}"
        )
    if _whole(t, "t", HypothesisViolated) < 0:
        raise HypothesisViolated("iteration count must be >= 0")
    _finite_nonneg(init_err, "init_err")
    return (max(eps1, eps2) / (1.0 - eps1)) ** t * init_err


def exact_alpha(v, u, p) -> float:
    """Exact line-search step ``v.u / p.p`` for a quadratic objective.

    ``v`` is the gradient, ``u`` the (preconditioned) direction and
    ``p = X u`` its image.  Raises :class:`ZeroDirection` when ``p`` is
    numerically zero (``p.p`` underflows to 0 below ``||p||`` of about
    1e-162), which signals that the gradient has vanished and the iterate is
    already optimal.
    """
    return _exact_alpha(as_vector(v), as_vector(u), as_vector(p))


def _exact_alpha(v: np.ndarray, u: np.ndarray, p: np.ndarray) -> float:
    """:func:`exact_alpha` of checked vectors."""
    denom = float(p @ p)
    if denom <= 0.0:
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
) -> SolveTrace:
    """Fixed-preconditioner steepest descent with exact line search.

    ``apply_inv`` maps a gradient v to the direction M^{-1} v.  A vanished
    direction ends the run with status ``converged`` (success: the iterate is
    a fixed point).  When ``tol`` > 0 the run also stops once the iterate
    moves by at most ``tol`` in Euclidean norm.
    """
    _finite_nonneg(tol, "tol")
    setup = lambda x, y, beta0, beta_ls: (beta0, apply_inv)
    return _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, setup, partial(_descent, tol=tol))


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
    on the iterate displacement (0 disables it).  ``lam`` and ``tol`` must be
    finite and >= 0, checked before X is read.
    """
    _finite_nonneg(lam, "ridge weight")
    _finite_nonneg(tol, "tol")

    def setup(x, y, beta0, beta_ls):
        start, mask = _aopt_cs_estimate(x, y, m)
        return start, _build_m(x, mask, lam).solve

    return _iterate(x, y, None, beta_ls, n_iter, stop_at_dist, setup, partial(_descent, tol=tol))


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
    the gradient norm otherwise, which the next step then takes.  Errors up
    to sqrt(eps) times ``||beta_ls||`` (else ``||X'y||``, formed at setup)
    are roundoff, not growth, so an exact start does not read as divergent.
    """
    setup = lambda x, y, beta0, beta_ls: (beta0, _sketch_inv(x, kind, rng), _growth(x, y, beta_ls))
    return _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, setup, _unit)


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
    quadratic.  Terminates in at most d steps in exact arithmetic.
    """
    setup = lambda x, y, beta0, beta_ls: (beta0, _sketch_inv(x, kind, rng))
    return _iterate(x, y, beta0, beta_ls, n_iter, stop_at_dist, setup, _cg)


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
