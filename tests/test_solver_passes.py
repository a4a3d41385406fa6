"""What an iteration of the iterative solvers costs and what it keeps exact.

Each iteration reads X (or X') exactly twice, whatever the method, and the
residual a step carries from the image of its direction stays the residual of
its iterate: the recorded objective equals ``0.5 ||y - X beta_t||^2`` at every
iterate, and the exact line search stays stationary.
"""

import numpy as np
import pytest

from sketchls import (
    DataSpec,
    LambdaRule,
    cholesky,
    derive_rng,
    gram,
    make_dataset,
    preconditioned_descent,
    solve_spd,
)
from sketchls import solvers
from sketchls.datagen import DISTRIBUTIONS
from sketchls.solvers import METHODS

N, D, M = 2**14, 50, 1000


def _run(name, x, y, n_iter, rng, lam, **kw):
    """The METHODS entry ``name``, passed the settings it reads of ``rng``
    and ``lam``."""
    entry = METHODS[name]
    return entry.solve(x, y, M, n_iter, **entry.settings(rng=rng, lam=lam), **kw)


class _CountedX(np.ndarray):
    """A view of X that counts the matrix products reading all N rows of X or
    X'.  Views (``.T``, slices) keep the class; every product or other ufunc
    result is a plain array, and ``as_matrix`` strips the class."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(isinstance(a, _CountedX) and N in a.shape for a in inputs):
            _CountedX.products += 1
        inputs = [np.asarray(a) if isinstance(a, _CountedX) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    check = solvers._check_xy

    def check_counted(x, y):
        x, y = check(x, y)
        return x.view(_CountedX), y

    monkeypatch.setattr(solvers, "_check_xy", check_counted)

    def run(name, n_iter, ds, beta_ls):
        _CountedX.products = 0
        lam = LambdaRule("concentrated").resolve(ds.x)
        trace = _run(name, ds.x, ds.y, n_iter, derive_rng(5), lam, beta_ls=beta_ls)
        assert trace.iterations == n_iter and trace.status == "ok"
        return _CountedX.products

    return run


#: reads of X by a whole run of 3 iterations, without and with ``beta_ls``:
#: the start's residual, 2 per iteration, ``acc-ihs``'s first gradient and
#: ``pw-gradient``'s ``X' y`` and start gradient, which only its growth test
#: without ``beta_ls`` reads
READS_IN_3 = {"ihs": (7, 7), "acc-ihs": (8, 8), "aopt-ihs": (7, 7), "pw-gradient": (9, 7)}


@pytest.mark.parametrize("with_ls", [True, False], ids=["beta_ls", "no-beta_ls"])
@pytest.mark.parametrize("name", sorted(METHODS))
def test_two_passes_over_x_per_iteration(counted, name, with_ls):
    ds = make_dataset(DataSpec("normal", N, D, seed=2))
    beta_ls = ds.beta_ls if with_ls else None
    in_3 = counted(name, 3, ds, beta_ls)
    assert in_3 == READS_IN_3[name][with_ls]
    # iterations 4..7 on top of a run of 3, from the same seed
    assert counted(name, 7, ds, beta_ls) - in_3 == 2 * 4


def _ill_conditioned(cond, seed):
    """X = U diag(s) V' with log-spaced s from 1 down to 1/cond."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((N, D)))
    v, _ = np.linalg.qr(rng.standard_normal((D, D)))
    x = (u * np.logspace(0.0, -np.log10(cond), D)) @ v.T
    return x, x @ rng.standard_normal(D) + 1e-3 * rng.standard_normal(N)


def _problem(name):
    if name == "cond1e6":
        return _ill_conditioned(1e6, 0)
    ds = make_dataset(DataSpec(name, N, D, seed=3))
    return ds.x, ds.y


def _carried_runs(x, y):
    lam = LambdaRule("concentrated").resolve(x)
    sub = cholesky(gram(x[: 2 * M]))  # a frozen preconditioner from a row block
    yield "acc-ihs", _run("acc-ihs", x, y, 100, derive_rng(1), lam)
    yield "aopt-ihs", _run("aopt-ihs", x, y, 100, derive_rng(1), lam)
    yield "descent", preconditioned_descent(x, y, None, lambda v: solve_spd(sub, v), 100)


@pytest.mark.parametrize("problem", [*DISTRIBUTIONS, "cond1e6"])
def test_carried_residual_does_not_drift(problem):
    x, y = _problem(problem)
    xty = np.linalg.norm(x.T @ y)
    for name, trace in _carried_runs(x, y):
        assert trace.iterations == 100, name
        grads = []
        for beta, objective in zip(trace.betas, trace.objective):
            r = y - x @ beta
            assert objective == pytest.approx(0.5 * float(r @ r), rel=1e-10, abs=0), name
            grads.append(x.T @ r)
        # criterion 3's stationarity, along each step, while the gradient is
        # above the floating-point plateau
        checked = 0
        for t in range(1, trace.iterations + 1):
            if np.linalg.norm(grads[t - 1]) <= 1e-6 * xty:
                break
            step = trace.betas[t] - trace.betas[t - 1]
            bound = 1e-8 * np.linalg.norm(step) * np.linalg.norm(grads[t - 1])
            assert abs(float(step @ grads[t])) <= bound, (name, t)
            checked += 1
        assert checked >= 5, name
