"""Oracle-free checks of the iterative solvers: with the same seed, every
:data:`~sketchls.solvers.METHODS` entry maps a rotated design ``X Q`` (Q
orthogonal) to the rotated iterates ``Q' beta_t`` and a scaled response
``c y`` to ``c beta_t``, and ``aopt-ihs``, whose sketch is the largest-norm
rows, does not see the order of the rows.  Each entry is passed only the
settings it declares.  ``ihs`` and ``pw-gradient`` take the same unit step,
so they run alike wherever their sketches agree."""

from functools import lru_cache

import numpy as np
import pytest

from sketchls import (DataSpec, LambdaRule, SketchKind, derive_rng, ihs_solve,
                      make_dataset, pw_gradient_solve)
from sketchls.datagen import DISTRIBUTIONS
from sketchls.solvers import METHODS

N, D, M, N_ITER = 4096, 20, 400, 10
SEEDS = (0, 1, 2)
#: largest deviation allowed, relative to the largest expected coordinate
RTOL = 1e-10
CASES = [(dist, seed) for dist in DISTRIBUTIONS for seed in SEEDS]


@lru_cache(maxsize=None)
def _data(dist, seed):
    ds = make_dataset(DataSpec(dist, N, D, seed))
    return ds.x, ds.y, LambdaRule("concentrated").resolve(ds.x)


def _betas(name, x, y, seed, lam):
    entry = METHODS[name]
    trace = entry.solve(x, y, M, N_ITER, **entry.settings(rng=derive_rng(seed), lam=lam))
    return trace.status, np.stack(trace.betas)


def _assert_maps(before, after, transform):
    """``after`` ran as ``before`` did, with ``transform`` of its iterates."""
    assert after[0] == before[0]
    expected = transform(before[1])
    assert after[1].shape == expected.shape
    assert np.abs(after[1] - expected).max() <= RTOL * np.abs(expected).max()


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("dist, seed", CASES)
def test_rotated_design_rotates_the_iterates(dist, seed, name):
    x, y, lam = _data(dist, seed)
    q, _ = np.linalg.qr(np.random.default_rng(100 + seed).standard_normal((D, D)))
    _assert_maps(_betas(name, x, y, seed, lam), _betas(name, x @ q, y, seed, lam),
                 lambda betas: betas @ q)


@pytest.mark.parametrize("name", sorted(METHODS))
@pytest.mark.parametrize("dist, seed", CASES)
def test_scaled_response_scales_the_iterates(dist, seed, name):
    x, y, lam = _data(dist, seed)
    c = -2.7
    _assert_maps(_betas(name, x, y, seed, lam), _betas(name, x, c * y, seed, lam),
                 lambda betas: c * betas)


@pytest.mark.parametrize("dist, seed", CASES)
def test_aopt_ihs_does_not_see_the_row_order(dist, seed):
    x, y, lam = _data(dist, seed)
    perm = np.random.default_rng(200 + seed).permutation(N)
    _assert_maps(_betas("aopt-ihs", x, y, seed, lam),
                 _betas("aopt-ihs", x[perm], y[perm], seed, lam), lambda betas: betas)


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_ihs_and_pw_gradient_agree_on_a_fixed_sketch(dist):
    # the largest-norm sketch is the same at every draw, so a fresh sketch
    # per step and one frozen sketch are one preconditioner
    x, y, _ = _data(dist, 0)
    kind = SketchKind("aopt", M)
    ihs = ihs_solve(x, y, kind, N_ITER, derive_rng(0))
    pw = pw_gradient_solve(x, y, kind, N_ITER, derive_rng(0))
    assert ihs.iterations == N_ITER
    np.testing.assert_array_equal(np.stack(ihs.betas), np.stack(pw.betas))
    assert (ihs.objective, ihs.status) == (pw.objective, pw.status)


@pytest.mark.parametrize("variant", ["srht", "uniform", "leverage"])
@pytest.mark.parametrize("dist, seed", CASES)
def test_ihs_and_pw_gradient_take_the_same_first_step(dist, seed, variant):
    # from one seed, ihs's first fresh sketch is pw-gradient's frozen one
    x, y, _ = _data(dist, seed)
    kind = SketchKind(variant, M)
    ihs = ihs_solve(x, y, kind, 1, derive_rng(seed))
    pw = pw_gradient_solve(x, y, kind, 1, derive_rng(seed))
    np.testing.assert_array_equal(ihs.betas[1], pw.betas[1])


@pytest.mark.parametrize("stop_at_dist", [0.0, 1e-6])
def test_ihs_records_one_sketch_per_step(stop_at_dist):
    ds = make_dataset(DataSpec("t2", N, D, 0))
    trace = ihs_solve(ds.x, ds.y, SketchKind("srht", M), 50, derive_rng(0), beta_ls=ds.beta_ls,
                      record_sketches=True, stop_at_dist=stop_at_dist)
    assert 0 < trace.iterations == len(trace.sketches)
    assert (trace.iterations < 50) == (stop_at_dist > 0.0)
