"""Oracle-free checks of the iterative solvers: with the same seed, every
:data:`~sketchls.solvers.METHODS` entry maps a rotated design ``X Q`` (Q
orthogonal) to the rotated iterates ``Q' beta_t`` and a scaled response
``c y`` to ``c beta_t``, and ``aopt-ihs``, whose sketch is the largest-norm
rows, does not see the order of the rows.  Each entry is passed only the
settings it declares."""

from functools import lru_cache

import numpy as np
import pytest

from sketchls import DataSpec, LambdaRule, derive_rng, make_dataset
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
