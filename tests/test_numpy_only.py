"""The library runs on numpy alone: importing it loads no ``scipy.linalg``,
and its numpy kernels (the Cholesky solve, leverage scores, the Gram pencil's
spectrum) agree with the scipy routines they stand in for (scipy is a test
dependency only)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas

from sketchls import (DataSpec, aopt_select, build_m, cholesky, delta_from_matrix, gram,
                      leverage_scores, make_dataset, pencil_eigvals, solve_spd)
from sketchls.datagen import DISTRIBUTIONS
from sketchls.sketch import _sylvester

ROOT = Path(__file__).resolve().parents[1]
EPS = np.finfo(np.float64).eps


def test_import_loads_no_scipy_linalg():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    code = ("import sys, sketchls, sketchls.cli, sketchls.bench; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("f", [1 << p for p in range(8)])
def test_sylvester_matches_scipy_hadamard(f):
    h = _sylvester(f)
    assert h.dtype == np.float64 and not h.flags.writeable
    np.testing.assert_array_equal(h, scipy.linalg.hadamard(f))


def _spd(d: int, cond: float) -> np.ndarray:
    """Random SPD matrix with eigenvalues log-spaced over [1/cond, 1]."""
    rng = np.random.default_rng(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (q * np.logspace(0.0, -np.log10(cond), d)) @ q.T
    return (a + a.T) * 0.5


@pytest.mark.parametrize("d", [1, 4, 50, 200])
@pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e10])
@pytest.mark.parametrize("rhs", [(), (3,)], ids=["vector", "matrix"])
def test_solve_spd_matches_cho_solve(d, cond, rhs):
    a = _spd(d, cond)
    b = np.random.default_rng(d + 1).standard_normal((d, *rhs))
    got = solve_spd(cholesky(a), b)
    ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
    assert got.shape == ref.shape
    err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
    assert err <= 10 * cond * EPS


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
def test_leverage_scores_match_triangular_solve(dist):
    x = make_dataset(DataSpec(dist, n=2**13, d=50, seed=7)).x
    lower = np.asfortranarray(cholesky(gram(x)).lower)
    w = scipy.linalg.blas.dtrsm(1.0, lower, x.T, lower=1)
    ref = np.einsum("ij,ij->j", w, w)
    np.testing.assert_allclose(leverage_scores(x), ref, rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def desk_data():
    return {dist: make_dataset(DataSpec(dist, n=2**14, d=50, seed=7)).x
            for dist in DISTRIBUTIONS}


@pytest.mark.parametrize("dist", DISTRIBUTIONS)
@pytest.mark.parametrize("proportion", [0.01, 0.1, 0.4])
def test_pencil_matches_scipy_generalized_eigh(desk_data, dist, proportion):
    x = desk_data[dist]
    q = gram(x)
    pre = build_m(x, aopt_select(x, 1000), proportion * float(np.trace(q)))
    ref = scipy.linalg.eigh(q, pre.m_matrix, eigvals_only=True)
    got = pencil_eigvals(pre.m_matrix, q)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0)
    ref_delta = 1.0 - (ref[-1] / ref[0]) / np.linalg.cond(q)
    assert delta_from_matrix(pre.m_matrix, q, pre.factor) == pytest.approx(ref_delta, rel=1e-10)
