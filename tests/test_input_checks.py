"""Every public entry checks its inputs where they enter: the problem
``(X, y)``, a row mask against X, and the coefficient vectors ``beta0`` and
``beta_ls`` against X's columns.  A mismatch raises DimensionMismatch and a
non-finite vector raises ValueError, before any numerical work."""

import warnings

import numpy as np
import pytest

import sketchls.datagen
import sketchls.linalg
import sketchls.precond
import sketchls.sketch
import sketchls.solvers
from sketchls import (
    DataSpec,
    DimensionMismatch,
    HypothesisViolated,
    RankDeficient,
    SketchKind,
    acc_ihs_solve,
    aopt_cs_estimate,
    aopt_ihs_solve,
    aopt_select,
    build_m,
    center,
    cholesky,
    closed_form_trajectory,
    contraction_bound,
    cs_estimate,
    derive_rng,
    draw_sketch,
    full_ls,
    hs_covariance_trace_bound,
    ihs_solve,
    isometry_check,
    leverage_sample,
    preconditioned_descent,
    pw_gradient_solve,
    srht_apply,
    trace_inverse_bound,
    uniform_sample,
)
from sketchls.linalg import as_vector
from sketchls.solvers import METHODS

N, D, M = 64, 3, 16
SRHT = SketchKind("srht", M)


@pytest.fixture
def xy():
    rng = np.random.default_rng(0)
    return rng.standard_normal((N, D)), rng.standard_normal(N)


@pytest.fixture
def no_numerics(monkeypatch):
    """Make every sketch, factorization and estimate in the solvers fail the
    test, so a check that runs after them cannot pass."""

    def forbidden(*args, **kwargs):
        raise AssertionError("numerical work before the input check")

    for name in ("draw_sketch", "_sketcher", "aopt_cs_estimate", "gram", "cholesky",
                 "build_m"):
        monkeypatch.setattr(sketchls.solvers, name, forbidden)


XY_ENTRIES = {
    "full_ls": lambda x, y: full_ls(x, y),
    "cs_estimate": lambda x, y: cs_estimate(x, y),
    "aopt_cs_estimate": lambda x, y: aopt_cs_estimate(x, y, M),
    "closed_form_trajectory": lambda x, y: closed_form_trajectory(x, y, np.zeros(D), []),
    "ihs_solve": lambda x, y: ihs_solve(x, y, SRHT, 2, derive_rng(1)),
    "preconditioned_descent": lambda x, y: preconditioned_descent(
        x, y, np.zeros(D), lambda v: v, 2
    ),
    "aopt_ihs_solve": lambda x, y: aopt_ihs_solve(x, y, M, 2, 0.1),
    "pw_gradient_solve": lambda x, y: pw_gradient_solve(x, y, SRHT, 2, derive_rng(1)),
    "acc_ihs_solve": lambda x, y: acc_ihs_solve(x, y, SRHT, 2, derive_rng(1)),
    "srht_apply": lambda x, y: srht_apply(x, y, M, derive_rng(1)),
    "leverage_sample": lambda x, y: leverage_sample(x, y, M, derive_rng(1)),
    "uniform_sample": lambda x, y: uniform_sample(x, y, M, derive_rng(1)),
    **{
        f"draw_sketch-{variant}": (
            lambda x, y, v=variant: draw_sketch(x, y, SketchKind(v, M), derive_rng(1))
        )
        for variant in ("srht", "leverage", "uniform", "aopt")
    },
    "center": lambda x, y: center(x, y),
}


@pytest.mark.parametrize("extra", [-1, 1], ids=["y-short", "y-long"])
@pytest.mark.parametrize("entry", sorted(XY_ENTRIES))
def test_xy_length_mismatch(entry, extra, xy):
    x, y = xy
    y = np.concatenate([y, [1.0]]) if extra > 0 else y[:-1]
    with pytest.raises(DimensionMismatch, match="y has length"):
        XY_ENTRIES[entry](x, y)


def test_longer_y_no_longer_fits_its_prefix(xy):
    # the initializer used to fit y[:n] silently
    x, y = xy
    with pytest.raises(DimensionMismatch):
        aopt_cs_estimate(x, np.concatenate([y, y]), M)


def test_errors_name_the_input(xy):
    x, y = xy
    with pytest.raises(DimensionMismatch, match="X must be 2-D"):
        full_ls(y, y)
    with pytest.raises(ValueError, match="y contains non-finite"):
        full_ls(x, np.full(N, np.nan))


MASK_ENTRIES = {
    "build_m": lambda x, mask: build_m(x, mask, 0.1),
    "trace_inverse_bound": lambda x, mask: trace_inverse_bound(x, mask, 1.0),
    "hs_covariance_trace_bound": lambda x, mask: hs_covariance_trace_bound(x, mask, 1.0),
}


@pytest.mark.parametrize("entry", sorted(MASK_ENTRIES))
def test_mask_from_another_x(entry, xy):
    x, _ = xy
    other = np.random.default_rng(1).standard_normal((N - 8, D))
    with pytest.raises(DimensionMismatch, match="mask length"):
        MASK_ENTRIES[entry](x, aopt_select(other, M))


def _run(name, x, y, **kw):
    if name == "preconditioned_descent":
        return preconditioned_descent(x, y, kw.pop("beta0", None), lambda v: v, 2, **kw)
    entry = METHODS[name]
    return entry.solve(x, y, M, 2, **entry.settings(rng=derive_rng(1), lam=0.1), **kw)


#: aopt-ihs starts from its own estimate and does not declare beta0, so only
#: the entries that declare it read (and check) it
BETA0_READERS = sorted(name for name, entry in METHODS.items() if "beta0" in entry.reads) + [
    "preconditioned_descent"]
BETA_LS_READERS = sorted(METHODS) + ["preconditioned_descent"]


@pytest.mark.parametrize("length", [1, D + 1])
@pytest.mark.parametrize("name", BETA0_READERS)
def test_beta0_wrong_length(name, length, xy, no_numerics):
    with pytest.raises(DimensionMismatch, match="beta0 has length"):
        _run(name, *xy, beta0=np.zeros(length))


@pytest.mark.parametrize("name", BETA0_READERS)
def test_beta0_not_finite(name, xy, no_numerics):
    with pytest.raises(ValueError, match="beta0 contains non-finite"):
        _run(name, *xy, beta0=np.full(D, np.inf))


@pytest.mark.parametrize("length", [1, D + 1])
@pytest.mark.parametrize("name", BETA_LS_READERS)
def test_beta_ls_wrong_length(name, length, xy, no_numerics):
    # a length-1 beta_ls used to broadcast into every distance
    with pytest.raises(DimensionMismatch, match="beta_ls has length"):
        _run(name, *xy, beta_ls=np.zeros(length))


@pytest.mark.parametrize("name", BETA_LS_READERS)
def test_beta_ls_not_finite(name, xy, no_numerics):
    # a NaN beta_ls used to give NaN distances
    with pytest.raises(ValueError, match="beta_ls contains non-finite"):
        _run(name, *xy, beta_ls=np.full(D, np.nan))


def test_closed_form_beta0_wrong_length(xy):
    with pytest.raises(DimensionMismatch, match="beta0 has length"):
        closed_form_trajectory(*xy, np.zeros(D + 1), [])


def test_absent_beta0_is_the_zero_start(xy):
    x, y = xy
    beta_ls = full_ls(x, y)
    trace = preconditioned_descent(x, y, None, lambda v: v, 1, beta_ls=beta_ls)
    assert trace.dist_to_ls[0] == float(np.linalg.norm(beta_ls))
    assert np.array_equal(trace.betas[0], np.zeros(D))


SCAN_N, SCAN_D, SCAN_M = 512, 5, 64
SCAN_SRHT = SketchKind("srht", SCAN_M)

#: full checks of X (as_matrix on an X-shaped array) per call
X_SCANS = {
    "aopt_ihs_solve": (4, lambda x, y: aopt_ihs_solve(x, y, SCAN_M, 3, 0.1)),
    "aopt_cs_estimate": (2, lambda x, y: aopt_cs_estimate(x, y, SCAN_M)),
    "aopt_select": (1, lambda x, y: aopt_select(x, SCAN_M)),
    "closed_form_trajectory": (2, lambda x, y: closed_form_trajectory(
        x, y, np.zeros(SCAN_D), [x[:SCAN_M], x[SCAN_M : 2 * SCAN_M]])),
    "ihs_solve-1-iter": (1, lambda x, y: ihs_solve(x, y, SCAN_SRHT, 1, derive_rng(1))),
    "ihs_solve-5-iter": (1, lambda x, y: ihs_solve(x, y, SCAN_SRHT, 5, derive_rng(1))),
    "pw_gradient_solve": (2, lambda x, y: pw_gradient_solve(x, y, SCAN_SRHT, 3, derive_rng(1))),
    "acc_ihs_solve": (2, lambda x, y: acc_ihs_solve(x, y, SCAN_SRHT, 3, derive_rng(1))),
    "preconditioned_descent": (1, lambda x, y: preconditioned_descent(
        x, y, None, lambda v: v, 3)),
    "isometry_check": (1, lambda x, y: isometry_check(x, x[:SCAN_M])),
    # each kind's per-solve work (leverage scores: a check and a Gram matrix;
    # the largest-norm rows: one check) is done once, not at every iteration
    **{
        f"ihs_solve-{variant}-{n_iter}-iter": (scans, lambda x, y, v=variant, t=n_iter: ihs_solve(
            x, y, SketchKind(v, SCAN_M), t, derive_rng(1)))
        for variant, scans in (("leverage", 3), ("uniform", 1), ("aopt", 2))
        for n_iter in (1, 5)
    },
}


@pytest.mark.parametrize("entry", sorted(X_SCANS))
def test_x_scans_per_call(entry, monkeypatch):
    # aopt_ihs_solve used to check X 6 times, closed_form_trajectory 4
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal((SCAN_N, SCAN_D)), rng.standard_normal(SCAN_N)
    real, scans = sketchls.linalg.as_matrix, []

    def counting(a, *args, **kwargs):
        if np.shape(a) == x.shape:
            scans.append(a)
        return real(a, *args, **kwargs)

    for module in (sketchls.linalg, sketchls.sketch, sketchls.solvers, sketchls.precond,
                   sketchls.datagen):
        monkeypatch.setattr(module, "as_matrix", counting)
    expected, call = X_SCANS[entry]
    call(x, y)
    assert len(scans) == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize("col", [0, -1])
def test_matrix_with_one_nonfinite_entry_rejected(value, row, col):
    x = np.ones((5, 4))
    x[row, col] = value
    with pytest.raises(ValueError, match="non-finite"):
        sketchls.linalg.as_matrix(x)


def test_matrix_with_opposite_infinities_in_one_row_rejected():
    x = np.ones((3, 4))
    x[1, 0], x[1, 2] = np.inf, -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        sketchls.linalg.as_matrix(x)


def test_matrix_whose_row_sum_overflows_accepted():
    x = np.array([[1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing check stays silent
        np.testing.assert_array_equal(sketchls.linalg.as_matrix(x), x)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrix_accepted(shape):
    assert sketchls.linalg.as_matrix(np.zeros(shape)).shape == shape


def _rank_deficient_x():
    x = np.random.default_rng(1).standard_normal((N, D))
    x[:, 2] = x[:, 0] + x[:, 1]
    return x


@pytest.mark.parametrize("call, error, message", [
    (lambda: DataSpec("cauchy", 16, 2, 0), ValueError, "unknown distribution 'cauchy'"),
    (lambda: DataSpec("normal", 2, 3, 0), ValueError, "need n >= d >= 1, got n=2, d=3"),
    (lambda: contraction_bound(0.1, 0.1, -1, 1.0), HypothesisViolated,
     "iteration count must be >= 0"),
    (lambda: isometry_check(_rank_deficient_x(), np.eye(D)), RankDeficient,
     "X does not have full column rank"),
    (lambda: as_vector(np.ones((2, 2)), "y"), DimensionMismatch,
     "y must be 1-D, got shape (2, 2)"),
    (lambda: cholesky(np.ones((2, 3))), DimensionMismatch,
     "matrix must be square, got shape (2, 3)"),
    (lambda: trace_inverse_bound(np.eye(4), aopt_select(np.eye(4), 2), 0.0), ValueError,
     "c_lower must be > 0, got 0.0"),
    (lambda: hs_covariance_trace_bound(np.eye(4), aopt_select(np.eye(4), 2), -1.0),
     ValueError, "c_lower must be > 0, got -1.0"),
])
def test_bad_argument_error_names_it(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
