"""Every public entry checks its inputs where they enter: the problem
``(X, y)``, a row mask against X, and the coefficient vectors ``beta0`` and
``beta_ls`` against X's columns.  A mismatch raises DimensionMismatch and a
non-finite vector raises ValueError, before any numerical work."""

import warnings

import numpy as np
import pytest

import sketchls.bench
import sketchls.datagen
import sketchls.linalg
import sketchls.precond
import sketchls.sketch
import sketchls.solvers
from sketchls import (
    BadSubsampleSize,
    DataSpec,
    DimensionMismatch,
    ExperimentConfig,
    HypothesisViolated,
    LambdaRule,
    NotEnoughRows,
    RankDeficient,
    SketchKind,
    SubsampleMask,
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
    delta_from_matrix,
    derive_rng,
    draw_sketch,
    full_ls,
    gen_response,
    gram,
    hs_covariance_trace_bound,
    hs_estimate,
    ihs_solve,
    isometry_check,
    lambda_sweep,
    leverage_sample,
    leverage_scores,
    make_sigma,
    pencil_eigvals,
    preconditioned_descent,
    pw_gradient_solve,
    row_sq_norms,
    run_convergence,
    run_delta_table,
    run_init_comparison,
    run_ridge_ablation,
    run_time_to_precision,
    solve_spd,
    srht_apply,
    trace_inverse_bound,
    trimmed_mean,
    uniform_sample,
)
from sketchls.cli import main
from sketchls.linalg import as_matrix, as_vector
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

    for name in ("draw_sketch", "_sketcher", "aopt_cs_estimate", "_aopt_cs_estimate", "gram",
                 "_gram", "cholesky", "build_m", "_build_m"):
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


@pytest.mark.parametrize("which", ["X", "y"])
@pytest.mark.parametrize("entry", sorted(XY_ENTRIES))
def test_complex_input_is_named_before_any_work(entry, which, xy, no_numerics, monkeypatch):
    # a complex X or y used to be cast to its real part with only a
    # ComplexWarning, so full_ls(X, y) returned full_ls(X.real, y)
    for name in ("_row_sq_norms", "_leverage_scores", "_workspace"):
        monkeypatch.setattr(sketchls.sketch, name, _no_work)
    x, y = xy
    x, y = (x + 1j * x, y) if which == "X" else (x, y + 1j * y)
    with pytest.raises(ValueError) as exc:
        XY_ENTRIES[entry](x, y)
    assert str(exc.value) == f"{which} must be real, got complex128"


@pytest.mark.parametrize("which", ["X", "y"])
@pytest.mark.parametrize("entry", sorted(XY_ENTRIES))
def test_string_input_is_named_before_any_work(entry, which, xy, no_numerics, monkeypatch):
    # an X or y of strings used to be parsed into floats without a word
    for name in ("_row_sq_norms", "_leverage_scores", "_workspace"):
        monkeypatch.setattr(sketchls.sketch, name, _no_work)
    x, y = xy
    x, y = (x.astype(str), y) if which == "X" else (x, y.astype(str))
    with pytest.raises(ValueError) as exc:
        XY_ENTRIES[entry](x, y)
    assert str(exc.value) == f"{which} must be real, got {(x if which == 'X' else y).dtype}"


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
#: the first SCAN_M rows, a mask made without reading X
SCAN_MASK = SubsampleMask(np.arange(SCAN_N) < SCAN_M, SCAN_M)

#: full checks of X (as_matrix on an X-shaped array) per call: one per public
#: entry, whatever it calls inside
X_SCANS = {
    "aopt_ihs_solve": (1, lambda x, y: aopt_ihs_solve(x, y, SCAN_M, 3, 0.1)),
    "aopt_cs_estimate": (1, lambda x, y: aopt_cs_estimate(x, y, SCAN_M)),
    "aopt_select": (1, lambda x, y: aopt_select(x, SCAN_M)),
    "closed_form_trajectory": (1, lambda x, y: closed_form_trajectory(
        x, y, np.zeros(SCAN_D), [x[:SCAN_M], x[SCAN_M : 2 * SCAN_M]])),
    "full_ls": (1, lambda x, y: full_ls(x, y)),
    "gen_response": (1, lambda x, y: gen_response(x, np.ones(SCAN_D), 1.0, derive_rng(1))),
    "gram": (1, lambda x, y: gram(x)),
    "row_sq_norms": (1, lambda x, y: row_sq_norms(x)),
    "leverage_scores": (1, lambda x, y: leverage_scores(x)),
    "leverage_sample": (1, lambda x, y: leverage_sample(x, y, SCAN_M, derive_rng(1))),
    "srht_apply": (1, lambda x, y: srht_apply(x, y, SCAN_M, derive_rng(1))),
    **{
        f"draw_sketch-{variant}": (1, lambda x, y, v=variant: draw_sketch(
            x, y, SketchKind(v, SCAN_M), derive_rng(1)))
        for variant in ("srht", "leverage", "uniform", "aopt")
    },
    "build_m": (1, lambda x, y: build_m(x, SCAN_MASK, 0.1)),
    "LambdaRule.resolve": (1, lambda x, y: LambdaRule("concentrated").resolve(x)),
    "trace_inverse_bound": (1, lambda x, y: trace_inverse_bound(x, SCAN_MASK, 1.0)),
    "hs_covariance_trace_bound": (1, lambda x, y: hs_covariance_trace_bound(
        x, SCAN_MASK, 1.0)),
    "ihs_solve-1-iter": (1, lambda x, y: ihs_solve(x, y, SCAN_SRHT, 1, derive_rng(1))),
    "ihs_solve-5-iter": (1, lambda x, y: ihs_solve(x, y, SCAN_SRHT, 5, derive_rng(1))),
    "pw_gradient_solve": (1, lambda x, y: pw_gradient_solve(x, y, SCAN_SRHT, 3, derive_rng(1))),
    "acc_ihs_solve": (1, lambda x, y: acc_ihs_solve(x, y, SCAN_SRHT, 3, derive_rng(1))),
    "preconditioned_descent": (1, lambda x, y: preconditioned_descent(
        x, y, None, lambda v: v, 3)),
    "isometry_check": (1, lambda x, y: isometry_check(x, x[:SCAN_M])),
    # each kind's per-solve work (leverage scores, the largest-norm rows)
    # reads the X the solver checked
    **{
        f"ihs_solve-{variant}-{n_iter}-iter": (1, lambda x, y, v=variant, t=n_iter: ihs_solve(
            x, y, SketchKind(v, SCAN_M), t, derive_rng(1)))
        for variant in ("leverage", "uniform", "aopt")
        for n_iter in (1, 5)
    },
}


#: full checks of X per ``sketchls solve`` run: one after centering and
#: scaling, and the solve's own
SOLVE_SCANS = {"full": 1, **{method: 2 for method in METHODS}}


def scan_data():
    rng = np.random.default_rng(2)
    return rng.standard_normal((SCAN_N, SCAN_D)), rng.standard_normal(SCAN_N)


def count_scans(monkeypatch) -> list:
    """The list that each full check of an X-shaped array appends to."""
    real, scans = sketchls.linalg.as_matrix, []

    def counting(a, *args, **kwargs):
        if np.shape(a) == (SCAN_N, SCAN_D):
            scans.append(a)
        return real(a, *args, **kwargs)

    for module in (sketchls.linalg, sketchls.sketch, sketchls.solvers, sketchls.precond,
                   sketchls.datagen):
        monkeypatch.setattr(module, "as_matrix", counting)
    return scans


@pytest.mark.parametrize("entry", sorted(X_SCANS))
def test_x_scans_per_call(entry, monkeypatch):
    # aopt_ihs_solve used to check X 6 times, then 4; closed_form_trajectory
    # 4, then 2; trace_inverse_bound 3; ihs_solve 3 times with a leverage kind
    x, y = scan_data()
    scans = count_scans(monkeypatch)
    expected, call = X_SCANS[entry]
    call(x, y)
    assert len(scans) == expected


@pytest.mark.parametrize("scale", [False, True])
@pytest.mark.parametrize("method", sorted(SOLVE_SCANS))
def test_x_scans_per_cli_solve(method, scale, tmp_path, monkeypatch):
    # aopt-ihs used to check X 4 times, the other iterative methods 3 times
    # and full twice
    x, y = scan_data()
    header = ",".join(f"x{j}" for j in range(SCAN_D))
    np.savetxt(tmp_path / "X.csv", x, delimiter=",", header=header, comments="")
    np.savetxt(tmp_path / "y.csv", y, header="y", comments="")
    scans = count_scans(monkeypatch)
    assert main(["solve", "--x", str(tmp_path / "X.csv"), "--y", str(tmp_path / "y.csv"),
                 "--method", method, "--m", str(SCAN_M), "--n-iter", "3",
                 "--out-dir", str(tmp_path / "out"), *(["--scale"] if scale else [])]) == 0
    assert len(scans) == SOLVE_SCANS[method]


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
    # n == d used to pass, then fail in make_dataset with NotPositiveDefinite
    (lambda: DataSpec("normal", 4, 4, 0), ValueError,
     "centered X has rank at most n - 1 = 3 < d = 4"),
    (lambda: DataSpec("t2", 50, 50, 1), ValueError,
     "centered X has rank at most n - 1 = 49 < d = 50"),
    (lambda: contraction_bound(0.1, 0.1, -1, 1.0), HypothesisViolated, "t must be >= 0, got -1"),
    (lambda: isometry_check(_rank_deficient_x(), np.eye(D)), RankDeficient,
     "X does not have full column rank"),
    (lambda: as_vector(np.ones((2, 2)), "y"), DimensionMismatch,
     "y must be 1-D, got shape (2, 2)"),
    (lambda: cholesky(np.ones((2, 3))), DimensionMismatch,
     "matrix must be square, got shape (2, 3)"),
    (lambda: trace_inverse_bound(np.eye(4), aopt_select(np.eye(4), 2), 0.0), ValueError,
     "c_lower must be finite and > 0, got 0.0"),
    (lambda: hs_covariance_trace_bound(np.eye(4), aopt_select(np.eye(4), 2), -1.0),
     ValueError, "c_lower must be finite and > 0, got -1.0"),
    # NaN used to give a NaN bound, and inf the bound without its excluded rows
    *[(lambda bound=bound, c=c: bound(np.eye(4), aopt_select(np.eye(4), 2), c),
       ValueError, f"c_lower must be finite and > 0, got {c}")
      for bound in (trace_inverse_bound, hs_covariance_trace_bound) for c in (np.nan, np.inf)],
    # a non-symmetric q used to give a spectrum of the wrong matrix, or a
    # misleading SingularMatrix; a q of another shape failed in numpy's matmul
    (lambda: pencil_eigvals(np.eye(2), [[1.0, 5.0], [0.0, 1.0]]), ValueError,
     "matrix is not symmetric to relative tolerance 1e-12"),
    (lambda: delta_from_matrix(np.eye(2), [[2.0, 5.0], [0.0, 2.0]]), ValueError,
     "matrix is not symmetric to relative tolerance 1e-12"),
    (lambda: pencil_eigvals(np.eye(2), np.ones((2, 3))), DimensionMismatch,
     "matrix must be square, got shape (2, 3)"),
    (lambda: delta_from_matrix(np.eye(2), np.eye(3)), DimensionMismatch,
     "q has size 3, M has size 2"),
    (lambda: pencil_eigvals(None, np.eye(3), cholesky(np.eye(2))), DimensionMismatch,
     "q has size 3, M has size 2"),
    # complex input used to be cast to its real part with a ComplexWarning
    (lambda: solve_spd(cholesky(np.eye(2)), np.array([1 + 2j, 3.0])), ValueError,
     "b must be real, got complex128"),
    (lambda: trimmed_mean([1 + 5j, 2.0], 0.0), ValueError, "values must be real, got complex128"),
    # a string used to be parsed, and a date read as its day count since 1970
    (lambda: solve_spd(cholesky(np.eye(2)), ["1", "2"]), ValueError, "b must be real, got <U1"),
    (lambda: trimmed_mean(["1", "2"], 0.0), ValueError, "values must be real, got <U1"),
    (lambda: as_matrix(np.array([["2020-01-01"]], dtype="datetime64[D]"), "X"), ValueError,
     "X must be real, got datetime64[D]"),
    (lambda: as_vector(np.array(["2020-01-01"], dtype="datetime64[D]"), "y"), ValueError,
     "y must be real, got datetime64[D]"),
    # the trim fraction used to be checked after the sort, so an empty
    # sample hid a bad one
    (lambda: trimmed_mean([], 0.6), ValueError,
     "trim fraction must be finite and >= 0 and < 0.5, got 0.6"),
    # a 2-D input used to be trimmed along its last axis only
    (lambda: trimmed_mean([[1, 2], [3, 4]], 0.25), DimensionMismatch,
     "values must be 1-D, got shape (2, 2)"),
    (lambda: run_convergence(_config(), threads=0), ValueError, "threads must be >= 1, got 0"),
    (lambda: run_init_comparison([512], 3, 16, 2, 2, threads=-3), ValueError,
     "threads must be >= 1, got -3"),
    # a kind that is not a SketchKind used to fail with an AttributeError
    *[(lambda kind=kind: draw_sketch(np.ones((N, D)), np.ones(N), kind, derive_rng(1)),
       TypeError, f"kind must be a SketchKind, got {type(kind).__name__}")
      for kind in ("srht", 16, None)],
    # a config of the wrong types used to build, then fail with an
    # AttributeError that aborted the whole bench run
    (lambda: ExperimentConfig(DataSpec("normal", 512, 5, 0), 64, 3, 3, "concentrated"),
     TypeError, "lambda_rule must be a LambdaRule, got str"),
    (lambda: ExperimentConfig({"n": 5}, 64, 3, 3, LambdaRule("concentrated")), TypeError,
     "data must be a DataSpec, got dict"),
    # a weight beside a profile used to be dropped without a word
    (lambda: LambdaRule("concentrated", 5.0), ValueError,
     "a concentrated rule takes no ridge weight, got 5.0"),
    (lambda: LambdaRule("heavy_tailed", 1), ValueError,
     "a heavy_tailed rule takes no ridge weight, got 1"),
    # neither M nor a factor used to be read as a 0-d matrix
    (lambda: pencil_eigvals(None, np.eye(2)), TypeError,
     "m_matrix or factor must be given, got neither"),
    (lambda: delta_from_matrix(None, [[2.0, 5.0], [0.0, 2.0]]), TypeError,
     "m_matrix or factor must be given, got neither"),
    # one past the rows a sampler keeps from: 100 rows, padded to 128 for the SRHT
    (lambda: srht_apply(np.ones((100, D)), np.ones(100), 129, derive_rng(1)), NotEnoughRows,
     "sketch size must be <= 128, got 129"),
    (lambda: uniform_sample(np.ones((100, D)), np.ones(100), 101, derive_rng(1)), NotEnoughRows,
     "sketch size must be <= 100, got 101"),
    (lambda: aopt_select(np.ones((100, D)), 101), BadSubsampleSize,
     "subsample size must be <= 100, got 101"),
    (lambda: _config(m=65), ValueError, "m must be <= 64, got 65"),
    # a string or a bool key used to draw an integer's stream, and a negative
    # or fractional one failed in numpy without naming the key
    (lambda: derive_rng("3"), ValueError, "rng key must be a whole number, got '3'"),
    (lambda: derive_rng(True), ValueError, "rng key must be a whole number, got True"),
    (lambda: derive_rng(2, -1), ValueError, "rng key must be >= 0, got -1"),
    (lambda: derive_rng(1.5), ValueError, "rng key must be a whole number, got 1.5"),
])
def test_bad_argument_error_names_it(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def _x64x5():
    rng = np.random.default_rng(3)
    return rng.standard_normal((64, 5)), rng.standard_normal(64)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda x, y: isometry_check(x, x[:20, :4]), "sx has 4 columns, X has 5",
                 id="isometry_check"),
    pytest.param(lambda x, y: closed_form_trajectory(x, y, np.zeros(5), [x[:20], x[:20, :4]]),
                 "sketches[1] has 4 columns, X has 5", id="closed_form_trajectory"),
    pytest.param(lambda x, y: hs_estimate(x[:20, :4], x.T @ y),
                 "xty has length 5, sx has 4 columns", id="hs_estimate"),
])
def test_sketch_of_the_wrong_width_named(call, message):
    # these used to fail in numpy's matmul or with the factor's dimension
    with pytest.raises(DimensionMismatch) as exc:
        call(*_x64x5())
    assert str(exc.value) == message


def _config(**sizes):
    spec = DataSpec("normal", 64, 3, 0)
    return ExperimentConfig(**{"data": spec, "m": 16, "n_iter": 2, "reps": 2,
                               "lambda_rule": LambdaRule("concentrated"), **sizes})


#: a size that is not a whole number, with the error and message it gives
WHOLE_SIZES = {
    "DataSpec-n": (lambda x, y: DataSpec("normal", 200.5, 3, 0), ValueError,
                   "n must be a whole number, got 200.5"),
    "DataSpec-d": (lambda x, y: DataSpec("normal", 200, 3.0, 0), ValueError,
                   "d must be a whole number, got 3.0"),
    "DataSpec-seed": (lambda x, y: DataSpec("normal", 200, 3, 0.5), ValueError,
                      "seed must be a whole number, got 0.5"),
    # a bool used to pass as 1 (operator.index(True) == 1)
    "DataSpec-n-bool": (lambda x, y: DataSpec("normal", True, 1, 0), ValueError,
                        "n must be a whole number, got True"),
    "DataSpec-d-bool": (lambda x, y: DataSpec("normal", 8, True, 0), ValueError,
                        "d must be a whole number, got True"),
    "SketchKind-bool": (lambda x, y: SketchKind("srht", True), BadSubsampleSize,
                        "m must be a whole number, got True"),
    "ihs_solve-m-bool": (lambda x, y: ihs_solve(x, y, True, 3, derive_rng(1)), BadSubsampleSize,
                         "m must be a whole number, got True"),
    **{f"ExperimentConfig-{name}": (lambda x, y, name=name: _config(**{name: 10.5}),
                                    ValueError, f"{name} must be a whole number, got 10.5")
       for name in ("m", "n_iter", "reps", "iter_cap")},
    "run_init_comparison": (lambda x, y: run_init_comparison([512], 3, 16.5, 2, 2), ValueError,
                            "m must be a whole number, got 16.5"),
    **{f"{name}-threads": (lambda x, y, run=run: run(2.5), ValueError,
                           "threads must be a whole number, got 2.5") for name, run in {
        "run_init_comparison": lambda t: run_init_comparison([512], 3, 16, 2, 2, threads=t),
        "run_convergence": lambda t: run_convergence(_config(), t),
        "run_delta_table": lambda t: run_delta_table(_config(), threads=t),
        "run_time_to_precision": lambda t: run_time_to_precision(_config(), t),
        "run_ridge_ablation": lambda t: run_ridge_ablation(_config(), t),
        "lambda_sweep": lambda t: lambda_sweep(_config(), [0.1], t)}.items()},
    "SketchKind": (lambda x, y: SketchKind("srht", 20.5), BadSubsampleSize,
                   "m must be a whole number, got 20.5"),
    "SubsampleMask": (lambda x, y: SubsampleMask(np.arange(N) < M, float(M)), BadSubsampleSize,
                      f"m must be a whole number, got {float(M)}"),
    "contraction_bound-t": (lambda x, y: contraction_bound(0.1, 0.1, 2.5, 1.0),
                            HypothesisViolated, "t must be a whole number, got 2.5"),
    "srht_apply": (lambda x, y: srht_apply(x, y, 20.5, derive_rng(1)), NotEnoughRows,
                   "sketch size must be a whole number, got 20.5"),
    "uniform_sample": (lambda x, y: uniform_sample(x, y, 20.5, derive_rng(1)), NotEnoughRows,
                       "sketch size must be a whole number, got 20.5"),
    "leverage_sample": (lambda x, y: leverage_sample(x, y, 20.5, derive_rng(1)),
                        BadSubsampleSize, "sketch size must be a whole number, got 20.5"),
    "aopt_select": (lambda x, y: aopt_select(x, 20.5), BadSubsampleSize,
                    "subsample size must be a whole number, got 20.5"),
    "aopt_ihs_solve-m": (lambda x, y: aopt_ihs_solve(x, y, 20.5, 2, 0.1), BadSubsampleSize,
                         "subsample size must be a whole number, got 20.5"),
    "ihs_solve-m": (lambda x, y: ihs_solve(x, y, 20.5, 2, derive_rng(1)), BadSubsampleSize,
                    "m must be a whole number, got 20.5"),
    **{f"{name}-n_iter": (lambda x, y, e=entry: e.solve(
        x, y, M, 2.5, **e.settings(rng=derive_rng(1), lam=0.1)), ValueError,
        "n_iter must be a whole number, got 2.5") for name, entry in METHODS.items()},
    "preconditioned_descent-n_iter": (lambda x, y: preconditioned_descent(
        x, y, None, lambda v: v, 2.5), ValueError, "n_iter must be a whole number, got 2.5"),
    # each used to fail inside numpy with a TypeError
    "make_sigma": (lambda x, y: make_sigma(2.5), ValueError, "d must be a whole number, got 2.5"),
    "make_sigma-bool": (lambda x, y: make_sigma(True), ValueError,
                        "d must be a whole number, got True"),
}


@pytest.mark.parametrize("entry", sorted(WHOLE_SIZES))
def test_size_that_is_not_whole_is_named_before_any_work(entry, xy, monkeypatch):
    # each used to pass every check and fail deep in numpy with a TypeError,
    # run_init_comparison after building its datasets
    def forbidden(*args, **kwargs):
        raise AssertionError("work before the size check")

    for module, name in ((sketchls.bench, "make_dataset"), (sketchls.sketch, "_row_sq_norms"),
                         (sketchls.sketch, "_leverage_scores"), (sketchls.sketch, "_workspace"),
                         (sketchls.solvers, "_sketcher"), (sketchls.solvers, "_gram")):
        monkeypatch.setattr(module, name, forbidden)
    call, error, message = WHOLE_SIZES[entry]
    with pytest.raises(error) as exc:
        call(*xy)
    assert str(exc.value) == message


def _no_work(*args, **kwargs):
    raise AssertionError("work before the setting check")


#: each randomized entry with an rng that is not a Generator, and its type;
#: each used to fail inside numpy with an AttributeError
NOT_GENERATORS = {
    "srht_apply": (lambda x, y, rng: srht_apply(x, y, M, rng), 7),
    "leverage_sample": (lambda x, y, rng: leverage_sample(x, y, M, rng), None),
    "uniform_sample": (lambda x, y, rng: uniform_sample(x, y, M, rng), 7),
    "draw_sketch": (lambda x, y, rng: draw_sketch(x, y, SRHT, rng), np.random.RandomState(0)),
    "ihs_solve": (lambda x, y, rng: ihs_solve(x, y, SRHT, 2, rng), None),
    "acc_ihs_solve": (lambda x, y, rng: acc_ihs_solve(x, y, M, 3, rng),
                      np.random.RandomState(0)),
    "pw_gradient_solve": (lambda x, y, rng: pw_gradient_solve(
        x, y, SketchKind("uniform", M), 2, rng), 7),
}


@pytest.mark.parametrize("entry", sorted(NOT_GENERATORS))
def test_rng_that_is_not_a_generator_is_named_before_any_work(entry, xy, monkeypatch):
    for name in ("_workspace", "_leverage_scores", "_rows"):
        monkeypatch.setattr(sketchls.sketch, name, _no_work)
    call, rng = NOT_GENERATORS[entry]
    with pytest.raises(TypeError) as exc:
        call(*xy, rng)
    assert str(exc.value) == f"rng must be a numpy.random.Generator, got {type(rng).__name__}"


def test_aopt_sketch_reads_no_rng(xy):
    x, y = xy
    sx, sy = draw_sketch(x, y, SketchKind("aopt", M), None)
    assert sx.shape == (M, D) and sy.shape == (M,)


#: NaN, inf and a negative value: outside the range of every real setting
_NOT_FINITE_OR_NEGATIVE = (np.nan, np.inf, -1.0)
#: a bool, a string and None: not a real setting at all
_NOT_A_NUMBER = (True, "0.5", None)
#: every iterative solve, on ``(x, y)`` with more keywords
_SOLVES = {
    "preconditioned_descent": lambda x, y, **kw: preconditioned_descent(
        x, y, None, _no_work, 2, **kw),
    **{name: lambda x, y, e=entry, **kw: e.solve(
        x, y, M, 2, **kw, **e.settings(rng=derive_rng(1), lam=0.1))
       for name, entry in METHODS.items()},
}
#: each real-valued setting where it enters, the values outside its range
#: (0 too for a proportion and a bench tol), and the message each raises
_REAL_ENTRIES = {
    "lambda_sweep-proportions": (lambda x, y, v: lambda_sweep(_config(), [v]),
                                 _NOT_FINITE_OR_NEGATIVE + (0.0,) + _NOT_A_NUMBER,
                                 "proportion must be finite and > 0, got {}"),
    "ExperimentConfig-tol": (lambda x, y, v: _config(tol=v),
                             _NOT_FINITE_OR_NEGATIVE + (0.0,) + _NOT_A_NUMBER,
                             "tol must be finite and > 0, got {}"),
    "build_m-lam": (lambda x, y, v: build_m(x, SubsampleMask(np.arange(N) < M, M), v),
                    _NOT_FINITE_OR_NEGATIVE + _NOT_A_NUMBER,
                    "ridge weight must be finite and >= 0, got {}"),
    "aopt_ihs_solve-lam": (lambda x, y, v: aopt_ihs_solve(x, y, M, 2, v),
                           _NOT_FINITE_OR_NEGATIVE + _NOT_A_NUMBER,
                           "ridge weight must be finite and >= 0, got {}"),
    "contraction_bound-init_err": (lambda x, y, v: contraction_bound(0.1, 0.1, 2, v),
                                   _NOT_FINITE_OR_NEGATIVE + _NOT_A_NUMBER,
                                   "init_err must be finite and >= 0, got {}"),
    **{f"{name}-tol": (lambda x, y, v, run=_SOLVES[name]: run(x, y, tol=v),
                       _NOT_FINITE_OR_NEGATIVE + _NOT_A_NUMBER,
                       "tol must be finite and >= 0, got {}")
       for name in ("aopt-ihs", "preconditioned_descent")},
    **{f"{name}-stop_at_dist": (lambda x, y, v, run=run: run(
        x, y, beta_ls=np.zeros(D), stop_at_dist=v), _NOT_FINITE_OR_NEGATIVE + _NOT_A_NUMBER,
        "stop_at_dist must be finite and >= 0, got {}") for name, run in _SOLVES.items()},
    # a negative sigma used to give a response, and NaN or inf failed after
    # the scan of X and the draw of the noise
    "gen_response-sigma": (lambda x, y, v: gen_response(x, np.zeros(D), v, derive_rng(1)),
                           _NOT_FINITE_OR_NEGATIVE + _NOT_A_NUMBER,
                           "sigma must be finite and >= 0, got {}"),
    "DataSpec-sigma_noise": (lambda x, y, v: DataSpec("normal", 64, 3, 0, v),
                             _NOT_FINITE_OR_NEGATIVE + _NOT_A_NUMBER,
                             "sigma_noise must be finite and >= 0, got {}"),
    "trace_inverse_bound-c_lower": (lambda x, y, v: trace_inverse_bound(
        x, SubsampleMask(np.arange(N) < M, M), v), _NOT_A_NUMBER,
        "c_lower must be finite and > 0, got {}"),
    # a bool trim used to pass as 0 or 1, and a string or None failed with an
    # unnamed TypeError
    **{f"{name}-trim": (lambda x, y, v, run=run: run(v), _NOT_FINITE_OR_NEGATIVE + (0.5,)
                        + _NOT_A_NUMBER, "trim must be finite and >= 0 and < 0.5, got {}")
       for name, run in {"ExperimentConfig": lambda v: _config(trim=v),
                         "run_init_comparison": lambda v: run_init_comparison(
                             [512], 3, 16, 2, 2, trim=v)}.items()},
    "trimmed_mean-frac": (lambda x, y, v: trimmed_mean([1.0, 2.0], v),
                          _NOT_FINITE_OR_NEGATIVE + (0.5,) + _NOT_A_NUMBER,
                          "trim fraction must be finite and >= 0 and < 0.5, got {}"),
    # a bool eps1 or eps2 used to read as a range fault, and a string failed
    # with an unnamed TypeError
    "contraction_bound-eps1": (lambda x, y, v: contraction_bound(v, 0.1, 2, 1.0),
                               _NOT_FINITE_OR_NEGATIVE + (0.5,) + _NOT_A_NUMBER,
                               "eps1 must be finite and >= 0 and < 0.5, got {}"),
    "contraction_bound-eps2": (lambda x, y, v: contraction_bound(0.25, v, 2, 1.0),
                               _NOT_FINITE_OR_NEGATIVE + (0.75,) + _NOT_A_NUMBER,
                               "eps2 must be finite and >= 0 and < 0.75, got {}"),
}
#: the settings whose range is a hypothesis of a bound, not ValueError's
_REAL_ERRORS = {"contraction_bound-eps1": HypothesisViolated,
                "contraction_bound-eps2": HypothesisViolated}

#: a real-valued setting out of its range, with the message and error it gives
REAL_SETTINGS = {f"{entry}-{v!r}": (lambda x, y, call=call, v=v: call(x, y, v),
                                    message.format(repr(v)), _REAL_ERRORS.get(entry, ValueError))
                 for entry, (call, values, message) in _REAL_ENTRIES.items() for v in values}


@pytest.mark.parametrize("entry", sorted(REAL_SETTINGS))
def test_real_setting_out_of_range_is_named_before_any_work(entry, xy, monkeypatch):
    # NaN and inf used to pass these checks: a NaN or inf proportion failed
    # each replication in numpy, a bench tol of inf reported 0 iterations, a
    # solver tol of inf stopped after one step, and a NaN or negative tol or
    # stop_at_dist turned its stop off; a bool passed as 0 or 1, and a string
    # or None failed with a TypeError that named no setting
    for module, name in ((sketchls.bench, "make_dataset"), (sketchls.sketch, "_row_sq_norms"),
                         (sketchls.sketch, "_leverage_scores"), (sketchls.sketch, "_workspace"),
                         (sketchls.solvers, "_sketcher"), (sketchls.solvers, "_gram"),
                         (sketchls.precond, "_gram"), (sketchls.datagen, "as_matrix")):
        monkeypatch.setattr(module, name, _no_work)
    call, message, error = REAL_SETTINGS[entry]
    with pytest.raises(error) as exc:
        call(*xy)
    assert str(exc.value) == message


@pytest.mark.parametrize("sigma", [1e308])
def test_response_that_is_not_finite_names_sigma(sigma, monkeypatch):
    # gen_response used to return inf entries with an overflow warning
    x, _ = scan_data()
    scans = count_scans(monkeypatch)
    with pytest.raises(ValueError) as exc:
        gen_response(x, np.ones(SCAN_D), sigma, derive_rng(1))
    assert str(exc.value) == f"the response is not finite at sigma = {sigma}"
    assert len(scans) == 1


def test_numpy_integer_sizes_accepted(xy):
    x, y = xy
    m, n_iter = np.int64(M), np.int64(2)
    assert DataSpec("normal", np.int64(64), np.int64(3), np.int64(0)).n == 64
    assert SketchKind("srht", m).m == M
    assert aopt_select(x, m).m == M
    assert ihs_solve(x, y, SketchKind("uniform", m), n_iter, derive_rng(1)).iterations == 2
