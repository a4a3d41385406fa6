import numpy as np
import pytest

from sketchls import (
    DataSpec,
    DimensionMismatch,
    center,
    derive_rng,
    gen_response,
    make_dataset,
    make_sigma,
)
from sketchls.datagen import _covariates


def raw_covariates(spec):
    """The raw (uncentered) covariates of a spec: the first draws of its
    stream, as make_dataset takes them."""
    return _covariates(derive_rng(spec.seed), spec.dist, spec.n, spec.d)


class TestMakeSigma:
    def test_d_one(self):
        np.testing.assert_allclose(make_sigma(1), [[1.0]])

    def test_d_two(self):
        np.testing.assert_allclose(make_sigma(2), [[1.0, 0.5], [0.5, 1.0]])

    def test_d_three_eigvals(self):
        np.testing.assert_allclose(
            np.linalg.eigvalsh(make_sigma(3)), [0.5, 0.5, 2.0], atol=1e-12
        )

    def test_d_below_one_rejected(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            make_sigma(0)


class TestCovariates:
    def test_normal_moments(self):
        spec = DataSpec("normal", 2**14, 10, seed=5)
        x = raw_covariates(spec)
        assert np.abs(x.mean(axis=0)).max() < 0.1
        cov = np.cov(x.T)
        rel = np.linalg.norm(cov - make_sigma(10)) / np.linalg.norm(make_sigma(10))
        assert rel <= 0.05

    def test_lognormal_positive(self):
        x = raw_covariates(DataSpec("lognormal", 500, 4, seed=6))
        assert (x > 0).all()

    def test_t2_heavier_tails_than_normal(self):
        n = 2**14
        xt = raw_covariates(DataSpec("t2", n, 3, seed=7))
        xn = raw_covariates(DataSpec("normal", n, 3, seed=7))

        def kurt(a):
            c = a - a.mean(axis=0)
            return ((c**4).mean(axis=0)) / (c**2).mean(axis=0) ** 2

        assert (kurt(xt) > kurt(xn)).all()

    def test_mixture_shapes_and_spread(self):
        x = raw_covariates(DataSpec("mixture", 5000, 4, seed=8))
        assert x.shape == (5000, 4)
        assert np.isfinite(x).all()
        # uniform rows live in [0, 2]; shifted-normal rows push the mean up
        assert x.mean() > 0.2


class TestResponse:
    def test_noiseless(self):
        x = np.arange(6.0).reshape(3, 2)
        beta = np.array([1.0, -1.0])
        np.testing.assert_allclose(
            gen_response(x, beta, 0.0, derive_rng(0)), x @ beta
        )

    def test_noise_variance(self):
        n = 2**14
        x = np.eye(n)
        beta = np.ones(n)
        y = gen_response(x, beta, 3.0, derive_rng(1))
        assert np.var(y - 1.0) == pytest.approx(9.0, rel=0.05)

    def test_dims_checked(self):
        with pytest.raises(DimensionMismatch):
            gen_response(np.eye(3), np.ones(2), 1.0, derive_rng(2))

    def test_pure_noise_ls_is_small(self):
        from sketchls import full_ls

        spec = DataSpec("normal", 2**12, 5, seed=9)
        x = raw_covariates(spec)
        y = gen_response(x, np.zeros(5), 3.0, derive_rng(3))
        xc, yc = center(x, y)
        beta = full_ls(xc, yc)
        # estimation noise floor is about sigma * sqrt(d / n)
        assert np.linalg.norm(beta) < 10 * 3.0 * np.sqrt(5 / 2**12)


class TestCenter:
    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x, y = center(rng.standard_normal((10, 3)), rng.standard_normal(10))
        x2, y2 = center(x, y)
        np.testing.assert_allclose(x2, x, atol=1e-12)
        np.testing.assert_allclose(y2, y, atol=1e-12)

    def test_hand_values(self):
        x, y = center([[1.0], [3.0]], [2.0, 4.0])
        np.testing.assert_allclose(x, [[-1.0], [1.0]])
        np.testing.assert_allclose(y, [-1.0, 1.0])

    def test_three_point_response(self):
        _, y = center(np.ones((3, 1)), [2.0, 4.0, 6.0])
        np.testing.assert_allclose(y, [-2.0, 0.0, 2.0])

    def test_one_row_rejected(self):
        with pytest.raises(ValueError, match="centering needs at least two rows"):
            center([[1.0, 2.0]], [3.0])

    def test_float64_arguments_left_unchanged(self):
        # the core centers in place; the public entry must center copies
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((10, 3)) + 2.0, rng.standard_normal(10) + 2.0
        x0, y0 = x.copy(), y.copy()
        xc, yc = center(x, y)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(y, y0)
        assert not np.shares_memory(xc, x) and not np.shares_memory(yc, y)
        np.testing.assert_array_equal(xc, x0 - x0.mean(axis=0))
        np.testing.assert_array_equal(yc, y0 - y0.mean())


class TestMakeDataset:
    def test_deterministic(self):
        a = make_dataset(DataSpec("mixture", 300, 4, seed=11))
        b = make_dataset(DataSpec("mixture", 300, 4, seed=11))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.beta_star, b.beta_star)
        np.testing.assert_array_equal(a.beta_ls, b.beta_ls)

    def test_centered(self):
        ds = make_dataset(DataSpec("lognormal", 400, 3, seed=12))
        assert np.abs(ds.x.mean(axis=0)).max() <= 1e-9
        assert abs(ds.y.mean()) <= 1e-9

    def test_ls_residual_orthogonality(self):
        ds = make_dataset(DataSpec("normal", 512, 6, seed=13))
        grad = ds.x.T @ (ds.y - ds.x @ ds.beta_ls)
        assert np.linalg.norm(grad) <= 1e-8 * np.linalg.norm(ds.x.T @ ds.y)

    def test_ls_consistency_in_n(self):
        # median error to the ground truth shrinks as n doubles
        errs = {}
        for n in (2**11, 2**14):
            vals = []
            for seed in range(20):
                ds = make_dataset(DataSpec("normal", n, 5, seed=seed))
                vals.append(np.linalg.norm(ds.beta_ls - ds.beta_star))
            errs[n] = float(np.median(vals))
        assert errs[2**14] < errs[2**11]

    def test_one_row_rejected(self):
        with pytest.raises(ValueError, match="centering needs at least two rows"):
            make_dataset(DataSpec("normal", 1, 1, 0))

    def test_one_row_spec_rejected_before_generation(self):
        # a one-row spec used to build, and fail only once X was generated
        with pytest.raises(ValueError, match="centering needs at least two rows"):
            DataSpec("normal", 1, 1, 0)

    def test_one_more_row_than_columns_builds(self):
        # n == d is rejected (centering leaves rank n - 1); n == d + 1 is the
        # smallest n that keeps full column rank
        ds = make_dataset(DataSpec("normal", 6, 5, 0))
        assert ds.x.shape == (6, 5) and np.isfinite(ds.beta_ls).all()

    @pytest.mark.parametrize("sigma_noise", [-1.0, np.nan, np.inf])
    def test_sigma_noise_must_be_non_negative(self, sigma_noise):
        with pytest.raises(ValueError, match="sigma_noise"):
            DataSpec("normal", 16, 2, seed=0, sigma_noise=sigma_noise)

    # a finite sigma_noise near the float range used to give an inf y (first
    # case) or an inf X'y (second), and so a non-finite beta_ls
    @pytest.mark.parametrize("dist, n, sigma_noise", [
        ("normal", 64, 1e308), ("lognormal", 20000, 1e306),
    ])
    def test_overflowing_response_names_sigma_noise(self, dist, n, sigma_noise):
        with pytest.raises(ValueError, match="sigma_noise"):
            make_dataset(DataSpec(dist, n, 3, seed=0, sigma_noise=sigma_noise))

    def test_large_finite_response_is_kept(self):
        ds = make_dataset(DataSpec("lognormal", 20000, 3, seed=0, sigma_noise=1e305))
        assert np.isfinite(ds.y).all() and np.isfinite(ds.beta_ls).all()


def whole_array_dataset(spec):
    """make_dataset as one whole-array draw per stream call: each family's
    definition written out directly, then :func:`center` and ``full_ls``."""
    from sketchls import full_ls

    rng = derive_rng(spec.seed)
    n, d = spec.n, spec.d
    chol = np.linalg.cholesky(make_sigma(d))
    comp = rng.integers(0, 5, n) if spec.dist == "mixture" else None
    z = rng.standard_normal((n, d)) @ chol.T
    if spec.dist == "normal":
        x = z
    elif spec.dist == "lognormal":
        x = np.exp(z)
    elif spec.dist == "t2":
        x = z / np.sqrt(rng.chisquare(2, n) / 2.0)[:, None]
    else:
        w2 = rng.chisquare(2, n)
        w3 = rng.chisquare(3, n)
        u = rng.uniform(0.0, 2.0, (n, d))
        x = np.empty((n, d))
        x[comp == 0] = z[comp == 0] + 1.0
        x[comp == 1] = z[comp == 1] / np.sqrt(w2[comp == 1] / 2.0)[:, None]
        x[comp == 2] = z[comp == 2] / np.sqrt(w3[comp == 2] / 3.0)[:, None]
        x[comp == 3] = u[comp == 3]
        x[comp == 4] = np.exp(z[comp == 4])
    beta_star = rng.standard_normal(d)
    x, y = center(x, gen_response(x, beta_star, spec.sigma_noise, rng))
    return x, y, beta_star, full_ls(x, y)


class TestBlockedGeneration:
    # two full 4096-row blocks and a 5-row tail
    @pytest.mark.parametrize("dist", ["normal", "lognormal", "t2", "mixture"])
    def test_matches_whole_array_draw(self, dist):
        spec = DataSpec(dist, 2 * 4096 + 5, 7, seed=21)
        ds = make_dataset(spec)
        for got, ref in zip((ds.x, ds.y, ds.beta_star, ds.beta_ls), whole_array_dataset(spec)):
            np.testing.assert_array_equal(got, ref)
