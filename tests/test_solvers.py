import inspect
import warnings

import numpy as np
import pytest

from sketchls import (
    BadSubsampleSize,
    DataSpec,
    HypothesisViolated,
    NotEnoughRows,
    NotPositiveDefinite,
    SketchKind,
    ZeroDirection,
    acc_ihs_solve,
    aopt_cs_estimate,
    aopt_ihs_solve,
    closed_form_trajectory,
    contraction_bound,
    cs_estimate,
    derive_rng,
    draw_sketch,
    exact_alpha,
    full_ls,
    gram,
    hs_estimate,
    ihs_solve,
    isometry_check,
    make_dataset,
    preconditioned_descent,
    pw_gradient_solve,
    srht_apply,
    cholesky,
    solve_spd,
)
from sketchls.sketch import _sketcher
from sketchls.solvers import METHODS

IDENTITY = lambda n: SketchKind("uniform", n)  # m = n keeps every row


class TestFullLs:
    def test_identity(self):
        np.testing.assert_allclose(full_ls(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_consistent_system(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(full_ls(x, [1.0, 1.0, 2.0]), [1.0, 1.0], atol=1e-12)

    def test_mean_of_responses(self):
        np.testing.assert_allclose(full_ls([[1.0], [1.0]], [0.0, 2.0]), [1.0])


class TestSketchEstimators:
    def test_cs_identity_sketch(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        np.testing.assert_allclose(cs_estimate(x, y), full_ls(x, y))

    def test_cs_diagonal(self):
        np.testing.assert_allclose(
            cs_estimate(np.diag([1.0, 2.0]), [1.0, 4.0]), [1.0, 2.0]
        )

    def test_cs_rank_deficient(self):
        with pytest.raises(NotPositiveDefinite):
            cs_estimate([[1.0, 2.0]], [1.0])

    def test_hs_identity_sketch(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 3))
        y = rng.standard_normal(20)
        np.testing.assert_allclose(hs_estimate(x, x.T @ y), full_ls(x, y))

    def test_hs_diagonal(self):
        sx = np.diag([np.sqrt(2.0), 2.0])  # sketched Gram diag(2, 4)
        np.testing.assert_allclose(hs_estimate(sx, [2.0, 4.0]), [1.0, 1.0])

    def test_hs_with_mask_sketch(self):
        # masked sketch + exact gradient reproduces the subsample estimator
        rng = np.random.default_rng(2)
        x = rng.standard_normal((16, 3))
        y = rng.standard_normal(16)
        beta, mask = aopt_cs_estimate(x, y, 8)
        sx = x[mask.indices] / np.sqrt(mask.m)
        hs = hs_estimate(sx, x.T @ y)
        direct = solve_spd(cholesky(gram(sx)), x.T @ y)
        np.testing.assert_allclose(hs, direct)

    def test_aopt_cs_full_selection(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        beta, mask = aopt_cs_estimate(x, y, 12)
        np.testing.assert_allclose(beta, full_ls(x, y), atol=1e-12)
        assert mask.m == 12

    def test_aopt_cs_hand_selection(self):
        x = np.array([[10.0, 0.0], [0.0, 10.0], [1.0, 0.0], [0.0, 1.0]])
        y = x @ np.array([1.0, 1.0])
        beta, mask = aopt_cs_estimate(x, y, 2)
        np.testing.assert_array_equal(mask.delta, [1, 1, 0, 0])
        np.testing.assert_allclose(beta, [1.0, 1.0], atol=1e-12)

    def test_aopt_cs_noiseless_interpolation(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4))
        beta_star = rng.standard_normal(4)
        y = x @ beta_star
        for m in (4, 10, 30):
            beta, _ = aopt_cs_estimate(x, y, m)
            np.testing.assert_allclose(beta, beta_star, atol=1e-9)


class TestIhs:
    def test_identity_sketch_one_step(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 3))
        y = rng.standard_normal(10)
        trace = ihs_solve(x, y, IDENTITY(10), 3, derive_rng(0))
        np.testing.assert_allclose(trace.betas[1], full_ls(x, y), atol=1e-10)

    def test_fixed_point_at_solution(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((32, 3))
        y = rng.standard_normal(32)
        beta_ls = full_ls(x, y)
        trace = ihs_solve(
            x, y, SketchKind("srht", 16), 4, derive_rng(1), beta0=beta_ls
        )
        for beta in trace.betas:
            assert np.linalg.norm(beta - beta_ls) <= 1e-12 * np.linalg.norm(beta_ls)

    def test_matches_closed_form_per_iteration(self):
        for seed in range(10):
            ds = make_dataset(DataSpec("normal", 256, 5, seed=seed))
            trace = ihs_solve(
                ds.x,
                ds.y,
                SketchKind("srht", 64),
                5,
                derive_rng(seed, 99),
                record_sketches=True,
            )
            for t in range(1, 6):
                oracle = closed_form_trajectory(
                    ds.x, ds.y, np.zeros(5), trace.sketches[:t]
                )
                rel = np.linalg.norm(trace.betas[t] - oracle) / max(
                    1.0, np.linalg.norm(oracle)
                )
                assert rel <= 1e-8

    # every kind sets up once per solve, and its draws must still be those of
    # successive draw_sketch calls on the same stream.  (3000, 70, 100) has
    # d + 1 > 64 and m * 16 < n_pad: several SRHT panels and the kept-row
    # path; desk is the benchmark's scale.  The solver sketches X alone, so
    # an SRHT equals a fresh sketcher of X alone per draw, and draw_sketch's
    # SX, whose panels carry y's column too, up to the last bits
    @pytest.mark.parametrize("variant, n, d, m", [
        pytest.param("srht", 3000, 70, 100, id="3000-70-100"),
        pytest.param("srht", 256, 5, 64, id="256-5-64"),
        pytest.param("srht", 1 << 14, 50, 1000, id="desk"),
        *(pytest.param(v, 3000, 70, 100, id=f"{v}-3000-70-100")
          for v in ("leverage", "uniform", "aopt")),
    ])
    def test_srht_sketches_are_srht_apply_draws(self, variant, n, d, m):
        ds = make_dataset(DataSpec("lognormal", n, d, seed=3))
        kind = SketchKind(variant, m)
        trace = ihs_solve(ds.x, ds.y, kind, 4, derive_rng(7), record_sketches=True)
        stream, mirror = derive_rng(7), derive_rng(7)
        for sx in trace.sketches:
            ref = draw_sketch(ds.x, ds.y, kind, stream)[0]
            if variant == "srht":
                np.testing.assert_array_equal(sx, _sketcher(ds.x, None, "srht", m, mirror)()[0])
                np.testing.assert_allclose(sx, ref, rtol=0, atol=1e-13 * np.abs(ref).max())
            else:
                np.testing.assert_array_equal(sx, ref)

    @pytest.mark.parametrize("cond", [1e7, 1e8])
    def test_accurate_on_an_ill_conditioned_design(self, cond):
        # X = U diag(s) V' with log-spaced s: each step recomputes the exact
        # residual, so ihs gets near cond(X) eps of lstsq (9.2e-10 and 3.2e-8
        # measured).  SRHTs transformed in float32 ended at 0.84 at 1e8
        rng = np.random.default_rng(11)
        n, d = 1 << 14, 50
        u, _ = np.linalg.qr(rng.standard_normal((n, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        x = (u * np.logspace(0.0, -np.log10(cond), d)) @ v.T
        y = x @ rng.standard_normal(d) + 1e-3 * rng.standard_normal(n)
        ref = np.linalg.lstsq(x, y, rcond=None)[0]
        trace = ihs_solve(x, y, SketchKind("srht", 1000), 40, derive_rng(12))
        assert np.linalg.norm(trace.final - ref) <= 1e-6 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n_iter", [0, 3])
    @pytest.mark.parametrize("variant, error", [
        ("srht", NotEnoughRows), ("uniform", NotEnoughRows), ("aopt", BadSubsampleSize)])
    def test_m_above_rows_raises_at_entry(self, variant, error, n_iter):
        # uniform and aopt used to return a trace at n_iter = 0 and raise only
        # in the first iteration otherwise
        x = np.random.default_rng(8).standard_normal((10, 2))
        with pytest.raises(error):
            ihs_solve(x, x[:, 0], SketchKind(variant, 17), n_iter, derive_rng(0))

    def test_npd_reports_iteration(self):
        x = np.random.default_rng(7).standard_normal((8, 2))
        y = np.zeros(8)
        with pytest.raises(NotPositiveDefinite) as exc:
            ihs_solve(x, y, SketchKind("uniform", 1), 3, derive_rng(2))
        assert exc.value.iteration == 1


def _gradient_descent(x, y, m, n_iter, rng, lam, beta_ls=None, stop_at_dist=0.0):
    """Unpreconditioned exact-line-search descent from zero."""
    return preconditioned_descent(
        x, y, np.zeros(x.shape[1]), lambda v: v, n_iter,
        beta_ls=beta_ls, stop_at_dist=stop_at_dist,
    )


def _registry_call(entry):
    """A METHODS entry called with a generator and a ridge weight, of which
    it is passed the ones it reads."""

    def run(x, y, m, n_iter, rng, lam, **kw):
        return entry.solve(x, y, m, n_iter, **entry.settings(rng=rng, lam=lam), **kw)

    return run


TRACED = {**{name: _registry_call(entry) for name, entry in METHODS.items()},
          "descent": _gradient_descent}
LINE_SEARCH = {"aopt-ihs", "acc-ihs", "descent"}


#: the arguments every METHODS entry takes, which are not settings
_COMMON = {"x", "y", "kind", "m", "n_iter", "beta_ls", "stop_at_dist", "record_sketches"}


class TestMethodDeclarations:
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_reads_are_the_solver_settings(self, name):
        entry = METHODS[name]
        assert set(entry.reads) == set(inspect.signature(entry.solve).parameters) - _COMMON

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_an_unread_setting_is_refused(self, name):
        ds = make_dataset(DataSpec("normal", 256, 4, seed=1))
        entry = METHODS[name]
        unread = {"rng": derive_rng(3), "beta0": None, "lam": 0.1, "tol": 0.0}
        for setting in set(unread) - set(entry.reads):
            with pytest.raises(TypeError, match=setting):
                entry.solve(ds.x, ds.y, 128, 2, **{setting: unread[setting]})
        assert entry.settings(**unread) == {key: unread[key] for key in entry.reads}

    def test_a_row_count_is_an_srht(self):
        ds = make_dataset(DataSpec("normal", 256, 4, seed=1))
        for solve in (ihs_solve, acc_ihs_solve, pw_gradient_solve):
            by_count, by_kind = (solve(ds.x, ds.y, kind, 4, derive_rng(3))
                                 for kind in (128, SketchKind("srht", 128)))
            np.testing.assert_array_equal(np.stack(by_count.betas), np.stack(by_kind.betas))


class TestTraceContract:
    """Every iterative solver shares one trace layout and one stop rule."""

    @pytest.mark.parametrize("name", sorted(TRACED))
    def test_trace_shape(self, name):
        ds = make_dataset(DataSpec("normal", 256, 4, seed=1))

        def run(n_iter, stop_at_dist=0.0):
            return TRACED[name](
                ds.x, ds.y, 128, n_iter, derive_rng(3), 0.1,
                beta_ls=ds.beta_ls, stop_at_dist=stop_at_dist,
            )

        trace = run(4)
        assert trace.iterations == 4
        assert len(trace.objective) == len(trace.betas) == len(trace.dist_to_ls)
        assert len(trace.betas) == len(trace.elapsed) + 1
        for beta, objective in zip(trace.betas, trace.objective):
            r = ds.x @ beta - ds.y
            assert objective == pytest.approx(0.5 * float(r @ r), rel=1e-12)
        assert len(trace.alphas) == (trace.iterations if name in LINE_SEARCH else 0)

        # same seed, so the target is reached by iteration 2 at the latest
        target = trace.dist_to_ls[2]
        dist = run(50, stop_at_dist=target).dist_to_ls
        assert dist[-1] <= target
        assert all(d > target for d in dist[1:-1])

    @pytest.mark.parametrize("name", sorted(TRACED))
    def test_beta_ls_only_adds_distances(self, name):
        # without beta_ls, pw-gradient measures divergence by the gradient
        # norm and reuses that gradient in its next step: iterates must match
        ds = make_dataset(DataSpec("normal", 256, 4, seed=1))
        with_ls, without = (
            TRACED[name](ds.x, ds.y, 128, 6, derive_rng(3), 0.1, beta_ls=beta_ls)
            for beta_ls in (ds.beta_ls, None)
        )
        assert without.dist_to_ls is None
        assert with_ls.iterations == without.iterations == 6
        for a, b in zip(with_ls.betas, without.betas):
            np.testing.assert_array_equal(a, b)
        assert with_ls.objective == without.objective
        assert with_ls.status == without.status

    @pytest.mark.parametrize("n_iter", [0, -1])
    @pytest.mark.parametrize("name", sorted(TRACED))
    def test_no_steps_records_the_start_only(self, name, n_iter):
        ds = make_dataset(DataSpec("normal", 256, 4, seed=1))
        run = lambda n: TRACED[name](ds.x, ds.y, 128, n, derive_rng(3), 0.1,
                                     beta_ls=ds.beta_ls)
        trace, longer = run(n_iter), run(2)
        assert (trace.iterations, trace.status) == (0, "ok")
        np.testing.assert_array_equal(trace.betas[0], longer.betas[0])
        assert trace.objective == longer.objective[:1]
        assert trace.dist_to_ls == longer.dist_to_ls[:1]
        assert trace.alphas == [] and trace.elapsed == []
        assert trace.setup_seconds > 0.0


class TestClosedFormTrajectory:
    def test_no_sketches_returns_initializer(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        beta0 = np.array([3.0, -1.0])
        np.testing.assert_allclose(closed_form_trajectory(x, y, beta0, []), beta0)

    def test_collapses_at_solution(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((16, 2))
        y = rng.standard_normal(16)
        beta_ls = full_ls(x, y)
        sketches = [srht_apply(x, y, 8, derive_rng(4))[0] for _ in range(3)]
        np.testing.assert_allclose(
            closed_form_trajectory(x, y, beta_ls, sketches), beta_ls, atol=1e-10
        )


class TestIsometry:
    def test_identity_sketch(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 3))
        rep = isometry_check(x, x)
        assert rep.eps1 == pytest.approx(0.0, abs=1e-10)
        assert rep.eps2 == pytest.approx(0.0, abs=1e-10)
        assert rep.satisfies

    def test_inflated_sketch_fails(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((20, 3))
        rep = isometry_check(x, 2.0 * x)
        assert rep.eps2 == pytest.approx(3.0, abs=1e-9)
        assert rep.eps1 == pytest.approx(0.0, abs=1e-12)
        assert not rep.satisfies

    def test_full_srht_is_exact(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((24, 4))
        y = np.zeros(24)
        sx, _ = srht_apply(x, y, 32, derive_rng(5))
        rep = isometry_check(x, sx)
        assert rep.eps <= 1e-9
        assert rep.satisfies


class TestContractionBound:
    def test_hand_value(self):
        assert contraction_bound(0.25, 0.25, 1, 1.0) == pytest.approx(1.0 / 3.0)

    def test_zero_iterations(self):
        assert contraction_bound(0.3, 0.4, 0, 2.5) == 2.5

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolated):
            contraction_bound(0.6, 0.1, 1, 1.0)
        with pytest.raises(HypothesisViolated):
            contraction_bound(0.4, 0.7, 1, 1.0)

    def test_energy_norm_contraction_holds_on_seeded_runs(self):
        # the geometric rate bounds the contraction exactly in the norm
        # weighted by the Gram matrix; the plain Euclidean distance obeys the
        # same rate up to a sqrt(cond) factor.  (The unweighted rate bounds
        # only the spectral radius of the non-normal iteration matrix, so a
        # single step can exceed it in the Euclidean norm.)
        held = 0
        for seed in range(20):
            ds = make_dataset(DataSpec("normal", 256, 4, seed=seed))
            trace = ihs_solve(
                ds.x,
                ds.y,
                SketchKind("srht", 128),
                4,
                derive_rng(seed, 7),
                beta_ls=ds.beta_ls,
                record_sketches=True,
            )
            reports = [isometry_check(ds.x, sx) for sx in trace.sketches]
            if not all(r.satisfies for r in reports):
                continue
            e1 = max(r.eps1 for r in reports)
            e2 = max(r.eps2 for r in reports)
            q = gram(ds.x)
            kappa = np.linalg.cond(q)

            def qnorm(v):
                return float(np.sqrt(v @ q @ v))

            eq0 = qnorm(trace.betas[0] - ds.beta_ls)
            for t in range(1, 5):
                rate_t = contraction_bound(e1, e2, t, 1.0)
                assert qnorm(trace.betas[t] - ds.beta_ls) <= (
                    rate_t * eq0 * (1 + 1e-9) + 1e-12
                )
                assert trace.dist_to_ls[t] <= (
                    np.sqrt(kappa) * rate_t * trace.dist_to_ls[0] * (1 + 1e-9) + 1e-12
                )
                held += 1
        assert held >= 40


class TestExactAlpha:
    def test_direct_arithmetic(self):
        assert exact_alpha([1.0, 1.0], [1.0, 1.0], [1.0, 1.0, 0.0]) == pytest.approx(1.0)

    def test_newton_step_is_unit(self):
        # preconditioning with the exact Gram matrix gives alpha = 1
        rng = np.random.default_rng(13)
        x = rng.standard_normal((40, 5))
        y = rng.standard_normal(40)
        fac = cholesky(gram(x))
        beta = rng.standard_normal(5)
        v = x.T @ (y - x @ beta)
        u = solve_spd(fac, v)
        assert exact_alpha(v, u, x @ u) == pytest.approx(1.0, abs=1e-10)

    def test_zero_direction(self):
        with pytest.raises(ZeroDirection):
            exact_alpha([1.0], [1.0], [0.0])

    def test_stationarity_by_finite_difference(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.standard_normal((30, 4))
            y = rng.standard_normal(30)
            beta = rng.standard_normal(4)
            u = rng.standard_normal(4)
            v = x.T @ (y - x @ beta)
            alpha = exact_alpha(v, u, x @ u)

            def psi(a):
                r = x @ (beta + a * u) - y
                return 0.5 * float(r @ r)

            h = 1e-4
            deriv = (psi(alpha + h) - psi(alpha - h)) / (2 * h)
            assert abs(deriv) <= 1e-6 * max(abs(psi(0.0)), 1.0)


class TestAoptIhs:
    def test_noiseless_stays_put(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((64, 4))
        beta_star = rng.standard_normal(4)
        y = x @ beta_star
        trace = aopt_ihs_solve(x, y, 16, 5, lam=float((x**2).sum() * 0.1))
        for beta in trace.betas:
            assert np.linalg.norm(beta - beta_star) <= 1e-10 * np.linalg.norm(beta_star)

    def test_exact_preconditioner_one_step(self):
        # M proportional to the Gram matrix converges in a single iteration
        rng = np.random.default_rng(16)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        beta_ls = full_ls(x, y)
        fac = cholesky(gram(x))
        trace = preconditioned_descent(
            x, y, np.zeros(3), lambda v: solve_spd(fac, v), 3, beta_ls=beta_ls
        )
        assert trace.dist_to_ls[1] <= 1e-10
        assert trace.alphas[0] == pytest.approx(1.0, abs=1e-10)

    def test_d1_always_one_step(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((40, 1))
        y = rng.standard_normal(40)
        trace = aopt_ihs_solve(x, y, 10, 3, lam=0.0, beta_ls=full_ls(x, y))
        assert trace.dist_to_ls[1] <= 1e-12

    def test_objective_non_increasing(self):
        for seed in range(5):
            ds = make_dataset(DataSpec("t2", 512, 6, seed=seed))
            lam = 0.4 * float((ds.x**2).sum())
            trace = aopt_ihs_solve(ds.x, ds.y, 128, 25, lam, beta_ls=ds.beta_ls)
            obj = trace.objective
            assert all(
                b <= a * (1 + 1e-9) + 1e-300 for a, b in zip(obj, obj[1:])
            )

    def test_converges_to_ls(self):
        ds = make_dataset(DataSpec("normal", 1024, 8, seed=3))
        lam = 0.1 * float((ds.x**2).sum())
        trace = aopt_ihs_solve(ds.x, ds.y, 256, 200, lam, beta_ls=ds.beta_ls)
        assert trace.dist_to_ls[-1] <= 1e-10

    def test_early_stopping_tolerance(self):
        ds = make_dataset(DataSpec("normal", 512, 4, seed=4))
        lam = 0.1 * float((ds.x**2).sum())
        trace = aopt_ihs_solve(ds.x, ds.y, 128, 500, lam, tol=1e-8)
        assert trace.status in ("converged", "ok")
        assert trace.iterations < 500

    def test_translation_consistency(self):
        ds = make_dataset(DataSpec("normal", 256, 4, seed=5))
        lam = 0.1 * float((ds.x**2).sum())
        c = np.array([1.0, -2.0, 0.5, 3.0])
        t1 = aopt_ihs_solve(ds.x, ds.y, 64, 10, lam)
        t2 = aopt_ihs_solve(ds.x, ds.y + ds.x @ c, 64, 10, lam)
        for b1, b2 in zip(t1.betas, t2.betas):
            assert np.linalg.norm(b2 - (b1 + c)) <= 1e-9 * max(1.0, np.linalg.norm(b1))


class TestPwGradient:
    def test_identity_sketch_one_step(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        trace = pw_gradient_solve(x, y, IDENTITY(12), 3, derive_rng(6))
        np.testing.assert_allclose(trace.betas[1], full_ls(x, y), atol=1e-10)

    def test_equals_frozen_ihs(self):
        # with the deterministic mask sketch, re-sketching draws the same
        # sketch every iteration, so the two recursions coincide exactly
        ds = make_dataset(DataSpec("normal", 128, 3, seed=6))
        kind = SketchKind("aopt", 64)
        a = pw_gradient_solve(ds.x, ds.y, kind, 5, derive_rng(7))
        b = ihs_solve(ds.x, ds.y, kind, 5, derive_rng(8))
        for ba, bb in zip(a.betas, b.betas):
            np.testing.assert_allclose(ba, bb, atol=1e-12)

    def test_fixed_point_at_solution(self):
        ds = make_dataset(DataSpec("normal", 128, 3, seed=30))
        trace = pw_gradient_solve(
            ds.x, ds.y, SketchKind("srht", 64), 4, derive_rng(30), beta0=ds.beta_ls
        )
        for beta in trace.betas:
            assert np.linalg.norm(beta - ds.beta_ls) <= 1e-12 * np.linalg.norm(ds.beta_ls)

    def test_divergence_reported_not_raised(self):
        # an aggressively inflated frozen preconditioner makes unit steps
        # overshoot; the run must stop with status "diverge"
        rng = np.random.default_rng(19)
        found = False
        for seed in range(30):
            ds = make_dataset(DataSpec("normal", 256, 16, seed=seed))
            trace = pw_gradient_solve(
                ds.x,
                ds.y,
                SketchKind("uniform", 18),
                60,
                derive_rng(seed, 1),
                beta_ls=ds.beta_ls,
            )
            if trace.status == "diverge":
                found = True
                break
        assert found


class TestAccIhs:
    def test_identity_sketch_one_step(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((14, 3))
        y = rng.standard_normal(14)
        trace = acc_ihs_solve(x, y, IDENTITY(14), 5, derive_rng(9))
        assert np.linalg.norm(trace.betas[1] - full_ls(x, y)) <= 1e-8

    def test_finite_termination_in_d_steps(self):
        for d in (2, 3, 5):
            ds = make_dataset(DataSpec("normal", 256, d, seed=d))
            trace = acc_ihs_solve(
                ds.x,
                ds.y,
                SketchKind("srht", 64),
                d,
                derive_rng(d, 2),
                beta_ls=ds.beta_ls,
            )
            assert trace.dist_to_ls[-1] <= 1e-8 * max(1.0, np.linalg.norm(ds.beta_ls))

    def test_fixed_point_at_solution(self):
        ds = make_dataset(DataSpec("normal", 128, 4, seed=21))
        trace = acc_ihs_solve(
            ds.x,
            ds.y,
            SketchKind("srht", 64),
            4,
            derive_rng(10),
            beta0=ds.beta_ls,
        )
        for beta in trace.betas:
            assert np.linalg.norm(beta - ds.beta_ls) <= 1e-10 * np.linalg.norm(ds.beta_ls)


@pytest.mark.parametrize("solve", [acc_ihs_solve, pw_gradient_solve])
def test_frozen_sketch_is_the_first_draw_of_the_stream(solve, monkeypatch):
    # the sketch behind the frozen factor is of X alone, taken in one draw
    # from rng: draw_sketch's first draw up to the last bits (see TestIhs)
    import sketchls.solvers

    ds = make_dataset(DataSpec("lognormal", 3000, 70, seed=3))
    kind, grams = SketchKind("srht", 100), []

    def recording(a):
        grams.append(a)
        return gram(a)

    monkeypatch.setattr(sketchls.solvers, "_gram", recording)
    rng, stream = derive_rng(7), derive_rng(7)
    solve(ds.x, ds.y, kind, 3, rng)
    ref = draw_sketch(ds.x, ds.y, kind, stream)[0]
    assert len(grams) == 1
    np.testing.assert_allclose(grams[0], ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    assert rng.bit_generator.state == stream.bit_generator.state


def exact_integer_fit():
    """A 64 x 3 integer X and the y = X beta of an integer beta: the
    residual at beta is exactly 0."""
    x = np.random.default_rng(4).integers(-5, 6, size=(64, 3)).astype(np.float64)
    beta = np.array([2.0, -1.0, 3.0])
    return x, x @ beta, beta


class TestEarlyExits:
    """A step that hands back no iterate ends the run before iteration 1."""

    def test_descent_from_the_exact_solution_converges(self):
        x, y, beta = exact_integer_fit()
        trace = preconditioned_descent(x, y, beta, lambda v: v, 5, beta_ls=beta)
        assert (trace.status, trace.iterations) == ("converged", 0)
        np.testing.assert_array_equal(np.stack(trace.betas), [beta])
        assert trace.objective == [0.0] and trace.dist_to_ls == [0.0]
        assert trace.alphas == [] and trace.elapsed == []

    def test_acc_ihs_from_the_exact_solution_converges(self):
        x, y, beta = exact_integer_fit()
        trace = acc_ihs_solve(x, y, SketchKind("srht", 32), 5, derive_rng(1), beta0=beta,
                              beta_ls=beta)
        assert (trace.status, trace.iterations) == ("converged", 0)
        np.testing.assert_array_equal(np.stack(trace.betas), [beta])
        assert trace.objective == [0.0] and trace.dist_to_ls == [0.0]

    def test_acc_ihs_with_vanishing_curvature_converges(self, monkeypatch):
        # a preconditioner 1e200 times too strong keeps r'M^{-1}r > 0 while
        # the curvature p'X'Xp underflows to 0
        import sketchls.solvers

        x, _, _ = exact_integer_fit()
        y = np.random.default_rng(5).standard_normal(64)
        solve = sketchls.solvers.solve_spd
        monkeypatch.setattr(sketchls.solvers, "solve_spd", lambda fac, b: 1e-200 * solve(fac, b))
        trace = acc_ihs_solve(x, y, SketchKind("srht", 32), 5, derive_rng(1))
        assert (trace.status, trace.iterations) == ("converged", 0)
        np.testing.assert_array_equal(np.stack(trace.betas), [np.zeros(3)])

    def test_pw_gradient_whose_first_step_overflows_diverges(self, monkeypatch):
        # from the zero start (a finite objective), a finite step of 1e300
        # gives a finite iterate whose objective overflows
        import sketchls.solvers

        x, y, _ = exact_integer_fit()
        monkeypatch.setattr(sketchls.solvers, "solve_spd", lambda fac, b: np.full_like(b, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = pw_gradient_solve(x, y, SketchKind("srht", 32), 5, derive_rng(1))
        assert (trace.status, trace.iterations) == ("diverge", 1)
        np.testing.assert_array_equal(np.stack(trace.betas), [np.zeros(3), np.full(3, 1e300)])
        assert np.isfinite(trace.objective[0]) and trace.objective[1] == np.inf
        assert trace.alphas == [] and len(trace.elapsed) == 1

    @pytest.mark.parametrize("with_ls", [False, True], ids=["no-beta_ls", "beta_ls"])
    def test_pw_gradient_overflowing_start_diverges_without_warnings(self, with_ls):
        x, y, beta = exact_integer_fit()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = pw_gradient_solve(x, y, SketchKind("srht", 32), 5, derive_rng(1),
                                      beta0=np.full(3, 1e306),
                                      beta_ls=beta if with_ls else None)
        assert (trace.status, trace.iterations) == ("diverge", 0)
        assert trace.objective == [np.inf]


RANDOMIZED = {"ihs": ihs_solve, "acc-ihs": acc_ihs_solve, "pw-gradient": pw_gradient_solve}


class TestRunEnds:
    """The solver loop, not each method, decides how a run ends."""

    @pytest.mark.parametrize("with_ls", [False, True], ids=["no-beta_ls", "beta_ls"])
    @pytest.mark.parametrize("name", ["ihs", "acc-ihs"])
    def test_overflowing_start_diverges_without_warnings(self, name, with_ls):
        # used to read "ok" after 3 steps, with NaN iterates
        x, y, beta = exact_integer_fit()
        beta0 = np.full(3, 1e306)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = RANDOMIZED[name](x, y, SketchKind("srht", 32), 3, derive_rng(1),
                                     beta0=beta0, beta_ls=beta if with_ls else None)
        assert (trace.status, trace.iterations) == ("diverge", 0)
        np.testing.assert_array_equal(np.stack(trace.betas), [beta0])
        assert trace.alphas == [] and trace.elapsed == []

    @pytest.mark.parametrize("name", sorted(RANDOMIZED))
    def test_nan_iterate_is_recorded_and_diverges(self, name, monkeypatch):
        import sketchls.solvers

        x, _, _ = exact_integer_fit()
        y = np.random.default_rng(5).standard_normal(64)
        monkeypatch.setattr(sketchls.solvers, "solve_spd",
                            lambda fac, b: np.full_like(b, np.nan))
        trace = RANDOMIZED[name](x, y, SketchKind("srht", 32), 5, derive_rng(1))
        assert (trace.status, trace.iterations) == ("diverge", 1)
        assert np.isnan(trace.betas[-1]).all() and np.isnan(trace.objective[-1])

    def test_nan_direction_of_descent_diverges(self):
        # the exact step used to check its vectors and raise ValueError
        x, _, _ = exact_integer_fit()
        y = np.random.default_rng(5).standard_normal(64)
        trace = preconditioned_descent(x, y, None, lambda v: np.full_like(v, np.nan), 5)
        assert (trace.status, trace.iterations) == ("diverge", 1)
        assert np.isnan(trace.betas[-1]).all() and np.isnan(trace.objective[-1])

    @pytest.mark.parametrize("name", sorted(RANDOMIZED) + ["descent"])
    def test_start_within_the_target_takes_no_step(self, name):
        ds = make_dataset(DataSpec("normal", 256, 4, seed=1))
        kw = dict(beta_ls=ds.beta_ls, stop_at_dist=1e-3)
        if name == "descent":
            trace = preconditioned_descent(ds.x, ds.y, ds.beta_ls, lambda v: v, 5, **kw)
        else:
            trace = RANDOMIZED[name](ds.x, ds.y, SketchKind("srht", 128), 5, derive_rng(3),
                                     beta0=ds.beta_ls, **kw)
        assert (trace.status, trace.iterations) == ("ok", 0)
        assert trace.dist_to_ls == [0.0]

    @pytest.mark.parametrize("name, iteration", [
        ("ihs", 1), ("acc-ihs", 0), ("pw-gradient", 0), ("aopt-ihs", 0)])
    def test_npd_names_its_iteration(self, name, iteration):
        # a one-row sketch has a rank-one Gram matrix: ihs draws its first
        # sketch in step 1, the frozen-sketch methods in their setup, and
        # aopt-ihs fits its start on its one largest-norm row in its setup
        x, y = np.random.default_rng(7).standard_normal((8, 2)), np.zeros(8)
        with pytest.raises(NotPositiveDefinite, match=f"at iteration {iteration}$") as exc:
            if name == "aopt-ihs":
                aopt_ihs_solve(x, y, 1, 3, 0.0)
            else:
                RANDOMIZED[name](x, y, SketchKind("uniform", 1), 3, derive_rng(2))
        assert exc.value.iteration == iteration

    @pytest.mark.parametrize("with_ls", [False, True], ids=["no-beta_ls", "beta_ls"])
    def test_pw_gradient_from_the_exact_start_is_ok(self, with_ls):
        # the start's error is 0 (or the gradient's roundoff), so the first
        # step's roundoff used to count as a 10x growth
        checked = 0
        for dist in ("normal", "lognormal", "t2", "mixture"):
            for seed in range(3):
                ds = make_dataset(DataSpec(dist, 256, 4, seed=seed))
                for m in (64, 128):
                    run = lambda beta0: pw_gradient_solve(
                        ds.x, ds.y, SketchKind("srht", m), 10, derive_rng(seed, m),
                        beta0=beta0, beta_ls=ds.beta_ls if with_ls else None)
                    if run(None).status == "ok":
                        assert run(ds.beta_ls).status == "ok", (dist, seed, m)
                        checked += 1
        assert checked >= 20
