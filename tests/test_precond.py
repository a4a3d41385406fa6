import numpy as np
import pytest

from sketchls import (
    LambdaRule,
    NotPositiveDefinite,
    SubsampleMask,
    aopt_select,
    build_m,
    cond_spd,
    delta_from_matrix,
    delta_measure,
    gram,
    hs_covariance_trace_bound,
    pencil_eigvals,
    sym_eigvals,
    trace_inverse_bound,
)


def _mask(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    return SubsampleMask(bits, int(bits.sum()))


class TestLambdaRule:
    def test_concentrated_identity(self):
        assert LambdaRule("concentrated").resolve(np.eye(2)) == pytest.approx(0.2)

    def test_heavy_tailed_single_row(self):
        assert LambdaRule("heavy_tailed").resolve([[3.0, 4.0]]) == pytest.approx(10.0)

    def test_explicit_passthrough(self):
        assert LambdaRule("explicit", 7.5).resolve(np.eye(5)) == 7.5

    def test_defaults_per_distribution(self):
        assert LambdaRule.for_distribution("normal").profile == "concentrated"
        for dist in ("lognormal", "t2", "mixture"):
            assert LambdaRule.for_distribution(dist).profile == "heavy_tailed"

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            LambdaRule("robust")

    @pytest.mark.parametrize("weight", [-5.0, np.nan, np.inf])
    def test_explicit_weight_finite_and_non_negative(self, weight):
        with pytest.raises(ValueError, match="ridge weight"):
            LambdaRule("explicit", weight)


class TestBuildM:
    def test_identity_design_full_mask(self):
        pre = build_m(np.eye(2), _mask([1, 1]), 0.0)
        np.testing.assert_allclose(pre.m_matrix, np.eye(2))

    def test_rank_deficient_without_ridge(self):
        with pytest.raises(NotPositiveDefinite):
            build_m(np.array([[1.0, 0.0], [0.0, 0.0]]), _mask([1, 1]), 0.0)

    def test_hand_assembled(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        pre = build_m(x, _mask([0, 1]), 3.0)
        np.testing.assert_allclose(pre.m_matrix, np.diag([3.0, 11.0]))

    def test_matches_bruteforce_masked_loop(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 3))
        mask = aopt_select(x, 7)
        pre = build_m(x, mask, 0.5)
        brute = np.zeros((3, 3))
        for i in range(12):
            if mask.delta[i]:
                brute += np.outer(x[i], x[i])
        brute = 12 / 7 * brute + 0.5 * np.eye(3)
        np.testing.assert_allclose(pre.m_matrix, brute, atol=1e-12)

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 4))
        pre = build_m(x, aopt_select(x, 9), 1.0)
        rec = pre.factor.lower @ pre.factor.lower.T
        assert np.linalg.norm(rec - pre.m_matrix) <= 1e-10 * np.linalg.norm(pre.m_matrix)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            build_m(np.eye(2), _mask([1, 1]), -1.0)


class TestDeltaMeasure:
    def test_proportional_preconditioner(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((10, 3))
        q = gram(g) + np.eye(3)
        delta = delta_from_matrix(2.5 * q, q)
        assert delta == pytest.approx(1.0 - 1.0 / cond_spd(q), abs=1e-9)

    def test_identity_preconditioner_is_zero(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((10, 3))
        q = gram(g) + np.eye(3)
        assert delta_from_matrix(4.2 * np.eye(3), q) == pytest.approx(0.0, abs=1e-9)

    def test_scale_invariance_in_m(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4))
        q = gram(x)
        pre = build_m(x, aopt_select(x, 10), 1.0)
        base = delta_measure(pre, q)
        for c in (1e-3, 7.0, 1e4):
            assert delta_from_matrix(c * pre.m_matrix, q) == pytest.approx(
                base, abs=1e-9
            )

    def test_ridge_limit_flattens(self):
        # lambda -> infinity turns M into (almost) the identity: delta -> 0,
        # and the largest pencil eigenvalue is non-increasing in lambda
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 5))
        q = gram(x)
        mask = aopt_select(x, 12)
        total = float((x**2).sum())
        prev_top = np.inf
        for lam in (0.0, 0.1 * total, total, 1e6 * total):
            pre = build_m(x, mask, lam)
            top = pencil_eigvals(pre.m_matrix, q, pre.factor)[-1]
            assert top <= prev_top * (1 + 1e-12)
            prev_top = top
        assert abs(delta_measure(build_m(x, mask, 1e6 * total), q)) <= 0.05


def _feasible_masks(x, rng):
    # the deterministic top-norm mask for every feasible size, plus a few
    # random feasible masks for coverage
    n, d = x.shape
    masks = [aopt_select(x, m) for m in range(d, n + 1)]
    for _ in range(3):
        bits = np.zeros(n)
        bits[rng.choice(n, size=int(rng.integers(d, n + 1)), replace=False)] = 1
        masks.append(_mask(bits))
    return masks


class TestTraceBounds:
    def test_identity_equality_case(self):
        d = 4
        x = np.eye(d)
        mask = _mask(np.ones(d))
        assert trace_inverse_bound(x, mask, 1.0) == pytest.approx(float(d))

    def test_zero_norm_rows_do_not_change_bound(self):
        x = np.vstack([np.eye(3), np.zeros((2, 3))])
        full = _mask([1, 1, 1, 1, 1])
        dropped = _mask([1, 1, 1, 0, 0])
        assert trace_inverse_bound(x, dropped, 1.0) == pytest.approx(
            trace_inverse_bound(x, full, 1.0)
        )
        assert hs_covariance_trace_bound(x, dropped, 1.0) == pytest.approx(
            hs_covariance_trace_bound(x, full, 1.0)
        )

    def test_hs_identity_case(self):
        d = 4
        x = np.eye(d)
        mask = _mask(np.ones(d))
        assert hs_covariance_trace_bound(x, mask, 1.0) == pytest.approx(float(d * d))
        # actual trace for M = I is d, comfortably below d^2
        assert hs_covariance_trace_bound(x, mask, 1.0) >= d

    def test_bounds_hold_on_random_instances(self):
        # direct inverse-trace oracle on small instances, every feasible mask,
        # with the per-mask lower bound plugged in
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 33))
            d = int(rng.integers(1, 6))
            x = rng.standard_normal((n, d))
            q = gram(x)
            for mask in _feasible_masks(x, rng):
                masked = gram(x[mask.indices]) * 1.0
                ev = sym_eigvals(masked)
                if ev[0] <= 1e-10 * max(1.0, ev[-1]):
                    continue  # infeasible mask
                c_lower = float(ev[0])
                actual = float(np.trace(np.linalg.inv(masked)))
                bound = trace_inverse_bound(x, mask, c_lower)
                assert actual <= bound * (1 + 1e-9)
                scaled = (n / mask.m) * masked
                inv = np.linalg.inv(scaled)
                actual_cov = float(np.trace(inv @ q @ inv))
                bound_cov = hs_covariance_trace_bound(x, mask, c_lower)
                assert actual_cov <= bound_cov * (1 + 1e-9)
                checked += 1
        assert checked >= 200
