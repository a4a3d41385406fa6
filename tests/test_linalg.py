import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchls import (
    DimensionMismatch,
    NotPositiveDefinite,
    SingularMatrix,
    cholesky,
    cond_spd,
    gram,
    row_sq_norms,
    solve_spd,
    sym_eigvals,
)


class TestGram:
    def test_identity(self):
        np.testing.assert_allclose(gram(np.eye(2)), np.eye(2))

    def test_hand_product(self):
        np.testing.assert_allclose(gram([[1, 2], [3, 4]]), [[10, 14], [14, 20]])

    def test_column_of_ones(self):
        np.testing.assert_allclose(gram([[1], [1], [1]]), [[3]])

    def test_orthonormal_basis_gram_is_identity(self):
        rng = np.random.default_rng(0)
        u = np.linalg.qr(rng.standard_normal((20, 4)))[0]
        np.testing.assert_allclose(gram(u), np.eye(4), atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gram([[1.0, np.nan]])


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(2)).lower, np.eye(2))

    def test_hand_factor(self):
        fac = cholesky([[4, 2], [2, 5]])
        np.testing.assert_allclose(fac.lower, [[2, 0], [1, 2]])

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1, 2], [2, 1]])

    def test_rank_deficient_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky([[1.0, 1.0], [1.0, 1.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky([[1.0, 0.5], [0.0, 1.0]])


class TestSolveSpd:
    def test_identity(self):
        fac = cholesky(np.eye(3))
        np.testing.assert_allclose(solve_spd(fac, [1, 2, 3]), [1, 2, 3])

    def test_hand_solve(self):
        fac = cholesky([[4, 2], [2, 5]])
        np.testing.assert_allclose(solve_spd(fac, [8, 9]), [1.375, 1.25])

    def test_dimension_mismatch(self):
        fac = cholesky(np.eye(2))
        with pytest.raises(DimensionMismatch):
            solve_spd(fac, [1.0, 2.0, 3.0])

    def test_roundtrip_random_spd(self):
        # solve(chol(A), A x) recovers x for seeded SPD instances
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 51))
            g = rng.standard_normal((d, d))
            a = g.T @ g + np.eye(d)
            x = rng.standard_normal(d)
            got = solve_spd(cholesky(a), a @ x)
            assert np.linalg.norm(got - x) <= 1e-9 * max(1.0, np.linalg.norm(x))


class TestSymEigvals:
    def test_diagonal_sorted(self):
        np.testing.assert_allclose(sym_eigvals(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_two_by_two(self):
        np.testing.assert_allclose(sym_eigvals([[2, 1], [1, 2]]), [1, 3], atol=1e-12)

    def test_zero_matrix(self):
        np.testing.assert_allclose(sym_eigvals(np.zeros((2, 2))), [0, 0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        p = np.eye(6)[rng.permutation(6)]
        np.testing.assert_allclose(
            sym_eigvals(a), sym_eigvals(p.T @ a @ p), atol=1e-9
        )

    def test_trace_identity(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        assert np.isclose(sym_eigvals(a).sum(), np.trace(a), rtol=1e-9)


class TestCondSpd:
    def test_identity_is_one(self):
        assert cond_spd(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal_ratio(self):
        assert cond_spd(np.diag([100.0, 1.0])) == pytest.approx(100.0)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            cond_spd(np.diag([1.0, 0.0]))

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        assert cond_spd(c * a) == pytest.approx(cond_spd(a), rel=1e-9)


class TestRowSqNorms:
    def test_identity(self):
        np.testing.assert_allclose(row_sq_norms(np.eye(3)), [1, 1, 1])

    def test_hand_values(self):
        np.testing.assert_allclose(row_sq_norms([[3, 4], [0, 0]]), [25, 0])

    def test_sign_irrelevant(self):
        np.testing.assert_allclose(row_sq_norms([[-2.0]]), [4.0])
