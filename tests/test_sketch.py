import copy
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sketchls import (
    BadSubsampleSize,
    DataSpec,
    NotEnoughRows,
    NotPowerOfTwo,
    RankDeficient,
    SketchKind,
    SubsampleMask,
    aopt_select,
    derive_rng,
    draw_sketch,
    fwht,
    gram,
    leverage_sample,
    leverage_scores,
    make_dataset,
    row_sq_norms,
    srht_apply,
    uniform_sample,
)
import sketchls.sketch
from sketchls.sketch import _sketcher, _srht_from_parts, _workspace, rademacher


def dense_hadamard_rows(n, rows, a):
    """Rows of scipy's dense Sylvester matrix H_n times ``a``, in row chunks
    (H_8192 is 512 MB in float64; kept as int8 here)."""
    h = scipy.linalg.hadamard(n, dtype=np.int8)
    chunks = np.array_split(rows, max(1, rows.size // 512))
    return np.concatenate([h[c].astype(np.float64) @ a for c in chunks])


def peak_traced_bytes(fn):
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs (numpy
    registers its data buffers with tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFwht:
    def test_first_basis_vector(self):
        np.testing.assert_allclose(fwht([1, 0, 0, 0]), [0.5, 0.5, 0.5, 0.5])

    def test_length_two(self):
        np.testing.assert_allclose(fwht([1, 1]), [np.sqrt(2), 0.0], atol=1e-15)

    def test_not_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            fwht([1.0, 2.0, 3.0])

    @given(
        hnp.arrays(
            np.float64,
            st.sampled_from([1, 2, 4, 8, 16, 64]),
            elements=st.floats(-100, 100),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_involution_and_isometry(self, v):
        w = fwht(v)
        assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12 * max(
            1.0, np.linalg.norm(v)
        )
        np.testing.assert_allclose(fwht(w), v, atol=1e-12)

    def test_matches_dense_hadamard(self):
        import scipy.linalg

        n = 16
        h = scipy.linalg.hadamard(n) / np.sqrt(n)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(fwht(v), h @ v, atol=1e-12)

    @pytest.mark.parametrize("p", range(14))
    def test_is_the_srht_with_unit_signs_and_every_row_kept(self, p):
        n = 1 << p
        v = np.random.default_rng(p).standard_normal(n)
        srht = _srht_from_parts(v[:, None], None, np.ones(n), np.arange(n), n)[0][:, 0]
        assert np.array_equal(fwht(v), srht)


class TestBlockedHadamard:
    # n = 2**0 .. 2**13 covers every factor split: no factor, one and two
    # dense factors, a dense factor below 128, and low parts H_lo = H_q (x)
    # H_r with r = 1 and r > 1.  Every row and a third of them take the
    # all-dense path; n/64 rows (for n >= 32) and one row take the kept-row
    # path.  m * 16 = n is the threshold: n/16 - 1 rows take the kept-row
    # path and n/16 rows the all-dense one.
    @pytest.mark.parametrize("p", range(14))
    @pytest.mark.parametrize("k", [1, 7])
    def test_matches_dense_sylvester(self, p, k):
        n = 1 << p
        rng = np.random.default_rng(100 * p + k)
        a = rng.standard_normal((n, k))
        every = np.arange(n)
        third, few = (rng.permutation(n)[: max(1, n // c)] for c in (3, 64))  # unsorted
        edges = [rng.permutation(n)[:m] for m in (1, max(1, n // 16 - 1), max(1, n // 16))]
        for rows in (every, third, few, *edges):
            ref = dense_hadamard_rows(n, rows, a)
            got = _srht_from_parts(a.copy(), None, np.ones(n), rows, 1)[0]
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("n, d, m", [
        pytest.param(3000, 6, 200, id="200"),  # m * 16 below / above n_pad
        pytest.param(3000, 6, 300, id="300"),
        pytest.param(1 << 14, 50, 1000, id="desk"),
        pytest.param(12289, 6, 500, id="rows-not-a-chunk-multiple"),
    ])
    def test_srht_matches_dense_definition_with_padding(self, n, d, m):
        n_pad = 1 << (n - 1).bit_length()
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        stream = derive_rng(18)
        mirror = copy.deepcopy(stream)
        sx, sy = srht_apply(x, y, m, stream)
        signs = rademacher(mirror, n_pad)  # draw order: signs, then rows
        rows = mirror.choice(n_pad, size=m, replace=False)
        xy = np.zeros((n_pad, d + 1))
        xy[:n] = np.column_stack([x, y])
        ref = np.sqrt(n_pad / m) * dense_hadamard_rows(
            n_pad, rows, signs[:, None] * xy
        ) / np.sqrt(n_pad)
        scale = np.abs(ref).max()
        np.testing.assert_allclose(sx, ref[:, :d], rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(sy, ref[:, d], rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("m", [100, 600])  # kept-row and all-dense paths
    def test_srht_panels_match_one_panel_at_a_time(self, m):
        n, d, n_pad = 3000, 150, 4096  # d + 1 = 151 columns: panels of 64, 64, 23
        rng = np.random.default_rng(23)
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        mirror = derive_rng(24)
        sx, sy = srht_apply(x, y, m, derive_rng(24))
        signs = rademacher(mirror, n_pad)
        rows = mirror.choice(n_pad, size=m, replace=False)
        for j in range(0, d, 50):  # each slice alone fits one panel
            ref, _ = _srht_from_parts(x[:, j : j + 50], y, signs, rows, m)
            np.testing.assert_allclose(sx[:, j : j + 50], ref, rtol=0,
                                       atol=1e-12 * np.abs(ref).max())
        _, ref_y = _srht_from_parts(x[:, :1], y, signs, rows, m)
        np.testing.assert_allclose(sy, ref_y, rtol=0, atol=1e-12 * np.abs(ref_y).max())


class TestSketchMemory:
    # peaks traced by tracemalloc; they guard the benchmark's peak_rss_mb
    def test_srht_needs_one_scratch_copy(self):
        n, d, m = 1 << 14, 50, 1000
        ds = make_dataset(DataSpec("normal", n, d, seed=0))
        srht_apply(ds.x, ds.y, m, derive_rng(1))  # warm
        peak = peak_traced_bytes(lambda: srht_apply(ds.x, ds.y, m, derive_rng(1)))
        # 2.24x measured: the signed padding plus one scratch buffer; one more
        # full copy of the padded data (3.24x) fails
        assert peak <= 2.75 * n * (d + 1) * 8

    def test_leverage_needs_one_copy_of_x(self):
        ds = make_dataset(DataSpec("normal", 1 << 14, 50, seed=0))
        leverage_scores(ds.x)  # warm
        peak = peak_traced_bytes(lambda: leverage_scores(ds.x))
        assert peak <= 1.25 * ds.x.nbytes

    def test_srht_works_in_panels(self):
        # two n_pad x 64 panel buffers (0.64x here); a padded copy of the data
        # plus one scratch copy would be 2.24x
        n, d, m = 1 << 14, 200, 1000
        ds = make_dataset(DataSpec("normal", n, d, seed=0))
        srht_apply(ds.x, ds.y, m, derive_rng(1))  # warm
        peak = peak_traced_bytes(lambda: srht_apply(ds.x, ds.y, m, derive_rng(1)))
        assert peak <= 1.0 * n * (d + 1) * 8

    def test_leverage_works_in_row_blocks(self):
        # L^-1 X' one d x 1024 block at a time, not the full product: 0.15x measured
        ds = make_dataset(DataSpec("normal", 1 << 14, 50, seed=0))
        leverage_scores(ds.x)  # warm
        peak = peak_traced_bytes(lambda: leverage_scores(ds.x))
        assert peak <= 0.25 * ds.x.nbytes

    def test_srht_needs_one_panel_buffer(self):
        # one n_pad x 64 panel buffer plus a 4096 x 64 chunk (0.57x measured);
        # a second panel buffer would be 0.80x
        n, d, m = 1 << 14, 200, 1000
        ds = make_dataset(DataSpec("normal", n, d, seed=0))
        srht_apply(ds.x, ds.y, m, derive_rng(1))  # warm
        peak = peak_traced_bytes(lambda: srht_apply(ds.x, ds.y, m, derive_rng(1)))
        assert peak <= 0.65 * n * (d + 1) * 8

    @pytest.mark.parametrize("dist, bound", [
        ("normal", 1.5), ("lognormal", 1.5), ("t2", 1.5), ("mixture", 1.75),
    ])
    def test_make_dataset_holds_x_about_once(self, dist, bound):
        # X built in place in 4096-row blocks: 1.25x measured (mixture 1.56x,
        # its per-row draws and a uniform block); whole-array draws beside X
        # measured 2.17x (mixture 3.48x)
        spec = DataSpec(dist, 1 << 14, 50, seed=0)
        make_dataset(spec)  # warm
        peak = peak_traced_bytes(lambda: make_dataset(spec))
        assert peak <= bound * spec.n * spec.d * 8


def allocations(work) -> list:
    """Sizes of the arrays a :func:`_workspace` allocated, in order: its
    panel buffers, then its chunk when that is not the second buffer."""
    bufs, chunk = work
    assert all(b.base is None for b in bufs)
    return [b.size for b in bufs] + ([] if any(chunk is b for b in bufs) else [chunk.size])


class TestWorkspace:
    # the buffers the sketcher allocated when it sized them itself: one
    # n_pad x min(64, k) panel buffer and a 4096-row chunk on the kept-row
    # path (m * 16 < n_pad), two panel buffers on the all-dense path
    @pytest.mark.parametrize("n, k, m, sizes", [
        pytest.param(1 << 14, 50, 1000, [(1 << 14) * 50, 4096 * 50], id="desk"),
        pytest.param(1 << 14, 51, 1000, [(1 << 14) * 51, 4096 * 51], id="desk-with-y"),
        pytest.param(1 << 17, 200, 4000, [(1 << 17) * 64, 4096 * 64], id="top"),
        pytest.param(1 << 17, 201, 4000, [(1 << 17) * 64, 4096 * 64], id="top-with-y"),
        pytest.param(512, 4, 128, [512 * 4, 512 * 4], id="suite-warm-up"),
    ])
    def test_sizes_itself(self, n, k, m, sizes):
        assert allocations(_workspace(n, k, m)) == sizes

    @pytest.mark.parametrize("with_y", [False, True])
    @pytest.mark.parametrize("m", [100, 600])  # kept-row and all-dense paths
    def test_one_workspace_per_sketcher(self, m, with_y, monkeypatch):
        real, made = sketchls.sketch._workspace, []

        def counting(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(sketchls.sketch, "_workspace", counting)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((3000, 6)), rng.standard_normal(3000)
        draw = _sketcher(x, y if with_y else None, "srht", m, derive_rng(6))
        for _ in range(3):
            draw()
        assert made == [(4096, 6 + with_y, m)]


class TestSrht:
    def test_full_sketch_preserves_norms(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((24, 3))
        y = rng.standard_normal(24)
        sx, _ = srht_apply(x, y, 32, derive_rng(2))  # m = n_pad
        for seed in range(5):
            a = np.random.default_rng(seed).standard_normal(3)
            assert np.linalg.norm(sx @ a) == pytest.approx(
                np.linalg.norm(x @ a), abs=1e-10
            )

    def test_hand_traced_definition(self):
        # all-plus signs, rows {0, 1}, m=2 on the 4x4 identity: the sketch is
        # sqrt(4/2) times the first two rows of the normalized Hadamard matrix
        xy = np.column_stack([np.eye(4), np.zeros(4)])
        s = np.column_stack(
            _srht_from_parts(xy[:, :4], xy[:, 4], np.ones(4), np.array([0, 1]), 2)
        )
        expected = np.sqrt(2.0) * 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1]])
        np.testing.assert_allclose(s[:, :4], expected)

    def test_m_zero_rejected(self):
        with pytest.raises(NotEnoughRows):
            srht_apply(np.eye(4), np.zeros(4), 0, derive_rng(0))

    def test_m_above_padded_rejected(self):
        with pytest.raises(NotEnoughRows):
            srht_apply(np.eye(3), np.zeros(3), 5, derive_rng(0))

    def test_unbiased_gram(self):
        # empirical mean of the sketched Gram approximates the padded Gram
        rng = np.random.default_rng(7)
        x = rng.standard_normal((64, 3))
        y = rng.standard_normal(64)
        q = gram(x)
        acc = np.zeros((3, 3))
        draws = 2000
        stream = derive_rng(11)
        for _ in range(draws):
            sx, _ = srht_apply(x, y, 16, stream)
            acc += gram(sx)
        rel = np.linalg.norm(acc / draws - q) / np.linalg.norm(q)
        assert rel <= 0.05

    def test_reproducible(self):
        x = np.random.default_rng(3).standard_normal((20, 2))
        y = np.zeros(20)
        a = srht_apply(x, y, 8, derive_rng(42))
        b = srht_apply(x, y, 8, derive_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestLeverage:
    def test_orthogonal_design_scores_one(self):
        np.testing.assert_allclose(leverage_scores(np.eye(4)), np.ones(4), atol=1e-12)

    def test_two_equal_rows(self):
        np.testing.assert_allclose(leverage_scores([[1.0], [1.0]]), [0.5, 0.5])

    def test_scores_sum_to_d_and_bounded(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((40, 6))
        h = leverage_scores(x)
        assert h.sum() == pytest.approx(6.0, abs=1e-8)
        assert (h >= -1e-12).all() and (h <= 1.0 + 1e-12).all()

    def test_rows_are_scaled_originals(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal(12)
        sx, sy = leverage_sample(x, y, 6, derive_rng(1))
        h = leverage_scores(x)
        p = h / h.sum()
        scaled = x / np.sqrt(6 * p)[:, None]  # candidate sketched rows
        for srow, sval in zip(sx, sy):
            i = int(np.argmin(np.linalg.norm(scaled - srow, axis=1)))
            np.testing.assert_allclose(srow, scaled[i], atol=1e-10)
            assert sval == pytest.approx(y[i] / np.sqrt(6 * p[i]), abs=1e-10)

    def test_unbiased_gram(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((64, 3))
        y = rng.standard_normal(64)
        q = gram(x)
        acc = np.zeros((3, 3))
        stream = derive_rng(13)
        draws = 2000
        for _ in range(draws):
            sx, _ = leverage_sample(x, y, 16, stream)
            acc += gram(sx)
        assert np.linalg.norm(acc / draws - q) / np.linalg.norm(q) <= 0.05


class TestLeverageFromCholesky:
    # the scores come from the Gram Cholesky factor; the Householder basis is
    # the reference
    def test_lognormal_design(self):
        x = make_dataset(DataSpec("lognormal", 1 << 12, 10, seed=2)).x
        ref = row_sq_norms(np.linalg.qr(x)[0])
        np.testing.assert_allclose(leverage_scores(x), ref, rtol=1e-10)

    def test_column_scaled_design(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1 << 12, 10)) * np.logspace(0, 4, 10)
        assert 5e3 <= np.linalg.cond(x) <= 5e4
        ref = row_sq_norms(np.linalg.qr(x)[0])
        np.testing.assert_allclose(leverage_scores(x), ref, rtol=1e-10)

    def test_duplicated_column_rank_deficient(self):
        x = np.random.default_rng(20).standard_normal((64, 4))
        x[:, 3] = x[:, 1]
        with pytest.raises(RankDeficient):
            leverage_scores(x)

    def test_fewer_rows_than_columns(self):
        with pytest.raises(RankDeficient):
            leverage_scores(np.random.default_rng(21).standard_normal((3, 5)))


class TestAoptSelect:
    def test_top_two_of_three(self):
        x = np.array([[np.sqrt(3.0)], [1.0], [np.sqrt(2.0)]])
        np.testing.assert_array_equal(aopt_select(x, 2).delta, [1, 0, 1])

    def test_tie_break_by_index(self):
        x = np.ones((6, 2))
        np.testing.assert_array_equal(aopt_select(x, 2).delta, [1, 1, 0, 0, 0, 0])

    def test_full_selection(self):
        x = np.random.default_rng(0).standard_normal((5, 2))
        np.testing.assert_array_equal(aopt_select(x, 5).delta, np.ones(5))

    def test_full_selection_with_ties_at_the_least_norm(self):
        x = np.array([[1.0], [0.0], [2.0], [0.0], [-1.0]])
        np.testing.assert_array_equal(aopt_select(x, 5).delta, np.ones(5))

    def test_deterministic(self):
        x = np.random.default_rng(1).standard_normal((100, 3))
        a = aopt_select(x, 17)
        b = aopt_select(x.copy(), 17)
        np.testing.assert_array_equal(a.delta, b.delta)

    def test_bad_size(self):
        with pytest.raises(BadSubsampleSize):
            aopt_select(np.eye(3), 0)
        with pytest.raises(BadSubsampleSize):
            aopt_select(np.eye(3), 4)

    def test_selects_largest(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        mask = aopt_select(x, 20)
        norms = (x**2).sum(axis=1)
        worst_kept = norms[mask.indices].min()
        best_dropped = norms[mask.delta == 0].max()
        assert worst_kept >= best_dropped


class TestUniformAndDispatch:
    def test_uniform_full_is_permutation(self):
        x = np.random.default_rng(5).standard_normal((7, 2))
        y = np.arange(7.0)
        sx, sy = uniform_sample(x, y, 7, derive_rng(5))
        assert sorted(sy.tolist()) == y.tolist()
        np.testing.assert_allclose(gram(sx), gram(x), atol=1e-12)

    def test_draw_sketch_variants(self):
        x = np.random.default_rng(6).standard_normal((16, 3))
        y = np.random.default_rng(7).standard_normal(16)
        for variant in ("srht", "leverage", "uniform", "aopt"):
            sx, sy = draw_sketch(x, y, SketchKind(variant, 8), derive_rng(8))
            assert sx.shape == (8, 3)
            assert sy.shape == (8,)

    @pytest.mark.parametrize("variant, sample", [
        ("srht", srht_apply), ("leverage", leverage_sample), ("uniform", uniform_sample)])
    def test_public_samplers_are_draw_sketch(self, variant, sample):
        ds = make_dataset(DataSpec("lognormal", 300, 4, seed=9))
        got = sample(ds.x, ds.y, 40, derive_rng(4))
        want = draw_sketch(ds.x, ds.y, SketchKind(variant, 40), derive_rng(4))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("sample, m, error", [
        (leverage_sample, 0, BadSubsampleSize),
        (uniform_sample, 0, NotEnoughRows), (uniform_sample, 11, NotEnoughRows)])
    def test_samplers_keep_their_size_errors(self, sample, m, error):
        x = np.random.default_rng(9).standard_normal((10, 2))
        with pytest.raises(error):
            sample(x, x[:, 0], m, derive_rng(0))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            SketchKind("gaussian", 4)
        with pytest.raises(BadSubsampleSize):
            SketchKind("srht", 0)

    def test_mask_validation(self):
        with pytest.raises(BadSubsampleSize):
            SubsampleMask(np.array([1, 2], dtype=np.uint8), 3)
        with pytest.raises(BadSubsampleSize):
            SubsampleMask(np.array([1, 1], dtype=np.uint8), 1)

    @pytest.mark.parametrize("bits", [[0.5, 1.0], [257, 0]])
    def test_mask_values_checked_before_the_cast(self, bits):
        # a cast to uint8 first would read these as [0, 1] and [1, 0]
        with pytest.raises(BadSubsampleSize):
            SubsampleMask(np.array(bits), 1)

    def test_bool_mask_is_valid(self):
        mask = SubsampleMask(np.array([True, False, True]), 2)
        np.testing.assert_array_equal(mask.delta, [1, 0, 1])
        assert mask.delta.dtype == np.uint8
