"""Sketching operators: SRHT, leverage-score and uniform row sampling, and
deterministic norm-based subsample masks.

Randomized operators take a ``numpy.random.Generator`` (PCG64 under
``numpy.random.default_rng``; the algorithm is documented and versioned by
numpy, which is what makes the benchmark tables reproducible across runs).
A generator is single-owner: parallel replications must each derive their own
stream via :func:`derive_rng` rather than sharing one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    BadSubsampleSize,
    DimensionMismatch,
    NotEnoughRows,
    NotPositiveDefinite,
    NotPowerOfTwo,
    RankDeficient,
)
from .linalg import _check_xy, as_matrix, as_vector, cholesky, gram, row_sq_norms

__all__ = [
    "SketchKind",
    "SubsampleMask",
    "derive_rng",
    "fwht",
    "srht_apply",
    "leverage_scores",
    "leverage_sample",
    "uniform_sample",
    "aopt_select",
    "mask_to_sketch",
    "draw_sketch",
]

VARIANTS = ("srht", "leverage", "uniform", "aopt")


def derive_rng(*key: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by a tuple of integers.

    Identical keys yield identical streams; distinct keys yield statistically
    independent streams (numpy SeedSequence hashing).
    """
    return np.random.default_rng(list(key))


@dataclass(frozen=True)
class SketchKind:
    """A sketch family plus its target row count ``m``."""

    variant: str
    m: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown sketch variant {self.variant!r}")
        if self.m < 1:
            raise BadSubsampleSize(f"sketch size must be >= 1, got {self.m}")


@dataclass(frozen=True)
class SubsampleMask:
    """Binary row-selection vector with exactly ``m`` ones."""

    delta: np.ndarray
    m: int

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=np.uint8)
        if delta.ndim != 1 or not np.isin(delta, (0, 1)).all():
            raise BadSubsampleSize("mask must be a 1-D 0/1 vector")
        if int(delta.sum()) != self.m:
            raise BadSubsampleSize(
                f"mask has {int(delta.sum())} ones but m = {self.m}"
            )
        object.__setattr__(self, "delta", delta)

    @property
    def n(self) -> int:
        return self.delta.size

    @property
    def indices(self) -> np.ndarray:
        """Selected row indices, ascending."""
        return np.flatnonzero(self.delta)

    @classmethod
    def from_indices(cls, indices, n: int) -> "SubsampleMask":
        delta = np.zeros(n, dtype=np.uint8)
        delta[np.asarray(indices, dtype=np.intp)] = 1
        return cls(delta, int(delta.sum()))


def _check_mask(x, mask: SubsampleMask) -> np.ndarray:
    """X as a finite float64 2-D array, with one mask entry per row."""
    x = as_matrix(x, "X")
    if mask.n != x.shape[0]:
        raise DimensionMismatch(f"mask length {mask.n} != row count {x.shape[0]}")
    return x


#: largest dense factor, and the final factor formed for sampled rows only
_BLOCK, _LAST = 128, 16


def _sylvester(f: int) -> np.ndarray:
    h = scipy.linalg.hadamard(f).astype(np.float64)
    h.flags.writeable = False
    return h


#: dense +-1 Sylvester-Hadamard blocks, built once per size 1, 2, ..., 128
_HADAMARD = {1 << p: _sylvester(1 << p) for p in range(_BLOCK.bit_length())}


def _hadamard_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of ``H_n @ a`` for the unnormalized Sylvester-Hadamard
    matrix H_n, n = a.shape[0] a power of two.  ``a`` is overwritten.

    H_n is a Kronecker product of Sylvester factors of at most 128, each
    applied as one batched dense product on a reshaped view (BLAS-3),
    ping-ponging between ``a`` and one scratch buffer.  When fewer than
    n / 16 rows are wanted, the last factor, H_16, is formed for those rows
    only: output row i combines the 16 rows sharing its high index, weighted
    by row ``i mod 16`` of H_16.  With more rows that gather would read every
    row anyway, and the last factor is one more dense product.
    """
    n, k = a.shape
    tail = _LAST if rows.size * _LAST < n else 1
    src, buf = a, (np.empty_like(a) if n > tail else None)
    pre = 1
    while pre * tail < n:
        f = min(n // (pre * tail), _BLOCK)
        shape = (pre, f, n // (pre * f) * k)
        np.matmul(_HADAMARD[f], src.reshape(shape), out=buf.reshape(shape))
        src, buf = buf, src
        pre *= f
    if tail == 1:
        return src[rows]
    low = rows % tail
    base = rows - low
    weights = _HADAMARD[tail][low]
    out = weights[:, :1] * src[base]
    for j in range(1, tail):
        out += weights[:, j : j + 1] * src[base + j]
    return out


def fwht(v) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform, O(n log n).

    The transform matrix is the 1/sqrt(n)-scaled Walsh-Hadamard matrix, so
    ``fwht`` is an involution and an isometry.  It is the blocked kernel of
    :func:`srht_apply` with every row kept: Kronecker factors of at most 128
    of the Sylvester matrix, each applied as a dense +-1 matrix product.
    """
    v = as_vector(v)
    n = v.size
    if n < 1 or (n & (n - 1)) != 0:
        raise NotPowerOfTwo(f"length {n} is not a power of two")
    return _hadamard_rows(v[:, None].copy(), np.arange(n))[:, 0] / np.sqrt(n)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of i.i.d. +-1 signs."""
    return rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0


def _srht_from_parts(x, y, signs: np.ndarray, rows: np.ndarray, m: int):
    """The SRHT of ``(X, y)`` given the sign diagonal (one sign per padded
    row) and the kept row indices: sqrt(n_pad/m) * (H / sqrt(n_pad)) =
    H / sqrt(m).  The signs are folded into the zero-padding copy, which the
    transform then uses as scratch."""
    n, d = x.shape
    sxy = np.zeros((signs.size, d + 1))
    np.multiply(x, signs[:n, None], out=sxy[:n, :d])
    np.multiply(y, signs[:n], out=sxy[:n, d])
    s = _hadamard_rows(sxy, rows) / np.sqrt(m)
    return np.ascontiguousarray(s[:, :d]), np.ascontiguousarray(s[:, d])


def srht_apply(x, y, m: int, rng: np.random.Generator):
    """Subsampled randomized Hadamard transform of a data pair ``(X, y)``.

    Rows of X (and y alongside) are zero-padded to the next power of two
    n_pad, hit with a random +-1 diagonal and the orthonormal Walsh-Hadamard
    transform, then ``m`` distinct rows are kept uniformly at random and
    scaled by sqrt(n_pad / m).  The scale uses n_pad, not n, so the full
    sketch m = n_pad is an exact isometry on the padded space.

    The transform is blocked: the Sylvester matrix H_n splits into Kronecker
    factors of at most 128, each applied as a dense +-1 matrix product; when
    m < n_pad / 16 the last factor, of 16, is formed for the ``m`` kept rows
    only.  It costs O(n_pad (d + 1) (f1 + f2 + ...)) flops on BLAS-3 and
    needs one scratch copy of the padded data beside it.

    Returns ``(SX, Sy)``.  Draw order is fixed (signs, then rows) so a seeded
    generator reproduces the sketch exactly.
    """
    x, y = _check_xy(x, y)
    n_pad = _next_pow2(x.shape[0])
    if not 1 <= m <= n_pad:
        raise NotEnoughRows(f"sketch size {m} not in 1..{n_pad} (padded rows)")
    signs = rademacher(rng, n_pad)
    rows = rng.choice(n_pad, size=m, replace=False)
    return _srht_from_parts(x, y, signs, rows, m)


def leverage_scores(x) -> np.ndarray:
    """Statistical leverage of each row: squared row norms of an orthonormal
    column basis.  Scores lie in [0, 1] and sum to the column count.

    With X'X = L L' (Cholesky), X L^{-T} is such a basis, so the scores are
    the squared column norms of L^{-1} X', one triangular solve against the
    Gram factor; no Q is formed.  Raises :class:`RankDeficient` when X has
    fewer rows than columns or its Gram matrix is not positive definite.
    """
    x = as_matrix(x)
    n, d = x.shape
    if n < d:
        raise RankDeficient(f"need rows >= cols for leverage scores, got {n} x {d}")
    try:
        fac = cholesky(gram(x))
    except NotPositiveDefinite:
        raise RankDeficient("X does not have full column rank") from None
    w = scipy.linalg.solve_triangular(fac.lower, x.T, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", w, w)


def leverage_sample(x, y, m: int, rng: np.random.Generator):
    """Leverage-score row sampling, i.i.d. with replacement.

    Row i is drawn with probability p_i proportional to its leverage score
    and rescaled by 1/sqrt(m p_i), making S.T @ S unbiased for the identity.
    """
    x, y = _check_xy(x, y)
    if m < 1:
        raise BadSubsampleSize(f"sketch size must be >= 1, got {m}")
    scores = leverage_scores(x)
    p = scores / scores.sum()
    idx = rng.choice(x.shape[0], size=m, replace=True, p=p)
    scale = 1.0 / np.sqrt(m * p[idx])
    return x[idx] * scale[:, None], y[idx] * scale


def uniform_sample(x, y, m: int, rng: np.random.Generator):
    """Uniform row sampling without replacement, scaled by sqrt(n/m)."""
    x, y = _check_xy(x, y)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise NotEnoughRows(f"sketch size {m} not in 1..{n}")
    idx = rng.choice(n, size=m, replace=False)
    scale = np.sqrt(n / m)
    return scale * x[idx], scale * y[idx]


def aopt_select(x, m: int) -> SubsampleMask:
    """Deterministic mask selecting the ``m`` rows of largest squared norm.

    Ties at the threshold norm are broken toward the smaller row index, so
    identical inputs always give identical masks regardless of thread count.
    Selection uses a partial partition (expected O(n)) rather than a full sort.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if not 1 <= m <= n:
        raise BadSubsampleSize(f"subsample size {m} not in 1..{n}")
    if m == n:
        return SubsampleMask(np.ones(n, dtype=np.uint8), n)
    sq = row_sq_norms(x)
    threshold = np.partition(sq, n - m)[n - m]
    delta = np.zeros(n, dtype=np.uint8)
    above = sq > threshold
    delta[above] = 1
    need = m - int(above.sum())
    if need > 0:
        ties = np.flatnonzero(sq == threshold)
        delta[ties[:need]] = 1
    return SubsampleMask(delta, m)


def mask_to_sketch(x, mask: SubsampleMask) -> np.ndarray:
    """Materialize the m x d sketched matrix of a subsample mask.

    The selected rows are scaled by 1/sqrt(m) so the sketched Gram matrix is
    the masked row-outer-product sum divided by m.
    """
    x = _check_mask(x, mask)
    return x[mask.indices] / np.sqrt(mask.m)


def draw_sketch(x, y, kind: SketchKind, rng: np.random.Generator | None):
    """Produce ``(SX, Sy)`` for any sketch family.

    The ``aopt`` variant is deterministic and ignores ``rng``.  Its rows are
    scaled by sqrt(n/m) so the sketched Gram matrix equals the (n/m)-weighted
    masked sum, the scale that keeps the deterministic sketch consistent on
    the Hessian side (estimators that cancel row scaling, like the classical
    sketch, are unaffected).
    """
    if kind.variant == "srht":
        return srht_apply(x, y, kind.m, rng)
    if kind.variant == "leverage":
        return leverage_sample(x, y, kind.m, rng)
    if kind.variant == "uniform":
        return uniform_sample(x, y, kind.m, rng)
    x, y = _check_xy(x, y)
    mask = aopt_select(x, kind.m)
    scale = np.sqrt(x.shape[0] / mask.m)
    return scale * x[mask.indices], scale * y[mask.indices]
