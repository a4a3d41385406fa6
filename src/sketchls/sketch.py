"""Sketching operators: SRHT, leverage-score and uniform row sampling, and
deterministic norm-based subsample masks.

Randomized operators take a ``numpy.random.Generator`` (PCG64 under
``numpy.random.default_rng``; the algorithm is documented and versioned by
numpy, which is what makes the benchmark tables reproducible across runs).
A generator is single-owner: parallel replications must each derive their own
stream via :func:`derive_rng` rather than sharing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSubsampleSize, DimensionMismatch, NotEnoughRows, NotPowerOfTwo, RankDeficient
from .linalg import _check_xy, _full_rank_factor, _row_sq_norms, _whole, as_matrix, as_vector

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
    "draw_sketch",
]

VARIANTS = ("srht", "leverage", "uniform", "aopt")


def derive_rng(*key: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by a tuple of integers.

    Identical keys yield identical streams; distinct keys yield statistically
    independent streams (numpy SeedSequence hashing).  Each part is a whole
    number >= 0, so no bool or string shares an integer's stream.
    """
    return np.random.default_rng([_whole(k, "rng key", least=0) for k in key])


@dataclass(frozen=True)
class SketchKind:
    """A sketch family plus its target row count ``m``."""

    variant: str
    m: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown sketch variant {self.variant!r}")
        _whole(self.m, "m", BadSubsampleSize, least=1)


@dataclass(frozen=True)
class SubsampleMask:
    """Binary row-selection vector with exactly ``m`` ones."""

    delta: np.ndarray
    m: int

    def __post_init__(self):
        _whole(self.m, "m", BadSubsampleSize)
        delta = np.asarray(self.delta)
        # check the raw values: a uint8 cast would read 0.5 as 0 and 257 as 1
        if delta.ndim != 1 or not np.isin(delta, (0, 1)).all():
            raise BadSubsampleSize("mask must be a 1-D 0/1 vector")
        delta = delta.astype(np.uint8, copy=False)
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


def _check_mask(x, mask: SubsampleMask) -> np.ndarray:
    """X as a finite float64 2-D array, with one mask entry per row."""
    x = as_matrix(x, "X")
    if mask.n != x.shape[0]:
        raise DimensionMismatch(f"mask length {mask.n} != row count {x.shape[0]}")
    return x


#: largest dense factor; when m * _SPARSE < n only m rows of the transform
#: are formed (the kept-row path)
_BLOCK, _SPARSE = 128, 16
#: columns per SRHT panel, rows of X per leverage-score block, and rows of
#: the padded panel that the first dense factor reads per product
_PANEL, _LEV_ROWS, _CHUNK = 64, 1024, 4096


def _sylvester(f: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < f:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


#: dense +-1 Sylvester-Hadamard blocks, built once per size 1, 2, ..., 128
_HADAMARD = {1 << p: _sylvester(1 << p) for p in range(_BLOCK.bit_length())}


def _split(f: int) -> list:
    """Sylvester factor sizes of H_f: factors of 128, then the remainder."""
    factors = []
    while f > 1:
        factors.append(min(f, _BLOCK))
        f //= factors[-1]
    return factors


def _factors(n: int, m: int) -> list:
    """Dense factor sizes, high index digits first, of a transform of n
    rows that keeps m of them.  The all-dense path (m * 16 >= n) applies
    all of :func:`_split` ``(n)``.  The kept-row path stops at the low part
    of lo rows that minimizes the multiply-adds per column: n for each row
    of every dense factor of :func:`_split` ``(n / lo)``, plus m lo for the
    kept rows.  lo is at most 128 * 128, the largest H_q (x) H_r."""
    if m * _SPARSE >= n:
        return _split(n)
    lows = [1 << p for p in range(min(n, _BLOCK * _BLOCK).bit_length())]
    lo = min(lows, key=lambda lo: n * sum(_split(n // lo)) + m * lo)
    return _split(n // lo)


def _plan_rows(n: int, rows: np.ndarray):
    """How :func:`_transform` forms rows ``rows`` of H_n: the
    :func:`_factors` and, for the kept-row stage, the rows sorted by high
    index, the group bounds, and each sorted row's rows of the two Sylvester
    blocks whose Kronecker product is the low part, H_lo = H_q (x) H_r with
    q = min(lo, 128) (None on the all-dense path, whose factors multiply to
    n).  One plan serves every panel."""
    factors = _factors(n, rows.size)
    lo = n // math.prod(factors)
    if lo == 1:
        return factors, None
    groups, low = np.divmod(rows, lo)
    order = np.argsort(groups, kind="stable")
    bounds = np.searchsorted(groups[order], np.arange(n // lo + 1))
    q = min(lo, _BLOCK)
    i_q, i_r = np.divmod(low[order], lo // q)
    return factors, (order, bounds, _HADAMARD[q][i_q], _HADAMARD[lo // q][i_r])


def _workspace(n: int, k: int, m: int):
    """Scratch for :func:`_transform` of n x k padded data kept at m rows, in
    panels of min(64, k) columns: one n-row panel buffer, a second only when
    more than one of the :func:`_factors` ``(n, m)`` runs, and the first
    factor's chunk of min(n, 4096) rows, which is the start of the second
    buffer when there is one (that buffer is free until the second factor).
    Buffers are separate allocations: once an allocation below 32 MiB is
    freed, glibc serves later ones up to its size from the heap, so one
    double-size buffer would raise the resident peak."""
    width = min(_PANEL, k)
    bufs = [np.empty(n * width) for _ in range(1 + (len(_factors(n, m)) > 1))]
    return bufs, bufs[1] if len(bufs) > 1 else np.empty(min(n, _CHUNK) * width)


def _fill(out: np.ndarray, s: int, r0: int, x, y, signs) -> None:
    """Write the rows i * s + r0 .. i * s + r0 + t of the padded panel D [x | y]
    into out[i] for each slab i, (f, t, k) = out.shape.  D is the diagonal
    of ``signs`` (one per padded row), y (None for none) is the last column
    when given, and rows at or past x's row count are zero.  The complete
    slabs of x, y and the signs are reshape views of their first full * s
    rows; the partial slab of the last rem rows is one more product."""
    t = out.shape[1]
    n, xc = x.shape
    full, rem = divmod(n, s)
    out[full:] = 0.0
    # the complete slabs, then the partial one when this chunk reaches it
    for i, count, size in ((0, full, s), (full, 1, rem))[: 1 + (rem > r0)]:
        rows = slice(i * s, i * s + count * size)
        sign = signs[rows].reshape(count, size)[:, r0 : r0 + t]
        dst = out[i : i + count, : sign.shape[1]]
        np.multiply(x[rows].reshape(count, size, xc)[:, r0 : r0 + t], sign[..., None],
                    out=dst[..., :xc])
        if y is not None:
            np.multiply(y[rows].reshape(count, size)[:, r0 : r0 + t], sign, out=dst[..., xc])


def _transform(x, y, signs: np.ndarray, rows: np.ndarray, plan, work) -> np.ndarray:
    """Rows ``rows`` of ``H_n @ A`` for the unnormalized Sylvester-Hadamard
    matrix H_n, n = signs.size a power of two, and the n x k padded panel
    A = D [x | y] of :func:`_fill`.  ``plan`` is :func:`_plan_rows` ``(n,
    rows)`` and ``work`` a :func:`_workspace`.

    H_n is a Kronecker product of Sylvester factors of at most 128, each
    applied as one batched dense product (BLAS-3).  The first factor H_f
    (H_1 when n = 1) reads A in chunks, min(n, 4096) / f rows of each of its
    f slabs of n / f rows at a time, and writes into the first buffer, so A
    itself is never formed; further factors ping-pong with the second
    buffer.  When fewer
    than n / 16 rows are wanted, the factors stop at a low part H_lo = H_q
    (x) H_r of lo rows, and each high-index group forms its kept rows from
    its lo x k block: one product with the group's rows of H_q, then the
    r-term sums weighted by their rows of H_r.  No row of H_lo is formed.
    With more rows every factor is applied and the rows are gathered.
    """
    n, k = signs.size, x.shape[1] + (y is not None)
    factors, kept = plan
    bufs, chunk = work
    src = bufs[0][: n * k].reshape(n, k)
    pre = factors[0] if factors else 1
    s, t = n // pre, min(n, _CHUNK) // pre
    step = chunk[: pre * t * k].reshape(pre, t, k)
    wide = src.reshape(pre, s * k)
    for r0 in range(0, s, t):
        _fill(step, s, r0, x, y, signs)
        np.matmul(_HADAMARD[pre], step.reshape(pre, t * k), out=wide[:, r0 * k : (r0 + t) * k])
    dst = bufs[-1][: n * k].reshape(n, k)
    for f in factors[1:]:
        shape = (pre, f, n // (pre * f) * k)
        np.matmul(_HADAMARD[f], src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
        pre *= f
    if kept is None:
        return src[rows]
    order, bounds, h_q, h_r = kept
    r = h_r.shape[1]
    blocks = src.reshape(pre, h_q.shape[1], r * k)
    out = np.empty((rows.size, k))
    for g in np.flatnonzero(bounds[1:] > bounds[:-1]):
        lo, hi = bounds[g], bounds[g + 1]
        part = (h_q[lo:hi] @ blocks[g]).reshape(hi - lo, r, k)
        out[order[lo:hi]] = np.einsum("ij,ijk->ik", h_r[lo:hi], part)
    return out


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length() if n > 1 else 1


def rademacher(rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of i.i.d. +-1 signs."""
    return rng.integers(0, 2, n).astype(np.float64) * 2.0 - 1.0


def _srht_from_parts(x, y, signs: np.ndarray, rows: np.ndarray, m: int, work=None):
    """The SRHT of ``(X, y)`` given the sign diagonal (one sign per padded
    row) and the kept row indices: sqrt(n_pad/m) * (H / sqrt(n_pad)) =
    H / sqrt(m).  A y of None gives ``(SX, None)``.

    The padded data are transformed in column panels of at most 64, each
    read straight from X and y by :func:`_transform`'s first factor.
    ``work`` is the :func:`_workspace` to reuse across calls (allocated
    when None).
    """
    d = x.shape[1]
    k = d + (y is not None)
    width = min(_PANEL, k)
    plan = _plan_rows(signs.size, rows)
    if work is None:
        work = _workspace(signs.size, k, rows.size)
    out = np.empty((rows.size, k))
    for j in range(0, k, width):
        c = min(width, k - j)
        out[:, j : j + c] = _transform(x[:, j : j + c], y if j + c > d else None, signs,
                                       rows, plan, work)
    out /= np.sqrt(m)
    return np.ascontiguousarray(out[:, :d]), None if y is None else out[:, d].copy()


def fwht(v) -> np.ndarray:
    """Orthonormal Walsh-Hadamard transform, O(n log n).

    The transform matrix is the 1/sqrt(n)-scaled Walsh-Hadamard matrix, so
    ``fwht`` is an involution and an isometry.  It is the blocked SRHT of
    :func:`srht_apply` with unit signs and every row kept, whose 1/sqrt(m)
    scale is then 1/sqrt(n).
    """
    v = as_vector(v)
    n = v.size
    if n < 1 or (n & (n - 1)) != 0:
        raise NotPowerOfTwo(f"length {n} is not a power of two")
    return _srht_from_parts(v[:, None], None, np.ones(n), np.arange(n), n)[0][:, 0]


def _rows(x, y, idx, scale):
    """Rows ``idx`` of X and of y (None stays None), times ``scale``: a
    number, or one factor per row."""
    col = scale[:, None] if np.ndim(scale) else scale
    return x[idx] * col, None if y is None else y[idx] * scale


def _sketcher(x, y, variant: str, m: int, rng: np.random.Generator | None):
    """Successive size-``m`` sketches of a checked ``(X, y)``: each call of the
    returned function gives the next ``(SX, Sy)``, drawing from ``rng`` as one
    call of the family's public sampler does.  A y of None gives ``(SX,
    None)``; an SRHT then transforms one column fewer, so its SX can differ
    from the one beside Sy in the last bits.  The per-solve work (SRHT
    workspace, leverage probabilities, scale, largest-norm rows) is done here
    once; an ``m`` out of range raises here with the sampler's error, and an
    ``rng`` that is not a Generator (``aopt`` reads none) with a TypeError."""
    if variant != "aopt" and not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    n, d = x.shape
    if variant == "srht":
        n_pad = _next_pow2(n)
        _whole(m, "sketch size", NotEnoughRows, least=1, most=n_pad)
        work = _workspace(n_pad, d + (y is not None), m)

        def draw():
            signs = rademacher(rng, n_pad)
            rows = rng.choice(n_pad, size=m, replace=False)
            return _srht_from_parts(x, y, signs, rows, m, work)
        return draw
    if variant == "leverage":
        _whole(m, "sketch size", BadSubsampleSize, least=1)
        scores = _leverage_scores(x)
        p = scores / scores.sum()

        def draw():
            idx = rng.choice(n, size=m, replace=True, p=p)
            return _rows(x, y, idx, 1.0 / np.sqrt(m * p[idx]))
        return draw
    if variant == "uniform":
        _whole(m, "sketch size", NotEnoughRows, least=1, most=n)
        scale = np.sqrt(n / m)
        return lambda: _rows(x, y, rng.choice(n, size=m, replace=False), scale)
    # deterministic: every draw is this pair
    pair = _rows(x, y, _aopt_select(x, m).indices, np.sqrt(n / m))
    return lambda: pair


def srht_apply(x, y, m: int, rng: np.random.Generator):
    """Subsampled randomized Hadamard transform of a data pair ``(X, y)``.

    Rows of X (and y alongside) are zero-padded to the next power of two
    n_pad, hit with a random +-1 diagonal and the orthonormal Walsh-Hadamard
    transform, then ``m`` distinct rows are kept uniformly at random and
    scaled by sqrt(n_pad / m).  The scale uses n_pad, not n, so the full
    sketch m = n_pad is an exact isometry on the padded space.

    The transform is blocked: the Sylvester matrix H_n splits into Kronecker
    factors of at most 128, each applied as a dense +-1 matrix product; when
    m < n_pad / 16 the factors stop at a low part, whose size minimizes the
    multiply-adds, and only its kept rows are formed.  The padded data are
    transformed in panels of at most 64 columns.  The first factor reads
    each panel's signed rows straight from X and y, 4096 padded rows at a
    time, so the working set is one n_pad x 64 panel buffer and a small
    chunk (two panel buffers when every row is kept), not copies of the
    padded data.

    Returns ``(SX, Sy)``.  Draw order is fixed (signs, then rows) so a seeded
    generator reproduces the sketch exactly.
    """
    return _sketcher(*_check_xy(x, y), "srht", m, rng)()


def leverage_scores(x) -> np.ndarray:
    """Statistical leverage of each row: squared row norms of an orthonormal
    column basis.  Scores lie in [0, 1] and sum to the column count.

    With X'X = L L' (Cholesky), X L^{-T} is such a basis, so the scores are
    the squared row norms of X L^{-T}: L^{-1} is formed once (d x d), then
    each block of 1024 rows of X takes one matrix product with it; no Q is
    formed.  Raises
    :class:`RankDeficient` when X has fewer rows than columns or its Gram
    matrix is not positive definite.
    """
    return _leverage_scores(as_matrix(x))


def _leverage_scores(x: np.ndarray) -> np.ndarray:
    """:func:`leverage_scores` of a checked X."""
    n, d = x.shape
    if n < d:
        raise RankDeficient(f"need rows >= cols for leverage scores, got {n} x {d}")
    inv_t = _full_rank_factor(x).inv_lower.T
    scores = np.empty(n)
    for s in range(0, n, _LEV_ROWS):
        w = x[s : s + _LEV_ROWS] @ inv_t
        scores[s : s + _LEV_ROWS] = np.einsum("ij,ij->i", w, w)
    return scores


def leverage_sample(x, y, m: int, rng: np.random.Generator):
    """Leverage-score row sampling, i.i.d. with replacement.

    Row i is drawn with probability p_i proportional to its leverage score
    and rescaled by 1/sqrt(m p_i), making S.T @ S unbiased for the identity.
    """
    return _sketcher(*_check_xy(x, y), "leverage", m, rng)()


def uniform_sample(x, y, m: int, rng: np.random.Generator):
    """Uniform row sampling without replacement, scaled by sqrt(n/m)."""
    return _sketcher(*_check_xy(x, y), "uniform", m, rng)()


def aopt_select(x, m: int) -> SubsampleMask:
    """Deterministic mask selecting the ``m`` rows of largest squared norm.

    Ties at the threshold norm are broken toward the smaller row index, so
    identical inputs always give identical masks regardless of thread count.
    Selection uses a partial partition (expected O(n)) rather than a full sort.
    """
    return _aopt_select(as_matrix(x), m)


def _aopt_select(x: np.ndarray, m: int) -> SubsampleMask:
    """:func:`aopt_select` of a checked X."""
    n = x.shape[0]
    _whole(m, "subsample size", BadSubsampleSize, least=1, most=n)
    sq = _row_sq_norms(x)
    threshold = np.partition(sq, n - m)[n - m]
    delta = np.zeros(n, dtype=np.uint8)
    above = sq > threshold
    delta[above] = 1
    need = m - int(above.sum())
    if need > 0:
        ties = np.flatnonzero(sq == threshold)
        delta[ties[:need]] = 1
    return SubsampleMask(delta, m)


def draw_sketch(x, y, kind: SketchKind, rng: np.random.Generator | None):
    """Produce ``(SX, Sy)`` for any sketch family.

    The ``aopt`` variant is deterministic and ignores ``rng``.  Its rows are
    scaled by sqrt(n/m) so the sketched Gram matrix equals the (n/m)-weighted
    masked sum, the scale that keeps the deterministic sketch consistent on
    the Hessian side (estimators that cancel row scaling, like the classical
    sketch, are unaffected).
    """
    if not isinstance(kind, SketchKind):
        raise TypeError(f"kind must be a SketchKind, got {type(kind).__name__}")
    return _sketcher(*_check_xy(x, y), kind.variant, kind.m, rng)()
