"""Seeded synthetic data: four covariate families on a common equicorrelated
covariance, linear responses, and centering.

Generation is fully determined by a :class:`DataSpec`; identical specs yield
identical datasets byte for byte (PCG64 streams with a fixed draw order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_coef, _check_xy, _full_ls, _gram, _whole, as_matrix
from .linalg import as_vector  # noqa: F401 -- perfbench/tracer.py wraps it here
from .sketch import derive_rng

__all__ = [
    "DISTRIBUTIONS",
    "DataSpec",
    "Dataset",
    "make_sigma",
    "gen_response",
    "center",
    "make_dataset",
]

DISTRIBUTIONS = ("normal", "lognormal", "t2", "mixture")


@dataclass(frozen=True)
class DataSpec:
    """Everything needed to regenerate one synthetic dataset."""

    dist: str
    n: int
    d: int
    seed: int
    sigma_noise: float = 3.0

    def __post_init__(self):
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.dist!r}")
        for name in ("n", "d", "seed"):
            _whole(getattr(self, name), name)
        if not self.n >= self.d >= 1:
            raise ValueError(f"need n >= d >= 1, got n={self.n}, d={self.d}")
        if self.n < 2:
            raise ValueError("centering needs at least two rows")
        if self.n == self.d:
            raise ValueError(f"centered X has rank at most n - 1 = {self.n - 1} < d = {self.d}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.sigma_noise < np.inf:
            raise ValueError("sigma_noise must be finite and >= 0")


@dataclass(frozen=True)
class Dataset:
    """Centered design/response pair with its ground truth, its exact
    solution and the Gram matrix X'X that solution was formed from."""

    x: np.ndarray
    y: np.ndarray
    beta_star: np.ndarray
    beta_ls: np.ndarray
    gram: np.ndarray


def make_sigma(d: int) -> np.ndarray:
    """Equicorrelated covariance: 1 on the diagonal, 0.5 everywhere else.

    SPD for every d, with eigenvalues 0.5 (multiplicity d-1) and 0.5 + 0.5 d.
    """
    if _whole(d, "d") < 1:
        raise ValueError("d must be >= 1")
    return 0.5 * np.eye(d) + 0.5 * np.ones((d, d))


#: rows of X drawn, correlated and transformed per block
_GEN_ROWS = 4096


def _covariates(rng: np.random.Generator, dist: str, n: int, d: int) -> np.ndarray:
    """Raw covariates, built in one n x d array ``_GEN_ROWS`` rows at a time.

    Each block's standard normal draw is correlated by the Cholesky factor of
    :func:`make_sigma` into its rows of X (and exponentiated in place for
    lognormal).  Block draws consume the stream exactly as one whole-array
    draw would, so the bytes do not depend on the block size.  Stream order
    is fixed: the mixture's components, all normal blocks, then the t2
    chi-square, or the mixture's two chi-squares and its uniform block by
    block; the t2 and mixture transforms act on X in place.
    """
    chol_t = np.linalg.cholesky(make_sigma(d)).T
    comp = rng.integers(0, 5, n) if dist == "mixture" else None
    x = np.empty((n, d))
    blocks = [slice(s, s + _GEN_ROWS) for s in range(0, n, _GEN_ROWS)]
    for b in blocks:
        np.matmul(rng.standard_normal(x[b].shape), chol_t, out=x[b])
        if dist == "lognormal":
            np.exp(x[b], out=x[b])
    if dist == "t2":
        x /= np.sqrt(rng.chisquare(2, n) / 2.0)[:, None]
    if dist != "mixture":
        return x
    # per-row component from {shifted normal, t2, t3, iid uniform, lognormal}
    # with equal probability; every draw is taken for every row
    w2 = np.sqrt(rng.chisquare(2, n) / 2.0)
    w3 = np.sqrt(rng.chisquare(3, n) / 3.0)
    for b in blocks:
        xb, cb = x[b], comp[b]
        u = rng.uniform(0.0, 2.0, xb.shape)
        xb[cb == 0] += 1.0
        xb[cb == 1] /= w2[b][cb == 1, None]
        xb[cb == 2] /= w3[b][cb == 2, None]
        xb[cb == 3] = u[cb == 3]
        xb[cb == 4] = np.exp(xb[cb == 4])
    return x


def gen_response(x, beta_star, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Linear response ``X @ beta_star`` plus sigma-scaled Gaussian noise.  A
    response that is not finite (a sigma so large that it overflows) raises
    ValueError naming sigma."""
    x = as_matrix(x, "X")
    y = _response(x, _check_coef(x, beta_star, "beta_star"), sigma, rng)
    if not np.isfinite(y).all():
        raise ValueError(f"the response is not finite at sigma = {sigma}")
    return y


def _response(x: np.ndarray, beta_star: np.ndarray, sigma: float, rng) -> np.ndarray:
    """:func:`gen_response` of a checked X and beta_star, unchecked: an
    overflow gives non-finite entries without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x @ beta_star + sigma * rng.standard_normal(x.shape[0])


def center(x, y):
    """Subtract column means from X and the mean from y (removes the
    intercept), in copies: the arguments are left as they are.  Idempotent."""
    return _center(*(a.copy() for a in _check_xy(x, y)))


def _center(x: np.ndarray, y: np.ndarray):
    """:func:`center` in place, on float64 arrays the caller owns; returns
    ``(x, y)``."""
    if x.shape[0] < 2:
        raise ValueError("centering needs at least two rows")
    x -= x.mean(axis=0)
    y -= y.mean()
    return x, y


def make_dataset(spec: DataSpec) -> Dataset:
    """Generate, center, and solve one dataset.

    Draw order is fixed: covariates, then beta_star (d i.i.d. standard
    normals), then response noise.  X is built in one array and centered in
    place through :func:`_center`, the core of :func:`center`, so no X-sized
    temporary is held beside it.  X is checked once, by :func:`as_matrix`.
    The Gram matrix and the exact least-squares solution are computed once
    on the centered pair; centering leaves beta_star the ground truth of the
    centered model.  A ``sigma_noise`` so large that y or beta_ls overflows
    raises ValueError.
    """
    rng = derive_rng(spec.seed)
    x = as_matrix(_covariates(rng, spec.dist, spec.n, spec.d), "X")
    beta_star = rng.standard_normal(spec.d)
    y = _response(x, beta_star, spec.sigma_noise, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
        _center(x, y)
        q = _gram(x)
        beta_ls = _full_ls(x, y, q)
    if not (np.isfinite(y).all() and np.isfinite(beta_ls).all()):
        raise ValueError(f"sigma_noise = {spec.sigma_noise} overflows the response")
    return Dataset(x=x, y=y, beta_star=beta_star, beta_ls=beta_ls, gram=q)
