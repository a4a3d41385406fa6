"""Seeded synthetic data: four covariate families on a common equicorrelated
covariance, linear responses, and centering.

Generation is fully determined by a :class:`DataSpec`; identical specs yield
identical datasets byte for byte (PCG64 streams with a fixed draw order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_coef, _check_xy, as_matrix
from .linalg import as_vector  # noqa: F401 -- perfbench/tracer.py wraps it here
from .sketch import derive_rng

__all__ = [
    "DISTRIBUTIONS",
    "DataSpec",
    "Dataset",
    "make_sigma",
    "gen_covariates",
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
        if not self.n >= self.d >= 1:
            raise ValueError(f"need n >= d >= 1, got n={self.n}, d={self.d}")
        if not 0 <= self.sigma_noise < np.inf:
            raise ValueError("sigma_noise must be finite and >= 0")


@dataclass(frozen=True)
class Dataset:
    """Centered design/response pair with its ground truth and exact solution."""

    x: np.ndarray
    y: np.ndarray
    beta_star: np.ndarray
    beta_ls: np.ndarray


def make_sigma(d: int) -> np.ndarray:
    """Equicorrelated covariance: 1 on the diagonal, 0.5 everywhere else.

    SPD for every d, with eigenvalues 0.5 (multiplicity d-1) and 0.5 + 0.5 d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return 0.5 * np.eye(d) + 0.5 * np.ones((d, d))


def _correlated_normal(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    chol = np.linalg.cholesky(make_sigma(d))
    return rng.standard_normal((n, d)) @ chol.T


def _covariates(rng: np.random.Generator, dist: str, n: int, d: int) -> np.ndarray:
    if dist == "normal":
        return _correlated_normal(rng, n, d)
    if dist == "lognormal":
        return np.exp(_correlated_normal(rng, n, d))
    if dist == "t2":
        z = _correlated_normal(rng, n, d)
        w = rng.chisquare(2, n)
        return z / np.sqrt(w / 2.0)[:, None]
    # mixture: per-row component from {shifted normal, t2, t3, iid uniform,
    # lognormal} with equal probability.  All blocks are drawn unconditionally
    # in a fixed order to keep the stream layout (hence the bytes) stable.
    comp = rng.integers(0, 5, n)
    z = _correlated_normal(rng, n, d)
    w2 = rng.chisquare(2, n)
    w3 = rng.chisquare(3, n)
    u = rng.uniform(0.0, 2.0, (n, d))
    x = np.empty((n, d))
    x[comp == 0] = z[comp == 0] + 1.0
    x[comp == 1] = z[comp == 1] / np.sqrt(w2[comp == 1] / 2.0)[:, None]
    x[comp == 2] = z[comp == 2] / np.sqrt(w3[comp == 2] / 3.0)[:, None]
    x[comp == 3] = u[comp == 3]
    x[comp == 4] = np.exp(z[comp == 4])
    return x


def gen_covariates(spec: DataSpec) -> np.ndarray:
    """Raw (uncentered) covariate draw for a spec."""
    return _covariates(derive_rng(spec.seed), spec.dist, spec.n, spec.d)


def gen_response(x, beta_star, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Linear response ``X @ beta_star`` plus sigma-scaled Gaussian noise."""
    x = as_matrix(x, "X")
    beta_star = _check_coef(x, beta_star, "beta_star")
    return x @ beta_star + sigma * rng.standard_normal(x.shape[0])


def center(x, y):
    """Subtract column means from X and the mean from y (removes the
    intercept).  Idempotent."""
    x, y = _check_xy(x, y)
    if x.shape[0] < 2:
        raise ValueError("centering needs at least two rows")
    return x - x.mean(axis=0), y - y.mean()


def make_dataset(spec: DataSpec) -> Dataset:
    """Generate, center, and solve one dataset.

    Draw order is fixed: covariates, then beta_star (d i.i.d. standard
    normals), then response noise.  The exact least-squares solution is
    computed once on the centered pair; centering leaves beta_star the ground
    truth of the centered model.
    """
    from .solvers import full_ls  # local import to avoid a cycle

    rng = derive_rng(spec.seed)
    x_raw = _covariates(rng, spec.dist, spec.n, spec.d)
    beta_star = rng.standard_normal(spec.d)
    y_raw = gen_response(x_raw, beta_star, spec.sigma_noise, rng)
    x, y = center(x_raw, y_raw)
    return Dataset(x=x, y=y, beta_star=beta_star, beta_ls=full_ls(x, y))
