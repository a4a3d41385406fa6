"""Ridged preconditioners built from deterministic subsamples.

The preconditioner is ``M = (n/m) * sum(selected x_i x_i^T) + lam * I``; its
quality against the full Gram matrix Q is summarized by the measure

    delta(M) = 1 - cond(pencil(Q, M)) / cond(Q),

which is 1 for a perfect preconditioner, 0 for any multiple of the identity,
and negative when M makes conditioning worse.  The pencil condition number is
always computed by Cholesky congruence (with the factor's kept inverse),
never by forming an inverse square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    CholeskyFactor,
    _finite_nonneg,
    _gram,
    _require_symmetric,
    _row_sq_norms,
    _spectrum_cond,
    as_matrix,
    cholesky,
    cond_spd,
    solve_spd,
    sym_eigvals,
)
from .linalg import gram  # noqa: F401 -- perfbench/tracer.py wraps it here
from .sketch import SubsampleMask, _check_mask

__all__ = [
    "LambdaRule",
    "Preconditioner",
    "build_m",
    "pencil_eigvals",
    "delta_from_matrix",
    "delta_measure",
    "trace_inverse_bound",
    "hs_covariance_trace_bound",
]

_COEFFICIENTS = {"concentrated": 0.1, "heavy_tailed": 0.4}


@dataclass(frozen=True)
class LambdaRule:
    """Rule of thumb for the ridge weight.

    ``concentrated`` data get 0.1 * sum of squared row norms, ``heavy_tailed``
    data 0.4 * the same sum; ``explicit`` passes a value through unchanged.
    """

    profile: str
    explicit: float = 0.0

    def __post_init__(self):
        if self.profile not in ("concentrated", "heavy_tailed", "explicit"):
            raise ValueError(f"unknown lambda profile {self.profile!r}")
        _finite_nonneg(self.explicit, "ridge weight")

    @property
    def coefficient(self) -> float:
        return _COEFFICIENTS.get(self.profile, 0.0)

    def resolve(self, x) -> float:
        """Ridge weight for a data matrix."""
        return self._resolve(x if self.profile == "explicit" else as_matrix(x))

    def _resolve(self, x: np.ndarray) -> float:
        """:meth:`resolve` for a checked X."""
        if self.profile == "explicit":
            return float(self.explicit)
        return self.coefficient * float(_row_sq_norms(x).sum())

    @classmethod
    def for_distribution(cls, dist: str) -> "LambdaRule":
        """Default profile per covariate family: normal data are concentrated,
        the lognormal / t2 / mixture families are heavy-tailed."""
        return cls("concentrated" if dist == "normal" else "heavy_tailed")


@dataclass(frozen=True)
class Preconditioner:
    """Ridged masked-Gram preconditioner with its Cholesky factor."""

    m_matrix: np.ndarray
    factor: CholeskyFactor

    def solve(self, b):
        """Apply M^{-1} to a vector (or stacked columns)."""
        return solve_spd(self.factor, b)


def build_m(x, mask: SubsampleMask, lam: float) -> Preconditioner:
    """Assemble and factor ``M = (n/m) * masked Gram + lam * I``.

    Only the m selected rows are touched, so construction is O(m d^2).
    Raises :class:`NotPositiveDefinite` when ``lam == 0`` and the selected
    rows are rank deficient.
    """
    return _build_m(_check_mask(x, mask), mask, lam)


def _build_m(x: np.ndarray, mask: SubsampleMask, lam: float) -> Preconditioner:
    """:func:`build_m` of a checked X and a mask of its rows."""
    _finite_nonneg(lam, "ridge weight")
    n, d = x.shape
    selected = x[mask.indices]
    m_matrix = (n / mask.m) * _gram(selected) + lam * np.eye(d)
    return Preconditioner(m_matrix, cholesky(m_matrix))


def pencil_eigvals(m_matrix, q, factor: CholeskyFactor | None = None) -> np.ndarray:
    """Eigenvalues of the SPD pencil (Q, M), ascending.

    Computed as the spectrum of L^{-1} Q L^{-T} where M = L L^T, which shares
    eigenvalues with M^{-1} Q but stays symmetric.  Q must be symmetric and
    of the size of M (or of ``factor``, which stands in for M when given).
    """
    if m_matrix is None and factor is None:
        raise TypeError("m_matrix or factor must be given, got neither")
    q = as_matrix(q)
    _require_symmetric(q)
    fac = factor if factor is not None else cholesky(m_matrix)
    if q.shape[0] != fac.dim:
        raise DimensionMismatch(f"q has size {q.shape[0]}, M has size {fac.dim}")
    inv = fac.inv_lower
    b = inv @ q @ inv.T
    return sym_eigvals((b + b.T) * 0.5)


def delta_from_matrix(m_matrix, q, factor: CholeskyFactor | None = None) -> float:
    """Conditioning-improvement measure of an arbitrary SPD matrix against Q."""
    pencil = _spectrum_cond(pencil_eigvals(m_matrix, q, factor), "preconditioned Gram pencil")
    return 1.0 - pencil / cond_spd(q)


def delta_measure(pre: Preconditioner, q) -> float:
    """Conditioning-improvement measure of a preconditioner; <= 1, may be
    negative, scale-invariant in M, and exactly 0 for M proportional to I."""
    return delta_from_matrix(pre.m_matrix, q, pre.factor)


def _bound_pieces(x, mask: SubsampleMask, c_lower: float):
    if not 0.0 < c_lower < np.inf:  # NaN too
        raise ValueError(f"c_lower must be {'> 0' if c_lower <= 0 else 'finite'}, got {c_lower}")
    x = _check_mask(x, mask)
    ev = sym_eigvals(_gram(x))
    kappa = _spectrum_cond(ev, "Gram matrix")
    excluded = float(_row_sq_norms(x)[mask.delta == 0].sum())
    d = x.shape[1]
    return float(ev[0]), kappa, d + kappa / c_lower * excluded


def trace_inverse_bound(x, mask: SubsampleMask, c_lower: float) -> float:
    """Upper bound on trace of the inverse *unscaled* masked Gram matrix.

    ``c_lower`` must be a positive lower bound on the smallest eigenvalue of
    the masked Gram (callers typically pass that eigenvalue itself, which
    gives the tightest valid bound).  The bound grows with the total squared
    norm of the rows left out, which is what makes picking the largest-norm
    rows a good surrogate for minimizing average estimator variance.
    """
    lam_min, _, bracket = _bound_pieces(x, mask, c_lower)
    return bracket / lam_min


def hs_covariance_trace_bound(x, mask: SubsampleMask, c_lower: float) -> float:
    """Upper bound on trace of M^{-1} Q M^{-1} for the (n/m)-scaled masked
    Gram M, i.e. the covariance scale of a Hessian-sketched estimator.

    ``c_lower`` has the same meaning as in :func:`trace_inverse_bound` (a
    lower bound on the smallest eigenvalue of the *unscaled* masked Gram);
    since m <= n, the (n/m) scaling only slackens the inequality.
    """
    lam_min, kappa, bracket = _bound_pieces(x, mask, c_lower)
    return kappa / lam_min * bracket**2
