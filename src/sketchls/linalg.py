"""Dense linear-algebra kernels for desk-scale problems (n <= 2**17, d <= 200).

Everything here is a pure function of its inputs; matrices are plain float64
``numpy`` arrays in row-major order.  All linear systems in this library are
symmetric positive definite, so solves go through Cholesky factorizations.
The kernels are backed by LAPACK through ``numpy.linalg``, which has no
triangular solver: each Cholesky factor L is inverted once (d x d), and every
solve against it is a product with L^{-1}.  Results are deterministic for a
fixed BLAS build.

A public kernel that reads a data matrix X checks it and hands it to a
private core (:func:`_gram`, :func:`_row_sq_norms`); the library calls the
cores on arrays it has already checked, so each X is scanned once per entry.
Two more cores serve every layer above: :func:`_full_rank_factor`, the
Cholesky factor of X'X or :class:`RankDeficient`, and :func:`_full_ls`, the
exact least-squares fit of a checked ``(X, y)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient, SingularMatrix

__all__ = [
    "CholeskyFactor",
    "as_matrix",
    "as_vector",
    "gram",
    "cholesky",
    "solve_spd",
    "sym_eigvals",
    "cond_spd",
    "row_sq_norms",
]

#: relative eigenvalue floor below which an SPD matrix is treated as singular
SINGULAR_RTOL = 1e-14


def _real(x, name: str) -> np.ndarray:
    """``x`` as a float64 array, or ValueError naming ``name`` when its dtype
    is complex (a cast would drop the imaginary part)."""
    a = np.asarray(x)
    if a.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {a.dtype}")
    return a.astype(np.float64, copy=False)


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce a real input to a finite float64 2-D array.

    A NaN or infinite entry always makes its row sum non-finite, so one
    product with a ones vector accepts every finite array whose row sums do
    not overflow; only the rest get the elementwise check.
    """
    a = _real(x, name)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(a @ np.ones(a.shape[1])).all() and not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite entries")
    return a


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce a real input to a finite float64 1-D array."""
    a = _real(x, name)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _check_xy(x, y):
    """The problem ``(X, y)``: X a finite float64 2-D array and y a finite
    float64 1-D array with one entry per row of X."""
    x = as_matrix(x, "X")
    y = as_vector(y, "y")
    if y.size != x.shape[0]:
        raise DimensionMismatch(f"y has length {y.size}, X has {x.shape[0]} rows")
    return x, y


def _check_coef(x: np.ndarray, v, name: str) -> np.ndarray:
    """A coefficient vector ``name`` for a checked X (a start vector, a
    reference solution, a ground truth): finite float64 1-D of length
    X.shape[1]."""
    v = as_vector(v, name)
    if v.size != x.shape[1]:
        raise DimensionMismatch(f"{name} has length {v.size}, X has {x.shape[1]} columns")
    return v


def _whole(value, name: str, error: type = ValueError) -> int:
    """``value`` as an int when ``operator.index`` accepts it (an int or a
    numpy integer, not 20.0, 20.5 or True), else ``error`` naming ``name``:
    the one check of a size where it enters the library."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be a whole number, got {value!r}") from None


def _finite_nonneg(value, name: str):
    """``value`` when it is finite and >= 0 (NaN is neither), else ValueError
    naming ``name``: the one check of a real-valued setting where it enters."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


def _require_symmetric(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if scale and np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to relative tolerance 1e-12")


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor L with L @ L.T equal to the factored matrix."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @cached_property
    def inv_lower(self) -> np.ndarray:
        """L^{-1}, formed on first use and kept for every later solve."""
        return np.linalg.inv(self.lower)


def gram(x) -> np.ndarray:
    """Gram matrix X.T @ X, symmetrized to guard against rounding skew."""
    return _gram(as_matrix(x))


def _gram(x: np.ndarray) -> np.ndarray:
    """:func:`gram` of a checked X."""
    g = x.T @ x
    return (g + g.T) * 0.5


def cholesky(a) -> CholeskyFactor:
    """Factor a symmetric positive definite matrix.

    Raises :class:`NotPositiveDefinite` when factorization breaks down or a
    pivot falls at/below the scaling-aware floor ``dim * eps * max |a_ii|``,
    which signals a rank-deficient Gram matrix or preconditioner.
    """
    a = as_matrix(a)
    _require_symmetric(a)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("matrix is not positive definite") from None
    floor = a.shape[0] * np.finfo(np.float64).eps * np.abs(np.diag(a)).max()
    if (np.diag(lower) ** 2 <= floor).any():
        raise NotPositiveDefinite(
            f"pivot at/below positive-definiteness floor {floor:.3e}"
        )
    return CholeskyFactor(lower)


def solve_spd(fac: CholeskyFactor, b):
    """Solve A x = b given the Cholesky factor of A = L L', as
    ``L^{-T} (L^{-1} b)`` with the factor's kept inverse.

    ``b`` may be a vector or a matrix of stacked right-hand sides (columns).
    """
    b = _real(b, "b")
    if b.shape[0] != fac.dim:
        raise DimensionMismatch(
            f"factor dimension {fac.dim} does not match rhs length {b.shape[0]}"
        )
    inv = fac.inv_lower
    return inv.T @ (inv @ b)


def _full_rank_factor(x: np.ndarray) -> CholeskyFactor:
    """The Cholesky factor of X'X for a checked X, or :class:`RankDeficient`
    when X does not have full column rank."""
    try:
        return cholesky(_gram(x))
    except NotPositiveDefinite:
        raise RankDeficient("X does not have full column rank") from None


def _full_ls(x: np.ndarray, y: np.ndarray, q: np.ndarray | None = None) -> np.ndarray:
    """The exact least-squares solution of a checked ``(X, y)``, via Cholesky
    of the Gram matrix, given X's Gram matrix ``q`` when it is already formed."""
    return solve_spd(cholesky(_gram(x) if q is None else q), x.T @ y)


def sym_eigvals(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted ascending."""
    a = as_matrix(a)
    _require_symmetric(a)
    return np.linalg.eigvalsh(a)


def cond_spd(a) -> float:
    """Condition number max-eig / min-eig of a symmetric positive definite matrix."""
    return _spectrum_cond(sym_eigvals(a), "matrix")


def _spectrum_cond(ev: np.ndarray, what: str) -> float:
    """max-eig / min-eig of the ascending spectrum ``ev`` of ``what``; raises
    :class:`SingularMatrix` when the smallest eigenvalue is negligible."""
    if ev[-1] <= 0.0 or ev[0] <= SINGULAR_RTOL * ev[-1]:
        raise SingularMatrix(
            f"{what} is numerically singular (eigenvalue range [{ev[0]:.3e}, {ev[-1]:.3e}])"
        )
    return float(ev[-1] / ev[0])


def row_sq_norms(x) -> np.ndarray:
    """Squared Euclidean norm of each row."""
    return _row_sq_norms(as_matrix(x))


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """:func:`row_sq_norms` of a checked X."""
    return np.einsum("ij,ij->i", x, x)

