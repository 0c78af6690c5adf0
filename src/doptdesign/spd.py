"""Dense symmetric positive-definite kernel: Cholesky factor, solves, log-det.

Only the lower triangle of the input is read, so the factorization is
symmetric by construction.  Failure is a signal, not a nuisance: no jitter or
regularization is ever applied, because in this package a singular matrix
always means a degenerate design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from .errors import DimensionMismatchError, NotPositiveDefiniteError

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SpdFactor:
    """Lower-triangular Cholesky factor L with L L^T = A and positive diagonal."""

    chol: np.ndarray
    log_det: float

    @property
    def size(self) -> int:
        return self.chol.shape[0]


def pivot_tolerance(m: int, max_diag: float) -> float:
    """Scale-aware positivity threshold for elimination pivots."""
    return m * _EPS * max_diag


def factorize(a) -> SpdFactor:
    """Cholesky-factorize a symmetric matrix, reading the lower triangle only.

    A pivot at or below ``m * eps * max(diag(a))`` fails the factorization;
    the raised error carries the index of the offending pivot.

    Raises:
        NotPositiveDefiniteError: if a is not numerically positive definite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    m = a.shape[0]
    tol = pivot_tolerance(m, float(a.diagonal().max(initial=0.0)))
    c, info = dpotrf(a, lower=1)
    if info < 0:  # pragma: no cover - scipy argument plumbing
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    # The elimination pivots are the squared diagonal entries of L.  When
    # LAPACK stops at column `info`, the earlier columns are still valid and
    # may already sit below the scale-aware threshold.
    ncols = m if info == 0 else info - 1
    diag = c.diagonal()[:ncols]
    pivots = diag * diag
    below = np.nonzero(pivots <= tol)[0]
    if below.size:
        raise NotPositiveDefiniteError(pivot=int(below[0]))
    if info > 0:
        raise NotPositiveDefiniteError(pivot=int(info - 1))
    chol = np.tril(c)
    log_det = 2.0 * float(np.log(diag).sum())
    chol.flags.writeable = False
    return SpdFactor(chol=chol, log_det=log_det)


def solve(f: SpdFactor, b) -> np.ndarray:
    """Solve A x = b by forward and back substitution."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.size:
        raise DimensionMismatchError(
            f"right-hand side has length {b.shape[0]}, factor has size {f.size}"
        )
    y = solve_triangular(f.chol, b, lower=True, check_finite=False)
    return solve_triangular(f.chol.T, y, lower=False, check_finite=False)


def quad_form_inv(f: SpdFactor, v) -> float:
    """The quadratic form v^T A^{-1} v, computed as ||L^{-1} v||^2 (always >= 0)."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != f.size:
        raise DimensionMismatchError(
            f"vector has length {v.shape[0]}, factor has size {f.size}"
        )
    z = solve_triangular(f.chol, v, lower=True, check_finite=False)
    return float(z @ z)


def quad_form_inv_many(f: SpdFactor, rows: np.ndarray) -> np.ndarray:
    """v^T A^{-1} v for every row v of `rows`."""
    if rows.shape[1] != f.size:
        raise DimensionMismatchError(
            f"vectors have length {rows.shape[1]}, factor has size {f.size}"
        )
    z = solve_triangular(f.chol, rows.T, lower=True, check_finite=False)
    return np.einsum("ij,ij->j", z, z)


def inverse(f: SpdFactor) -> np.ndarray:
    """Explicit A^{-1}; used only where a whole matrix must be reported."""
    li = solve_triangular(
        f.chol, np.eye(f.size), lower=True, check_finite=False
    )
    return li.T @ li
