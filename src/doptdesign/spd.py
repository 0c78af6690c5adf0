"""Dense symmetric positive-definite kernel: Cholesky factor, solves, log-det.

Only the lower triangle of the input is read, so the factorization is
symmetric by construction.  Failure is a signal, not a nuisance: no jitter or
regularization is ever applied, because in this package a singular matrix
always means a degenerate design.

numpy's `linalg.cholesky` gives the factor; the solves apply an explicit
L^{-1}, built by forward substitution, as one matrix product, which on an
(n, N) block is several times faster than a general solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _failed_pivot(a: np.ndarray, tol: float) -> int:
    """Index of the first elimination pivot of a (lower triangle) not above tol.

    Runs only after `np.linalg.cholesky` has failed, which does not say where.
    Should round-off let every pivot pass here, the smallest one is named.
    """
    s = np.tril(a)  # the update below reads only the lower triangle
    pivots = np.empty(s.shape[0])
    with np.errstate(all="ignore"):
        for j in range(s.shape[0]):
            pivots[j] = s[j, j]
            if not pivots[j] > tol:
                return j
            s[j + 1:, j + 1:] -= np.outer(s[j + 1:, j], s[j + 1:, j] / pivots[j])
    return int(pivots.argmin())


def factorize(a) -> SpdFactor:
    """Cholesky-factorize a symmetric matrix, reading the lower triangle only.

    A pivot at or below ``m * eps * max(diag(a))``, or a NaN pivot, fails the
    factorization; the raised error carries the index of the offending pivot.

    Raises:
        NotPositiveDefiniteError: if a is not numerically positive definite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    # fmax skips a NaN on the diagonal, whose pivot then fails on its own.
    tol = pivot_tolerance(a.shape[0], float(np.fmax.reduce(a.diagonal(), initial=0.0)))
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(pivot=_failed_pivot(a, tol)) from None
    # The elimination pivots are the squared diagonal entries of L.
    diag = chol.diagonal()
    below = np.flatnonzero(~(diag * diag > tol))
    if below.size:
        raise NotPositiveDefiniteError(pivot=int(below[0]))
    log_det = 2.0 * float(np.log(diag).sum())
    chol.flags.writeable = False
    return SpdFactor(chol=chol, log_det=log_det)


def _inverse_chol(f: SpdFactor) -> np.ndarray:
    """L^{-1}, lower triangular, by forward substitution on L X = I."""
    l = f.chol
    x = np.zeros_like(l)
    for i in range(f.size):
        x[i, i] = 1.0
        x[i] -= np.dot(l[i, :i], x[:i])
        x[i] /= l[i, i]
    return x


def solve(f: SpdFactor, b) -> np.ndarray:
    """Solve A x = b as x = L^{-T} (L^{-1} b)."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.size:
        raise DimensionMismatchError(
            f"right-hand side has length {b.shape[0]}, factor has size {f.size}"
        )
    li = _inverse_chol(f)
    return np.dot(li.T, np.dot(li, b))


def quad_form_inv_many(f: SpdFactor, rows) -> np.ndarray:
    """v^T A^{-1} v for every row v of `rows`, an (N, size) array; each value
    is computed as ||L^{-1} v||^2, so it is never negative."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != f.size:
        raise DimensionMismatchError(
            f"expected vectors of shape (N, {f.size}), got {rows.shape}"
        )
    z = np.dot(_inverse_chol(f), rows.T)
    return np.einsum("ij,ij->j", z, z)


def inverse(f: SpdFactor) -> np.ndarray:
    """Explicit A^{-1}; used only where a whole matrix must be reported."""
    li = _inverse_chol(f)
    return li.T @ li
