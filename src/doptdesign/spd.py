"""Dense symmetric positive-definite kernel: Cholesky factor, solves, log-det.

The package's one Cholesky kernel: the solver, the certificate and the
ellipsoid all factor through `factorize`.  Only the lower triangle of the
input is read, so the factorization is symmetric by construction.  Failure
is a signal, not a nuisance: no jitter or regularization is ever applied,
because in this package a singular matrix always means a degenerate design.

numpy's `linalg.cholesky` gives the factor L and `linalg.inv` its inverse
L^{-1}, formed at most once per factor, on first use.  The solves apply
L^{-1} as one matrix product, which on an (n, N) block is several times
faster than a general solve.
"""

from __future__ import annotations

import numpy as np

from .basis import _rows
from .errors import DimensionMismatchError, NotPositiveDefiniteError

_EPS = float(np.finfo(np.float64).eps)


class SpdFactor:
    """Cholesky factor L (L L^T = A, positive diagonal) and log det A.

    Read-only: L^{-1} is formed on first use and kept.  A slotted class, as a
    frozen dataclass's constructor would slow the solver's factor per iterate.
    """

    __slots__ = ("chol", "log_det", "_inv_chol")

    def __init__(self, chol: np.ndarray, log_det: float):
        self.chol = chol
        self.log_det = log_det
        self._inv_chol = None

    @property
    def size(self) -> int:
        return self.chol.shape[0]

    @property
    def inv_chol(self) -> np.ndarray:
        """L^{-1}, lower triangular; `np.linalg.inv` runs once per factor."""
        if self._inv_chol is None:
            self._inv_chol = np.linalg.inv(self.chol)
        return self._inv_chol


def pivot_tolerance(m: int, max_diag: float) -> float:
    """Scale-aware positivity threshold for elimination pivots."""
    return m * _EPS * max_diag


def _failed_pivot(a: np.ndarray, tol: float) -> int:
    """Index of the first elimination pivot of a (lower triangle) not above tol.

    Runs only after a failure: `np.linalg.cholesky` does not say where it
    stopped, nor which pivot failed the tolerance.  Should round-off let
    every pivot pass here, the smallest one is named.
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
        DimensionMismatchError: if a is not a non-empty square matrix.
        NotPositiveDefiniteError: if a is not numerically positive definite.
    """
    a = np.asarray(a, float)
    shape = a.shape
    if len(shape) != 2 or not 0 < shape[0] == shape[1]:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got {shape}")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    else:
        # The elimination pivots are the squared diagonal entries of L.  The
        # solver's matrices are small, so the test takes scalar min/max over
        # Python floats, not array calls, and np.add.reduce skips the Python
        # wrapper of ndarray.sum.  A NaN pivot makes log_det NaN and fails it.
        diag = chol.diagonal()
        log_det = 2.0 * float(np.add.reduce(np.log(diag)))
        d_min = min(diag.tolist())
        if (d_min * d_min > pivot_tolerance(shape[0], max(a.diagonal().tolist()))
                and log_det == log_det):
            return SpdFactor(chol, log_det)
    # fmax skips a NaN on the diagonal, whose pivot then fails on its own.
    tol = pivot_tolerance(shape[0], float(np.fmax.reduce(a.diagonal(), initial=0.0)))
    raise NotPositiveDefiniteError(pivot=_failed_pivot(a, tol))


def solve(f: SpdFactor, b) -> np.ndarray:
    """Solve A x = b as x = L^{-T} (L^{-1} b)."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.size:
        raise DimensionMismatchError(
            f"right-hand side has length {b.shape[0]}, factor has size {f.size}"
        )
    li = f.inv_chol
    return np.dot(li.T, np.dot(li, b))


def quad_form_inv_many(f: SpdFactor, rows) -> np.ndarray:
    """v^T A^{-1} v for every row v of `rows`, an (N, size) array; each value
    is computed as ||L^{-1} v||^2, so it is never negative."""
    z = np.dot(f.inv_chol, _rows(rows, f.size).T)
    return np.einsum("ij,ij->j", z, z)


def inverse(f: SpdFactor) -> np.ndarray:
    """Explicit A^{-1} = L^{-T} L^{-1}, exactly symmetric: numpy forms the
    product of a matrix's transpose with itself as one symmetric rank-k
    update and mirrors its triangle."""
    li = f.inv_chol
    return np.dot(li.T, li)
