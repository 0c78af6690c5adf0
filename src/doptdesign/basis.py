"""Monomial basis of bounded total degree in several variables, and the
moment map with its adjoint.

The basis vector v(x) collects all monomials x^a with |a| <= d, ordered by
total degree and, within a degree, so that earlier variables dominate
(1, x1, x2, x1^2, x1*x2, x2^2, ...).  Every matrix and report in this
package is indexed by this ordering; it is deterministic and stable.

The paper's linear pair lives here too, and only here.  The moment map M_d
(`moment_matrix`) fills the moment matrix from a degree-2d moment vector y,
so M(w) = M_d(y); its adjoint M_d* (`adjoint_expand`) takes a matrix X to
the degree-2d coefficients c of v(x)^T X v(x), so p = V2 c.  Both read one
index map, `MultiIndexBasis.products`; no other module touches it.
`_rows` is the package's one check of an (N, n) array of points, and
`_row_blocks` its one block sizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator

import numpy as np

from .errors import (
    DimensionMismatchError,
    FloatRangeError,
    InvalidDimensionError,
    SizeMismatchError,
)

MultiIndex = tuple[int, ...]


def _compositions(total: int, parts: int) -> Iterator[MultiIndex]:
    """All exponent tuples with the given sum, earlier variables largest first."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class MultiIndexBasis:
    """All multi-indices of total degree <= d in n variables, graded order.

    Attributes:
        n: ambient dimension (number of variables).
        d: total degree bound.
        indices: the ordered multi-indices; ``len(indices)`` equals
            binomial(n + d, d).
    """

    n: int
    d: int
    indices: tuple[MultiIndex, ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    @cached_property
    def products(self) -> np.ndarray:
        """Positions of the pairwise index sums inside the degree-2d basis.

        A read-only integer array P of shape (size, size) with
        enumerate_basis(n, 2d).indices[P[i, j]] == indices[i] + indices[j]:
        entry (i, j) of the moment matrix carries the moment of that
        monomial.

        The position of a sum a is counted, not looked up: the indices of
        lower total degree, C(|a| - 1 + n, n) of them, come first; then, one
        variable at a time, the indices of the same degree that agree with a
        on the variables before and have a larger exponent on this one, the
        compositions of the remaining degree r into the m variables left
        whose head exceeds a_j, C(r - a_j + m - 2, m - 1) of them.  Every
        count is at most the size of the degree-2d basis, so none overflows.
        """
        n, top = self.n, 2 * self.d
        idx = np.array(self.indices, dtype=np.int64)
        sums = idx[:, None, :] + idx[None, :, :]
        left = sums.sum(axis=2)
        lower = [math.comb(t - 1 + n, n) for t in range(top + 1)]
        out = np.array(lower, dtype=np.int64)[left]
        for j, m in enumerate(range(n, 1, -1)):
            left = left - sums[..., j]
            ahead = [math.comb(r + m - 2, m - 1) for r in range(top + 1)]
            out += np.array(ahead, dtype=np.int64)[left]
        out.flags.writeable = False
        return out


@cache
def enumerate_basis(n: int, d: int) -> MultiIndexBasis:
    """Enumerate the monomial basis of degree at most d in n variables.

    Memoized: each (n, d) yields one `MultiIndexBasis`, so its `products`
    map is built once.

    Raises:
        InvalidDimensionError: if n < 1 or d < 1.  Degree 0 is rejected:
            a constant-only model has nothing to design for.
    """
    if n < 1:
        raise InvalidDimensionError(f"ambient dimension must be >= 1, got {n}")
    if d < 1:
        raise InvalidDimensionError(f"degree must be >= 1, got {d}")
    indices: list[MultiIndex] = []
    for total in range(d + 1):
        indices.extend(_compositions(total, n))
    basis = MultiIndexBasis(n=n, d=d, indices=tuple(indices))
    assert basis.size == math.comb(n + d, d)
    return basis


#: Bytes of the largest temporary block that a pass over N points forms.
_BLOCK_BYTES = 1 << 19


def _row_blocks(count: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices of range(count), each of at most _BLOCK_BYTES //
    row_bytes rows (at least one).  The package's one block sizer: every pass
    over N points holds its N-sized result and one such block, and a grid's
    slabs and a CSV table's rows are cut the same way.

    Above 64 rows a block is a whole number of 64 rows.  BLAS computes a
    product's rows in tiles and may round the rows of a partial tile
    differently, so blocks that end on tile boundaries give the bits of one
    product over every row more often; they cannot always, as the last
    block's tail can still meet another kernel.
    """
    step = max(1, _BLOCK_BYTES // row_bytes)
    if step > 64:
        step -= step % 64
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def _rows(points, n: int) -> np.ndarray:
    """points as a float array of shape (N, n)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatchError(
            f"expected points of shape (N, {n}), got {pts.shape}"
        )
    return pts


def vandermonde(basis: MultiIndexBasis, points) -> np.ndarray:
    """Evaluate the basis at many points: row i is v(points[i]).

    Returns a C-ordered array of shape (npoints, basis.size).  This is the one
    place where monomials are computed, so it is the one place that checks
    them.  Each coordinate's powers are contiguous vectors, x^e = x^(e-1) * x,
    and a monomial multiplies its factors x_j^e_j in the order j = 0, ..., n-1;
    it is built as a contiguous row of a transposed table of one block of
    points (`_row_blocks`), whose transpose is copied into the output's rows.

    Raises:
        FloatRangeError: if a monomial is not a finite float at some
            point (|x|^k beyond the float range, or a non-finite coordinate);
            the message names the first such point.
    """
    pts = _rows(points, basis.n)
    out = np.empty((pts.shape[0], basis.size))
    for rows in _row_blocks(pts.shape[0], 8 * basis.size):
        block = pts[rows]
        table = np.ones((basis.size, block.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            powers = []
            for x in block.T:
                xe = [None, np.ascontiguousarray(x)]  # xe[e] is x^e for e >= 1
                for _ in range(2, basis.d + 1):
                    xe.append(xe[-1] * xe[1])
                powers.append(xe)
            for row, alpha in zip(table, basis.indices):
                for xe, e in zip(powers, alpha):
                    if e:
                        row *= xe[e]
        finite = np.isfinite(table)
        if not finite.all():
            raise FloatRangeError(
                f"a monomial of degree <= {basis.d} is not a finite float "
                f"at the point {block[np.argmin(finite.all(axis=0))].tolist()}"
            )
        out[rows] = table.T
    return out


def moment_matrix(y, basis_d: MultiIndexBasis) -> np.ndarray:
    """The moment map M_d: the symmetric moment matrix over `basis_d`, filled
    from a degree-2d moment vector y as y[P] with P = `basis_d.products`.

    Raises:
        SizeMismatchError: if y does not have one entry per monomial of
            degree at most 2d.
    """
    s = enumerate_basis(basis_d.n, 2 * basis_d.d).size
    y = np.asarray(y, dtype=float)
    if y.shape != (s,):
        raise SizeMismatchError(f"moment vector has shape {y.shape}, expected ({s},)")
    return y[basis_d.products]


def adjoint_expand(x_mat, basis_d: MultiIndexBasis) -> np.ndarray:
    """The adjoint M_d*: coefficients of v(x)^T X v(x) in the degree-2d basis.

    The coefficient of the monomial a is the sum of X_ij over all index pairs
    with indices[i] + indices[j] = a (both triangles), added in row-major
    order.  trace(M_d(y) X) equals the returned coefficients dotted with y
    for every moment vector y.

    Raises:
        SizeMismatchError: if X is not square of the basis's size.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    m = basis_d.size
    if x_mat.shape != (m, m):
        raise SizeMismatchError(
            f"matrix has shape {x_mat.shape}, basis needs ({m}, {m})"
        )
    s = enumerate_basis(basis_d.n, 2 * basis_d.d).size
    return np.bincount(basis_d.products.ravel(), x_mat.ravel(), minlength=s)
