"""Monomial basis of bounded total degree in several variables.

The basis vector v(x) collects all monomials x^a with |a| <= d, ordered by
total degree and, within a degree, so that earlier variables dominate
(1, x1, x2, x1^2, x1*x2, x2^2, ...).  Every matrix and report in this
package is indexed by this ordering; it is deterministic and stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    def __len__(self) -> int:
        return len(self.indices)

    @cached_property
    def position(self) -> dict[MultiIndex, int]:
        """Inverse lookup: multi-index -> row in the basis."""
        return {a: k for k, a in enumerate(self.indices)}


def enumerate_basis(n: int, d: int) -> MultiIndexBasis:
    """Enumerate the monomial basis of degree at most d in n variables.

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


def vandermonde(basis: MultiIndexBasis, points) -> np.ndarray:
    """Evaluate the basis at many points: row i is v(points[i]).

    Returns a C-ordered array of shape (npoints, basis.size).  This is the one
    place where monomials are computed, so it is the one place that checks
    them.  Each coordinate's powers are contiguous vectors, x^e = x^(e-1) * x,
    and a monomial multiplies its factors x_j^e_j in the order j = 0, ..., n-1;
    it is built as a contiguous row of the transposed table, which is copied
    into C order once at the end.

    Raises:
        FloatRangeError: if a monomial is not a finite float at some
            point (|x|^k beyond the float range, or a non-finite coordinate);
            the message names the first such point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != basis.n:
        raise DimensionMismatchError(
            f"expected points of shape (N, {basis.n}), got {pts.shape}"
        )
    table = np.ones((basis.size, pts.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = []
        for x in pts.T:
            xe = [None, np.ascontiguousarray(x)]  # xe[e] is x^e for e >= 1
            for _ in range(2, basis.d + 1):
                xe.append(xe[-1] * xe[1])
            powers.append(xe)
        for row, alpha in zip(table, basis.indices):
            for xe, e in zip(powers, alpha):
                if e:
                    row *= xe[e]
    out = np.ascontiguousarray(table.T)
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out).all(axis=1)
        raise FloatRangeError(
            f"a monomial of degree <= {basis.d} is not a finite float "
            f"at the point {pts[bad][0].tolist()}"
        )
    return out


def outer_position_map(basis: MultiIndexBasis, basis2d: MultiIndexBasis) -> np.ndarray:
    """Positions of the pairwise index sums inside the degree-2d basis.

    Returns an integer array P of shape (size, size) with
    basis2d.indices[P[i, j]] == indices[i] + indices[j]: entry (i, j) of the
    moment matrix carries the moment of that monomial.  This map makes the
    moment matrix a linear function of the degree-2d moment vector, and by
    transposition it fixes the adjoint expansion used in certificates.
    """
    if basis2d.n != basis.n or basis2d.d != 2 * basis.d:
        raise SizeMismatchError(
            f"doubled basis must have n={basis.n}, d={2 * basis.d}, "
            f"got n={basis2d.n}, d={basis2d.d}"
        )
    pos = basis2d.position
    m = basis.size
    out = np.empty((m, m), dtype=np.int64)
    for i, a in enumerate(basis.indices):
        for j in range(i, m):
            b = basis.indices[j]
            k = pos[tuple(p + q for p, q in zip(a, b))]
            out[i, j] = k
            out[j, i] = k
    return out
