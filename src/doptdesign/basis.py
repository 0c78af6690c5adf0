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

from .errors import DimensionMismatchError, InvalidDimensionError, SizeMismatchError

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
    def exponents(self) -> np.ndarray:
        """Indices as an integer array of shape (size, n)."""
        return np.array(self.indices, dtype=np.int64).reshape(self.size, self.n)

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

    Returns an array of shape (npoints, basis.size).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != basis.n:
        raise DimensionMismatchError(
            f"expected points of shape (N, {basis.n}), got {pts.shape}"
        )
    # Powers table per coordinate, then product across coordinates per index.
    npts = pts.shape[0]
    powers = [
        np.vander(pts[:, j], basis.d + 1, increasing=True) for j in range(basis.n)
    ]
    out = np.ones((npts, basis.size))
    for k, alpha in enumerate(basis.indices):
        col = out[:, k]
        for j, e in enumerate(alpha):
            if e:
                col *= powers[j][:, e]
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
