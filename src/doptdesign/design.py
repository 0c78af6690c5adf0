"""Design measures, moment assembly, and the Christoffel-Darboux polynomial.

A design is a probability measure w on a finite candidate set.  Its degree-2d
moment vector y collects the weighted monomial sums, and the information
matrix M(w) = sum_i w_i v(x_i) v(x_i)^T is the Gram matrix of the regression
functions under w.  This module holds one half of the paper's linear pair,
the moment map M(w) = M_d(y), as `moment_matrix`; `certificate` holds the
other half, the adjoint M_d*.  Both maps are defined in `basis`, which alone
reads their index map.
The Christoffel-Darboux polynomial of a non-degenerate design is
p(x) = v(x)^T M(w)^{-1} v(x); it is kept in factored form and evaluated at
(N, n) rows of points as ||L^{-1} v(x)||^2 with M = L L^T (`cd_profile`),
never expanded into coefficients here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spd
from .basis import (
    MultiIndexBasis,
    _row_blocks,
    _rows,
    enumerate_basis,
    moment_matrix,
    vandermonde,
)
from .errors import DegenerateDesignError, NotPositiveDefiniteError
from .semialg import CandidateSet

#: Largest deviation of sum(weights) from 1 that is silently renormalized.
WEIGHT_SUM_SLACK = 1e-9


@dataclass(frozen=True)
class DesignMeasure:
    """Candidate points with simplex weights (nonnegative, summing to one).

    Weight vectors whose sum is within 1e-9 of one are renormalized to absorb
    accumulated round-off; larger deviations are rejected as genuinely
    unnormalized input.
    """

    candidates: CandidateSet
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != self.candidates.size:
            raise ValueError(
                f"{w.shape[0]} weights for {self.candidates.size} candidate points"
            )
        if w.size and w.min() < 0.0:
            raise ValueError(f"negative weight {w.min()}")
        total = w.sum()
        if not abs(total - 1.0) <= WEIGHT_SUM_SLACK:  # also rejects NaN
            raise ValueError(f"weights sum to {total}, expected 1")
        w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.candidates.n

    @property
    def size(self) -> int:
        return self.candidates.size


@dataclass(frozen=True)
class CDPolynomial:
    """Christoffel-Darboux polynomial of a design, held as a factorization.

    p(x) = v(x)^T M^{-1} v(x) is evaluated as ||L^{-1} v(x)||^2, with L^{-1}
    formed once per factor (`spd.SpdFactor.inv_chol`) and applied to every
    point at once.
    Positive definiteness of M makes p a sum of squares, so p(x) >= 0
    everywhere, and p(x) > 0 since the constant basis component is 1.
    """

    basis: MultiIndexBasis
    factor: spd.SpdFactor

    @property
    def n_d(self) -> int:
        return self.basis.size


def moment_vector(mu: DesignMeasure, d: int) -> np.ndarray:
    """Degree-2d moment vector: y_a = sum_i w_i x_i^a for all |a| <= 2d,
    in the order of `enumerate_basis(n, 2d)`."""
    v2 = vandermonde(enumerate_basis(mu.n, 2 * d), mu.candidates.points)
    return v2.T @ mu.weights


def assemble_information(mu: DesignMeasure, d: int) -> spd.SpdFactor:
    """Factorize the information matrix M(w) = sum_i w_i v(x_i) v(x_i)^T.

    Assembly uses the rank-one-sum form directly, and p is then evaluated
    through the inverse of the triangular factor.  The solver takes the
    moment route on purpose (M from y = V2^T w, p from its degree-2d
    coefficients), which is cheaper per step; the certificate goes
    through here, so `certify` checks every solve by an independent
    numerical route.

    Raises:
        DegenerateDesignError: if M(w) is singular, i.e. the weighted
            candidates do not span the regression space.
    """
    # Compared before the basis is built, which costs time and memory in n_d.
    if mu.size < math.comb(mu.n + d, d):
        raise DegenerateDesignError(
            f"{mu.size} design points cannot determine the degree-{d} model"
        )
    basis = enumerate_basis(mu.n, d)
    v = vandermonde(basis, mu.candidates.points)
    m = (v * mu.weights[:, None]).T @ v
    try:
        return spd.factorize(m)
    except NotPositiveDefiniteError as err:
        raise DegenerateDesignError(
            f"design does not determine the degree-{d} model "
            f"(information matrix singular at pivot {err.pivot})"
        ) from err


def cd_polynomial(mu: DesignMeasure, d: int) -> CDPolynomial:
    """Christoffel-Darboux polynomial of a non-degenerate design."""
    factor = assemble_information(mu, d)
    return CDPolynomial(basis=enumerate_basis(mu.n, d), factor=factor)


def cd_profile(p: CDPolynomial, pts) -> np.ndarray:
    """Evaluate p at the rows of an (N, n) array of points, in order, one
    block of rows at a time (`_row_blocks`): only the N values and one block's
    v(x) and L^{-1} v(x) are held."""
    pts = _rows(pts, p.basis.n)
    out = np.empty(len(pts))
    for rows in _row_blocks(len(pts), 8 * p.n_d):
        out[rows] = spd.quad_form_inv_many(p.factor, vandermonde(p.basis, pts[rows]))
    return out
