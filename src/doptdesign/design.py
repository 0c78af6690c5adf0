"""Design measures, moment assembly, and the Christoffel-Darboux polynomial.

A design is a probability measure w on a finite candidate set.  Its degree-2d
moment vector y collects the weighted monomial sums, and the information
matrix M(w) = sum_i w_i v(x_i) v(x_i)^T is the Gram matrix of the regression
functions under w.  The Christoffel-Darboux polynomial of a non-degenerate
design is p(x) = v(x)^T M(w)^{-1} v(x); it is kept in factored form and
evaluated through triangular solves, never expanded into coefficients here
(see `certificate.adjoint_expand` for the degree-2d expansion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spd
from .basis import (
    MultiIndexBasis,
    enumerate_basis,
    outer_position_map,
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
class MomentVector:
    """Moments of all monomials up to degree 2d under a design measure."""

    basis2d: MultiIndexBasis
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if y.shape[0] != self.basis2d.size:
            raise ValueError(
                f"moment vector has length {y.shape[0]}, basis size is {self.basis2d.size}"
            )
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class CDPolynomial:
    """Christoffel-Darboux polynomial of a design, held as a factorization.

    p(x) = v(x)^T M^{-1} v(x) is evaluated through one triangular solve per
    point, which is stable even when the moment matrix is poorly conditioned.
    Positive definiteness of M makes p a sum of squares, so p(x) >= 0
    everywhere, and p(x) > 0 since the constant basis component is 1.
    """

    basis: MultiIndexBasis
    factor: spd.SpdFactor
    n_d: int


def moment_vector(mu: DesignMeasure, d: int) -> MomentVector:
    """Degree-2d moment vector: y_a = sum_i w_i x_i^a for all |a| <= 2d."""
    basis2d = enumerate_basis(mu.n, 2 * d)
    v2 = vandermonde(basis2d, mu.candidates.points)
    return MomentVector(basis2d=basis2d, y=v2.T @ mu.weights)


def moment_matrix(y: MomentVector, d: int) -> np.ndarray:
    """Fill the symmetric moment matrix from a degree-2d moment vector."""
    basis = enumerate_basis(y.basis2d.n, d)
    if y.basis2d.d != 2 * d:
        raise ValueError(
            f"moment vector has degree {y.basis2d.d}, expected {2 * d}"
        )
    return y.y[outer_position_map(basis, y.basis2d)]


def assemble_information(mu: DesignMeasure, d: int) -> spd.SpdFactor:
    """Factorize the information matrix M(w) = sum_i w_i v(x_i) v(x_i)^T.

    Assembly uses the rank-one-sum form directly, and p is then evaluated by
    triangular solves on the factor.  The solver's loop takes the moment
    route on purpose (M from y = V2^T w, p from its degree-2d coefficients),
    which is cheaper per iteration; the certificate goes through here, so
    `certify` checks every solve by an independent numerical route.

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
    basis = enumerate_basis(mu.n, d)
    return CDPolynomial(basis=basis, factor=factor, n_d=basis.size)


def cd_profile(p: CDPolynomial, pts) -> np.ndarray:
    """Evaluate p at many points, preserving order."""
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        return np.zeros(0)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    v = vandermonde(p.basis, pts)
    return spd.quad_form_inv_many(p.factor, v)
