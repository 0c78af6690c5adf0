"""Dual optimality certificates for designs on a candidate set.

The certificate pairs the design with the scaled inverse information matrix
X = (n_d / p_max) M(w)^{-1}.  The scaling makes the dual constraint
v(x)^T X v(x) <= n_d hold at every training candidate for EVERY iterate, not
only in the limit, so weak duality is a running numerical check:

    primal = -log det M(w)      dual = log det X
    gap    = primal - dual      = n_d log(p_max / n_d) >= 0

At optimality p_max -> n_d, recovering the unscaled X = M^{-1}, multiplier
z = -n_d, and gap 0.  Because X is positive definite, the polynomial
v(x)^T X v(x) is a sum of squares; its degree-2d coefficient expansion is
produced by the adjoint of the moment-matrix map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .basis import (
    MultiIndexBasis,
    enumerate_basis,
    outer_position_map,
    vandermonde,
)
from .design import MomentVector, assemble_information, moment_matrix
from .errors import SizeMismatchError
from .semialg import CandidateSet
from .solver import SolveResult


@dataclass(frozen=True)
class CDCoefficients:
    """Degree-2d coefficient vector of a quadratic form in the basis v(x)."""

    basis2d: MultiIndexBasis
    coeffs: np.ndarray

    def evaluate_many(self, pts) -> np.ndarray:
        return vandermonde(self.basis2d, np.asarray(pts, dtype=float)) @ self.coeffs


@dataclass(frozen=True)
class DualCertificate:
    """Scaled dual matrix, multiplier, duality gap and support report.

    dual_value is stated in the normalization where the mass constant cancels
    (objective log det X); dual_value_mass_form adds the constant n_d + z_hat
    from the general dual with the probability-mass multiplier.
    """

    d: int
    n_d: int
    basis: MultiIndexBasis
    x_hat: np.ndarray
    z_hat: float
    primal_value: float
    dual_value: float
    dual_value_mass_form: float
    gap: float
    p_max: float
    complementarity_residual: float
    support_points: np.ndarray
    support_weights: np.ndarray
    support_p: np.ndarray
    candidates: CandidateSet
    p_values: np.ndarray

    @property
    def support(self) -> list[tuple[tuple[float, ...], float, float]]:
        """Support report as (point, weight, p value) triples."""
        return [
            (tuple(pt), float(w), float(p))
            for pt, w, p in zip(
                self.support_points, self.support_weights, self.support_p
            )
        ]


def adjoint_expand(x_mat, basis_d: MultiIndexBasis) -> CDCoefficients:
    """Coefficients of the polynomial v(x)^T X v(x) in the degree-2d basis.

    The coefficient of the monomial a is the sum of X_ij over all index pairs
    with indices[i] + indices[j] = a (both triangles).  This is the adjoint of
    the moment-matrix map: trace(M(y) X) equals the returned coefficients
    dotted with y for every moment vector y.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    m = basis_d.size
    if x_mat.shape != (m, m):
        raise SizeMismatchError(
            f"matrix has shape {x_mat.shape}, basis needs ({m}, {m})"
        )
    basis2d = enumerate_basis(basis_d.n, 2 * basis_d.d)
    coeffs = np.zeros(basis2d.size)
    np.add.at(coeffs, outer_position_map(basis_d, basis2d), x_mat)
    return CDCoefficients(basis2d=basis2d, coeffs=coeffs)


def adjoint_identity_check(y: MomentVector, x_mat) -> float:
    """|trace(M(y) X) - <expand(X), y>|; zero in exact arithmetic."""
    x_mat = np.asarray(x_mat, dtype=float)
    if y.basis2d.d % 2 != 0:
        raise SizeMismatchError("moment vector degree must be even")
    d = y.basis2d.d // 2
    basis_d = enumerate_basis(y.basis2d.n, d)
    if x_mat.shape != (basis_d.size, basis_d.size):
        raise SizeMismatchError(
            f"matrix has shape {x_mat.shape}, expected ({basis_d.size}, {basis_d.size})"
        )
    lhs = float(np.sum(moment_matrix(y, d) * x_mat))
    rhs = float(adjoint_expand(x_mat, basis_d).coeffs @ y.y)
    return abs(lhs - rhs)


def build_certificate(result: SolveResult, d: int) -> DualCertificate:
    """Certificate of the solve result's final design.

    X = (n_d / p_max) M^{-1} with p_max taken over all original candidates,
    so the dual constraint holds on the training set by construction; the
    multiplier is z = -p_max.  The weighted mean of p over the design is
    identically n_d, so the true supremum of p is never below n_d; flooring
    the computed maximum there keeps the scale factor at most one, making
    gap = n_d log(p_max / n_d) exactly nonnegative.  dual_value is computed
    through an independent factorization of X, which doubles as the witness
    that the certified polynomial is a sum of squares; it agrees with
    primal_value - gap to round-off.
    """
    design = result.design
    basis = enumerate_basis(design.n, d)
    n_d = basis.size
    factor = assemble_information(design, d)
    p_max = max(result.p_max, float(n_d))
    x_hat = (n_d / p_max) * spd.inverse(factor)
    x_hat = 0.5 * (x_hat + x_hat.T)  # symmetrize away solve round-off
    primal = -factor.log_det
    dual = spd.factorize(x_hat).log_det  # PD check doubles as SOS witness
    z_hat = -p_max
    support_p = result.p_values[result.support_indices]
    residual = float(
        np.sum(design.weights * (n_d - (n_d / p_max) * support_p))
    )
    return DualCertificate(
        d=d,
        n_d=n_d,
        basis=basis,
        x_hat=x_hat,
        z_hat=z_hat,
        primal_value=primal,
        dual_value=dual,
        dual_value_mass_form=dual + n_d + z_hat,
        gap=n_d * float(np.log(p_max / n_d)),
        p_max=p_max,
        complementarity_residual=residual,
        support_points=design.candidates.points,
        support_weights=np.asarray(design.weights),
        support_p=support_p,
        candidates=result.candidates,
        p_values=result.p_values,
    )


def validate_dual_feasibility(
    cert: DualCertificate, validation: CandidateSet
) -> tuple[float, np.ndarray]:
    """Worst violation of v(x)^T X v(x) <= n_d over a validation set.

    Returns the signed maximum of v^T X v - n_d and its argmax point.  A
    positive value means the level set of the certified polynomial pokes
    above n_d between training candidates: the training grid was too coarse.
    """
    v = vandermonde(cert.basis, validation.points)
    vals = np.einsum("ij,ij->i", v @ cert.x_hat, v)
    i = int(np.argmax(vals))
    return float(vals[i] - cert.n_d), validation.points[i]


def contact_points(cert: DualCertificate, delta: float | None = None) -> np.ndarray:
    """Candidates where the scaled polynomial reaches its ceiling n_d - delta.

    At convergence this set contains every support atom of the pruned design.
    Default delta is n_d * 1e-4, matching terminal solver accuracy with
    margin.
    """
    if delta is None:
        delta = cert.n_d * 1e-4
    if not delta > 0:
        raise ValueError(f"contact tolerance must be positive, got {delta}")
    scaled = (cert.n_d / cert.p_max) * cert.p_values
    return cert.candidates.points[scaled >= cert.n_d - delta]
