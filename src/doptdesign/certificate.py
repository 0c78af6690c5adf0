"""Dual optimality certificates for designs on a candidate set.

The certificate pairs the design with the scaled inverse information matrix
X = (n_d / p_max) M(w)^{-1}.  The scaling makes the dual constraint
q(x) = v(x)^T X v(x) <= n_d hold at every training candidate for EVERY
iterate, not only in the limit, so weak duality is a running numerical check:

    primal = -log det M(w)      dual = log det X
    gap    = primal - dual      = n_d log(p_max / n_d) >= 0

At optimality p_max -> n_d, recovering the unscaled X = M^{-1}, multiplier
z = -n_d, and gap 0.  Because X is positive definite, q is a sum of squares.
q is formed from p as n_d (p / p_max), by `_certified` alone, for
`dual_values` and for `eval-cd`, which tabulates p and q from one pass:
dividing first rounds p / p_max to at most 1 where p <= p_max, so q <= n_d
holds exactly at every training candidate.  This module holds the other half of
the paper's linear pair: `adjoint_expand`, the adjoint M_d* of the moment map
`design.moment_matrix`, gives the degree-2d coefficients of q as a plain
array.  Both maps are defined in `basis`, which alone reads their index map.

A certificate depends only on its design, its candidates and its degree:
`build_certificate` builds the design's Christoffel-Darboux polynomial and
derives every number from that polynomial's values, trusting none stored
elsewhere (a solver's p values, for one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .basis import MultiIndexBasis, adjoint_expand
from .design import CDPolynomial, DesignMeasure, cd_polynomial, cd_profile
from .errors import DegenerateDesignError, FloatRangeError, NotPositiveDefiniteError
from .semialg import CandidateSet, GridMembers


@dataclass(frozen=True)
class DualCertificate:
    """Scaled dual matrix, multiplier and duality gap of one design.

    Every number is derived from the design's own polynomial: p_values is p
    at every candidate and support_p is p at each design point, in the
    design's order.  dual_value is stated in the normalization where the
    mass constant cancels (objective log det X); dual_value_mass_form adds
    the constant n_d + z_hat from the general dual with the
    probability-mass multiplier.
    """

    polynomial: CDPolynomial
    x_hat: np.ndarray
    z_hat: float
    primal_value: float
    dual_value: float
    dual_value_mass_form: float
    gap: float
    p_max: float
    complementarity_residual: float
    support_p: np.ndarray
    p_values: np.ndarray

    @property
    def n_d(self) -> int:
        return self.polynomial.n_d

    @property
    def basis(self) -> MultiIndexBasis:
        return self.polynomial.basis


def _scaled(p: np.ndarray, n_d: int, p_max: float) -> np.ndarray:
    """q = n_d (p / p_max), written over p, for `_certified` and the
    complementarity residual."""
    p /= p_max
    p *= n_d
    return p


def build_certificate(
    design: DesignMeasure, candidates: CandidateSet, d: int
) -> DualCertificate:
    """Degree-d certificate of a design on a candidate set.

    X = (n_d / p_max) M^{-1} with p_max taken over all candidates, so the
    dual constraint holds on the training set by construction; the
    multiplier is z = -p_max.  The weighted mean of p over the design is
    identically n_d, so the true supremum of p is never below n_d; flooring
    the computed maximum there keeps the scale factor at most one, making
    gap = n_d log(p_max / n_d) exactly nonnegative.  dual_value is computed
    through an independent factorization of X, which doubles as the witness
    that the certified polynomial is a sum of squares; it agrees with
    primal_value - gap to round-off.

    Raises:
        DegenerateDesignError: if the design does not determine the
            degree-d model, or M(w) is so ill-conditioned that X, formed
            from its factor, fails the pivot test.
    """
    poly = cd_polynomial(design, d)
    n_d = poly.n_d
    p_values = cd_profile(poly, candidates.points)
    support_p = cd_profile(poly, design.candidates.points)
    p_max = max(float(p_values.max()), float(n_d))
    x_hat = (n_d / p_max) * spd.inverse(poly.factor)
    try:
        dual = spd.factorize(x_hat).log_det  # PD check doubles as SOS witness
    except NotPositiveDefiniteError as err:
        raise DegenerateDesignError(
            f"the scaled dual matrix is singular at pivot {err.pivot}: the "
            "design's information matrix is too ill-conditioned to certify"
        ) from err
    z_hat = -p_max
    support_q = _scaled(support_p.copy(), n_d, p_max)
    residual = float(np.sum(design.weights * (n_d - support_q)))
    return DualCertificate(
        polynomial=poly,
        x_hat=x_hat,
        z_hat=z_hat,
        primal_value=-poly.factor.log_det,
        dual_value=dual,
        dual_value_mass_form=dual + n_d + z_hat,
        gap=n_d * float(np.log(p_max / n_d)),
        p_max=p_max,
        complementarity_residual=residual,
        support_p=support_p,
        p_values=p_values,
    )


def _certified(cert: DualCertificate, p: np.ndarray, pts) -> np.ndarray:
    """q = n_d (p / p_max), written over p, the values of `cd_profile` at the
    rows of pts.

    Raises:
        FloatRangeError: if q is not a finite float at some point; the
            message names the first such row of pts.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = _scaled(p, cert.n_d, cert.p_max)
    finite = np.isfinite(q)
    if not finite.all():
        raise FloatRangeError(
            "the certified polynomial is not a finite float "
            f"at the point {np.asarray(pts)[np.argmin(finite)].tolist()}"
        )
    return q


def dual_values(cert: DualCertificate, pts) -> np.ndarray:
    """q(x) = v(x)^T X v(x) at the rows of an (N, n) array of points, formed
    from p (`cd_profile`) as n_d (p / p_max), never through X.

    Raises:
        FloatRangeError: if q is not a finite float at some point (q has
            degree 2d, so it can overflow where v(x) does not); the message
            names the first such point.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = cd_profile(cert.polynomial, pts)
    return _certified(cert, p, pts)


def validate_dual_feasibility(
    cert: DualCertificate, validation: CandidateSet | GridMembers
) -> tuple[float, np.ndarray]:
    """Worst violation of v(x)^T X v(x) <= n_d over a validation set.

    Returns the signed maximum of v^T X v - n_d and its argmax point, the
    first in the set's order on a tie.  A positive value means the level set
    of the certified polynomial pokes above n_d between training candidates:
    the training grid was too coarse.  A held grid is evaluated one block of
    its members at a time, so only one block's v(x) is ever formed.

    Raises:
        FloatRangeError: naming the first point, in the set's order, where q
            is not a finite float.
    """
    blocks = (
        [validation.points] if isinstance(validation, CandidateSet)
        else validation.blocks()
    )
    best, argmax_point = -np.inf, None
    for pts in blocks:
        vals = dual_values(cert, pts)
        i = int(np.argmax(vals))
        if vals[i] > best:  # q is finite, so the first block always enters
            best, argmax_point = vals[i], pts[i].copy()
    return float(best - cert.n_d), argmax_point
