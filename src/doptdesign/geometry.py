"""Geometric reading of the dual certificate.

For degree 1 the dual constraint v(x)^T X v(x) <= n_d is a quadratic
inequality, so {x : v(x)^T X v(x) <= n_d} is an ellipsoid containing the
design space, and maximizing log det X shrinks it: the degree-1 design
problem is the minimum-volume enclosing ellipsoid problem.  For higher
degree the enclosing set {p(x) <= n_d} is a general sublevel set and only
the log-det volume proxy is reported.  `levelset_report` is the one
definition of that set on a probe set: which points lie inside it and which
touch its boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .certificate import DualCertificate, dual_values
from .errors import (
    DimensionMismatchError,
    NotAnEllipsoidError,
    NotPositiveDefiniteError,
    WrongDegreeError,
)
from .semialg import CandidateSet

#: Relative slack applied to boundary comparisons, absorbing round-off for
#: points exactly on the boundary.
BOUNDARY_SLACK = 1e-10


@dataclass(frozen=True)
class Ellipsoid:
    """The set {x : (x - center)^T shape (x - center) <= radius_sq}."""

    center: np.ndarray
    shape: np.ndarray
    radius_sq: float
    log_volume_proxy: float


@dataclass(frozen=True)
class LevelSetReport:
    """The certified polynomial q = v^T X v at each probe point (`values`),
    membership of each in {q <= n_d} (`inside`), and the probe points where
    q reaches n_d - delta (`contact`)."""

    values: np.ndarray
    inside: np.ndarray
    contact: np.ndarray


def ellipsoid_from_quadratic(x_hat: np.ndarray, n_d: float) -> Ellipsoid:
    """Centered form of {v_1(x)^T X v_1(x) <= n_d} over the basis (1, x).

    Partition X = [[a, b^T], [b, C]]; the level set reads
    (x - c)^T C (x - c) <= n_d - a + b^T C^{-1} b with center c = -C^{-1} b.

    Raises:
        NotAnEllipsoidError: if C is not positive definite or the squared
            radius is not positive (the quadratic does not bound a volume).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    a = float(x_hat[0, 0])
    b = x_hat[1:, 0].copy()
    c_block = x_hat[1:, 1:].copy()
    try:
        c_factor = spd.factorize(c_block)
    except NotPositiveDefiniteError as err:
        raise NotAnEllipsoidError(
            f"quadratic block is not positive definite (pivot {err.pivot})"
        ) from err
    cinv_b = spd.solve(c_factor, b)
    radius_sq = float(n_d) - a + float(b @ cinv_b)
    if not radius_sq > 0:
        raise NotAnEllipsoidError(f"squared radius {radius_sq} is not positive")
    return Ellipsoid(
        center=-cinv_b,
        shape=c_block,
        radius_sq=radius_sq,
        log_volume_proxy=-0.5 * c_factor.log_det,
    )


def extract_ellipsoid(cert: DualCertificate) -> Ellipsoid:
    """Rewrite a degree-1 certificate's level set in centered ellipsoid form.

    Raises:
        WrongDegreeError: if the certificate was not built at degree 1.
        NotAnEllipsoidError: if the quadratic block is not positive definite
            or the squared radius is not positive.
    """
    if cert.basis.d != 1:
        raise WrongDegreeError(
            "ellipsoid extraction needs a degree-1 certificate, "
            f"got degree {cert.basis.d}"
        )
    return ellipsoid_from_quadratic(cert.x_hat, cert.n_d)


def contains(e: Ellipsoid, x) -> bool:
    """Membership in the ellipsoid, with relative slack on the boundary."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != e.center.shape[0]:
        raise DimensionMismatchError(
            f"point has {x.shape[0]} coordinates, ellipsoid has {e.center.shape[0]}"
        )
    diff = x - e.center
    return float(diff @ e.shape @ diff) <= e.radius_sq * (1.0 + BOUNDARY_SLACK)


def levelset_report(
    cert: DualCertificate, probe: CandidateSet, delta: float | None = None
) -> LevelSetReport:
    """Evaluate the enclosing level set {q <= n_d} on a probe set.

    A point is inside when q <= n_d (1 + BOUNDARY_SLACK).  Contact points
    are probe points where q reaches n_d - delta (default delta =
    n_d * 1e-4, terminal solver accuracy with margin); with the training
    candidates as probe, at convergence they contain every support atom of
    weight at least n_d epsilon / delta, since p averages n_d over the
    design and exceeds it by at most n_d epsilon.
    """
    if delta is None:
        delta = cert.n_d * 1e-4
    if not delta > 0:
        raise ValueError(f"contact tolerance must be positive, got {delta}")
    values = dual_values(cert, probe.points)
    return LevelSetReport(
        values=values,
        inside=values <= cert.n_d * (1.0 + BOUNDARY_SLACK),
        contact=probe.points[values >= cert.n_d - delta],
    )
