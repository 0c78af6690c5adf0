"""Geometric reading of the dual certificate.

For degree 1 the dual constraint v(x)^T X v(x) <= n_d is a quadratic
inequality, so {x : v(x)^T X v(x) <= n_d} is an ellipsoid containing the
design space, and maximizing log det X shrinks it: the degree-1 design
problem is the minimum-volume enclosing ellipsoid problem.  For higher
degree the enclosing set {p(x) <= n_d} is a general sublevel set and only
the log-det volume proxy is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .basis import vandermonde
from .certificate import DualCertificate
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
    """Membership of a probe set in {p <= n_d}, plus the contact points."""

    degree2d: int
    threshold: float
    probe_points: np.ndarray
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


def extract_ellipsoid(cert: DualCertificate, n: int) -> Ellipsoid:
    """Rewrite a degree-1 certificate's level set in centered ellipsoid form.

    Raises:
        WrongDegreeError: if the certificate was not built at degree 1.
        NotAnEllipsoidError: if the quadratic block is not positive definite
            or the squared radius is not positive.
    """
    if cert.d != 1:
        raise WrongDegreeError(
            f"ellipsoid extraction needs a degree-1 certificate, got degree {cert.d}"
        )
    if n != cert.basis.n:
        raise DimensionMismatchError(
            f"certificate lives in dimension {cert.basis.n}, got {n}"
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
    """Evaluate the enclosing level set on a probe set.

    Contact points are probe points where the scaled polynomial reaches
    n_d - delta (default delta = n_d * 1e-4).
    """
    if delta is None:
        delta = cert.n_d * 1e-4
    v = vandermonde(cert.basis, probe.points)
    vals = np.einsum("ij,ij->i", v @ cert.x_hat, v)
    inside = vals <= cert.n_d * (1.0 + BOUNDARY_SLACK)
    contact = probe.points[vals >= cert.n_d - delta]
    return LevelSetReport(
        degree2d=2 * cert.d,
        threshold=float(cert.n_d),
        probe_points=probe.points,
        inside=inside,
        contact=contact,
    )
