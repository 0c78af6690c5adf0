"""Design spaces described by polynomial inequalities, and their discretizations.

A design space is a compact set X = {x in box : g_1(x) >= 0, ..., g_m(x) >= 0}.
Membership uses closed inequalities compared exactly against zero; users who
want a fattened boundary should perturb the g_j themselves.  The continuous
space is replaced by a finite candidate set, either a uniform box grid
filtered by membership or an explicit point list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyCandidateSetError

MultiIndex = tuple[int, ...]


def _rows(pts, n: int) -> np.ndarray:
    """pts as a float array with one point of n coordinates per row."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionMismatchError(
            f"expected points of shape (N, {n}), got {pts.shape}"
        )
    return pts


@dataclass(frozen=True)
class SparsePolynomial:
    """Polynomial stored as a map from exponent tuple to coefficient.

    Zero coefficients are dropped on construction; all exponent tuples must
    have length n.
    """

    n: int
    terms: dict[MultiIndex, float]

    def __post_init__(self):
        clean: dict[MultiIndex, float] = {}
        for alpha, c in self.terms.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.n:
                raise DimensionMismatchError(
                    f"exponent tuple {alpha} has length {len(alpha)}, expected {self.n}"
                )
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = float(c)
            if c != 0.0:
                clean[alpha] = c
        object.__setattr__(self, "terms", clean)


def eval_poly_many(p: SparsePolynomial, pts) -> np.ndarray:
    """Evaluate p at each row of pts, an (N, p.n) array."""
    pts = _rows(pts, p.n)
    vals = np.zeros(pts.shape[0])
    for alpha, c in p.terms.items():
        term = np.full(pts.shape[0], c)
        for j, e in enumerate(alpha):
            if e:
                term *= pts[:, j] ** e
        vals += term
    return vals


@dataclass(frozen=True)
class SemiAlgebraicSet:
    """Compact design space: a bounding box intersected with g_j(x) >= 0.

    The bounding box is the user's compactness contract; points outside it are
    never members even when all inequalities hold.
    """

    n: int
    inequalities: tuple[SparsePolynomial, ...]
    bounding_box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        box = tuple((float(lo), float(hi)) for lo, hi in self.bounding_box)
        object.__setattr__(self, "bounding_box", box)
        if len(box) != self.n:
            raise DimensionMismatchError(
                f"bounding box has {len(box)} intervals, expected {self.n}"
            )
        for lo, hi in box:
            if not lo < hi:
                raise ValueError(f"empty box interval [{lo}, {hi}]")
        for g in self.inequalities:
            if g.n != self.n:
                raise DimensionMismatchError(
                    f"inequality in dimension {g.n}, set has dimension {self.n}"
                )


@dataclass(frozen=True)
class CandidateSet:
    """Finite list of admissible design points, in a fixed deterministic order."""

    points: np.ndarray  # shape (N, n)
    source: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError("candidate points must form a 2-d array")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def membership_mask(s: SemiAlgebraicSet, pts) -> np.ndarray:
    """Closed membership of each row of pts, an (N, s.n) array: inside the box
    and every g_j(x) >= 0."""
    pts = _rows(pts, s.n)
    mask = np.ones(pts.shape[0], dtype=bool)
    for j, (lo, hi) in enumerate(s.bounding_box):
        mask &= (pts[:, j] >= lo) & (pts[:, j] <= hi)
    for g in s.inequalities:
        if not mask.any():
            break
        mask &= eval_poly_many(g, pts) >= 0.0
    return mask


def grid_candidates(s: SemiAlgebraicSet, resolution: int) -> CandidateSet:
    """Uniform box grid with `resolution` points per axis, filtered by membership.

    Point order is row-major over the axes (first coordinate varies slowest),
    so the output is deterministic.

    Raises:
        EmptyCandidateSetError: if no grid point is a member.
    """
    if resolution < 2:
        raise ValueError(f"grid resolution must be >= 2, got {resolution}")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in s.bounding_box]
    pts = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, s.n)
    mask = membership_mask(s, pts)
    if not mask.any():
        raise EmptyCandidateSetError(
            f"no point of the {resolution}^{s.n} grid satisfies membership"
        )
    return CandidateSet(points=pts[mask], source=f"grid:{resolution}")


def explicit_candidates(s: SemiAlgebraicSet, pts) -> CandidateSet:
    """Filter an explicit point list by membership.

    Order is preserved; exact-coordinate duplicates are dropped keeping the
    first occurrence.

    Raises:
        EmptyCandidateSetError: if every point is rejected.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] == 0:
        raise EmptyCandidateSetError("empty candidate point list")
    seen: set[tuple[float, ...]] = set()
    kept: list[np.ndarray] = []
    mask = membership_mask(s, pts)
    for ok, row in zip(mask, pts):
        key = tuple(row)
        if ok and key not in seen:
            seen.add(key)
            kept.append(row)
    if not kept:
        raise EmptyCandidateSetError("all explicit candidate points were rejected")
    return CandidateSet(points=np.array(kept), source=f"explicit:{len(kept)}")
