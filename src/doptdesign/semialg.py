"""Design spaces described by polynomial inequalities, and their discretizations.

A design space is a compact set X = {x in box : g_1(x) >= 0, ..., g_m(x) >= 0}.
Membership uses closed inequalities compared exactly against zero; users who
want a fattened boundary should perturb the g_j themselves.  The continuous
space is replaced by a finite candidate set, either a uniform box grid
filtered by membership or an explicit point list.

One evaluator serves both: it takes each coordinate as its own array, and the
arrays broadcast together.  An explicit list passes its columns; a grid passes
its n axes of r points, each lying along its own dimension, so the grid's
(r^n, n) coordinate array is never formed.  Each polynomial, and each axis's
box test, is evaluated on the broadcast shape of only the coordinates it
uses: on a grid, a half-space x_j >= a costs r operations, not r^n.  The tests
are then combined into one membership mask of the full shape.

A grid's axis runs from lo to hi as x = mid + half t, t = (2i - (r-1)) /
(r-1), so on a box [-a, a] each point's mirror image is a point, exactly.
The signed permutations about 0 that verifiably map the set onto itself
(`_symmetry`: axis flips and swaps, checked exactly on the box and each g's
terms) then map the grid onto itself; membership is decided once per orbit
of grid cells, so the mask is exactly invariant, and a grid's candidates
keep their grid, which gives the orbit of each member to the solver.

A grid is held as its axes and its r^n membership mask (`GridMembers`).  The
mask is filled, and the members' points are built, one block of whole
leading-axis slabs (about 2^16 grid points) at a time, so no array of a
block's values or points outgrows the block: a sampled check such as the
certificate's walks the blocks and never holds every member at once.
`_first_equal_rows` alone matches equal rows, for an explicit list's
duplicates and for a report's design points in `cli`.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .basis import _row_blocks, _rows
from .errors import DimensionMismatchError, EmptyCandidateSetError

MultiIndex = tuple[int, ...]


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


def _values(p: SparsePolynomial, xs) -> np.ndarray:
    """p at the points whose j-th coordinates are xs[j], arrays that broadcast
    together: the columns of an (N, n) array, or a grid's axes, axis j lying
    along dimension j.

    Each term is c times x_j^e_j for j = 0, ..., n-1 in turn, and the terms are
    added to 0.0 in the order of p.terms, so every layout gives the same bits.
    The sums are formed out of place, so the result has the broadcast shape of
    only the coordinates p uses (0-d when p is constant), and each partial sum
    has the shape of the terms added so far."""
    vals = 0.0
    for alpha, c in p.terms.items():
        term = c
        for x, e in zip(xs, alpha):
            if e:
                term = term * x**e
        vals = vals + term
    return np.asarray(vals)


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
class Symmetry:
    """A group of signed permutations of the coordinates, about 0: generated
    by the sign flip of each axis in `flips` and by every permutation of the
    axes within each class of `classes` (classes of two or more axes).  The
    group with neither is trivial."""

    flips: tuple[int, ...] = ()
    classes: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class CandidateSet:
    """Finite list of admissible design points, in a fixed deterministic order."""

    points: np.ndarray  # shape (N, n)

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


def _members(s: SemiAlgebraicSet, xs, out=None) -> np.ndarray:
    """Closed membership of the points whose coordinates are xs (as for
    `_values`): inside the box and every g_j(x) >= 0.

    Each axis's box test and each g_j >= 0 is evaluated on the broadcast shape
    of the coordinates it uses, and tests of one shape are combined on that
    shape; once a combined test holds nowhere, no later test is evaluated.
    The combined tests then meet smallest first, and a grid's single-axis
    tests in axis order, so they fill the full shape in one pass.  The result
    is written to `out`, a bool array of the full broadcast shape, or to a new
    one allocated before any test runs."""
    if out is None:
        out = np.empty(np.broadcast_shapes(*(x.shape for x in xs)), dtype=bool)
    box = ((x >= lo) & (x <= hi) for x, (lo, hi) in zip(xs, s.bounding_box))
    tests: dict[tuple[int, ...], np.ndarray] = {}
    # Far outside the box g_j can overflow to inf or give NaN; the
    # comparison still decides membership there, so the warning is noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for ok in itertools.chain(box, (_values(g, xs) >= 0.0 for g in s.inequalities)):
            if ok.shape in tests:
                tests[ok.shape] &= ok
            else:
                tests[ok.shape] = ok
            if not tests[ok.shape].any():
                break
    *first, last = sorted(tests.values(), key=np.size)
    return np.logical_and(functools.reduce(np.logical_and, first, True), last, out=out)


def membership_mask(s: SemiAlgebraicSet, pts) -> np.ndarray:
    """Closed membership of each row of pts, an (N, s.n) array: inside the box
    and every g_j(x) >= 0."""
    return _members(s, _rows(pts, s.n).T)


def _symmetry(s: SemiAlgebraicSet) -> Symmetry:
    """The group of signed permutations about 0 that the set verifiably has.

    The flip of axis j counts when that axis's box is [-a, a] and no term of
    any g has an odd exponent in x_j; the swap of axes i and k counts when
    their boxes are equal and swapping the two exponents maps each g's terms
    onto themselves with equal coefficients.  Both checks are exact, on
    `SparsePolynomial.terms`.  Swaps that count are transitive, so the axes
    fall into classes, and all axes of a class flip or none does."""
    box, gs = s.bounding_box, s.inequalities
    flips = tuple(
        j for j, (lo, hi) in enumerate(box)
        if lo == -hi and not any(a[j] % 2 for g in gs for a in g.terms)
    )

    def swaps(i: int, k: int) -> bool:
        def swapped(a):
            a = list(a)
            a[i], a[k] = a[k], a[i]
            return tuple(a)

        return box[i] == box[k] and all(
            g.terms.get(swapped(a)) == c for g in gs for a, c in g.terms.items()
        )

    classes, placed = [], set()
    for i in range(s.n):
        if i not in placed:
            cls = (i, *(k for k in range(i + 1, s.n) if swaps(i, k)))
            placed.update(cls)
            if len(cls) > 1:
                classes.append(cls)
    return Symmetry(flips, tuple(classes))


def _axis(lo: float, hi: float, r: int) -> np.ndarray:
    """r points from lo to hi: x = mid + half t with t = (2i - (r-1)) / (r-1),
    ends set to lo and hi.  t is exactly antisymmetric, t[r-1-i] = -t[i], so
    on a box [-a, a] (mid 0, half a) every point's mirror image is a point."""
    t = (2.0 * np.arange(r) - (r - 1)) / (r - 1)
    x = (lo / 2 + hi / 2) + (hi / 2 - lo / 2) * t
    x[0], x[-1] = lo, hi
    return x


def _from_first_cells(group: Symmetry, grid: np.ndarray) -> None:
    """Give each cell of `grid`, an r^n array, the value at the first cell
    of its orbit in row-major order, in place.

    The first cell has each flipped axis's index folded to min(i, r-1-i)
    and then each class's indices sorted ascending (`_first_cells`).  The
    sort is a bubble sort of compare-exchanges of two axes, and a
    compare-exchange is the transposed array read where the first index
    exceeds the second; reading the grid at the sorted, folded cell applies
    the compare-exchanges last to first, then the folds.  Views only: a
    compare-exchange copies the cells below the diagonal of its two axes
    one row at a time, so no temporary the size of the grid is formed."""
    r = grid.shape[0]
    for cls in group.classes:
        pairs = [(a, b) for end in range(len(cls) - 1, 0, -1)
                 for a, b in zip(cls[:end], cls[1:end + 1])]
        for a, b in reversed(pairs):
            ab = np.moveaxis(grid, (a, b), (0, 1))
            for i in range(1, r):
                ab[i, :i] = ab[:i, i]
    for j in group.flips:
        along = np.moveaxis(grid, j, 0)
        along[(r + 1) // 2:] = along[: r // 2][::-1]


@dataclass(frozen=True)
class GridMembers:
    """The members of a uniform box grid: its n broadcast axes (axis j, of r
    points, lying along dimension j), its r^n membership mask and the
    verified group of its set (`_symmetry`), which maps the mask onto itself.

    `blocks` yields the members' points one block of whole leading-axis slabs
    at a time, so a walk over them holds one block's points, never all."""

    axes: tuple[np.ndarray, ...]
    mask: np.ndarray  # shape (r,) * n
    group: Symmetry

    def _slabs(self) -> Iterator[slice]:
        """Leading-axis slices of about 2^16 grid points each (`_row_blocks`)."""
        r, *rest = self.mask.shape
        return _row_blocks(r, 8 * math.prod(rest))

    def blocks(self) -> Iterator[np.ndarray]:
        """The members' points as (k, n) arrays, k >= 1, in row-major order
        over the axes (first coordinate varies slowest)."""
        lead, *rest = self.axes
        for slab in self._slabs():
            inside = self.mask[slab]
            if inside.any():
                coords = np.broadcast_arrays(lead[slab], *rest)
                yield np.stack([x[inside] for x in coords], axis=1)


def grid_members(s: SemiAlgebraicSet, resolution: int) -> GridMembers:
    """Uniform box grid with `resolution` points per axis (`_axis`), held as
    its membership mask.

    The r^n mask is allocated first, so a grid too large to hold fails at
    once; it is then filled one block of leading-axis slabs at a time through
    the grid's broadcast axes.  Under a nontrivial group (`_symmetry`) each
    orbit of cells then takes the membership of its first cell
    (`_from_first_cells`): the sum of an invariant g's terms can round differently
    at a cell and its swapped image, and this way the mask is exactly
    invariant.  A first cell is its own first cell, so the mask is rewritten
    in place.

    Raises:
        ValueError: if resolution < 2.
        EmptyCandidateSetError: if no grid point is a member.
    """
    if resolution < 2:
        raise ValueError(f"grid resolution must be >= 2, got {resolution}")
    axes = [_axis(lo, hi, resolution) for lo, hi in s.bounding_box]
    grid = GridMembers(
        tuple(np.meshgrid(*axes, indexing="ij", sparse=True)),
        np.empty((resolution,) * s.n, dtype=bool),
        _symmetry(s),
    )
    lead, *rest = grid.axes
    for slab in grid._slabs():
        _members(s, [lead[slab], *rest], out=grid.mask[slab])
    _from_first_cells(grid.group, grid.mask)
    if not grid.mask.any():
        raise EmptyCandidateSetError(
            f"no point of the {resolution}^{s.n} grid satisfies membership"
        )
    return grid


def _first_cells(group: Symmetry, shape: tuple[int, ...],
                 cells: np.ndarray) -> np.ndarray:
    """The first cell in row-major order of the orbit of each of `cells`,
    flat indices into a grid of the given shape, as flat indices: each
    flipped axis's index folded to min(i, r-1-i), then each class's indices
    sorted ascending.  The group acts on each class, and on each flipped
    axis outside a class, on its own, so the first cell is the one that
    comes first on each of them."""
    r = shape[0]
    index = np.stack(np.unravel_index(cells, shape))
    for j in group.flips:
        np.minimum(index[j], r - 1 - index[j], out=index[j])
    for cls in group.classes:
        index[list(cls)] = np.sort(index[list(cls)], axis=0)
    return np.ravel_multi_index(index, shape)


@dataclass(frozen=True)
class _GridCandidates(CandidateSet):
    """The members of a grid whose set has a nontrivial verified group, with
    the grid they were taken from (`grid_candidates`), which gives each
    member's orbit (`orbits`)."""

    grid: GridMembers

    def orbits(self) -> np.ndarray:
        """The orbit of each member under the grid's group, numbered 0, 1,
        ... in the order of their first members.

        The first cell of a member's orbit (`_first_cells`) is a member, as
        the mask is invariant, and it comes first among the orbit's members;
        a binary search of the members' flat grid indices finds its rank.
        Integer arithmetic on the members' indices only: no float key and no
        array the size of the grid."""
        cells = np.flatnonzero(self.grid.mask)
        first = _first_cells(self.grid.group, self.grid.mask.shape, cells)
        first = np.searchsorted(cells, first)
        return np.searchsorted(np.flatnonzero(first == np.arange(cells.size)), first)


def grid_candidates(s: SemiAlgebraicSet, resolution: int) -> CandidateSet:
    """Uniform box grid with `resolution` points per axis, filtered by
    membership (`grid_members`).

    The members' points are gathered from `grid_members`' blocks into one
    array, so the grid's own (r^n, n) coordinate array is never formed.  Point
    order is row-major over the axes (first coordinate varies slowest), so
    the output is deterministic.  Under a nontrivial group (`_symmetry`) the
    set keeps the grid, which gives each member's orbit when the solver asks
    (`_GridCandidates.orbits`).

    Raises:
        ValueError: if resolution < 2.
        EmptyCandidateSetError: if no grid point is a member.
    """
    grid = grid_members(s, resolution)
    points = np.empty((np.count_nonzero(grid.mask), s.n))
    k = 0
    for block in grid.blocks():
        points[k : k + len(block)] = block
        k += len(block)
    if grid.group == Symmetry():
        return CandidateSet(points=points)
    return _GridCandidates(points=points, grid=grid)


def explicit_candidates(s: SemiAlgebraicSet, pts) -> CandidateSet:
    """Filter an explicit point list by membership.

    Order is preserved; exact-coordinate duplicates are dropped keeping the
    first occurrence.

    Raises:
        DimensionMismatchError: if pts is not an (N, n) array.
        EmptyCandidateSetError: if every point is rejected.
    """
    pts = _rows(pts, s.n)
    if pts.shape[0] == 0:
        raise EmptyCandidateSetError("empty candidate point list")
    members = pts[membership_mask(s, pts)]
    if members.shape[0] == 0:
        raise EmptyCandidateSetError("all explicit candidate points were rejected")
    first = _first_equal_rows(members)
    return CandidateSet(points=members[first == np.arange(len(members))])


def _first_equal_rows(rows: np.ndarray) -> np.ndarray:
    """For each row of an (N, n) array, the index of the first row equal to it
    as floats (-0.0 equals 0.0; a row holding a NaN is its own first).

    Only rows whose last coordinate repeats can equal another.  A stable sort
    of the last coordinate finds them; one stable lexsort of their rows puts
    equal rows next to each other in index order, each run led by its first."""
    by_last = np.argsort(rows[:, -1], kind="stable")
    last = rows[by_last, -1]
    tied = np.zeros(len(rows), dtype=bool)
    tied[1:] = last[1:] == last[:-1]
    tied[:-1] |= tied[1:]
    maybe = by_last[tied]
    del by_last, last, tied  # each array is freed once read
    # Contiguous columns as keys: np.lexsort copies a strided key first.
    order = maybe[np.lexsort([rows[maybe, j] for j in range(rows.shape[1])])]
    del maybe
    ranked = rows[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    del ranked
    first = np.arange(len(rows))
    first[order] = order[np.flatnonzero(starts)][np.cumsum(starts) - 1]
    return first
