import itertools

import numpy as np
import pytest

from doptdesign import (
    DimensionMismatchError,
    EmptyCandidateSetError,
    SemiAlgebraicSet,
    SparsePolynomial,
    grid_candidates,
)
from doptdesign.semialg import eval_poly_many, explicit_candidates, membership_mask


def unit_disk():
    g = SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    return SemiAlgebraicSet(
        n=2, inequalities=(g,), bounding_box=((-1.0, 1.0), (-1.0, 1.0))
    )


def box(n=1):
    return SemiAlgebraicSet(
        n=n, inequalities=(), bounding_box=tuple((-1.0, 1.0) for _ in range(n))
    )


def test_eval_poly_disk_center_and_corner():
    g = SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    assert eval_poly_many(g, [[0.0, 0.0], [1.0, 1.0]]).tolist() == [1.0, -1.0]


def test_eval_poly_cross_term():
    p = SparsePolynomial(2, {(1, 1): 1.0, (0, 0): 2.0})
    assert eval_poly_many(p, [[3.0, 4.0]]).tolist() == [14.0]


def test_eval_poly_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        eval_poly_many(SparsePolynomial(1, {(1,): 1.0}), [[1.0, 2.0]])


def test_zero_coefficients_dropped():
    p = SparsePolynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
    assert (1, 0) not in p.terms
    assert p.terms[(0, 1)] == 2.0


def test_membership_disk():
    s = unit_disk()
    # The boundary point (1, 0) is included.
    mask = membership_mask(s, [[0.5, 0.5], [1.0, 0.0], [0.9, 0.9]])
    assert mask.tolist() == [True, True, False]


def test_membership_box_only():
    mask = membership_mask(box(n=2), [[1.0, -1.0], [2.0, 0.0]])
    assert mask.tolist() == [True, False]


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        membership_mask(box(1), [[0.0, 0.0]])


def test_grid_interval():
    cands = grid_candidates(box(1), 3)
    assert cands.points.tolist() == [[-1.0], [0.0], [1.0]]


def test_grid_square_corners():
    cands = grid_candidates(box(2), 2)
    assert cands.points.tolist() == [
        [-1.0, -1.0],
        [-1.0, 1.0],
        [1.0, -1.0],
        [1.0, 1.0],
    ]


def test_grid_disk_resolution_three():
    # Oracle: enumerate the 9 grid points and test 1 - |x|^2 >= 0 directly.
    s = unit_disk()
    expected = [
        pt
        for pt in itertools.product([-1.0, 0.0, 1.0], repeat=2)
        if 1.0 - pt[0] ** 2 - pt[1] ** 2 >= 0.0
    ]
    cands = grid_candidates(s, 3)
    assert cands.points.tolist() == [list(pt) for pt in expected]
    assert cands.size == 5


def test_grid_box_count_is_resolution_power():
    for n, res in [(1, 7), (2, 5), (3, 4)]:
        assert grid_candidates(box(n), res).size == res**n


def test_grid_deterministic():
    a = grid_candidates(unit_disk(), 9)
    b = grid_candidates(unit_disk(), 9)
    assert np.array_equal(a.points, b.points)


def test_grid_members_all_satisfy_membership():
    pts = grid_candidates(unit_disk(), 11).points
    assert np.all(pts[:, 0] ** 2 + pts[:, 1] ** 2 <= 1.0)
    assert np.all(np.abs(pts) <= 1.0)


def test_grid_resolution_too_small():
    with pytest.raises(ValueError):
        grid_candidates(box(1), 1)


def test_grid_empty():
    far = SparsePolynomial(1, {(0,): -1.0})  # -1 >= 0 never holds
    s = SemiAlgebraicSet(n=1, inequalities=(far,), bounding_box=((-1.0, 1.0),))
    with pytest.raises(EmptyCandidateSetError):
        grid_candidates(s, 5)


def test_explicit_filters_outside_points():
    cands = explicit_candidates(box(1), [[-1.0], [0.5], [2.0]])
    assert cands.points.tolist() == [[-1.0], [0.5]]


def test_explicit_drops_duplicates_keeps_first():
    cands = explicit_candidates(box(1), [[0.5], [-1.0], [0.5]])
    assert cands.points.tolist() == [[0.5], [-1.0]]


def test_explicit_all_rejected():
    with pytest.raises(EmptyCandidateSetError):
        explicit_candidates(box(1), [[3.0], [4.0]])


def test_bad_bounding_box():
    with pytest.raises(ValueError):
        SemiAlgebraicSet(n=1, inequalities=(), bounding_box=((1.0, -1.0),))
