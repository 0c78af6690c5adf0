import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doptdesign import (
    CandidateSet,
    DimensionMismatchError,
    EmptyCandidateSetError,
    SemiAlgebraicSet,
    SparsePolynomial,
    grid_candidates,
)
from doptdesign.semialg import (
    _first_equal_rows,
    _members,
    _values,
    explicit_candidates,
    membership_mask,
)

from oracles import (
    grid_axis,
    orbit_first_points,
    product_grid,
    reference_first_rows,
    reference_members,
    reference_symmetry,
    reference_values,
)


def unit_disk():
    g = SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    return SemiAlgebraicSet(
        n=2, inequalities=(g,), bounding_box=((-1.0, 1.0), (-1.0, 1.0))
    )


def box(n=1):
    return SemiAlgebraicSet(
        n=n, inequalities=(), bounding_box=tuple((-1.0, 1.0) for _ in range(n))
    )


def takes_value(g, pts, value):
    """Whether g is exactly `value` at each row of pts: membership in
    {g - value >= 0} and {value - g >= 0}, in a box holding every row."""
    zero = (0,) * g.n
    terms = dict(g.terms)
    terms[zero] = terms.get(zero, 0.0) - value
    above = SparsePolynomial(g.n, terms)
    below = SparsePolynomial(g.n, {a: -c for a, c in above.terms.items()})
    wide = SemiAlgebraicSet(g.n, (above, below), ((-1e3, 1e3),) * g.n)
    return membership_mask(wide, pts).tolist()


def test_eval_poly_disk_center_and_corner():
    g = SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    assert takes_value(g, [[0.0, 0.0], [1.0, 1.0]], 1.0) == [True, False]
    assert takes_value(g, [[0.0, 0.0], [1.0, 1.0]], -1.0) == [False, True]


def test_eval_poly_cross_term():
    p = SparsePolynomial(2, {(1, 1): 1.0, (0, 0): 2.0})
    assert takes_value(p, [[3.0, 4.0], [3.0, 3.0]], 14.0) == [True, False]


def test_eval_poly_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        membership_mask(box(1), [[1.0, 2.0]])


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


@pytest.mark.parametrize(
    "bounding_box, resolution",
    [
        (((-1.0, 2.0),), 7),
        (((-1.0, 1.0), (0.1, 0.7)), 9),
        (((-3.0, 1.0), (-0.3, 0.3), (1e-3, 5.0)), 6),
    ],
)
def test_grid_matches_product_oracle_bitwise(bounding_box, resolution):
    s = SemiAlgebraicSet(len(bounding_box), (), bounding_box)
    pts = grid_candidates(s, resolution).points
    expected = product_grid(bounding_box, resolution)
    assert pts.shape == expected.shape
    assert pts.tobytes() == expected.tobytes()


@st.composite
def design_spaces(draw):
    """A box in 1 to 4 dimensions and up to 3 sparse inequalities whose terms
    mix monomials such as x0 x1^2, constants and coefficients of both signs."""
    n = draw(st.integers(1, 4))
    bounding_box = []
    for _ in range(n):
        lo = draw(st.floats(-10.0, 10.0))
        bounding_box.append((lo, lo + draw(st.floats(1e-3, 20.0))))
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    terms = st.dictionaries(exponents, st.floats(-5.0, 5.0), min_size=1, max_size=4)
    inequalities = [SparsePolynomial(n, t) for t in draw(st.lists(terms, max_size=3))]
    return SemiAlgebraicSet(n, tuple(inequalities), tuple(bounding_box))


# x^4 - x^5 on [-1e80, 1e80] at 5 points: both powers overflow at |x| >= 5e79,
# to inf - (-inf) = inf below 0 and to inf - inf = NaN above it.
OVERFLOWING = SemiAlgebraicSet(
    1, (SparsePolynomial(1, {(4,): 1.0, (5,): -1.0}),), ((-1e80, 1e80),)
)


# The unit ball in [-1, 1]^3: every signed permutation maps it onto itself.
BALL_3D = SemiAlgebraicSet(
    3, (SparsePolynomial(3, {(0, 0, 0): 1.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0,
                             (0, 0, 2): -1.0}),), ((-1.0, 1.0),) * 3
)


@settings(max_examples=150, deadline=None)
@given(space=design_spaces(), resolution=st.integers(2, 9))
@example(space=OVERFLOWING, resolution=5)
@example(space=BALL_3D, resolution=9)
def test_grid_matches_membership_on_product_oracle_bitwise(space, resolution):
    # The grid, tested through its broadcast axes, against every point of the
    # product grid tested row by row, at the first point of its orbit under
    # the set's signed permutations (the trivial group for most spaces).
    pts = product_grid(space.bounding_box, resolution)
    group = reference_symmetry(
        space.bounding_box, [g.terms for g in space.inequalities]
    )
    with np.errstate(over="ignore", invalid="ignore"):
        expected = pts[membership_mask(space, orbit_first_points(pts, *group))]
        if expected.shape[0] == 0:
            with pytest.raises(EmptyCandidateSetError):
                grid_candidates(space, resolution)
            return
        got = grid_candidates(space, resolution).points
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_overflowing_example_has_inf_and_nan_values():
    x = np.linspace(-1e80, 1e80, 5).reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _values(OVERFLOWING.inequalities[0], x.T)
        assert membership_mask(OVERFLOWING, x).tolist() == [
            True, True, True, False, False
        ]
    assert vals[0] == np.inf and np.isnan(vals[-1])


@st.composite
def axis_spaces(draw):
    """A box in 1 to 3 dimensions with up to 4 inequalities, each a constant,
    a polynomial in one coordinate (with or without a constant term), or one
    in several coordinates."""
    n = draw(st.integers(1, 3))
    bounding_box = []
    for _ in range(n):
        lo = draw(st.floats(-4.0, 4.0))
        bounding_box.append((lo, lo + draw(st.floats(1e-3, 8.0))))
    coeffs = st.floats(-5.0, 5.0)
    inequalities = []
    for kind in draw(st.lists(st.sampled_from(["constant", "axis", "mixed"]),
                              max_size=4)):
        const = {(0,) * n: draw(coeffs)}
        if kind == "constant":
            terms = const
        elif kind == "axis":
            j = draw(st.integers(0, n - 1))
            powers = draw(st.dictionaries(st.integers(1, 4), coeffs, min_size=1,
                                          max_size=3))
            terms = {tuple(e if i == j else 0 for i in range(n)): c
                     for e, c in powers.items()}
            if draw(st.booleans()):
                terms.update(const)
        else:
            exponents = st.tuples(*[st.integers(0, 3)] * n)
            terms = draw(st.dictionaries(exponents, coeffs, min_size=1, max_size=4))
        inequalities.append(SparsePolynomial(n, terms))
    return SemiAlgebraicSet(n, tuple(inequalities), tuple(bounding_box))


# x^4 - x^5 >= 0 on the second axis of [-1, 1] x [-1e80, 1e80]: its values at
# the axis's ends are inf and NaN, on one axis only.  The second inequality
# uses both coordinates and stays finite.
OVERFLOWING_AXIS = SemiAlgebraicSet(
    2,
    (SparsePolynomial(2, {(0, 4): 1.0, (0, 5): -1.0}),
     SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1e-161})),
    ((-1.0, 1.0), (-1e80, 1e80)),
)


@settings(max_examples=150, deadline=None)
@given(space=axis_spaces(), resolution=st.integers(2, 7))
@example(space=OVERFLOWING, resolution=5)
@example(space=OVERFLOWING_AXIS, resolution=5)
def test_grid_membership_matches_full_shape_oracle_bitwise(space, resolution):
    # Each inequality evaluated on its own coordinates' shape gives, once
    # broadcast, the bits of the evaluation on the full grid, and membership
    # gives the full-shape mask as an array of its own.
    axes = [grid_axis(lo, hi, resolution) for lo, hi in space.bounding_box]
    xs = np.meshgrid(*axes, indexing="ij", sparse=True)
    full = (resolution,) * space.n
    with np.errstate(over="ignore", invalid="ignore"):
        for g in space.inequalities:
            got = _values(g, xs)
            assert got.ndim <= space.n
            expected = reference_values(g.terms, xs)
            assert np.broadcast_to(got, full).tobytes() == expected.tobytes()
        mask = _members(space, xs)
        expected = reference_members(
            space.bounding_box, [g.terms for g in space.inequalities], xs
        )
    assert mask.shape == full and mask.flags.owndata and mask.flags.writeable
    assert np.array_equal(mask, expected)


def test_overflowing_axis_example_has_inf_and_nan_values():
    xs = np.meshgrid(*[np.linspace(lo, hi, 5) for lo, hi in
                       OVERFLOWING_AXIS.bounding_box], indexing="ij", sparse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _values(OVERFLOWING_AXIS.inequalities[0], xs)
        disk = _values(OVERFLOWING_AXIS.inequalities[1], xs)
    assert vals.shape == (1, 5) and disk.shape == (5, 5)
    assert vals[0, 0] == np.inf and np.isnan(vals[0, -1])
    assert np.isfinite(disk).all()


def test_membership_skips_inequalities_once_no_point_is_left():
    # x^2 overflows at 1e200; the suite turns that RuntimeWarning into an
    # error, so these pass only if x^2 is never evaluated: the points lie
    # outside the box, or the constant -1 >= 0 has already emptied the grid.
    square = SparsePolynomial(1, {(2,): 1.0})
    outside = SemiAlgebraicSet(1, (square,), ((-1.0, 1.0),))
    assert membership_mask(outside, [[1e200], [-1e200]]).tolist() == [False, False]
    never = SparsePolynomial(1, {(0,): -1.0})
    wide = SemiAlgebraicSet(1, (never, square), ((-1e200, 1e200),))
    with pytest.raises(EmptyCandidateSetError):
        grid_candidates(wide, 5)


SIMPLEX = SemiAlgebraicSet(
    3,
    (
        SparsePolynomial(3, {(1, 0, 0): 1.0, (0, 0, 0): 1.0}),
        SparsePolynomial(3, {(0, 1, 0): 1.0, (0, 0, 0): 1.0}),
        SparsePolynomial(3, {(0, 0, 1): 1.0, (0, 0, 0): 1.0}),
        SparsePolynomial(
            3, {(0, 0, 0): 1.0, (1, 0, 0): -1.0, (0, 1, 0): -1.0, (0, 0, 1): -1.0}
        ),
    ),
    ((-1.0, 3.0),) * 3,
)


def test_simplex_grid_peak_memory():
    # The 101^3 grid has 1.03M points; its (r^n, n) coordinate array alone
    # would take 24 MiB.  Membership through the broadcast axes needs one
    # r^n mask and one r^n value array at a time, plus the members' points.
    # 2,926 grid points lie on the face x + y + z = 1 in exact arithmetic,
    # so round-off in the axes decides how many of them are members.
    tracemalloc.start()
    try:
        cands = grid_candidates(SIMPLEX, 101)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cands.size == 175_778
    assert peak <= 32 * 2**20


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


def test_explicit_filters_far_points_without_a_warning():
    # g = 1 - x^2 overflows at 1e200, outside the box; the suite turns any
    # RuntimeWarning into an error, so this also checks that none is printed.
    g = SparsePolynomial(1, {(0,): 1.0, (2,): -1.0})
    s = SemiAlgebraicSet(n=1, inequalities=(g,), bounding_box=((-1.0, 1.0),))
    cands = explicit_candidates(s, [[-1.0], [0.5], [1.0], [1e200]])
    assert cands.points.tolist() == [[-1.0], [0.5], [1.0]]


def test_explicit_drops_duplicates_keeps_first():
    cands = explicit_candidates(box(1), [[0.5], [-1.0], [0.5]])
    assert cands.points.tolist() == [[0.5], [-1.0]]
    # -0.0 and 0.0 are one point; the first spelling is the one kept.
    rows = [[0.5, -0.0], [0.1, 0.2], [0.5, 0.0], [0.1, 0.2], [0.0, 0.3], [-0.0, 0.3]]
    cands = explicit_candidates(box(2), rows)
    expected = np.array([[0.5, -0.0], [0.1, 0.2], [0.0, 0.3]])
    assert cands.points.tobytes() == expected.tobytes()


def unique_rows_reference(s, pts):
    """Members of pts without repeats, the first occurrence of each kept, by
    np.unique on the rows' bytes (adding 0.0 turns -0.0 into 0.0)."""
    members = pts[membership_mask(s, pts)]
    _, first = np.unique(members + 0.0, axis=0, return_index=True)
    return members[np.sort(first)]


@pytest.mark.parametrize("seed", range(12))
def test_explicit_dedup_matches_unique_rows_reference(seed):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    size = int(rng.integers(1, 300))
    # Coarse values repeat often; uniform ones repeat only where planted.
    pts = np.where(
        rng.random((size, 1)) < 0.5,
        rng.integers(-3, 4, (size, n)) / 2.0,
        rng.uniform(-1.2, 1.2, (size, n)),
    )
    planted = rng.integers(0, size, size // 3)
    pts = np.insert(pts, rng.integers(0, size, planted.size), pts[planted], axis=0)
    pts[rng.random(pts.shape) < 0.2] = 0.0
    pts[rng.random(pts.shape) < 0.5] *= -1.0  # -0.0 where a zero is flipped
    assert (np.signbit(pts) & (pts == 0.0)).any()
    expected = unique_rows_reference(box(n), pts)
    if expected.shape[0] == 0:
        with pytest.raises(EmptyCandidateSetError):
            explicit_candidates(box(n), pts)
        return
    got = explicit_candidates(box(n), pts).points
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_explicit_rejects_a_flat_point_list():
    # A 1-D list is not read as a column: like every evaluator, the explicit
    # filter takes (N, n) rows only.
    with pytest.raises(DimensionMismatchError):
        explicit_candidates(box(1), [-1.0, 0.5])


def test_explicit_all_rejected():
    with pytest.raises(EmptyCandidateSetError):
        explicit_candidates(box(1), [[3.0], [4.0]])


@pytest.mark.parametrize(
    ("build", "kind", "message"),
    [
        (lambda: SparsePolynomial(2, {(1,): 1.0}), DimensionMismatchError,
         "exponent tuple (1,) has length 1, expected 2"),
        (lambda: SparsePolynomial(1, {(-1,): 1.0}), ValueError,
         "negative exponent in (-1,)"),
        (lambda: SemiAlgebraicSet(2, (), ((-1.0, 1.0),)), DimensionMismatchError,
         "bounding box has 1 intervals, expected 2"),
        (lambda: SemiAlgebraicSet(2, (SparsePolynomial(1, {(1,): 1.0}),),
                                  ((-1.0, 1.0),) * 2),
         DimensionMismatchError, "inequality in dimension 1, set has dimension 2"),
        (lambda: CandidateSet(points=np.zeros(3)), DimensionMismatchError,
         "candidate points must form a 2-d array"),
        (lambda: explicit_candidates(box(1), np.empty((0, 1))), EmptyCandidateSetError,
         "empty candidate point list"),
    ],
    ids=["exponent-length", "negative-exponent", "box-length", "inequality-dimension",
         "flat-candidates", "empty-point-list"],
)
def test_malformed_input_is_refused_with_its_message(build, kind, message):
    with pytest.raises(kind) as err:
        build()
    assert str(err.value) == message


def test_bad_bounding_box():
    with pytest.raises(ValueError):
        SemiAlgebraicSet(n=1, inequalities=(), bounding_box=((1.0, -1.0),))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]),
                 min_size=3, max_size=3),
        min_size=1, max_size=40,
    ),
    n=st.integers(1, 3),
    data=st.data(),
)
def test_explicit_dedup_matches_lexsort_oracle_bitwise(rows, n, data):
    # Few distinct values, so rows and last coordinates repeat often, with
    # both spellings of zero; a permutation of the same rows keeps the first
    # occurrence of each in the new order.
    pts = np.array(rows)[:, :n]
    perm = data.draw(st.permutations(range(len(pts))))
    for order in (range(len(pts)), perm):
        shuffled = pts[list(order)]
        members = shuffled[membership_mask(box(n), shuffled)]
        if members.shape[0] == 0:
            with pytest.raises(EmptyCandidateSetError):
                explicit_candidates(box(n), shuffled)
            continue
        got = explicit_candidates(box(n), shuffled).points
        expected = reference_first_rows(members)
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, np.nan]),
                 min_size=2, max_size=2),
        min_size=1, max_size=30,
    ),
    n=st.integers(1, 2),
)
@example(rows=[[0.0, 1.0], [np.nan, 1.0], [-0.0, 1.0], [np.nan, 1.0]], n=2)
def test_first_equal_rows_matches_brute_force(rows, n):
    # For each row, the first index whose row compares equal as floats:
    # -0.0 equals 0.0, and a row holding a NaN equals nothing, not even
    # itself, so it is its own first.
    pts = np.array(rows)[:, :n]
    expected = [
        next((j for j in range(i) if (pts[j] == pts[i]).all()), i)
        for i in range(len(pts))
    ]
    assert _first_equal_rows(pts).tolist() == expected
