"""The validation grid held as its membership mask and walked block by block.

`grid_members` fills the r^n mask and yields the members' points one block of
whole leading-axis slabs (about 2^16 grid points, cut by the package's one
block sizer `basis._row_blocks`) at a time, and
`validate_dual_feasibility` keeps a running maximum over the blocks.  Each
result must be the one a single pass over the materialized grid
(`grid_candidates`) gives, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from doptdesign import (
    CandidateSet,
    FloatRangeError,
    SemiAlgebraicSet,
    SparsePolynomial,
    SolverConfig,
    build_certificate,
    grid_candidates,
    solve,
    validate_dual_feasibility,
)
from doptdesign import spd
from doptdesign.basis import _row_blocks, vandermonde
from doptdesign.design import DesignMeasure
from doptdesign.semialg import grid_members

from oracles import reference_grid_mask

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
SIMPLEX_VERTICES = [[-1, -1, -1], [3, -1, -1], [-1, 3, -1], [-1, -1, 3]]

DISK = SemiAlgebraicSet(
    2,
    (SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}),),
    ((-1.0, 1.0),) * 2,
)

# The ball of radius 0.6 in [-1, 1]^4: on a 41-point axis one slab holds
# 41^3 = 68,921 grid points, more than a block, so each block is one slab.
BALL = SemiAlgebraicSet(
    4,
    (SparsePolynomial(4, {(0, 0, 0, 0): 0.36, **{
        tuple(2 * (i == j) for i in range(4)): -1.0 for j in range(4)}}),),
    ((-1.0, 1.0),) * 4,
)

INTERVAL = SemiAlgebraicSet(1, (), ((-1.0, 1.0),))


def uniform_certificate(points, d):
    """Degree-d certificate of the uniform design on `points`, which are
    also the candidates."""
    cands = CandidateSet(points=np.asarray(points, dtype=float))
    design = DesignMeasure(candidates=cands, weights=np.full(cands.size, 1 / cands.size))
    return build_certificate(design, cands, d)


def solved_certificate(space, resolution, d):
    cands = grid_candidates(space, resolution)
    res = solve(cands, d, SolverConfig(max_iters=200))
    return build_certificate(res.design, cands, d)


def slab_blocks(grid):
    """The number of blocks a grid's slabs fall into: the one sizer's blocks
    of rows of r^(n - 1) float coordinates."""
    r, n = grid.mask.shape[0], grid.mask.ndim
    step = next(_row_blocks(r, 8 * r ** (n - 1))).stop
    return -(-r // step)


@pytest.mark.parametrize(
    ("space", "resolution", "cert", "blocks"),
    [
        pytest.param(SIMPLEX, 101, lambda: uniform_certificate(SIMPLEX_VERTICES, 1),
                     17, id="simplex-101^3"),
        pytest.param(DISK, 101, lambda: solved_certificate(DISK, 21, 4), 1,
                     id="disk-101^2"),
        pytest.param(BALL, 41, lambda: solved_certificate(BALL, 7, 2), 41,
                     id="ball-41^4"),
    ],
)
def test_streamed_validation_is_bitwise_the_materialized_one(
    space, resolution, cert, blocks
):
    cert = cert()
    grid = grid_members(space, resolution)
    assert slab_blocks(grid) == blocks
    whole = grid_candidates(space, resolution)
    streamed = list(grid.blocks())
    assert all(len(b) > 0 for b in streamed)
    assert np.concatenate(streamed).tobytes() == whole.points.tobytes()
    violation, point = validate_dual_feasibility(cert, grid)
    expected_violation, expected_point = validate_dual_feasibility(cert, whole)
    assert np.float64(violation).tobytes() == np.float64(expected_violation).tobytes()
    assert point.tobytes() == expected_point.tobytes()


def test_simplex_grid_has_a_partial_last_block():
    grid = grid_members(SIMPLEX, 101)
    sizes = [len(b) for b in grid.blocks()]
    assert len(sizes) == 17 and sum(sizes) == 175_778
    assert sizes[-1] < sizes[0]


def test_a_tie_across_blocks_keeps_the_first_point():
    # The design {-1, 1} at d = 1 has p = 1 + x^2, so q = 2 exactly at both
    # ends of [-1, 1].  On 2^17 + 1 points, -1 lies in the first block and 1
    # alone in the third.
    cert = uniform_certificate([[-1.0], [1.0]], 1)
    grid = grid_members(INTERVAL, 2**17 + 1)
    assert [len(b) for b in grid.blocks()] == [2**16, 2**16, 1]
    violation, point = validate_dual_feasibility(cert, grid)
    assert violation == 0.0
    assert point.tolist() == [-1.0]


def test_float_range_error_names_the_first_point_in_grid_order():
    # q has degree 4 and overflows near x = 1e77; on [0, 1.5e77] the first
    # such grid point lies past the first block.
    cert = uniform_certificate([[-1.0], [0.0], [1.0]], 2)
    space = SemiAlgebraicSet(1, (), ((0.0, 1.5e77),))
    resolution = 2**17 + 1
    with pytest.raises(FloatRangeError) as whole:
        validate_dual_feasibility(cert, grid_candidates(space, resolution))
    with pytest.raises(FloatRangeError) as streamed:
        validate_dual_feasibility(cert, grid_members(space, resolution))
    assert str(streamed.value) == str(whole.value)
    first_bad = float(str(whole.value).rsplit("[", 1)[1].rstrip("]"))
    assert first_bad > np.linspace(0.0, 1.5e77, resolution)[2**16 - 1]


@pytest.mark.parametrize(
    ("space", "resolution"), [(SIMPLEX, 101), (DISK, 301), (BALL, 41)]
)
def test_blockwise_mask_is_the_reference_mask(space, resolution):
    grid = grid_members(space, resolution)
    assert slab_blocks(grid) > 1
    expected = reference_grid_mask(
        space.bounding_box, [g.terms for g in space.inequalities], resolution
    )
    assert np.array_equal(grid.mask, expected)


def test_simplex_validation_peak_memory():
    # The 101^3 mask takes 1 MiB; the 175,778 members' points (4 MiB), their
    # Vandermonde rows and q are formed one block at a time.
    cert = uniform_certificate(SIMPLEX_VERTICES, 1)
    tracemalloc.start()
    try:
        violation, _ = validate_dual_feasibility(cert, grid_members(SIMPLEX, 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violation <= 1e-9
    assert peak <= 8 * 2**20


@pytest.mark.parametrize(
    "cert",
    [pytest.param(lambda: uniform_certificate(SIMPLEX_VERTICES, 1), id="vertices-d1"),
     pytest.param(lambda: solved_certificate(SIMPLEX, 11, 2), id="solved-d2")],
)
def test_simplex_validation_is_bitwise_one_product_over_every_member(cert):
    # dual_values forms q = n_d (p / p_max) one block of rows at a time; one
    # product over all 175,778 members gives the same maximum and argmax,
    # bit for bit.
    cert = cert()
    whole = grid_candidates(SIMPLEX, 101).points
    v = vandermonde(cert.basis, whole)
    q = cert.n_d * (spd.quad_form_inv_many(cert.polynomial.factor, v) / cert.p_max)
    i = int(np.argmax(q))
    violation, point = validate_dual_feasibility(cert, grid_members(SIMPLEX, 101))
    assert np.float64(violation).tobytes() == np.float64(q[i] - cert.n_d).tobytes()
    assert point.tobytes() == whole[i].tobytes()
