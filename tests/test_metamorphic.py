"""Metamorphic tests: transformations of the candidate set with a known effect
on the D-optimal design.

Relabelling the candidates changes nothing.  An affine map x -> Ax + b acts
on the degree-d polynomials as an invertible linear map T, so it leaves p
of a given design unchanged and multiplies det M by
det(T)^2 = |det A|^(2 C(n+d, n+1)).  The solver's greedy start depends on
the coordinates, so the iterates differ; only the optimal weights are
invariant, and the solves agree on them up to epsilon.  A signed
permutation of the coordinates that maps a symmetric set onto itself maps
its candidate grid and its validation grid onto themselves, exactly.
"""

import math

import numpy as np
import pytest

from doptdesign import (
    CandidateSet,
    SemiAlgebraicSet,
    SolverConfig,
    SparsePolynomial,
    grid_candidates,
    solve,
)
from doptdesign.design import assemble_information
from doptdesign.semialg import Symmetry, grid_members

CASES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2)]
CFG = SolverConfig(epsilon=1e-9)


def cloud(n, d):
    rng = np.random.default_rng(10 * n + d)
    return rng, rng.uniform(-1, 1, size=(60, n))


def run(points, d):
    return solve(CandidateSet(points=points), d, CFG)


@pytest.mark.parametrize("n,d", CASES)
def test_permuting_candidates_keeps_the_design(n, d):
    rng, pts = cloud(n, d)
    plain = run(pts, d)
    shuffled = run(pts[rng.permutation(len(pts))], d)
    assert plain.converged and shuffled.converged

    def atoms(res):
        return dict(zip(map(tuple, res.design.candidates.points.tolist()),
                        res.design.weights))

    a, b = atoms(plain), atoms(shuffled)
    assert a.keys() == b.keys()
    assert max(abs(a[x] - b[x]) for x in a) <= 1e-9


@pytest.mark.parametrize("n,d", CASES)
def test_affine_map_keeps_weights_and_shifts_log_det(n, d):
    rng, pts = cloud(n, d)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a_mat = q * rng.uniform(0.5, 2.0, size=n)  # singular values in [0.5, 2]
    b = rng.uniform(-0.5, 0.5, size=n)
    plain = run(pts, d)
    mapped = run(pts @ a_mat.T + b, d)
    assert plain.converged and mapped.converged

    # solve keeps candidate order, so the atoms correspond row by row.
    assert np.allclose(
        mapped.design.candidates.points,
        plain.design.candidates.points @ a_mat.T + b,
        rtol=0.0, atol=1e-12,
    )
    assert np.abs(mapped.design.weights - plain.design.weights).max() <= 1e-9
    shift = (
        assemble_information(mapped.design, d).log_det
        - assemble_information(plain.design, d).log_det
    )
    expected = 2 * math.comb(n + d, n + 1) * math.log(abs(np.linalg.det(a_mat)))
    assert abs(shift - expected) <= 1e-9


def ball(n):
    """The unit ball in [-1, 1]^n."""
    g = SparsePolynomial(n, {(0,) * n: 1.0, **{
        tuple(2 * (i == j) for i in range(n)): -1.0 for j in range(n)}})
    return SemiAlgebraicSet(n, (g,), ((-1.0, 1.0),) * n)


def generators(group: Symmetry, n: int):
    """The group's generators as (permutation, signs) of the coordinates:
    each flip, and each swap of neighbours within a class."""
    for j in group.flips:
        signs = np.ones(n)
        signs[j] = -1.0
        yield np.arange(n), signs
    for cls in group.classes:
        for a, b in zip(cls, cls[1:]):
            perm = np.arange(n)
            perm[[a, b]] = perm[[b, a]]
            yield perm, np.ones(n)


def by_rows(pts):
    """The indices that sort pts's rows lexicographically (-0.0 ties 0.0)."""
    return np.lexsort(pts.T[::-1])


@pytest.mark.parametrize("n,resolution,members,orbits", [
    (2, 101, 7_837, 1_023),
    (3, 31, 14_075, 411),
    (4, 15, 11_833, 106),
])
def test_each_generator_maps_the_candidate_grid_onto_itself(
        n, resolution, members, orbits):
    # Every signed permutation maps the ball onto itself, and each of the
    # group's generators maps the grid's points onto themselves and each
    # point into its own orbit.
    cands = grid_candidates(ball(n), resolution)
    group = Symmetry(tuple(range(n)), (tuple(range(n)),))
    assert cands.size == members and cands.grid.group == group
    ids = cands.orbits()
    assert ids.max() + 1 == orbits
    assert np.array_equal(np.unique(ids), np.arange(orbits))
    pts, here = cands.points, by_rows(cands.points)
    for perm, signs in generators(group, n):
        image = pts[:, perm] * signs
        there = by_rows(image)
        assert np.array_equal(image[there], pts[here])
        assert np.array_equal(ids[there], ids[here])


@pytest.mark.parametrize("n,resolution,members", [(3, 101, 523_233), (4, 15, 11_833)])
def test_each_generator_maps_the_validation_grid_onto_itself(n, resolution, members):
    # The validation grid is held as its axes and mask: a flip reverses an
    # axis, which is then the negated axis, and reverses the mask along it;
    # a swap transposes the mask.
    grid = grid_members(ball(n), resolution)
    assert grid.group == Symmetry(tuple(range(n)), (tuple(range(n)),))
    assert np.count_nonzero(grid.mask) == members
    axes = [x.reshape(-1) for x in grid.axes]
    for perm, signs in generators(grid.group, n):
        flipped = np.flatnonzero(signs < 0)
        image = grid.mask
        for j in flipped:
            assert np.array_equal(axes[j][::-1], -axes[j])
            image = np.flip(image, axis=j)
        image = np.transpose(image, perm)
        assert all(np.array_equal(axes[j], axes[k]) for j, k in enumerate(perm))
        assert np.array_equal(image, grid.mask)


def test_the_disk_and_the_interval_keep_their_members():
    disk = grid_candidates(ball(2), 101)
    assert disk.size == 7_837
    interval = grid_candidates(SemiAlgebraicSet(1, (), ((-1.0, 1.0),)), 401)
    assert interval.size == 401
    assert np.array_equal(interval.points[::-1], -interval.points)
