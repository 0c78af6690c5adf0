"""Metamorphic tests: transformations of the candidate set with a known effect
on the D-optimal design.

Relabelling the candidates changes nothing.  An affine map x -> Ax + b acts
on the degree-d polynomials as an invertible linear map T, so it leaves p
of a given design unchanged and multiplies det M by
det(T)^2 = |det A|^(2 C(n+d, n+1)).  The solver's greedy start depends on
the coordinates, so the iterates differ; only the optimal weights are
invariant, and the solves agree on them up to epsilon.
"""

import math

import numpy as np
import pytest

from doptdesign import CandidateSet, SolverConfig, solve
from doptdesign.design import assemble_information

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
