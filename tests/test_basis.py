import math

import numpy as np
import pytest

from doptdesign import DimensionMismatchError, InvalidDimensionError
from doptdesign.basis import enumerate_basis, outer_position_map, vandermonde

from oracles import monomial_design_matrix


def test_enumerate_univariate_quadratic():
    b = enumerate_basis(1, 2)
    assert b.size == 3
    assert b.indices == ((0,), (1,), (2,))


def test_enumerate_bivariate_linear_order():
    b = enumerate_basis(2, 1)
    assert b.size == 3
    assert b.indices == ((0, 0), (1, 0), (0, 1))


def test_enumerate_trivariate_quadratic_size():
    assert enumerate_basis(3, 2).size == 10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_size_matches_binomial(n, d):
    assert enumerate_basis(n, d).size == math.comb(n + d, d)


@pytest.mark.parametrize("n,d", [(0, 2), (-1, 1), (1, 0), (2, -3)])
def test_invalid_dimensions_rejected(n, d):
    with pytest.raises(InvalidDimensionError):
        enumerate_basis(n, d)


def test_enumeration_deterministic():
    assert enumerate_basis(3, 4).indices == enumerate_basis(3, 4).indices


def test_no_duplicates():
    b = enumerate_basis(4, 5)
    assert len(set(b.indices)) == b.size


def test_degrees_are_graded():
    b = enumerate_basis(3, 4)
    degrees = [sum(a) for a in b.indices]
    assert degrees == sorted(degrees)
    assert max(degrees) == 4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_degree_d_basis_is_a_prefix_of_the_degree_2d_basis(n, d):
    # The solver reads the degree-d Vandermonde matrix as the first n_d
    # columns of the degree-2d one.
    basis = enumerate_basis(n, d)
    assert enumerate_basis(n, 2 * d).indices[: basis.size] == basis.indices


def test_eval_univariate():
    b = enumerate_basis(1, 2)
    assert np.allclose(vandermonde(b, [[2.0]]), [[1.0, 2.0, 4.0]])


def test_eval_bivariate_linear():
    b = enumerate_basis(2, 1)
    assert np.allclose(vandermonde(b, [[3.0, 5.0]]), [[1.0, 3.0, 5.0]])


def test_eval_at_origin_is_first_unit_vector():
    for n, d in [(1, 3), (2, 2), (3, 2)]:
        b = enumerate_basis(n, d)
        v = vandermonde(b, np.zeros((1, n)))[0]
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        vandermonde(enumerate_basis(2, 1), [[1.0, 2.0, 3.0]])


def test_outer_map_univariate_hankel():
    b, b2 = enumerate_basis(1, 1), enumerate_basis(1, 2)
    pos = outer_position_map(b, b2)
    assert b2.indices[pos[0, 0]] == (0,)
    assert b2.indices[pos[0, 1]] == (1,)
    assert b2.indices[pos[1, 1]] == (2,)


def test_outer_map_cross_term():
    b, b2 = enumerate_basis(2, 1), enumerate_basis(2, 2)
    assert b2.indices[outer_position_map(b, b2)[1, 2]] == (1, 1)


def test_outer_map_diagonal_doubles():
    b, b2 = enumerate_basis(2, 2), enumerate_basis(2, 4)
    pos = outer_position_map(b, b2)
    for k, alpha in enumerate(b.indices):
        assert b2.indices[pos[k, k]] == tuple(2 * e for e in alpha)


def test_outer_product_matches_monomial_evaluation():
    rng = np.random.default_rng(7)
    for n, d in [(1, 2), (2, 2), (3, 1)]:
        b = enumerate_basis(n, d)
        b2 = enumerate_basis(n, 2 * d)
        pos = outer_position_map(b, b2)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=(1, n))
            v = vandermonde(b, x)[0]
            outer = np.outer(v, v)
            via_map = vandermonde(b2, x)[0][pos]
            assert np.allclose(outer, via_map, rtol=1e-12, atol=1e-14)


def test_vandermonde_rows_match_eval():
    b = enumerate_basis(2, 3)
    pts = np.random.default_rng(3).uniform(-1, 1, size=(11, 2))
    assert np.array_equal(vandermonde(b, pts), monomial_design_matrix(pts, 3))
