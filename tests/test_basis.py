import math

import numpy as np
import pytest

from doptdesign import DimensionMismatchError, FloatRangeError, InvalidDimensionError
from doptdesign.basis import enumerate_basis, vandermonde

from oracles import monomial_design_matrix, reference_products, reference_vandermonde


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
    # Memoized: one basis per (n, d), so its products map is built once.
    assert enumerate_basis(3, 4) is enumerate_basis(3, 4)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_products_match_brute_force_index_sums(n, d):
    # Covers the Hankel fill (n = 1), cross terms and doubled diagonals.
    products = enumerate_basis(n, d).products
    assert products.dtype == np.int64
    assert not products.flags.writeable
    assert np.array_equal(products, reference_products(n, d))


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(1, 5) for d in range(1, 7)] + [(45, 1)]
)
def test_products_index_the_pairwise_sums(n, d):
    # The definition: the degree-2d index at P[i, j] is indices[i] + indices[j].
    # At n = 45, d = 1 a mixed-radix key sum a_j 3^j would pass 2^63.
    b = enumerate_basis(n, d)
    idx = np.array(b.indices)
    doubled = np.array(enumerate_basis(n, 2 * d).indices)
    assert np.array_equal(doubled[b.products], idx[:, None, :] + idx[None, :, :])


def test_outer_product_matches_monomial_evaluation():
    rng = np.random.default_rng(7)
    for n, d in [(1, 2), (2, 2), (3, 1)]:
        b = enumerate_basis(n, d)
        b2 = enumerate_basis(n, 2 * d)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=(1, n))
            v = vandermonde(b, x)[0]
            outer = np.outer(v, v)
            via_map = vandermonde(b2, x)[0][b.products]
            assert np.allclose(outer, via_map, rtol=1e-12, atol=1e-14)


def test_vandermonde_rows_match_eval():
    b = enumerate_basis(2, 3)
    pts = np.random.default_rng(3).uniform(-1, 1, size=(11, 2))
    assert np.array_equal(vandermonde(b, pts), monomial_design_matrix(pts, 3))


@pytest.mark.parametrize("x", [1e80, np.inf, np.nan])
def test_vandermonde_rejects_monomials_beyond_the_float_range(x):
    # 1e80^4 = 1e320 overflows; the suite turns any RuntimeWarning into an
    # error, so this also checks that none is printed.
    with pytest.raises(FloatRangeError, match="degree <= 4"):
        vandermonde(enumerate_basis(2, 4), [[0.5, 0.5], [0.5, x]])


def test_vandermonde_keeps_large_finite_monomials():
    v = vandermonde(enumerate_basis(1, 3), [[1e80]])
    assert v[0].tolist() == [1.0, 1e80, 1e160, 1e240]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", range(1, 9))
def test_vandermonde_matches_vander_oracle_bitwise(n, d):
    # Random rows, -0.0, and rows whose monomials overflow (1e200^2) or are
    # NaN, planted at random places; the error names the first bad row.
    rng = np.random.default_rng(100 * n + d)
    basis = enumerate_basis(n, d)
    for trial in range(6):
        pts = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 40)), n))
        pts[rng.random(pts.shape) < 0.1] = -0.0
        if trial >= 2:
            rows = rng.integers(0, len(pts), int(rng.integers(1, 3)))
            cols = rng.integers(0, n, rows.size)
            pts[rows, cols] = rng.choice([1e200, -1e200, np.nan, np.inf], rows.size)
        expected, bad = reference_vandermonde(basis.indices, d, pts)
        if bad is None:
            got = vandermonde(basis, pts)
            assert got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()
        else:
            with pytest.raises(FloatRangeError) as err:
                vandermonde(basis, pts)
            assert str(err.value).endswith(f"at the point {pts[bad].tolist()}")
