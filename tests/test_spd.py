import numpy as np
import pytest

from doptdesign import DimensionMismatchError, NotPositiveDefiniteError
from doptdesign.spd import factorize, quad_form_inv_many
from doptdesign.spd import solve as spd_solve

from oracles import dense_quad_form_inv, reference_cholesky


def test_identity_factor():
    f = factorize(np.eye(3))
    assert np.allclose(f.chol, np.eye(3))
    assert f.log_det == 0.0


def test_known_two_by_two():
    # det [[4,2],[2,3]] = 8 by hand elimination: L = [[2,0],[1,sqrt(2)]].
    f = factorize(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(f.chol, [[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    assert abs(f.log_det - np.log(8.0)) < 1e-14


def test_indefinite_reports_pivot():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))  # second pivot 1 - 4 < 0
    assert exc.value.pivot == 1


def test_singular_rank_one_reports_pivot():
    u = np.array([1.0, 2.0, 3.0])
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factorize(np.outer(u, u))
    assert exc.value.pivot == 1


def test_scale_aware_threshold():
    # Tiny-but-positive second pivot relative to the matrix scale must fail.
    a = np.array([[1e8, 1e4], [1e4, 1.0 + 1e-12]])  # Schur complement ~ 1e-12
    with pytest.raises(NotPositiveDefiniteError):
        factorize(a)


def test_solve_identity():
    f = factorize(np.eye(3))
    b = np.array([1.0, 2.0, 3.0])
    assert np.allclose(spd_solve(f, b), b)


def test_solve_known_system():
    f = factorize(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert np.allclose(spd_solve(f, np.array([8.0, 7.0])), [1.25, 1.5])


def test_solve_scaled_identity():
    f = factorize(2.0 * np.eye(2))
    assert np.allclose(spd_solve(f, np.array([2.0, 4.0])), [1.0, 2.0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        spd_solve(factorize(np.eye(2)), np.ones(3))


def test_quad_form_identity():
    assert quad_form_inv_many(factorize(np.eye(2)), np.array([[3.0, 4.0]]))[0] == 25.0


def test_quad_form_diagonal():
    f = factorize(np.diag([4.0, 1.0]))
    assert quad_form_inv_many(f, np.array([[2.0, 0.0]]))[0] == 1.0


def test_quad_form_explicit_inverse_oracle():
    # A = [[4,2],[2,3]]: A^{-1} = (1/8) [[3,-2],[-2,4]], so v^T A^{-1} v at
    # v = (1,1) is (3 - 2 - 2 + 4)/8 = 3/8.
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    inv = np.array([[3.0, -2.0], [-2.0, 4.0]]) / 8.0
    v = np.array([1.0, 1.0])
    assert np.allclose(a @ inv, np.eye(2))
    expected = v @ inv @ v
    assert expected == 0.375
    assert abs(quad_form_inv_many(factorize(a), v[None])[0] - expected) < 1e-15


def test_log_det_examples():
    assert factorize(np.eye(5)).log_det == 0.0
    assert abs(factorize(np.diag([np.e, np.e])).log_det - 2.0) < 1e-14
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    assert abs(factorize(a).log_det - np.log(8.0)) < 1e-14


def test_log_det_matches_closed_forms():
    a2 = np.array([[3.0, 1.0], [1.0, 2.0]])  # det 5
    a3 = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, 1.0], [0.0, 1.0, 1.5]])
    det3 = (
        2.0 * (3.0 * 1.5 - 1.0) - 0.5 * (0.5 * 1.5 - 0.0) + 0.0
    )
    assert abs(factorize(a2).log_det - np.log(5.0)) < 1e-14
    assert abs(factorize(a3).log_det - np.log(det3)) < 1e-14


def test_reconstruction_random_spd():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(1, 51))
        b = rng.standard_normal((m, m))
        a = b.T @ b + np.eye(m)
        f = factorize(a)
        err = np.linalg.norm(f.chol @ f.chol.T - a) / np.linalg.norm(a)
        assert err <= 1e-10


def test_solve_then_multiply_recovers_rhs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(2, 30))
        b = rng.standard_normal((m, m))
        a = b.T @ b + np.eye(m)
        rhs = rng.standard_normal(m)
        x = spd_solve(factorize(a), rhs)
        assert np.linalg.norm(a @ x - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_quad_form_equals_solve_route():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = int(rng.integers(2, 20))
        b = rng.standard_normal((m, m))
        a = b.T @ b + np.eye(m)
        f = factorize(a)
        v = rng.standard_normal(m)
        q = quad_form_inv_many(f, v[None])[0]
        assert abs(q - v @ spd_solve(f, v)) <= 1e-12 * max(1.0, abs(q))


def test_matches_reference_elimination():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(2, 12))
        b = rng.standard_normal((m, m))
        a = b.T @ b + 0.5 * np.eye(m)
        ref, fail = reference_cholesky(a)
        assert fail is None
        assert np.allclose(factorize(a).chol, ref, rtol=1e-10, atol=1e-12)


def test_quad_form_many_matches_single():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 4))
    a = b.T @ b + np.eye(4)
    f = factorize(a)
    rows = rng.standard_normal((7, 4))
    batch = quad_form_inv_many(f, rows)
    for i, v in enumerate(rows):
        assert abs(batch[i] - dense_quad_form_inv(a, v)) < 1e-12


def test_quad_form_dimension_mismatch():
    f = factorize(np.eye(2))
    for rows in (np.ones((1, 3)), np.ones(2)):  # too wide; one row as a vector
        with pytest.raises(DimensionMismatchError):
            quad_form_inv_many(f, rows)
