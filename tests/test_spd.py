import numpy as np
import pytest

from doptdesign import DimensionMismatchError, NotPositiveDefiniteError
from doptdesign.spd import factorize, inverse, pivot_tolerance, quad_form_inv_many
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


@pytest.mark.parametrize(
    "shape",
    [(3,), (2, 3), (0, 0), (2, 2, 2)],
    ids=["vector", "wide", "empty", "stacked"],
)
def test_factorize_needs_a_non_empty_square_matrix(shape):
    with pytest.raises(DimensionMismatchError):
        factorize(np.ones(shape))


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


def first_failed_pivot(a):
    """The reference's first pivot that is not above factorize's tolerance."""
    tol = pivot_tolerance(a.shape[0], float(np.nanmax(a.diagonal())))
    low, fail = reference_cholesky(a)
    if fail is not None:  # the pivots before the failed column are valid
        low, _ = reference_cholesky(a[:fail, :fail])
        diag = np.append(low.diagonal(), 0.0)
    else:
        diag = low.diagonal()
    return int(np.flatnonzero(~(diag * diag > tol))[0])


def test_early_pivot_below_tolerance_is_reported_before_later_failure():
    # Pivot 1 is 2^-60 > 0, below the tolerance 4 eps max(diag) = 8 eps;
    # column 3 then fails with pivot -1/16, where LAPACK stops.
    a = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [2.0**-30, 2.0**-59, 0.0, 0.0],
        [0.5, 2.0**-31, 2.0, 0.0],
        [0.25, 0.0, 1.0, 0.5],
    ])
    assert reference_cholesky(a)[1] == 3
    assert first_failed_pivot(a) == 1
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factorize(a)
    assert exc.value.pivot == 1


def test_failed_pivot_matches_reference_on_random_matrices():
    rng = np.random.default_rng(21)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        b = rng.standard_normal((m, m))
        a = b @ b.T + np.eye(m)
        # Column j's pivot is 0 or -1, where the elimination stops.  Half the
        # time an earlier column i gets the positive pivot 1e-20, below the
        # tolerance, and no later entry of its column, so that the
        # elimination runs past it.
        j = int(rng.integers(1, m))
        a[j, :j] = 0.0
        a[j, j] = rng.choice([-1.0, 0.0])
        if rng.random() < 0.5:
            i = int(rng.integers(j))
            a[i, :i] = 0.0
            a[i, i] = 1e-20
            a[i + 1:, i] = 0.0
        expected = first_failed_pivot(a)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            factorize(a)
        assert exc.value.pivot == expected


@pytest.mark.parametrize("where", [(3, 1), (2, 2), (4, 0)])
def test_nan_entry_fails_at_its_pivot(where):
    rng = np.random.default_rng(4)
    b = rng.standard_normal((5, 5))
    a = b @ b.T + np.eye(5)
    a[where] = np.nan
    expected = first_failed_pivot(a)
    assert expected == where[0]
    with pytest.raises(NotPositiveDefiniteError) as exc:
        factorize(a)
    assert exc.value.pivot == expected


def test_upper_triangle_is_never_read():
    rng = np.random.default_rng(8)
    b = rng.standard_normal((6, 6))
    a = b @ b.T + np.eye(6)
    garbage = a.copy()
    upper = np.triu_indices(6, 1)
    garbage[upper] = rng.standard_normal(upper[0].size) * 1e6
    garbage[0, 5], garbage[1, 4] = np.nan, np.inf
    f, g = factorize(a), factorize(garbage)
    assert np.array_equal(f.chol, g.chol)
    assert f.log_det == g.log_det


def test_inv_chol_inverts_the_factor():
    rng = np.random.default_rng(13)
    for m in (1, 2, 5, 15, 40):
        b = rng.standard_normal((m, m))
        f = factorize(b @ b.T + np.eye(m))
        assert np.allclose(f.inv_chol @ f.chol, np.eye(m), atol=1e-12)
        assert np.allclose(np.triu(f.inv_chol, 1), 0.0, atol=1e-12)


def test_one_factor_forms_its_inverse_once(monkeypatch):
    # solve, inverse and quad_form_inv_many all read the factor's L^{-1};
    # np.linalg.inv runs on the first of them only.
    calls = []
    real_inv = np.linalg.inv

    def spy(x):
        calls.append(x.shape)
        return real_inv(x)

    a = np.array([[4.0, 2.0, 0.5], [2.0, 3.0, 1.0], [0.5, 1.0, 2.0]])
    f = factorize(a)
    monkeypatch.setattr(np.linalg, "inv", spy)
    x = spd_solve(f, np.ones(3))
    a_inv = inverse(f)
    q = quad_form_inv_many(f, np.eye(3))
    assert calls == [(3, 3)]
    assert np.allclose(a @ x, 1.0)
    assert np.allclose(a_inv @ a, np.eye(3))
    assert np.allclose(q, a_inv.diagonal())



def test_inverse_is_exactly_symmetric():
    # build_certificate scales this inverse into x_hat and does not
    # symmetrize it, so the product must come out symmetric to the bit.
    rng = np.random.default_rng(29)
    for m in range(1, 80, 2):
        b = rng.standard_normal((m, m)) * rng.uniform(1e-3, 1e3, m)
        for a in (b @ b.T + 1e-6 * np.eye(m), b @ b.T + m * np.eye(m)):
            a_inv = inverse(factorize(a))
            assert np.array_equal(a_inv, a_inv.T)
