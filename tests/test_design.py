import numpy as np
import pytest

from doptdesign import CandidateSet, DegenerateDesignError
from doptdesign.design import (
    DesignMeasure,
    assemble_information,
    cd_polynomial,
    cd_profile,
    moment_matrix,
    moment_vector,
)

from oracles import log_det_objective, monomial_design_matrix


def univariate_design(points, weights):
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    return DesignMeasure(
        candidates=CandidateSet(points=pts, source="test"),
        weights=np.asarray(weights, dtype=float),
    )


def random_design(rng, n, d_max_points=True, n_points=None):
    from doptdesign.basis import enumerate_basis

    d = int(rng.integers(1, 4))
    n_d = enumerate_basis(n, d).size
    total = n_points or int(rng.integers(n_d, 51))
    pts = rng.uniform(-1, 1, size=(total, n))
    w = rng.dirichlet(np.ones(total))
    mu = DesignMeasure(
        candidates=CandidateSet(points=pts, source="random"), weights=w
    )
    return mu, d


def test_moment_vector_two_point():
    mu = univariate_design([-1.0, 1.0], [0.5, 0.5])
    mv = moment_vector(mu, 1)
    assert np.allclose(mv.y, [1.0, 0.0, 1.0])


def test_moment_vector_point_mass_origin():
    mu = univariate_design([0.0, 0.0], [1.0, 0.0])
    mv = moment_vector(mu, 2)
    expected = np.zeros(5)
    expected[0] = 1.0
    assert np.allclose(mv.y, expected)


def test_moment_vector_three_point():
    mu = univariate_design([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(moment_vector(mu, 1).y, [1.0, 0.0, 2.0 / 3.0])


def test_moment_matrix_hankel_fill():
    mu = univariate_design([-1.0, 1.0], [0.5, 0.5])
    m = moment_matrix(moment_vector(mu, 1), 1)
    assert np.allclose(m, np.eye(2))


def test_moment_matrix_quadratic_hankel():
    mu = univariate_design([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    m = moment_matrix(moment_vector(mu, 2), 2)
    t = 2.0 / 3.0
    assert np.allclose(m, [[1.0, 0.0, t], [0.0, t, 0.0], [t, 0.0, t]])


def test_moment_matrix_point_mass_is_rank_one():
    mu = univariate_design([0.0, 0.5], [1.0, 0.0])
    m = moment_matrix(moment_vector(mu, 1), 1)
    e1 = np.array([1.0, 0.0])
    assert np.allclose(m, np.outer(e1, e1))


def test_assemble_two_point_identity():
    mu = univariate_design([-1.0, 1.0], [0.5, 0.5])
    f = assemble_information(mu, 1)
    assert abs(f.log_det) < 1e-14


def test_assemble_thirds_log_det():
    mu = univariate_design([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    f = assemble_information(mu, 2)
    assert abs(f.log_det - np.log(4.0 / 27.0)) < 1e-12


def test_assemble_single_atom_degenerate():
    mu = univariate_design([0.5, 0.5], [0.5, 0.5])  # one distinct point
    with pytest.raises(DegenerateDesignError):
        assemble_information(mu, 1)


def test_cd_eval_two_point():
    # M = I_2, so p(x) = 1 + x^2 and p(1) = 2 = n_d.
    mu = univariate_design([-1.0, 1.0], [0.5, 0.5])
    poly = cd_polynomial(mu, 1)
    assert abs(cd_profile(poly, [[1.0]])[0] - 2.0) < 1e-14
    assert abs(cd_profile(poly, [[0.0]])[0] - 1.0) < 1e-14


def test_cd_eval_thirds_quartic():
    # Exact inverse of the Hankel matrix gives p(x) = 3 - 4.5 x^2 + 4.5 x^4.
    mu = univariate_design([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    poly = cd_polynomial(mu, 2)
    for x in (-1.0, 0.0, 1.0):
        assert abs(cd_profile(poly, [[x]])[0] - 3.0) < 1e-12
    assert abs(cd_profile(poly, [[0.5]])[0] - 2.15625) < 1e-12


def test_cd_profile_matches_pointwise():
    mu = univariate_design([-1.0, 1.0], [0.5, 0.5])
    poly = cd_polynomial(mu, 1)
    pts = np.array([[-1.0], [0.0], [1.0]])
    prof = cd_profile(poly, pts)
    assert np.allclose(prof, [2.0, 1.0, 2.0])
    for (x,), value in zip(pts, prof):
        assert abs(value - (1.0 + x * x)) < 1e-14  # M = I_2


def test_cd_profile_empty():
    mu = univariate_design([-1.0, 1.0], [0.5, 0.5])
    assert cd_profile(cd_polynomial(mu, 1), []).size == 0


def test_cd_nonnegative_random():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        mu, d = random_design(rng, n)
        try:
            poly = cd_polynomial(mu, d)
        except DegenerateDesignError:
            continue
        pts = rng.uniform(-2, 2, size=(30, n))
        assert (cd_profile(poly, pts) >= 0).all()


def test_trace_identity_random():
    # sum_i w_i p(x_i) = n_d exactly: the weighted Gram of M^{-1} against M.
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        n = int(rng.integers(1, 4))
        mu, d = random_design(rng, n)
        try:
            poly = cd_polynomial(mu, d)
        except DegenerateDesignError:
            continue
        p = cd_profile(poly, mu.candidates.points)
        total = float(mu.weights @ p)
        assert abs(total - poly.n_d) <= 1e-10 * poly.n_d
        checked += 1


def test_assembly_paths_agree():
    # Rank-one-sum assembly vs Hankel fill from the moment vector.
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        mu, d = random_design(rng, n)
        v = monomial_design_matrix(mu.candidates.points, d)
        rank_one = (v * mu.weights[:, None]).T @ v
        hankel = moment_matrix(moment_vector(mu, d), d)
        assert np.allclose(rank_one, hankel, rtol=1e-12, atol=1e-14)


def test_permutation_invariance():
    rng = np.random.default_rng(31)
    mu, d = random_design(rng, 2)
    perm = rng.permutation(mu.size)
    mu_perm = DesignMeasure(
        candidates=CandidateSet(
            points=mu.candidates.points[perm], source="perm"
        ),
        weights=mu.weights[perm],
    )
    y1 = moment_vector(mu, d).y
    y2 = moment_vector(mu_perm, d).y
    assert np.allclose(y1, y2, rtol=1e-12, atol=1e-15)
    try:
        f1 = assemble_information(mu, d)
        f2 = assemble_information(mu_perm, d)
    except DegenerateDesignError:
        return
    assert abs(f1.log_det - f2.log_det) <= 1e-12 * max(1.0, abs(f1.log_det))
    x = rng.uniform(-1, 1, size=(1, 2))
    p1 = cd_profile(cd_polynomial(mu, d), x)[0]
    p2 = cd_profile(cd_polynomial(mu_perm, d), x)[0]
    assert abs(p1 - p2) <= 1e-12 * max(1.0, p1)


def test_objective_matches_slogdet_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        mu, d = random_design(rng, 1)
        try:
            f = assemble_information(mu, d)
        except DegenerateDesignError:
            continue
        v = monomial_design_matrix(mu.candidates.points, d)
        assert abs(f.log_det - log_det_objective(v, mu.weights)) < 1e-10


def test_weights_renormalized_within_slack():
    w = np.array([0.5, 0.5 + 5e-10])
    mu = univariate_design([-1.0, 1.0], w)
    assert abs(mu.weights.sum() - 1.0) < 1e-15


def test_weights_rejected_beyond_slack():
    for w in ([0.5, 0.6], [np.nan, np.nan]):  # a NaN sum is not within slack
        with pytest.raises(ValueError):
            univariate_design([-1.0, 1.0], w)


def test_negative_weights_rejected():
    with pytest.raises(ValueError):
        univariate_design([-1.0, 1.0], [1.2, -0.2])
