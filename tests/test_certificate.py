import numpy as np
import pytest

from doptdesign import (
    CandidateSet,
    SolverConfig,
    build_certificate,
    solve,
    validate_dual_feasibility,
)
from doptdesign.basis import enumerate_basis, vandermonde
from doptdesign.certificate import adjoint_expand, adjoint_identity_check
from doptdesign.design import DesignMeasure, moment_matrix, moment_vector
from doptdesign.errors import SizeMismatchError
from doptdesign.geometry import levelset_report
from doptdesign.spd import factorize

from oracles import monomial_design_matrix


def cands1d(points):
    return CandidateSet(points=np.asarray(points, dtype=float).reshape(-1, 1))


def design1d(points, weights):
    return DesignMeasure(
        candidates=cands1d(points), weights=np.asarray(weights, dtype=float)
    )


def solve_and_certify(cands, d, cfg=SolverConfig()):
    """The solver's result on `cands` and its design's degree-d certificate."""
    res = solve(cands, d, cfg)
    return res, build_certificate(res.design, cands, d)


def certify_pm_one():
    return solve_and_certify(cands1d([-1.0, 1.0]), 1)[1]


def test_adjoint_expand_identity_matrix():
    c = adjoint_expand(np.eye(2), enumerate_basis(1, 1))
    assert np.allclose(c, [1.0, 0.0, 1.0])  # 1 + x^2


def test_adjoint_expand_off_diagonal_doubles():
    c = adjoint_expand(np.array([[0.0, 1.0], [1.0, 0.0]]), enumerate_basis(1, 1))
    assert np.allclose(c, [0.0, 2.0, 0.0])  # 2x


def test_adjoint_expand_thirds_inverse():
    # Exact inverse of the quadratic Hankel matrix expands to the quartic
    # 3 - 4.5 x^2 + 4.5 x^4.
    inv = np.array([[3.0, 0.0, -3.0], [0.0, 1.5, 0.0], [-3.0, 0.0, 4.5]])
    c = adjoint_expand(inv, enumerate_basis(1, 2))
    assert np.allclose(c, [3.0, 0.0, -4.5, 0.0, 4.5])


def test_adjoint_expand_size_mismatch():
    with pytest.raises(SizeMismatchError):
        adjoint_expand(np.eye(3), enumerate_basis(1, 1))


def test_adjoint_identity_diagonal():
    mu = design1d([-1.0, 0.25, 1.0], [0.3, 0.4, 0.3])
    y = moment_vector(mu, 1)
    basis = enumerate_basis(1, 1)
    m = moment_matrix(y, basis)
    x = np.eye(2)
    assert adjoint_identity_check(y, x, basis) < 1e-14
    assert abs(np.trace(m @ x) - (y[0] + y[2])) < 1e-14


def test_adjoint_identity_random():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        basis = enumerate_basis(n, d)
        n_d = basis.size
        total = int(rng.integers(n_d, 30))
        mu = DesignMeasure(
            candidates=CandidateSet(points=rng.uniform(-1, 1, size=(total, n))),
            weights=rng.dirichlet(np.ones(total)),
        )
        y = moment_vector(mu, d)
        x = rng.standard_normal((n_d, n_d))
        x = 0.5 * (x + x.T)
        assert adjoint_identity_check(y, x, basis) <= 1e-10


def test_adjoint_identity_point_mass_rank_one():
    x0 = np.array([0.3, -0.7])
    mu = DesignMeasure(
        candidates=CandidateSet(points=np.vstack([x0, x0 + 1.0])),
        weights=np.array([1.0, 0.0]),
    )
    y = moment_vector(mu, 1)
    basis = enumerate_basis(2, 1)
    x = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, -1.0], [0.0, -1.0, 3.0]])
    v = vandermonde(basis, x0[None])[0]
    target = v @ x @ v
    assert abs(np.sum(moment_matrix(y, basis) * x) - target) < 1e-12
    assert abs(adjoint_expand(x, basis) @ y - target) < 1e-12


def test_certificate_exact_optimum_pm_one():
    cert = certify_pm_one()
    assert abs(cert.gap) <= 1e-12
    assert np.allclose(cert.x_hat, np.eye(2), atol=1e-12)
    assert abs(cert.z_hat + 2.0) <= 1e-12
    assert abs(cert.primal_value) <= 1e-12
    assert abs(cert.dual_value) <= 1e-12
    assert abs(cert.complementarity_residual) <= 1e-12


def test_certificate_suboptimal_design():
    # Unbalanced weights on {-1, 1}: M = [[1, -0.2], [-0.2, 1]] and the gap
    # upper-bounds the true suboptimality (optimal value is 0).
    mu = design1d([-1.0, 1.0], [0.6, 0.4])
    m = monomial_design_matrix(mu.candidates.points, 1)
    m = (m * mu.weights[:, None]).T @ m
    assert np.allclose(m, [[1.0, -0.2], [-0.2, 1.0]])
    inv = np.linalg.inv(m)  # closed-form oracle for p at the atoms
    v = monomial_design_matrix(mu.candidates.points, 1)
    p = np.einsum("ij,jk,ik->i", v, inv, v)
    cert = build_certificate(mu, mu.candidates, 1)
    assert np.allclose(cert.p_values, p, rtol=1e-12, atol=0.0)
    assert abs(cert.gap - 2.0 * np.log(cert.p_max / 2.0)) <= 1e-12
    assert cert.gap > 0
    primal_opt = 0.0  # -log det at the balanced design
    assert cert.gap >= cert.primal_value - primal_opt - 1e-12


def test_certificate_depends_only_on_the_design_and_degree():
    # The degree-2 optimal design {-1, 0, 1} certified at degree 1 on the
    # 21-point grid: M = diag(1, 2/3), p(x) = 1 + 1.5 x^2, p_max = 2.5.
    grid = cands1d(np.linspace(-1.0, 1.0, 21))
    mu = design1d([-1.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3])
    v = monomial_design_matrix(mu.candidates.points, 1)
    inv = np.linalg.inv((v * mu.weights[:, None]).T @ v)
    v_grid = monomial_design_matrix(grid.points, 1)
    p = np.einsum("ij,jk,ik->i", v_grid, inv, v_grid)
    p_support = np.einsum("ij,jk,ik->i", v, inv, v)
    p_max = float(p.max())
    cert = build_certificate(mu, grid, 1)
    assert cert.n_d == 2 and cert.basis.d == 1
    assert abs(p_max - 2.5) <= 1e-12 and abs(cert.p_max - p_max) <= 1e-12
    assert np.allclose(cert.p_values, p, rtol=1e-12, atol=0.0)
    assert abs(cert.gap - 2.0 * np.log(1.25)) <= 1e-12
    residual = float(mu.weights @ (2.0 - (2.0 / p_max) * p_support))
    assert abs(residual - 0.4) <= 1e-12
    assert abs(cert.complementarity_residual - residual) <= 1e-12
    assert np.allclose(cert.x_hat, (2.0 / p_max) * inv, rtol=1e-12, atol=1e-15)


def test_weak_duality_on_every_iterate():
    grid = cands1d(np.linspace(-1, 1, 41))
    res = solve(
        grid, 2,
        SolverConfig(max_iters=200),
    )
    n_d = 3
    gaps = n_d * np.log(res.trace_p_max / n_d)
    assert (gaps >= -1e-10).all()


def test_gap_formula_consistency():
    # The reported gap (dual-final normalization) must agree with the raw
    # primal - dual difference computed through independent factorizations.
    grid = cands1d(np.linspace(-1, 1, 41))
    for iters in (3, 30, 300):
        _, cert = solve_and_certify(
            grid, 2, SolverConfig(max_iters=iters)
        )
        raw = cert.primal_value - cert.dual_value
        assert abs(cert.gap - raw) <= 1e-10 * (1.0 + abs(cert.gap))
        assert cert.gap >= 0.0


def test_converged_run_gap_and_residual_bounds():
    grid = cands1d(np.linspace(-1, 1, 51))
    eps = 1e-6
    res, cert = solve_and_certify(
        grid, 2,
        SolverConfig(epsilon=eps, max_iters=100_000),
    )
    assert res.converged
    assert 0.0 <= cert.gap <= cert.n_d * np.log1p(eps) + 1e-15
    assert abs(cert.complementarity_residual) <= cert.n_d * eps


def test_sos_witness_x_hat_factorizes():
    rng = np.random.default_rng(33)
    for _ in range(10):
        pts = rng.uniform(-1, 1, size=(12, 1))
        _, cert = solve_and_certify(
            CandidateSet(points=pts), 2,
            SolverConfig(max_iters=50),
        )
        factorize(cert.x_hat)  # raises if not positive definite


def test_validate_on_training_candidates():
    grid = cands1d(np.linspace(-1, 1, 21))
    _, cert = solve_and_certify(
        grid, 2, SolverConfig(max_iters=1000)
    )
    violation, _ = validate_dual_feasibility(cert, grid)
    assert violation <= 1e-10


def test_validate_fine_grid_degree_one():
    cert = certify_pm_one()
    fine = cands1d(np.linspace(-1, 1, 2001))
    violation, argmax_point = validate_dual_feasibility(cert, fine)
    assert violation <= 1e-10
    assert abs(abs(argmax_point[0]) - 1.0) < 1e-12  # p = 1 + x^2 peaks at +-1


def test_validate_detects_coarse_training_grid():
    # Optimal design on {-0.7, 0.6} has p greater than n_d beyond the hull.
    _, cert = solve_and_certify(cands1d([-0.7, 0.6]), 1)
    fine = cands1d(np.linspace(-1, 1, 2001))
    violation, argmax_point = validate_dual_feasibility(cert, fine)
    assert violation > 0
    assert abs(argmax_point[0]) >= 0.9


def test_contact_points_linear():
    cands = cands1d([-1.0, 0.0, 1.0])
    _, cert = solve_and_certify(cands, 1, SolverConfig())
    pts = levelset_report(cert, cands).contact
    assert sorted(pts[:, 0].tolist()) == [-1.0, 1.0]  # p(0) = 1 < 2


def test_contact_points_quadratic_all_three():
    cands = cands1d([-1.0, 0.0, 1.0])
    _, cert = solve_and_certify(cands, 2, SolverConfig(epsilon=1e-9))
    pts = levelset_report(cert, cands).contact
    assert sorted(pts[:, 0].tolist()) == [-1.0, 0.0, 1.0]


def test_contact_points_degenerate_tolerance():
    cands = cands1d([-1.0, 0.0, 1.0])
    _, cert = solve_and_certify(cands, 1, SolverConfig())
    rep = levelset_report(cert, cands, delta=float(cert.n_d))
    assert rep.contact.shape[0] == 3


def test_contact_contains_support():
    # An atom of weight w can sit up to n_d * epsilon / w below the ceiling
    # (complementarity bounds only the weighted sum), so the contact
    # guarantee covers the atoms of weight at least n_d epsilon / delta =
    # 1e-3: here, every atom of the design.
    rng = np.random.default_rng(19)
    cands = cands1d(np.sort(rng.uniform(-1, 1, size=25)))
    res, cert = solve_and_certify(
        cands, 2,
        SolverConfig(epsilon=1e-7, max_iters=100_000),
    )
    assert res.converged
    assert res.design.weights.min() >= 1e-3
    contact = set(map(tuple, levelset_report(cert, cands).contact))
    support = set(map(tuple, res.design.candidates.points))
    assert support <= contact


def test_expansion_of_inverse_matches_cd_eval():
    from doptdesign.design import cd_polynomial, cd_profile
    from doptdesign.spd import inverse

    mu = design1d([-1.0, -0.3, 0.4, 1.0], [0.3, 0.2, 0.2, 0.3])
    poly = cd_polynomial(mu, 2)
    coeffs = adjoint_expand(inverse(poly.factor), poly.basis)
    rng = np.random.default_rng(99)
    x = rng.uniform(-1, 1, size=(20, 1))
    direct = cd_profile(poly, x)
    expanded = vandermonde(enumerate_basis(1, 4), x) @ coeffs
    assert np.all(np.abs(expanded - direct) <= 1e-9 * np.maximum(1.0, direct))


def test_coefficients_round_trip_matches_quadratic_form():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        basis = enumerate_basis(n, d)
        x = rng.standard_normal((basis.size, basis.size))
        x = 0.5 * (x + x.T)
        coeffs = adjoint_expand(x, basis)
        basis2d = enumerate_basis(n, 2 * d)
        for _ in range(20):
            pt = rng.uniform(-1, 1, size=(1, n))
            v = vandermonde(basis, pt)[0]
            direct = v @ x @ v
            expanded = (vandermonde(basis2d, pt) @ coeffs)[0]
            assert abs(direct - expanded) <= 1e-9 * max(1.0, abs(direct))
