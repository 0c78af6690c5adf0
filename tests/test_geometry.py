import numpy as np
import pytest

from doptdesign import CandidateSet, SolverConfig, build_certificate, solve
from doptdesign.certificate import dual_values
from doptdesign.errors import NotAnEllipsoidError, WrongDegreeError
from doptdesign.geometry import ellipsoid_from_quadratic, extract_ellipsoid

SQUARE = CandidateSet(
    points=np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
)


def contains(e, x):
    """Membership in the ellipsoid, with relative slack 1e-10 on the boundary."""
    diff = np.asarray(x, dtype=float) - e.center
    return float(diff @ e.shape @ diff) <= e.radius_sq * (1.0 + 1e-10)


def inside_levelset(cert, pts):
    """Membership of each row of pts in {q <= n_d}, with relative slack 1e-10
    on the boundary."""
    return dual_values(cert, pts) <= cert.n_d * (1.0 + 1e-10)


def square_cert():
    # The greedy start is three of the four vertices, so the solve must run
    # to epsilon 1e-12 for x_hat to match I_3 within 1e-10.
    cfg = SolverConfig(epsilon=1e-12)
    return build_certificate(solve(SQUARE, 1, cfg).design, SQUARE, 1)


def interval_cert():
    cands = CandidateSet(points=np.array([[-1.0], [1.0]]))
    return build_certificate(solve(cands, 1, SolverConfig()).design, cands, 1)


def thirds_cert():
    cands = CandidateSet(points=np.array([[-1.0], [0.0], [1.0]]))
    return build_certificate(
        solve(cands, 2, SolverConfig(epsilon=1e-9)).design, cands, 2
    )


def test_square_gives_ball_of_radius_sqrt_two():
    ell = extract_ellipsoid(square_cert())
    assert np.allclose(ell.center, 0.0, atol=1e-9)
    assert np.allclose(ell.shape, np.eye(2), atol=1e-9)
    assert abs(ell.radius_sq - 2.0) <= 1e-9
    assert abs(ell.log_volume_proxy) <= 1e-9  # -0.5 log det I


def test_interval_recovers_itself():
    # X = I_2, so p(x) = 1 + x^2 <= 2 means exactly |x| <= 1.
    ell = extract_ellipsoid(interval_cert())
    assert abs(ell.center[0]) <= 1e-12
    assert np.allclose(ell.shape, [[1.0]], atol=1e-12)
    assert abs(ell.radius_sq - 1.0) <= 1e-12


def test_wrong_degree_rejected():
    with pytest.raises(WrongDegreeError):
        extract_ellipsoid(thirds_cert())


def test_rank_deficient_block_rejected():
    x_hat = np.diag([1.0, 1.0, 0.0])  # degenerate quadratic block
    with pytest.raises(NotAnEllipsoidError):
        ellipsoid_from_quadratic(x_hat, 3.0)


def test_nonpositive_radius_rejected():
    x_hat = np.diag([5.0, 1.0, 1.0])  # constant term exceeds the level
    with pytest.raises(NotAnEllipsoidError):
        ellipsoid_from_quadratic(x_hat, 3.0)


def test_contains_boundary_and_outside():
    ell = extract_ellipsoid(square_cert())
    assert contains(ell, [1.0, 1.0])  # on the boundary
    assert not contains(ell, [1.5, 0.0])  # 2.25 > 2
    assert contains(ell, ell.center)


def test_levelset_membership_quadratic_design():
    cert = thirds_cert()
    # Exact quartic: p(x) = 3 - 4.5 x^2 + 4.5 x^4.
    p_outside = 3.0 - 4.5 * 1.2**2 + 4.5 * 1.2**4
    assert p_outside > 3.0
    probe = CandidateSet(points=np.array([[0.5], [1.2]]))
    # p(0.5) = 2.15625 <= 3 < p(1.2)
    assert inside_levelset(cert, probe.points).tolist() == [True, False]


def test_levelset_holds_on_training_grid():
    grid = CandidateSet(points=np.linspace(-1, 1, 31).reshape(-1, 1))
    res = solve(grid, 2, SolverConfig(max_iters=100_000))
    cert = build_certificate(res.design, grid, 2)
    assert inside_levelset(cert, grid.points).all()


def test_levelset_agrees_with_ellipsoid_at_degree_one():
    cert = square_cert()
    ell = extract_ellipsoid(cert)
    probe = CandidateSet(points=np.random.default_rng(14).uniform(-2, 2, size=(100, 2)))
    inside = inside_levelset(cert, probe.points)
    for x, ok in zip(probe.points, inside):
        assert ok == contains(ell, x)


def test_all_candidates_inside_converged_ellipsoid():
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1, 1, size=(40, 2))
    cloud = CandidateSet(points=pts)
    res = solve(cloud, 1, SolverConfig())
    assert res.converged
    ell = extract_ellipsoid(build_certificate(res.design, cloud, 1))
    for pt in pts:
        assert contains(ell, pt)


def test_levelset_report_square():
    cert = square_cert()
    probe = CandidateSet(
        points=np.array([[0.0, 0.0], [1.0, 1.0], [1.2, 0.3], [2.0, 2.0]]),
    )
    q = dual_values(cert, probe.points)
    # X = I_3, so q(x) = 1 + |x|^2.
    assert np.allclose(q, [1.0, 3.0, 2.53, 9.0], rtol=1e-12)
    assert inside_levelset(cert, probe.points).tolist() == [True, True, True, False]
    contact = probe.points[q >= cert.n_d - cert.n_d * 1e-4]  # q reaches n_d - delta
    assert [1.0, 1.0] in contact.tolist()


def test_minimality_of_square_certificate():
    # Local optimality witness: feasible perturbations of X = I_3 that keep
    # all four vertices inside the level set cannot increase log det.
    cert = square_cert()
    assert np.allclose(cert.x_hat, np.eye(3), atol=1e-10)
    e = np.eye(3)

    def sym(i, j):
        m = np.zeros((3, 3))
        m[i, j] = m[j, i] = 1.0
        return m

    directions = [
        -np.outer(e[0], e[0]),
        -np.outer(e[1], e[1]),
        -np.outer(e[2], e[2]),
        sym(1, 2) - np.outer(e[1], e[1]) - np.outer(e[2], e[2]),
        -sym(1, 2) - np.outer(e[1], e[1]) - np.outer(e[2], e[2]),
        sym(0, 1) - np.outer(e[0], e[0]) - np.outer(e[1], e[1]),
        -sym(0, 1) - np.outer(e[0], e[0]) - np.outer(e[1], e[1]),
        sym(0, 2) - np.outer(e[0], e[0]) - np.outer(e[2], e[2]),
    ]
    base = np.linalg.slogdet(cert.x_hat)[1]
    for direction in directions:
        x_pert = cert.x_hat + 1e-3 * direction
        # Perturbation must stay feasible at every vertex ...
        for pt in SQUARE.points:
            v = np.concatenate([[1.0], pt])
            assert v @ x_pert @ v <= 3.0 + 1e-12
        sign, val = np.linalg.slogdet(x_pert)
        assert sign > 0
        # ... and must not improve the dual objective.
        assert val <= base + 1e-12
