import numpy as np
import pytest

from doptdesign import (
    CandidateSet,
    DegenerateDesignError,
    SolverConfig,
    TooFewCandidatesError,
    solve,
)
from doptdesign import solver

from oracles import (
    christoffel_values,
    log_det_objective,
    monomial_design_matrix,
    reference_exchange_multiplicative_step,
    simplex_grid_search,
)


def cands1d(points):
    return CandidateSet(points=np.asarray(points, dtype=float).reshape(-1, 1))


def objective(res, d):
    """log det M of the solver's design, by the slogdet oracle."""
    v = monomial_design_matrix(res.design.candidates.points, d)
    return log_det_objective(v, res.design.weights)


def p_values(res, cands, d):
    """p of the solver's design at every candidate, by the dense oracle."""
    design = res.design
    return christoffel_values(design.candidates.points, design.weights, cands.points, d)


THREE = cands1d([-1.0, 0.0, 1.0])
SQUARE = CandidateSet(
    points=np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
)


def test_init_uniform_three_points():
    # The first trace entry is the objective of the uniform start.
    res = solve(THREE, 1, SolverConfig(max_iters=1))
    v = monomial_design_matrix(THREE.points, 1)
    assert abs(res.trace_objective[0] - log_det_objective(v, np.full(3, 1 / 3))) < 1e-12


def test_init_uniform_too_few():
    with pytest.raises(TooFewCandidatesError):
        solve(cands1d([-1.0, 1.0]), 2, SolverConfig())  # n_d = 3 > 2


def test_init_uniform_collinear_degenerate():
    # Seven points on a line cannot identify the full bivariate quadratic
    # model (rank 3 < n_d = 6).
    t = np.linspace(-1, 1, 7)
    line = CandidateSet(points=np.column_stack([t, 2 * t]))
    with pytest.raises(DegenerateDesignError):
        solve(line, 2, SolverConfig())


def test_too_few_candidates_checked_before_the_basis(monkeypatch):
    # Degree 1000 in 2-D has n_d = 501,501 regression functions; the count
    # alone rejects two candidates, without enumerating the basis.
    def no_basis(n, d):
        raise AssertionError("enumerate_basis called")

    monkeypatch.setattr(solver, "enumerate_basis", no_basis)
    with pytest.raises(TooFewCandidatesError):
        solve(SQUARE, 1000, SolverConfig())


def test_mult_step_fixed_point_at_equal_p():
    # p = (2, 2) = n_d at both atoms: the uniform start is already optimal and
    # the solver returns it untouched.
    res = solve(cands1d([-1.0, 1.0]), 1, SolverConfig(max_iters=1))
    assert res.iterations == 0
    assert np.allclose(res.design.weights, [0.5, 0.5], atol=1e-15)


def test_mult_step_increases_objective():
    pts = [-1.0, -1 / 3, 1 / 3, 1.0]
    res = solve(cands1d(pts), 1, SolverConfig(max_iters=1))
    v = monomial_design_matrix(np.array(pts), 1)
    assert abs(res.trace_objective[0] - log_det_objective(v, np.full(4, 0.25))) < 1e-12
    assert res.trace_objective[1] > res.trace_objective[0]


def test_mult_step_preserves_simplex():
    rng = np.random.default_rng(15)
    cands = CandidateSet(points=rng.uniform(-1, 1, size=(12, 1)))
    res = solve(cands, 2, SolverConfig(max_iters=1))
    assert abs(res.design.weights.sum() - 1.0) <= 1e-12
    assert res.design.weights.min() >= 0.0


def test_solve_three_point_linear():
    cfg = SolverConfig(epsilon=1e-6)
    res = solve(THREE, 1, cfg)
    assert res.converged
    assert p_values(res, THREE, 1).max() <= 2.0 * (1 + 1e-6)
    # Brute-force simplex oracle confirms the objective.
    v = monomial_design_matrix(THREE.points, 1)
    oracle = simplex_grid_search(v, step=1e-3)
    assert abs(objective(res, 1) - oracle) <= 5e-3
    assert abs(objective(res, 1)) < 1e-9  # log det I_2
    w = {tuple(pt): w for pt, w in zip(res.design.candidates.points, res.design.weights)}
    assert abs(w[(-1.0,)] - 0.5) < 1e-6
    assert abs(w[(1.0,)] - 0.5) < 1e-6


def test_solve_interval_quadratic_grid():
    grid = cands1d(np.linspace(-1, 1, 201))
    cfg = SolverConfig(epsilon=1e-6, max_iters=200_000)
    res = solve(grid, 2, cfg)
    assert res.converged
    pts = sorted(res.design.candidates.points[:, 0].tolist())
    assert pts == [-1.0, 0.0, 1.0]
    assert np.allclose(np.sort(res.design.weights), [1 / 3, 1 / 3, 1 / 3], atol=1e-6)
    assert abs(objective(res, 2) - np.log(4.0 / 27.0)) < 1e-6


def test_solve_square_vertices():
    res = solve(SQUARE, 1, SolverConfig())
    assert res.converged
    assert np.allclose(res.design.weights, 0.25, atol=1e-9)
    assert abs(objective(res, 1)) < 1e-12  # M = I_3 by symmetry
    assert np.allclose(p_values(res, SQUARE, 1), 3.0, atol=1e-9)


def test_solve_iterates_stay_on_simplex():
    rng = np.random.default_rng(100)
    pts = rng.uniform(-1, 1, size=(15, 1))
    cands = CandidateSet(points=pts)
    res = solve(cands, 2, SolverConfig(max_iters=500))
    assert abs(res.design.weights.sum() - 1.0) <= 1e-12
    assert res.design.weights.min() >= 0.0


def test_solve_fixed_point_detection():
    # p(x_i) = n_d at all candidates: the solver stops immediately.
    res = solve(SQUARE, 1, SolverConfig())
    assert res.iterations == 0
    assert res.converged


def test_solve_objective_monotone_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(10):
        total = int(rng.integers(4, 12))
        pts = rng.uniform(-1, 1, size=(total, 1))
        cands = CandidateSet(points=pts)
        res = solve(
            cands, 2,
            SolverConfig(max_iters=400),
        )
        assert (np.diff(res.trace_objective) >= -1e-12).all()


def test_solve_pmax_never_below_nd():
    rng = np.random.default_rng(70)
    cands = CandidateSet(points=rng.uniform(-1, 1, size=(20, 1)))
    res = solve(cands, 2, SolverConfig(max_iters=300))
    assert (res.trace_p_max >= 3.0 - 1e-9).all()
    assert p_values(res, cands, 2).max() >= 3.0 - 1e-9


def test_solve_micro_oracle_equivalence():
    rng = np.random.default_rng(123)
    for _ in range(5):
        total = int(rng.integers(3, 6))
        pts = np.sort(rng.uniform(-1, 1, size=total))
        cands = cands1d(pts)
        res = solve(cands, 2, SolverConfig(epsilon=1e-8, max_iters=50_000))
        v = monomial_design_matrix(pts, 2)
        oracle = simplex_grid_search(v, step=1e-3)
        assert abs(objective(res, 2) - oracle) <= 5e-3


def test_solve_nonconvergence_is_not_an_error():
    grid = cands1d(np.linspace(-1, 1, 101))
    res = solve(grid, 3, SolverConfig(max_iters=25))
    assert not res.converged
    assert res.iterations == 25
    assert res.trace_objective.shape[0] == 26  # every evaluated iterate logged


def test_default_config_converges_on_simplex_cloud():
    # Degree-1 design on a seeded cloud inside the simplex with vertices
    # (-1,-1,-1), (3,-1,-1), (-1,3,-1), (-1,-1,3): the optimal design puts
    # mass 1/4 on each vertex, so M = diag(1, 4, 4, 4) and log det M = log 16.
    vertices = np.array(
        [[-1.0, -1.0, -1.0], [3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]]
    )
    rng = np.random.default_rng(2024)
    interior = rng.dirichlet(np.ones(4), size=300) @ vertices
    cands = CandidateSet(points=np.vstack([vertices, interior]))
    cfg = SolverConfig()
    res = solve(cands, 1, cfg)
    assert res.converged
    assert abs(objective(res, 1) - np.log(16.0)) <= 4 * np.log1p(cfg.epsilon)


def test_prune_drops_tiny_weight():
    # The loop's first exchange empties the atom at 0 (p(0) = 1 < n_d = 2),
    # and the returned design keeps only the atoms of positive weight.
    res = solve(THREE, 1, SolverConfig())
    assert not res.prune_rolled_back
    assert res.design.candidates.points[:, 0].tolist() == [-1.0, 1.0]
    assert np.allclose(res.design.weights, [0.5, 0.5])
    # The dropped row still passes the stop test: p(0) = 1 <= n_d.
    assert res.converged
    assert p_values(res, THREE, 1).tolist() == pytest.approx([2.0, 1.0, 2.0])


def test_prune_unchanged_when_all_above():
    res = solve(SQUARE, 1, SolverConfig())
    assert not res.prune_rolled_back
    assert np.array_equal(res.design.candidates.points, SQUARE.points)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_mult_step_matches_solver_iteration():
    # The solver's first update equals an independent exchange followed by a
    # multiplicative step.
    rng = np.random.default_rng(50)
    pts = rng.uniform(-1, 1, size=(9, 1))
    cands = CandidateSet(points=pts)
    v = monomial_design_matrix(pts, 2)
    stepped = reference_exchange_multiplicative_step(v, np.full(9, 1 / 9))
    res = solve(cands, 2, SolverConfig(max_iters=1))
    assert abs(res.trace_objective[1] - log_det_objective(v, stepped)) < 1e-12
    # The exchange empties its donor, and the design keeps the other atoms.
    held = stepped > 0.0
    assert not held.all()
    assert np.array_equal(res.design.candidates.points, pts[held])
    assert np.allclose(res.design.weights, stepped[held], rtol=1e-12, atol=0.0)


def test_exchange_interior_alpha_matches_solver_iteration():
    # Five points: the det-maximizing exchange (alpha ~ 0.114) stops short of
    # the donor's whole weight 0.2, so the closed-form alpha itself is tested,
    # not only the drop step.
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(5, 1))
    cands = CandidateSet(points=pts)
    v = monomial_design_matrix(pts, 2)
    stepped = reference_exchange_multiplicative_step(v, np.full(5, 0.2))
    res = solve(cands, 2, SolverConfig(max_iters=1))
    assert abs(res.trace_objective[1] - log_det_objective(v, stepped)) < 1e-12
    assert np.allclose(res.design.weights, stepped, rtol=1e-12, atol=0.0)
