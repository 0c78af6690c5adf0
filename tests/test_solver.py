import numpy as np
import pytest

from doptdesign import (
    CandidateSet,
    DegenerateDesignError,
    SolverConfig,
    TooFewCandidatesError,
    solve,
)
from doptdesign.solver import init_uniform

from oracles import (
    log_det_objective,
    monomial_design_matrix,
    reference_exchange_multiplicative_step,
    simplex_grid_search,
)


def cands1d(points):
    return CandidateSet(
        points=np.asarray(points, dtype=float).reshape(-1, 1), source="test"
    )


THREE = cands1d([-1.0, 0.0, 1.0])
SQUARE = CandidateSet(
    points=np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]),
    source="square",
)


def test_init_uniform_three_points():
    mu = init_uniform(THREE, 1)
    assert np.allclose(mu.weights, [1 / 3, 1 / 3, 1 / 3])


def test_init_uniform_too_few():
    with pytest.raises(TooFewCandidatesError):
        init_uniform(cands1d([-1.0, 1.0]), 2)  # n_d = 3 > 2


def test_init_uniform_collinear_degenerate():
    # Seven points on a line cannot identify the full bivariate quadratic
    # model (rank 3 < n_d = 6).
    t = np.linspace(-1, 1, 7)
    line = CandidateSet(points=np.column_stack([t, 2 * t]), source="line")
    with pytest.raises(DegenerateDesignError):
        init_uniform(line, 2)


def test_mult_step_fixed_point_at_equal_p():
    # p = (2, 2) = n_d at both atoms: the uniform start is already optimal and
    # the solver returns it untouched.
    res = solve(cands1d([-1.0, 1.0]), 1, SolverConfig(max_iters=1))
    assert res.iterations == 0
    assert np.allclose(res.design.weights, [0.5, 0.5], atol=1e-15)


def test_mult_step_increases_objective():
    pts = [-1.0, -1 / 3, 1 / 3, 1.0]
    res = solve(cands1d(pts), 1, SolverConfig(max_iters=1, prune_threshold=0.0))
    v = monomial_design_matrix(np.array(pts), 1)
    assert abs(res.trace_objective[0] - log_det_objective(v, np.full(4, 0.25))) < 1e-12
    assert res.trace_objective[1] > res.trace_objective[0]


def test_mult_step_preserves_simplex():
    rng = np.random.default_rng(15)
    cands = CandidateSet(points=rng.uniform(-1, 1, size=(12, 1)), source="r")
    res = solve(cands, 2, SolverConfig(max_iters=1, prune_threshold=0.0))
    assert abs(res.design.weights.sum() - 1.0) <= 1e-12
    assert res.design.weights.min() >= 0.0


def test_solve_three_point_linear():
    cfg = SolverConfig(epsilon=1e-6, prune_threshold=1e-4)
    res = solve(THREE, 1, cfg)
    assert res.converged
    assert res.p_max <= 2.0 * (1 + 1e-6)
    # Brute-force simplex oracle confirms the objective.
    v = monomial_design_matrix(THREE.points, 1)
    oracle = simplex_grid_search(v, step=1e-3)
    assert abs(res.objective - oracle) <= 5e-3
    assert abs(res.objective) < 1e-9  # log det I_2
    w = {tuple(pt): w for pt, w in zip(res.design.candidates.points, res.design.weights)}
    assert abs(w[(-1.0,)] - 0.5) < 1e-6
    assert abs(w[(1.0,)] - 0.5) < 1e-6


def test_solve_interval_quadratic_grid():
    grid = cands1d(np.linspace(-1, 1, 201))
    cfg = SolverConfig(epsilon=1e-6, max_iters=200_000, prune_threshold=0.02)
    res = solve(grid, 2, cfg)
    assert res.converged
    pts = sorted(res.design.candidates.points[:, 0].tolist())
    assert pts == [-1.0, 0.0, 1.0]
    assert np.allclose(np.sort(res.design.weights), [1 / 3, 1 / 3, 1 / 3], atol=1e-6)
    assert abs(res.objective - np.log(4.0 / 27.0)) < 1e-6


def test_solve_square_vertices():
    res = solve(SQUARE, 1, SolverConfig())
    assert res.converged
    assert np.allclose(res.design.weights, 0.25, atol=1e-9)
    assert abs(res.objective) < 1e-12  # M = I_3 by symmetry
    assert np.allclose(res.p_values, 3.0, atol=1e-9)


def test_solve_iterates_stay_on_simplex():
    rng = np.random.default_rng(100)
    pts = rng.uniform(-1, 1, size=(15, 1))
    cands = CandidateSet(points=pts, source="r")
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
        cands = CandidateSet(points=pts, source="r")
        res = solve(
            cands, 2,
            SolverConfig(max_iters=400, prune_threshold=0.0),
        )
        assert (np.diff(res.trace_objective) >= -1e-12).all()


def test_solve_pmax_never_below_nd():
    rng = np.random.default_rng(70)
    pts = rng.uniform(-1, 1, size=(20, 1))
    res = solve(
        CandidateSet(points=pts, source="r"), 2,
        SolverConfig(max_iters=300, prune_threshold=0.0),
    )
    assert (res.trace_p_max >= 3.0 - 1e-9).all()
    assert res.p_max >= 3.0 - 1e-9


def test_solve_micro_oracle_equivalence():
    rng = np.random.default_rng(123)
    for _ in range(5):
        total = int(rng.integers(3, 6))
        pts = np.sort(rng.uniform(-1, 1, size=total))
        cands = cands1d(pts)
        res = solve(cands, 2, SolverConfig(epsilon=1e-8, max_iters=50_000))
        v = monomial_design_matrix(pts, 2)
        oracle = simplex_grid_search(v, step=1e-3)
        assert abs(res.objective - oracle) <= 5e-3


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
    cands = CandidateSet(points=np.vstack([vertices, interior]), source="cloud")
    cfg = SolverConfig()
    res = solve(cands, 1, cfg)
    assert res.converged
    assert abs(res.objective - np.log(16.0)) <= 4 * np.log1p(cfg.epsilon)


def test_prune_drops_tiny_weight():
    # The weight at 0 contracts geometrically (p(0) = 1 < n_d = 2).
    res = solve(THREE, 1, SolverConfig(prune_threshold=1e-4))
    assert not res.prune_rolled_back
    assert res.support_indices.tolist() == [0, 2]
    assert res.design.candidates.points[:, 0].tolist() == [-1.0, 1.0]
    assert np.allclose(res.design.weights, [0.5, 0.5])
    assert res.p_values.shape == (3,)  # still reported on every candidate


def test_prune_unchanged_when_all_above():
    res = solve(SQUARE, 1, SolverConfig(prune_threshold=0.1))
    assert not res.prune_rolled_back
    assert res.support_indices.tolist() == [0, 1, 2, 3]
    assert np.array_equal(res.design.candidates.points, SQUARE.points)


def test_prune_rollback_on_degeneracy():
    # After one step every weight is near 1/10 < 0.4, so pruning would keep
    # fewer than n_d = 2 atoms: the unpruned design is kept and flagged.
    grid = cands1d(np.linspace(-1, 1, 10))
    res = solve(grid, 1, SolverConfig(max_iters=1, prune_threshold=0.4))
    assert res.prune_rolled_back
    assert res.support_indices.tolist() == list(range(10))
    assert abs(res.design.weights.sum() - 1.0) <= 1e-12


def test_prune_threshold_range_enforced():
    with pytest.raises(ValueError):
        solve(THREE, 1, SolverConfig(prune_threshold=0.6))  # 1/n_d = 0.5


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(prune_threshold=-0.1)


def test_solve_rejects_bad_prune_threshold():
    with pytest.raises(ValueError):
        solve(THREE, 1, SolverConfig(prune_threshold=0.5))  # 1/n_d = 0.5


def test_mult_step_matches_solver_iteration():
    # The solver's first update equals an independent exchange followed by a
    # multiplicative step.
    rng = np.random.default_rng(50)
    pts = rng.uniform(-1, 1, size=(9, 1))
    cands = CandidateSet(points=pts, source="r")
    v = monomial_design_matrix(pts, 2)
    stepped = reference_exchange_multiplicative_step(v, init_uniform(cands, 2).weights)
    res = solve(cands, 2, SolverConfig(max_iters=1, prune_threshold=0.0))
    assert abs(res.trace_objective[1] - log_det_objective(v, stepped)) < 1e-12
    assert np.allclose(res.design.weights, stepped, rtol=1e-12, atol=0.0)


def test_exchange_interior_alpha_matches_solver_iteration():
    # Five points: the det-maximizing exchange (alpha ~ 0.114) stops short of
    # the donor's whole weight 0.2, so the closed-form alpha itself is tested,
    # not only the drop step.
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(5, 1))
    cands = CandidateSet(points=pts, source="r")
    v = monomial_design_matrix(pts, 2)
    stepped = reference_exchange_multiplicative_step(v, np.full(5, 0.2))
    res = solve(cands, 2, SolverConfig(max_iters=1, prune_threshold=0.0))
    assert abs(res.trace_objective[1] - log_det_objective(v, stepped)) < 1e-12
    assert np.allclose(res.design.weights, stepped, rtol=1e-12, atol=0.0)
