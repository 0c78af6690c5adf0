"""Properties of the solver's exchange step, elimination bound and stop test."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doptdesign import CandidateSet, DegenerateDesignError, SolverConfig, solve, solver
from doptdesign.basis import enumerate_basis, outer_position_map, vandermonde

from oracles import christoffel_values, monomial_design_matrix

# Grids on [-1, 1] that contain the continuous D-optimal support of each
# degree, so the grid optimum is the continuous one and its atoms are known.
LOBATTO = {
    1: [-1.0, 1.0],
    2: [-1.0, 0.0, 1.0],
    4: [-1.0, -np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0), 1.0],
}
GRID_21 = np.linspace(-1.0, 1.0, 21)
# The loop's moment map for a line model: M(w)_ij = y_{i+j}.
POS_1D_D1 = outer_position_map(enumerate_basis(1, 1), enumerate_basis(1, 2))


def known_optimum_grid(d):
    return np.unique(np.concatenate([GRID_21, LOBATTO[d]]))


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([1, 2, 4]),
    raw=st.lists(st.floats(0.0, 1.0), min_size=23, max_size=23),
)
def test_elimination_bound_keeps_optimal_atoms(d, raw):
    pts = known_optimum_grid(d)
    w = np.array(raw[: pts.size])
    assume(w.sum() > 0.0)
    w = w / w.sum()
    v = monomial_design_matrix(pts, d)
    m = v.T @ (w[:, None] * v)
    assume(np.linalg.cond(m) < 1e8)  # non-degenerate designs only
    p = np.einsum("ij,ji->i", v, np.linalg.solve(m, v.T))
    n_d = d + 1
    threshold = solver._elimination_threshold(n_d, float(p.max()))
    at_optimum = p[np.isin(pts, LOBATTO[d])]
    assert (at_optimum >= threshold * (1.0 - 1e-9)).all()


def test_relative_excess_would_remove_an_optimal_atom():
    # The bound's excess is p_max - n_d.  The relative excess p_max/n_d - 1
    # is n_d times smaller, which raises the threshold above p at a true
    # support point of this design.
    pts = known_optimum_grid(2)
    w = np.zeros(pts.size)
    w[[0, 8, 20]] = [0.16, 0.14, 0.7]  # x = -1, -0.2, 1
    v = monomial_design_matrix(pts, 2)
    p = np.einsum("ij,ji->i", v, np.linalg.solve(v.T @ (w[:, None] * v), v.T))
    p_star = p[np.isin(pts, LOBATTO[2])]
    absolute = solver._elimination_threshold(3, float(p.max()))
    relative = solver._elimination_threshold(3, 3.0 + float(p.max()) / 3.0 - 1.0)
    assert (p_star >= absolute).all()
    assert (p_star < relative).any()


def test_random_problems_converge_on_every_candidate():
    rng = np.random.default_rng(3003)
    cfg = SolverConfig()
    for i in range(60):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        total = int(rng.integers(20, 401))
        pts = rng.uniform(-1.0, 1.0, size=(total, n))
        if i % 3 == 0:  # a quarter of the rows overwritten by copies of others
            src = rng.integers(0, total, size=total // 4)
            pts[rng.integers(0, total, size=src.size)] = pts[src]
        res = solve(CandidateSet(points=pts, source="r"), d, cfg)
        n_d = enumerate_basis(n, d).size
        assert res.converged, (i, n, d, total)
        assert (np.diff(res.trace_objective) >= -1e-12).all(), (i, n, d, total)
        design = res.design
        p = christoffel_values(design.candidates.points, design.weights, pts, d)
        assert (p <= n_d * (1.0 + cfg.epsilon)).all()


def test_converged_is_the_stop_test_on_every_candidate():
    # Small budgets and prune thresholds up to 0.9 / n_d: the solver's
    # verdict must match p <= n_d (1 + epsilon) on every candidate, with p
    # from the dense oracle, whether the run converges or not.
    rng = np.random.default_rng(808)
    verdicts = []
    for i in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        n_d = enumerate_basis(n, d).size
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(n_d, 60)), n))
        cfg = SolverConfig(
            max_iters=int(rng.integers(1, 300)),
            prune_threshold=float(rng.uniform(0.0, 0.9 / n_d)),
        )
        try:
            res = solve(CandidateSet(points=pts, source="r"), d, cfg)
        except DegenerateDesignError:
            continue
        design = res.design
        p = christoffel_values(design.candidates.points, design.weights, pts, d)
        assert res.converged == (p.max() <= n_d * (1.0 + cfg.epsilon)), (i, n, d, cfg)
        verdicts.append(res.converged)
    assert 50 <= sum(verdicts) <= len(verdicts) - 50  # both verdicts well covered


def test_pruned_row_above_target_is_not_converged():
    # Pruning drops row 1; the polish on the other three converges, but under
    # the final design p at the pruned row sits 0.64% above n_d = 3.
    pts = np.array([[0.7, -0.8], [-0.6, -0.6], [-0.4, -0.1], [-1.0, -0.4]])
    cands = CandidateSet(points=pts, source="t")
    res = solve(cands, 1, SolverConfig(prune_threshold=0.3))
    assert res.iterations == 9
    assert not res.converged
    assert np.array_equal(res.design.candidates.points, pts[[0, 2, 3]])
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, pts, 1)
    assert abs(p[1] / 3.0 - 1.0064) <= 1e-9
    assert (np.delete(p, 1) <= 3.0 * (1.0 + 1e-6)).all()


def moment_route_p(pts, w, d):
    """p of the design w on pts at pts, as the solver's loop evaluates it."""
    basis_2d = enumerate_basis(pts.shape[1], 2 * d)
    pos = outer_position_map(enumerate_basis(pts.shape[1], d), basis_2d)
    loop = solver._Loop(vandermonde(basis_2d, pts), w, pos)
    loop.evaluate()
    return loop.p


def test_moment_route_p_matches_dense_oracle():
    # The loop assembles M(w) = y[pos] from y = V2^T w and evaluates
    # p = V2 c from the adjoint c of M^{-1}; the oracle solves with the
    # rank-one sum M explicitly.
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            n_d = enumerate_basis(n, d).size
            for _ in range(5):
                size = int(rng.integers(n_d, 3 * n_d + 20))
                pts = rng.uniform(-1.0, 1.0, size=(size, n))
                w = rng.dirichlet(np.ones(size))
                p = moment_route_p(pts, w, d)
                ref = christoffel_values(pts, w, pts, d)
                assert np.abs(p / ref - 1.0).max() <= 1e-9, (n, d, size)


def test_moment_route_p_on_an_uncentered_box():
    # On [0, 10]^2 at d = 4 the moments reach 10^16 and cond M(w) is 5e9.
    axis = np.linspace(0.0, 10.0, 21)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    w = np.full(pts.shape[0], 1.0 / pts.shape[0])
    p = moment_route_p(pts, w, 4)
    ref = christoffel_values(pts, w, pts, 4)
    assert np.abs(p / ref - 1.0).max() <= 1e-9


def test_readmit_returns_violating_eliminated_row():
    # Active rows -1 and 0 carry the design; the eliminated row at 1 has
    # p = 10 > n_d = 2 under it and must come back with weight zero.
    pts = np.array([[-1.0], [0.0], [1.0], [-0.5]])
    v2 = monomial_design_matrix(pts, 2)
    loop = solver._Loop(v2[[0, 1]], np.array([0.5, 0.5]), POS_1D_D1)
    _, p_max, _ = loop.evaluate()
    assert abs(p_max - 2.0) < 1e-12
    active, w, dead = solver._readmit(
        loop, v2, np.array([0, 1]), np.array([2, 3]), 2.0 * (1 + 1e-6)
    )
    assert active.tolist() == [0, 1, 2]
    assert w.tolist() == [0.5, 0.5, 0.0]
    assert dead.tolist() == [3]  # p(-0.5) = 1 < 2 stays out


def test_readmit_none_when_eliminated_rows_pass():
    pts = np.array([[-1.0], [1.0], [0.0]])
    v2 = monomial_design_matrix(pts, 2)
    loop = solver._Loop(v2[[0, 1]], np.array([0.5, 0.5]), POS_1D_D1)
    loop.evaluate()
    assert solver._readmit(loop, v2, np.array([0, 1]), np.array([2]), 2.000002) is None


def test_solve_readmits_rows_wrongly_eliminated(monkeypatch):
    # Force one compaction onto the left half of the interval.  The run
    # converges there, the full-set stop test finds x > 0 above the target,
    # and the solve still ends dual feasible on every candidate.
    grid = np.linspace(-1.0, 1.0, 41)
    calls = []

    def left_half(loop, p_max):
        if calls:
            return None
        calls.append(1)
        return grid <= 0.0

    readmitted = []
    real_readmit = solver._readmit

    def spy(*args):
        out = real_readmit(*args)
        readmitted.append(out is not None)
        return out

    monkeypatch.setattr(solver, "_survivors", left_half)
    monkeypatch.setattr(solver, "_readmit", spy)
    res = solve(
        CandidateSet(points=grid.reshape(-1, 1), source="g"), 1,
        SolverConfig(prune_threshold=0.0),
    )
    assert readmitted[0]
    assert res.converged
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, grid, 1)
    assert (p <= 2.0 * (1 + 1e-6)).all()
    assert res.trace_objective.shape[0] == res.iterations + 1
    support = design.candidates.points[design.weights > 1e-3, 0]
    assert support.tolist() == [-1.0, 1.0]
