"""Properties of the solver's exchange step, elimination bound, stop test,
support reduction and Newton finish."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doptdesign import (
    CandidateSet,
    DegenerateDesignError,
    SemiAlgebraicSet,
    SolverConfig,
    SparsePolynomial,
    grid_candidates,
    solve,
    solver,
)
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
GRID_401 = np.linspace(-1.0, 1.0, 401)
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
        res = solve(CandidateSet(points=pts), d, cfg)
        n_d = enumerate_basis(n, d).size
        assert res.converged, (i, n, d, total)
        assert (np.diff(res.trace_objective) >= -1e-12).all(), (i, n, d, total)
        design = res.design
        p = christoffel_values(design.candidates.points, design.weights, pts, d)
        assert (p <= n_d * (1.0 + cfg.epsilon)).all()


def test_converged_is_the_stop_test_on_every_candidate():
    # Small budgets: the solver's verdict must match p <= n_d (1 + epsilon)
    # on every candidate, with p from the dense oracle, whether the run
    # converges or not.
    rng = np.random.default_rng(808)
    verdicts = []
    for i in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        n_d = enumerate_basis(n, d).size
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(n_d, 60)), n))
        cfg = SolverConfig(max_iters=int(rng.integers(1, 40)))
        try:
            res = solve(CandidateSet(points=pts), d, cfg)
        except DegenerateDesignError:
            continue
        design = res.design
        p = christoffel_values(design.candidates.points, design.weights, pts, d)
        assert res.converged == (p.max() <= n_d * (1.0 + cfg.epsilon)), (i, n, d, cfg)
        verdicts.append(res.converged)
    assert 50 <= sum(verdicts) <= len(verdicts) - 50  # both verdicts well covered


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
        CandidateSet(points=grid.reshape(-1, 1)), 1,
        SolverConfig(),
    )
    assert readmitted[0]
    assert res.converged
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, grid, 1)
    assert (p <= 2.0 * (1 + 1e-6)).all()
    assert res.trace_objective.shape[0] == res.iterations + 1
    support = design.candidates.points[design.weights > 1e-3, 0]
    assert support.tolist() == [-1.0, 1.0]


def unit_disk_grid(resolution):
    g = SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    disk = SemiAlgebraicSet(
        n=2, inequalities=(g,), bounding_box=((-1.0, 1.0), (-1.0, 1.0))
    )
    return grid_candidates(disk, resolution)


def test_disk_d4_converges_at_the_default_epsilon_in_2000_steps():
    # 7,837 candidates, n_d = 15: the exchange-plus-multiplicative loop alone
    # takes 81,243 iterations here.
    cands = unit_disk_grid(101)
    res = solve(cands, 4, SolverConfig(max_iters=2_000))
    assert res.converged
    assert (np.diff(res.trace_objective) >= -1e-12).all()
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, cands.points, 4)
    assert p.max() <= 15.0 * (1.0 + 1e-6)


def test_finish_converges_when_its_last_exchange_brings_in_a_light_atom():
    # Here the finish's last exchange brings an atom in at a weight below
    # 1e-7.  The design keeps it, so the stop test that the finish passed
    # holds on the design returned.
    cands = unit_disk_grid(61)
    res = solve(cands, 4, SolverConfig())
    assert res.converged
    assert res.trace_objective.shape[0] == res.iterations + 1
    design = res.design
    assert design.weights.min() < 1e-7
    p = christoffel_values(design.candidates.points, design.weights, cands.points, 4)
    assert p.max() <= 15.0 * (1.0 + 1e-6)


@pytest.mark.parametrize("d", range(1, 9))
def test_interval_401_converges_in_500_steps(d):
    # The exchange-plus-multiplicative loop alone runs out of these 500 steps
    # at every d >= 3; at d = 3, where the grid optimum has six atoms, it
    # takes 2,630 iterations.
    res = solve(CandidateSet(points=GRID_401.reshape(-1, 1)), d,
                SolverConfig(max_iters=500))
    assert res.converged
    assert (np.diff(res.trace_objective) >= -1e-12).all()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 3),
    d=st.integers(1, 3),
    size=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    circle=st.booleans(),
)
def test_reduce_keeps_the_moments_on_at_most_s_atoms(n, d, size, seed, circle):
    rng = np.random.default_rng(seed)
    if circle:
        # On the unit circle x^2 + y^2 = 1 ties the columns of V2: its rank is
        # 4d + 1 < s, so the null space is larger than size - s.
        angle = rng.uniform(0.0, 2.0 * np.pi, size)
        pts = np.column_stack([np.cos(angle), np.sin(angle)])
        n = 2
    else:
        pts = rng.uniform(-1.0, 1.0, size=(size, n))
    basis_2d = enumerate_basis(n, 2 * d)
    v2 = vandermonde(basis_2d, pts)
    w = rng.dirichlet(np.ones(size))
    rows, kept = solver._reduce(v2, np.arange(size), w)
    assert rows.size <= min(size, 4 * d + 1 if circle else basis_2d.size)
    assert (kept >= 0.0).all()
    assert abs(kept.sum() - 1.0) <= 1e-12
    y = w @ v2
    assert np.linalg.norm(kept @ v2[rows] - y) <= 1e-12 * np.linalg.norm(y)
    pos = outer_position_map(enumerate_basis(n, d), basis_2d)
    before, after = y[pos], (kept @ v2[rows])[pos]
    if np.linalg.cond(before) < 1e8:  # non-degenerate designs only
        assert abs(np.linalg.slogdet(after)[1] - np.linalg.slogdet(before)[1]) <= 1e-12


def test_loop_takes_over_when_the_finish_stalls(monkeypatch):
    # A finish that finds no rise hands its design back unconverged; the
    # loop goes on from it, and the hand-off is not tried again.
    calls = []

    def stalled(v2, pos, pool, support, w, target, budget):
        calls.append(support.size)
        return support, w, [], False

    monkeypatch.setattr(solver, "_newton", stalled)
    grid = np.linspace(-1.0, 1.0, 41)
    res = solve(CandidateSet(points=grid.reshape(-1, 1)), 2,
                SolverConfig())
    assert len(calls) == 1
    assert res.converged
    assert res.trace_objective.shape[0] == res.iterations + 1
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, grid, 2)
    assert p.max() <= 3.0 * (1.0 + 1e-6)
