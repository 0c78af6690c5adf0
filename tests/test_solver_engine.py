"""Properties of the solver's exchange step, elimination bound and stop test."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doptdesign import CandidateSet, SolverConfig, solve, solver
from doptdesign.basis import enumerate_basis

from oracles import monomial_design_matrix

# Grids on [-1, 1] that contain the continuous D-optimal support of each
# degree, so the grid optimum is the continuous one and its atoms are known.
LOBATTO = {
    1: [-1.0, 1.0],
    2: [-1.0, 0.0, 1.0],
    4: [-1.0, -np.sqrt(3.0 / 7.0), 0.0, np.sqrt(3.0 / 7.0), 1.0],
}
GRID_21 = np.linspace(-1.0, 1.0, 21)


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
        assert res.p_values.shape == (total,)
        assert (res.p_values <= n_d * (1.0 + cfg.epsilon)).all()


def test_readmit_returns_violating_eliminated_row():
    # Active rows -1 and 0 carry the design; the eliminated row at 1 has
    # p = 10 > n_d = 2 under it and must come back with weight zero.
    pts = np.array([[-1.0], [0.0], [1.0], [-0.5]])
    v = monomial_design_matrix(pts, 1)
    loop = solver._Loop(v[[0, 1]], np.array([0.5, 0.5]), 2)
    _, p_max, _ = loop.evaluate()
    assert abs(p_max - 2.0) < 1e-12
    active, w, dead = solver._readmit(
        loop, v, np.array([0, 1]), np.array([2, 3]), 2.0 * (1 + 1e-6)
    )
    assert active.tolist() == [0, 1, 2]
    assert w.tolist() == [0.5, 0.5, 0.0]
    assert dead.tolist() == [3]  # p(-0.5) = 1 < 2 stays out


def test_readmit_none_when_eliminated_rows_pass():
    pts = np.array([[-1.0], [1.0], [0.0]])
    v = monomial_design_matrix(pts, 1)
    loop = solver._Loop(v[[0, 1]], np.array([0.5, 0.5]), 2)
    loop.evaluate()
    assert solver._readmit(loop, v, np.array([0, 1]), np.array([2]), 2.000002) is None


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
    assert (res.p_values <= 2.0 * (1 + 1e-6)).all()
    assert res.trace_objective.shape[0] == res.iterations + 1
    support = res.support_indices[res.design.weights > 1e-3]
    assert grid[support].tolist() == [-1.0, 1.0]
