"""Properties of the solver's one pass: its exchange step, moment-space
evaluation, stop test, support reduction and Newton finish."""

import numpy as np
import pytest
from hypothesis import given, settings
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

from oracles import christoffel_values

GRID_401 = np.linspace(-1.0, 1.0, 401)


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


def test_finish_ends_the_solve_when_its_exchange_moves_no_mass(monkeypatch):
    # With the exchange a no-op from the finish's start, the finish ends
    # unconverged at its first exchange, and so does the solve: the loop
    # does not take over.
    exchanged = []
    real_newton = solver._newton

    def no_exchange(*args):
        monkeypatch.setattr(solver._Loop, "exchange", lambda self, k: exchanged.append(k))
        return real_newton(*args)

    monkeypatch.setattr(solver, "_newton", no_exchange)
    cfg = SolverConfig(max_iters=5_000)
    res = solve(CandidateSet(points=GRID_401.reshape(-1, 1)), 2, cfg)
    assert len(exchanged) == 1
    assert not res.converged
    assert res.trace_objective.shape[0] == res.iterations + 1
    assert res.iterations < 200


def test_finish_takes_an_exchange_whose_gain_is_lost_in_round_off(monkeypatch):
    # At epsilon 1e-12 the finish meets an exchange here whose measured gain
    # is not above 0.  The finish takes it, since it moves mass, and goes on
    # to converge with no loop step after it starts.
    calls = []
    real_newton, real_step = solver._newton, solver._Loop.step

    def newton(*args):
        calls.append("newton")
        return real_newton(*args)

    def step(self, k):
        calls.append("step")
        real_step(self, k)

    monkeypatch.setattr(solver, "_newton", newton)
    monkeypatch.setattr(solver._Loop, "step", step)
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (200, 3))
    res = solve(CandidateSet(points=pts), 2, SolverConfig(epsilon=1e-12))
    assert res.converged
    assert calls.count("newton") == 1
    assert "step" not in calls[calls.index("newton"):]
    assert res.trace_objective.shape[0] == res.iterations + 1
    assert (np.diff(res.trace_objective) >= -1e-12).all()


def test_ball_d3_on_a_31_cubed_grid_converges_in_1000_steps():
    # The largest problem of the solver's convergence measurements: 14,019
    # candidates, n_d = 20.
    g = SparsePolynomial(
        3, {(0, 0, 0): 1.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}
    )
    ball = SemiAlgebraicSet(n=3, inequalities=(g,), bounding_box=((-1.0, 1.0),) * 3)
    cands = grid_candidates(ball, 31)
    assert cands.size == 14_019
    res = solve(cands, 3, SolverConfig(max_iters=1_000))
    assert res.converged
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, cands.points, 3)
    assert p.max() <= 20.0 * (1.0 + 1e-6)
