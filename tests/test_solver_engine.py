"""Properties of the solver's engine: its greedy start, exchange step,
moment-space evaluation, stop test, support reduction and Newton steps."""

import dataclasses
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doptdesign import (
    CandidateSet,
    DegenerateDesignError,
    NotPositiveDefiniteError,
    SemiAlgebraicSet,
    SolverConfig,
    SparsePolynomial,
    build_certificate,
    grid_candidates,
    solve,
    solver,
)
from doptdesign.basis import enumerate_basis, moment_matrix, vandermonde
from doptdesign.semialg import Symmetry, _GridCandidates

from oracles import christoffel_values, monomial_design_matrix, reference_greedy

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
    """p of the design w on pts at pts, as the solver evaluates an iterate."""
    n = pts.shape[1]
    space = solver._Points(CandidateSet(points=pts), enumerate_basis(n, 2 * d))
    return solver._Iterate(space, enumerate_basis(n, d), np.arange(pts.shape[0]), w).p


def test_moment_route_p_matches_dense_oracle():
    # The iterate assembles M(w) = M_d(y) from y = V2^T w and evaluates
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


def cloud_40():
    return CandidateSet(points=np.random.default_rng(40).uniform(-1.0, 1.0, (200, 3)))


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
    # holds on the design returned.  The grid's points are passed without
    # their orbits, so every point is its own orbit.
    cands = CandidateSet(points=unit_disk_grid(61).points)
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
# 20 atoms in 3-D at d = 3 are independent (s = 84): nothing is dropped, and
# renormalizing the weights anyway moved log det by 3e-12 (cond M = 1.8e6).
@example(n=3, d=3, size=20, seed=1, circle=False)
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
    basis_d = enumerate_basis(n, d)
    before, after = moment_matrix(y, basis_d), moment_matrix(kept @ v2[rows], basis_d)
    if np.linalg.cond(before) < 1e8:  # non-degenerate designs only
        assert abs(np.linalg.slogdet(after)[1] - np.linalg.slogdet(before)[1]) <= 1e-12


def test_finish_ends_the_solve_when_its_exchange_moves_no_mass(monkeypatch):
    # With the exchange a no-op, the solve ends unconverged at its first
    # exchange.  At d = 3 the greedy start is not optimal, so an exchange
    # is needed.
    exchanged = []
    monkeypatch.setattr(solver, "_exchange", lambda it, k: exchanged.append(k))
    cfg = SolverConfig(max_iters=5_000)
    res = solve(CandidateSet(points=GRID_401.reshape(-1, 1)), 3, cfg)
    assert len(exchanged) == 1
    assert not res.converged
    assert res.trace_objective.shape[0] == res.iterations + 1
    assert res.iterations < 200


def test_finish_takes_an_exchange_whose_gain_is_lost_in_round_off(monkeypatch):
    # Every exchange here is made to report a rise of 0.0 or below, as one
    # whose rise is lost in round-off would.  The engine takes each one,
    # since it moves mass: the next iterate is evaluated on the exchange's
    # support and weights, and the objective does not advance.  It goes on
    # to converge in its one call.
    calls, evaluated, taken = [], [], []
    real_newton, real_exchange = solver._newton, solver._exchange

    class Recorded(solver._Iterate):
        def __init__(self, space, basis_d, support, w):
            evaluated.append((support, w))
            super().__init__(space, basis_d, support, w)

    def newton(*args):
        calls.append("newton")
        return real_newton(*args)

    def exchange(it, k):
        step = real_exchange(it, k)
        if step is None:
            return None
        support, w, _ = step
        taken.append((len(evaluated), support, w))
        return support, w, -0.0 if len(taken) % 2 else -1e-300

    monkeypatch.setattr(solver, "_Iterate", Recorded)
    monkeypatch.setattr(solver, "_newton", newton)
    monkeypatch.setattr(solver, "_exchange", exchange)
    res = solve(cloud_40(), 2, SolverConfig(epsilon=1e-12))
    assert res.converged
    assert calls.count("newton") == 1
    assert len(taken) > 1
    for at, support, w in taken:
        assert support.size <= 35  # s: no reduction between step and evaluation
        assert np.array_equal(evaluated[at][0], support)
        assert np.array_equal(evaluated[at][1], w)
    assert res.trace_objective.shape[0] == res.iterations + 1
    assert (np.diff(res.trace_objective) >= -1e-12).all()


def log_det_rise(lam, alphas):
    """sum log(1 + alpha lam) at each alpha, -inf where a factor is not
    positive."""
    factors = 1.0 + np.outer(alphas, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        rise = np.log(factors).sum(axis=1)
    return np.where((factors > 0.0).all(axis=1), rise, -np.inf)


@pytest.mark.parametrize("lam,top,clipped", [
    pytest.param([-2.0, 0.5, 3.0], 0.4, False, id="interior"),
    pytest.param([-0.5, 1.0, 2.0], 0.3, True, id="clipped-at-top"),
    pytest.param([-1.0 / (0.2 - 1e-13), 0.3, 6.0], 0.2 - 1e-13, False,
                 id="singular-near-top"),
    pytest.param([-1.0 / 0.2, 0.3, 40.0], 0.2, False, id="singular-at-top"),
])
def test_line_search_maximizes_the_log_det_rise_on_a_dense_grid(lam, top, clipped):
    # The exchange's step: the alpha in [0, top] that maximizes
    # sum log(1 + alpha lam).  A dense grid of alphas brackets the maximizer
    # and bounds the rise from above; where 1 + top lam_min is 0 or nearly,
    # the sum falls to -inf at top and the maximizer stays inside.
    lam = np.array(lam)
    alpha = solver._line_search(lam, top)
    grid = np.linspace(0.0, top, 200_001)
    rises = log_det_rise(lam, grid)
    best = int(np.argmax(rises))
    assert 0.0 < alpha <= top
    assert (alpha == top) == clipped
    assert abs(alpha - grid[best]) <= 2 * (grid[1] - grid[0])
    assert log_det_rise(lam, [alpha])[0] >= rises[best] - 1e-12


@pytest.mark.parametrize("support,w,drop", [
    pytest.param([0, 100, 150], [0.4, 0.3, 0.3], False, id="to-a-support-orbit"),
    pytest.param([0, 150], [0.5, 0.5], False, id="to-a-new-orbit"),
    pytest.param([0, 60, 140], [0.5, 0.25, 0.25], True, id="drop"),
])
def test_an_orbit_pair_exchange_maximizes_log_det_on_the_members(support, w, drop):
    # Orbits of two mirror points each on the 401-point interval at d = 3.
    # The exchange moves alpha from the donor orbit to the highest-p orbit;
    # on the members, each orbit's weight split over its two points, log det
    # M along the move is maximal at alpha over [0, w_j], and the rise the
    # exchange returns is the change in log det of the members' rank-one sum.
    cands = grid_candidates(SemiAlgebraicSet(1, (), ((-1.0, 1.0),)), 401)
    space = solver._Orbits(cands, enumerate_basis(1, 6))
    support, w = np.array(support), np.array(w)
    it = solver._Iterate(space, enumerate_basis(1, 3), support, w)
    k = int(it.p.argmax())
    j = int(support[it.p[support].argmin()])
    after_support, after_w, rise = solver._exchange(it, k)
    orbits = np.union1d(support, [k])
    assert (space.sizes[orbits] == 2).all()
    members = np.flatnonzero(np.isin(cands.orbits(), orbits))
    share = np.searchsorted(orbits, cands.orbits()[members])  # each member's orbit
    v = monomial_design_matrix(cands.points[members], 3)

    def member_log_dets(weights):
        """log det M of the designs that split each row of orbit weights
        equally over the orbits' two members."""
        m = np.einsum("ti,ia,ib->tab", weights[:, share] / 2, v, v)
        return np.linalg.slogdet(m)[1]

    start = np.zeros(orbits.size)
    start[np.searchsorted(orbits, support)] = w
    move = np.zeros(orbits.size)
    move[np.searchsorted(orbits, [k, j])] = [1.0, -1.0]
    ts = np.linspace(0.0, w[support == j][0], 20_001)
    objs = member_log_dets(start + np.outer(ts, move))
    done = np.zeros(orbits.size)
    done[np.searchsorted(orbits, after_support)] = after_w
    alpha = float(done[orbits == k][0] - start[orbits == k][0])
    assert (j not in after_support) == drop
    assert abs(alpha - ts[int(np.argmax(objs))]) <= 2 * (ts[1] - ts[0])
    after, before = member_log_dets(np.array([done, start]))
    assert after >= objs.max() - 1e-12
    assert abs(rise - (after - before)) <= 1e-12


@pytest.mark.parametrize("cands,d,epsilon", [
    pytest.param(unit_disk_grid(101), 4, 1e-3, id="disk-d4"),
    pytest.param(cloud_40(), 2, 1e-12, id="cloud-40"),
])
def test_an_exchange_takes_one_eigendecomposition(monkeypatch, cands, d, epsilon):
    # The exchange reads its step and its rise from the eigenvalues of one
    # moment change, on orbits (disk-d4) and on points (cloud-40) alike.
    eigenvalues, per_exchange = [], []
    real_exchange = solver._exchange

    class Counted(solver._Iterate):
        def eigenvalues(self, dy):
            eigenvalues.append(1)
            return super().eigenvalues(dy)

    def exchange(it, k):
        before = len(eigenvalues)
        step = real_exchange(it, k)
        per_exchange.append(len(eigenvalues) - before)
        return step

    monkeypatch.setattr(solver, "_Iterate", Counted)
    monkeypatch.setattr(solver, "_exchange", exchange)
    res = solve(cands, d, SolverConfig(epsilon=epsilon))
    assert res.converged
    assert per_exchange and set(per_exchange) == {1}


@pytest.mark.parametrize("cands,d,epsilon", [
    pytest.param(unit_disk_grid(101), 4, 1e-3, id="disk-d4"),
    pytest.param(cloud_40(), 2, 1e-12, id="cloud-40"),
])
def test_each_iterate_is_evaluated_once(monkeypatch, cands, d, epsilon):
    # One evaluation per iterate: the start, one per step, and one after each
    # reduction of a singular Newton system that drops atoms.  Only a Newton
    # trial makes a gain call, at most one per step; an exchange reads its
    # rise from its own eigenvalues.
    evaluations, gains, reductions = [], [], []
    real_reduce = solver._reduce

    class Counted(solver._Iterate):
        def __init__(self, *args):
            evaluations.append(1)
            super().__init__(*args)

        def gain(self, dy):
            gains.append(1)
            return super().gain(dy)

    def reduce(v2, atoms, w):
        kept, w = real_reduce(v2, atoms, w)
        # A support of at most s atoms is reduced only on a singular system.
        reductions.append(atoms.size <= v2.shape[1] and kept.size < atoms.size)
        return kept, w

    monkeypatch.setattr(solver, "_Iterate", Counted)
    monkeypatch.setattr(solver, "_reduce", reduce)
    res = solve(cands, d, SolverConfig(epsilon=epsilon))
    assert res.converged
    assert len(evaluations) == res.iterations + 1 + sum(reductions)
    assert len(gains) <= res.iterations


@pytest.mark.parametrize("cands,d,epsilon", [
    pytest.param(unit_disk_grid(101), 4, 1e-3, id="disk-d4"),
    pytest.param(cloud_40(), 2, 1e-12, id="cloud-40"),
])
def test_support_p_gathered_or_read_from_the_full_pricing_gives_one_path(
        monkeypatch, cands, d, epsilon):
    # The evaluation forms the support's p from the support's own rows; an
    # iterate that prices every candidate and reads the support's p from
    # that pass must take the same steps, bit for bit.
    cfg = SolverConfig(epsilon=epsilon)
    lazy = solve(cands, d, cfg)

    class Eager(solver._Iterate):
        def __init__(self, *args):
            super().__init__(*args)
            self.p_support = self.p[self.support]

    monkeypatch.setattr(solver, "_Iterate", Eager)
    eager = solve(cands, d, cfg)
    assert lazy.converged and eager.converged
    assert lazy.iterations == eager.iterations
    for a, b in [(lazy.design.candidates.points, eager.design.candidates.points),
                 (lazy.design.weights, eager.design.weights),
                 (lazy.trace_objective, eager.trace_objective),
                 (lazy.trace_p_max, eager.trace_p_max)]:
        assert a.tobytes() == b.tobytes()


def test_every_candidate_is_priced_on_at_most_half_the_iterates(monkeypatch):
    # A Newton trial reads p on the support only, so the full pass p = V2 c
    # runs only to test convergence and to pick an exchange's candidate:
    # 44 of the 133 iterates on disk-d4.
    priced = []

    class Counted(solver._Iterate):
        @cached_property
        def p(self):
            priced.append(1)
            return super().p

    monkeypatch.setattr(solver, "_Iterate", Counted)
    res = solve(unit_disk_grid(101), 4, SolverConfig(epsilon=1e-3))
    assert res.converged
    assert len(priced) == np.isfinite(res.trace_p_max).sum()
    assert 2 * len(priced) <= res.iterations + 1
    assert np.isfinite(res.trace_p_max[-1])


def test_a_solve_stopped_by_its_budget_prices_its_last_iterate():
    res = solve(unit_disk_grid(101), 4, SolverConfig(epsilon=1e-3, max_iters=10))
    assert not res.converged
    assert res.iterations == 10
    assert res.trace_p_max.shape[0] == 11
    assert np.isfinite(res.trace_p_max[-1])
    assert np.isnan(res.trace_p_max).any()


def test_round_off_regime_converges_in_150_steps():
    # At epsilon 1e-12 a step's rise nears the resolution of the gain.  A
    # Newton trial that does not raise log det hands over to the exchange,
    # so every cloud still converges, and none takes more than 150 steps.
    cfg = SolverConfig(epsilon=1e-12)
    for seed in range(80):
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (200, 3))
        res = solve(CandidateSet(points=pts), 2, cfg)
        assert res.converged, seed
        assert res.iterations <= 150, (seed, res.iterations)


def ball_31_cubed():
    g = SparsePolynomial(
        3, {(0, 0, 0): 1.0, (2, 0, 0): -1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}
    )
    ball = SemiAlgebraicSet(n=3, inequalities=(g,), bounding_box=((-1.0, 1.0),) * 3)
    return grid_candidates(ball, 31)


def test_ball_d3_on_a_31_cubed_grid_converges_in_1000_steps():
    # The largest problem of the solver's convergence measurements: 14,075
    # candidates, n_d = 20, solved here as its points alone, every point its
    # own orbit.
    cands = CandidateSet(points=ball_31_cubed().points)
    assert cands.size == 14_075
    res = solve(cands, 3, SolverConfig(max_iters=1_000))
    assert res.converged
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, cands.points, 3)
    assert p.max() <= 20.0 * (1.0 + 1e-6)


def test_greedy_start_picks_n_d_distinct_rows_with_a_nonsingular_block():
    rng = np.random.default_rng(11)
    for n, d in ((1, 4), (2, 3), (3, 2)):
        n_d = enumerate_basis(n, d).size
        pts = rng.uniform(-1.0, 1.0, size=(50, n))
        pts[25:] = pts[:25]  # every point twice
        vd = vandermonde(enumerate_basis(n, d), pts)
        rows = solver._greedy(vd)
        assert rows.size == n_d
        assert np.unique(pts[rows], axis=0).shape[0] == n_d
        assert np.linalg.cond(vd[rows]) < 1e8


def test_reduce_runs_only_on_a_singular_newton_system(monkeypatch):
    # On the unit circle the moment rows of 4d + 1 < s atoms already span
    # the rank of V2, so the support's moment rows become dependent before
    # it reaches s atoms.  The Newton system is then singular, and only then
    # is the support reduced, on at most s + 1 atoms.
    singular, reduced = [], []
    real_step, real_reduce = solver._newton_step, solver._reduce

    def newton_step(it):
        try:
            return real_step(it)
        except NotPositiveDefiniteError:
            singular.append(it.w.size)
            raise

    def reduce(v2, atoms, w):
        reduced.append((atoms.size, v2.shape[1]))
        return real_reduce(v2, atoms, w)

    monkeypatch.setattr(solver, "_newton_step", newton_step)
    monkeypatch.setattr(solver, "_reduce", reduce)
    angle = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, 60)
    pts = np.column_stack([np.cos(angle), np.sin(angle)])
    cfg = SolverConfig(epsilon=1e-12)
    res = solve(CandidateSet(points=pts), 1, cfg)
    assert singular
    assert reduced and all(m <= s + 1 for m, s in reduced)
    assert res.converged
    assert res.design.size <= 5  # 4d + 1
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, pts, 1)
    assert p.max() <= 3.0 * (1.0 + cfg.epsilon)


def test_an_exchange_that_grows_the_support_past_s_atoms_is_reduced(monkeypatch):
    # With every Newton trial declined, each step is an exchange, which adds
    # an atom unless it empties one.  On 61 points of [-1, 1] at d = 3
    # (s = 7) the support outgrows s, and is reduced to independent moment
    # rows with the same moments before the next iterate is evaluated.
    sizes, errors = [], []
    real_reduce = solver._reduce

    class Counted(solver._Iterate):
        def __init__(self, space, basis_d, support, w):
            sizes.append((support.size, space.rows.shape[1]))
            super().__init__(space, basis_d, support, w)

    def reduce(v2, atoms, w):
        kept, kept_w = real_reduce(v2, atoms, w)
        if atoms.size > v2.shape[1]:
            y = w @ v2[atoms]
            errors.append(np.linalg.norm(kept_w @ v2[kept] - y) / np.linalg.norm(y))
        return kept, kept_w

    monkeypatch.setattr(solver, "_newton_step", lambda it: None)
    monkeypatch.setattr(solver, "_Iterate", Counted)
    monkeypatch.setattr(solver, "_reduce", reduce)
    pts = np.linspace(-1.0, 1.0, 61).reshape(-1, 1)
    res = solve(CandidateSet(points=pts), 3, SolverConfig())
    assert res.converged
    assert errors and max(errors) <= 1e-12
    assert all(m <= s for m, s in sizes)


def test_box_41_squared_at_d8_converges_in_1500_steps():
    # s = C(2 + 16, 2) = 153: the largest support of the solver's
    # convergence measurements in two dimensions.
    axis = np.linspace(-1.0, 1.0, 41)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    res = solve(CandidateSet(points=pts), 8, SolverConfig(max_iters=1_500))
    assert res.converged
    design = res.design
    p = christoffel_values(design.candidates.points, design.weights, pts, 8)
    assert p.max() <= 45.0 * (1.0 + 1e-6)


def test_reduce_leaves_independent_atoms_untouched():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.0, 1.0, size=(20, 3))
    v2 = vandermonde(enumerate_basis(3, 6), pts)
    atoms, w = np.arange(20), rng.dirichlet(np.ones(20))
    kept, kept_w = solver._reduce(v2, atoms, w)
    assert kept is atoms and kept_w is w


def square_grid(r):
    axis = np.linspace(-1.0, 1.0, r)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def greedy_view(pts, d):
    """V_d as solve passes it to _greedy: the first n_d columns of V2."""
    n = pts.shape[1]
    v2 = vandermonde(enumerate_basis(n, 2 * d), pts)
    return v2[:, :enumerate_basis(n, d).size]


@pytest.mark.parametrize(
    ("pts", "d"),
    [pytest.param(GRID_401.reshape(-1, 1), d, id=f"interval-401-d{d}")
     for d in (4, 8, 12, 16, 20)]
    + [pytest.param(square_grid(41), d, id=f"square-41-d{d}") for d in (4, 8)],
)
def test_greedy_picks_the_explicit_residual_picks(pts, d):
    vd = greedy_view(pts, d)
    assert not vd.flags.c_contiguous
    picks = solver._greedy(vd)
    assert picks.size == vd.shape[1]
    assert picks.tolist() == reference_greedy(vd).tolist()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3),
    d=st.integers(1, 4),
    extra=st.integers(0, 200),
    seed=st.integers(0, 2**32 - 1),
    lattice=st.booleans(),
)
def test_greedy_picks_the_explicit_residual_picks_on_clouds(n, d, extra, seed, lattice):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(enumerate_basis(n, d).size + extra, n))
    if lattice:  # coordinates on a 9-point lattice: repeats and mirror ties
        pts = np.round(4.0 * pts) / 4.0
    vd = greedy_view(pts, d)
    picks, expected = solver._greedy(vd).tolist(), reference_greedy(vd).tolist()
    rank = np.linalg.matrix_rank(vd)
    if rank == vd.shape[1]:
        assert picks == expected
    else:  # past the rank both pick round-off residuals, or stop
        assert len(picks) >= rank and picks[:rank] == expected[:rank]


def test_greedy_breaks_a_mirror_tie_at_the_lowest_index():
    # Both ends of [-1, 1] have the largest norm, |v(+-1)|^2 = d + 1; the tie
    # goes to -1, the lower index, and the next pick is then 1.
    picks = solver._greedy(greedy_view(GRID_401.reshape(-1, 1), 2))
    assert picks[:2].tolist() == [0, 400]


def same_bits(a, b):
    """Two solves agree bit for bit: iterations, verdict, design and trace."""
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    for x, y in [(a.design.candidates.points, b.design.candidates.points),
                 (a.design.weights, b.design.weights),
                 (a.trace_objective, b.trace_objective),
                 (a.trace_p_max, b.trace_p_max)]:
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("cands,d,epsilon", [
    pytest.param(unit_disk_grid(101), 4, 1e-3, id="disk-d4"),
    pytest.param(grid_candidates(SemiAlgebraicSet(1, (), ((-1.0, 1.0),)), 401), 3,
                 1e-6, id="interval-401-d3"),
])
def test_singleton_orbits_take_the_point_path_bit_for_bit(cands, d, epsilon):
    # The orbit engine on orbits of one point each, the grid's orbits under
    # the trivial group: the orbit rows are V2 and the Hessian's block means
    # are A * A itself, so every Newton trial and exchange reads the same
    # numbers as on the points and it takes the steps of the point path
    # exactly.
    single = _GridCandidates(
        points=cands.points, grid=dataclasses.replace(cands.grid, group=Symmetry()))
    assert np.array_equal(single.orbits(), np.arange(cands.size))
    cfg = SolverConfig(epsilon=epsilon)
    same_bits(solve(CandidateSet(points=cands.points), d, cfg), solve(single, d, cfg))


def test_a_candidate_set_takes_no_orbits():
    # Orbits come only from a grid of a symmetric set, which computes them
    # from its own mask and verified group; a caller cannot pass them.
    with pytest.raises(TypeError):
        CandidateSet(points=[[-1.0], [0.0], [1.0]], orbits=[0, 1, 0])


@pytest.mark.parametrize("box", [((0.0, 2.0),), ((0.0, 2.0), (0.0, 3.0))])
def test_a_grid_without_symmetry_solves_as_its_points(box):
    # No flip (the boxes are not centred on 0) and no swap (unequal boxes):
    # the group is trivial, the grid's candidates are a plain set, and the
    # solve is the one on its points.
    space = SemiAlgebraicSet(len(box), (), box)
    cands = grid_candidates(space, 41 if len(box) == 1 else 21)
    assert type(cands) is CandidateSet
    cfg = SolverConfig()
    same_bits(solve(cands, 3, cfg), solve(CandidateSet(points=cands.points), 3, cfg))


@pytest.mark.parametrize("cands,d,epsilon", [
    pytest.param(unit_disk_grid(101), 4, 1e-3, id="disk-d4"),
    pytest.param(ball_31_cubed(), 3, 1e-6, id="ball-31^3-d3"),
    pytest.param(grid_candidates(SemiAlgebraicSet(1, (), ((-1.0, 1.0),)), 401), 3,
                 1e-6, id="interval-401-d3"),
])
def test_a_grid_design_is_exactly_invariant(cands, d, epsilon):
    # Each orbit's weight is split equally over all its members, so every
    # member of a support orbit is a design point and the weights within an
    # orbit are equal bit for bit.
    res = solve(cands, d, SolverConfig(epsilon=epsilon))
    assert res.converged
    index = {pt: i for i, pt in enumerate(map(tuple, cands.points.tolist()))}
    rows = [index[pt] for pt in map(tuple, res.design.candidates.points.tolist())]
    assert rows == sorted(rows)
    orbits = cands.orbits()[rows]
    support = np.unique(orbits)
    assert len(rows) == np.isin(cands.orbits(), support).sum()
    for a in support:
        assert np.unique(res.design.weights[orbits == a]).size == 1


@pytest.mark.parametrize("cands,d,epsilon,steps", [
    pytest.param(unit_disk_grid(101), 4, 1e-3, 40, id="disk-d4"),
    pytest.param(ball_31_cubed(), 3, 1e-6, 60, id="ball-31^3-d3"),
])
def test_a_symmetric_grid_converges_in_few_steps(cands, d, epsilon, steps):
    # On its 1,023 orbits disk-d4 takes 20 steps, where its 7,837 points take
    # 132; the ball's 411 orbits take 20 steps, where its points take 421.
    # Both designs keep their certificate within its bound.
    res = solve(cands, d, SolverConfig(epsilon=epsilon))
    assert res.converged
    assert res.iterations <= steps
    cert = build_certificate(res.design, cands, d)
    assert cert.gap <= cert.n_d * np.log1p(epsilon)
