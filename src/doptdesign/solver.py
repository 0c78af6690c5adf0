"""Log-det maximization over the weight simplex on a candidate set.

Every step reads the Christoffel-Darboux polynomial p of the current design,
p(x) = v(x)^T M(w)^{-1} v(x), whose weighted mean over the design is
identically n_d.  One iteration does two things, each of which never
decreases log det M(w):

* a vertex exchange (Todd & Yildirim 2007): the closed-form det-maximizing
  mass moves from the support atom with the lowest p to the candidate with
  the highest p, removing the atom outright when the optimum lies past its
  weight (a drop step); p is then updated exactly by a rank-2 Woodbury step;
* the classical multiplicative update w_i <- w_i p(x_i) / n_d on that
  exchanged design's p (Silvey, Titterington & Torsney 1978; monotone by
  Yu 2010).

Each evaluation works in moment space, the paper's dual pair: the design's
degree-2d moment vector y = V2^T w fills M(w) = M_d(y), and p is expanded in
the degree-2d basis through the adjoint map, c = M_d^*(M(w)^{-1}), so that
p = V2 c on every candidate.  V2, the degree-2d Vandermonde matrix of the
candidates, is built once; its first n_d columns are the degree-d one.  The
certificate evaluates p of the final design from its own rank-one assembly
of M and the inverse of its Cholesky factor instead, an independent route.

A solve is one pass.  The loop runs on every candidate until p_max <=
n_d (1 + max(epsilon, 1e-2)), a loose form of the Kiefer-Wolfowitz
equivalence test, or until the budget runs out.  Its tail is sublinear, so
it then hands off to a finish in moment space, which ends the solve.  M(w)
depends on w only through y, which has s = C(n + 2d, n) entries, so by
Caratheodory's theorem the design can be swapped for one on at most s atoms
with the same y, hence the same M, p and certificate.  On so small a
support a Newton step on the weights is well posed, and candidates that
fail the stop test p <= n_d (1 + epsilon) are brought in by the loop's
exchange: the add-a-point-then-Newton scheme of Yang, Biedermann & Tang
(2013, JASA).  The finish stops once the stop test holds on every
candidate, when the budget runs out, or when its exchange moves no mass.

max_iters counts loop iterations plus the finish's steps.  The trace records
one (objective, p_max) pair per evaluated iterate, with p_max taken over
every candidate, so it holds iterations + 1 entries.

The design returned is the last iterate's atoms of positive weight, and
converged means p <= n_d (1 + epsilon) on every candidate.  p of the final
design on the candidates is the certificate's to compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import enumerate_basis, outer_position_map, vandermonde
from .design import DesignMeasure
from .errors import DegenerateDesignError, TooFewCandidatesError
from .semialg import CandidateSet
from .spd import pivot_tolerance

#: Weights this far below machine range are dead by hundreds of orders of
#: magnitude; flushing them to exact zero keeps the arithmetic out of the
#: subnormal range, where hardware float operations run an order of magnitude
#: slower.  Zero is an absorbing state of the update, so results only change
#: below the 1e-150 level.
_FLUSH = 1e-160

#: The loop hands off to `_newton` once p_max <= n_d (1 + max(epsilon,
#: _HANDOFF)) on every candidate.  1e-1 works as well; at 1e-3 the loop's
#: sublinear tail already costs several times the finish (disk, d = 4: 1,031
#: iterations in all, against 264).
_HANDOFF = 1e-2

#: Halvings of a Newton step before it counts as no ascent.
_BACKTRACKS = 40


@dataclass(frozen=True)
class SolverConfig:
    """Termination parameters.

    epsilon is the relative optimality tolerance on p_max / n_d - 1; through
    the certificate scaling it bounds the duality gap by n_d * log(1+epsilon).
    max_iters bounds the loop's iterations plus the finish's Newton steps and
    exchanges.
    """

    epsilon: float = 1e-6
    max_iters: int = 100_000

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SolveResult:
    """Final design, the iteration record and the solver's verdict.

    converged means p <= n_d (1 + epsilon) held on every candidate at the
    final iterate.  iterations counts loop iterations plus Newton steps and
    exchanges of the finish.  trace holds one (objective, p_max) pair per
    evaluated iterate (the start and each iteration or finish step), with
    p_max over every candidate, so it has iterations + 1 entries.
    prune_rolled_back is always False: nothing is pruned, and the field is
    kept for the benchmark, which reads it.
    """

    design: DesignMeasure
    iterations: int
    converged: bool
    trace_objective: np.ndarray
    trace_p_max: np.ndarray
    prune_rolled_back: bool = False


class _Loop:
    """Fused evaluate/step loop over a set of rows of the candidates.

    v2 holds those rows of the degree-2d Vandermonde matrix (every candidate
    in `solve`'s loop, the support in the finish) and pos =
    outer_position_map(basis_d, basis_2d).  Per iteration: y = V2^T w,
    M(w) = y[pos], its Cholesky factor and M^{-1}, c with c_g the sum of
    M^{-1}_ij over pos_ij = g, p = V2 c at every row, then log the iterate,
    test, step.  The two GEMVs on the (N, s) matrix,
    s = C(n + 2d, n), do O(N s) flops where a rank-one GEMM and a product
    with L^{-1} on (N, n_d) matrices do O(N n_d^2).  M(w) is tiny and call
    overhead dominates, so an evaluation makes two `np.linalg` calls: the
    Cholesky factor L of M(w), then L^{-1}.
    """

    def __init__(self, v2: np.ndarray, w: np.ndarray, pos: np.ndarray):
        n_d = pos.shape[0]
        self.v2 = v2
        # The exchange reads rows of length N from this contiguous copy.
        self.vt = np.ascontiguousarray(v2[:, :n_d].T)
        self.w = w
        self.n_d = n_d
        self.pos = pos
        self.pos_flat = pos.ravel()
        self.y = np.empty(v2.shape[1])
        self.li = None  # L^{-1} for M(w) = L L^T, at the last evaluated iterate
        self.m_inv = np.empty((n_d, n_d))
        self.c = None  # p in the degree-2d basis, at the last evaluated iterate
        self.p = np.empty(v2.shape[0])

    def evaluate(self) -> tuple[float, float, int]:
        """Objective, p_max and argmax p of the current iterate; fills self.p."""
        np.dot(self.w, self.v2, out=self.y)
        m = self.y[self.pos]
        try:
            l = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            d_min = 0.0
        else:
            diag = l.diagonal()
            # n_d is small, so scalar min/max over Python floats beat array
            # calls.  Squaring is monotone on the positive pivots:
            # min(d)^2 = min(d^2).
            d_min = min(diag.tolist())
        if d_min * d_min <= pivot_tolerance(self.n_d, max(m.diagonal().tolist())):
            raise DegenerateDesignError(
                "information matrix is singular: the design does not determine "
                "the model"
            )
        self.li = np.linalg.inv(l)
        np.dot(self.li.T, self.li, out=self.m_inv)
        self.c = np.bincount(self.pos_flat, self.m_inv.ravel(), minlength=self.y.size)
        np.dot(self.v2, self.c, out=self.p)
        objective = 2.0 * float(np.log(diag).sum())
        k = int(self.p.argmax())
        return objective, float(self.p[k]), k

    def gain(self, dw: np.ndarray) -> float:
        """log det M(w + dw) - log det M(w), from the last evaluated iterate.

        The sum of log(1 + lambda) over the eigenvalues of L^{-1} M(dw) L^{-T}
        stays accurate for a small dw, where the difference of two log dets
        drowns in their round-off; -inf when M(w + dw) is not positive
        definite.
        """
        b = np.dot(self.li, np.dot(self.li, np.dot(dw, self.v2)[self.pos]).T)
        lam = np.linalg.eigvalsh(b)
        if not lam[0] > -1.0:
            return -np.inf
        return float(np.log1p(lam).sum())

    def step(self, k: int) -> None:
        """Exchange mass into row k = argmax p, then the multiplicative update."""
        self.exchange(k)
        self.w *= self.p
        self.w *= 1.0 / self.n_d
        self.w[self.w < _FLUSH] = 0.0
        self.w /= self.w.sum()

    def exchange(self, k: int) -> None:
        """Move the det-maximizing mass from the lowest-p support atom to row k.

        Moving alpha from row j to row k multiplies det M by
        r = (1 + alpha p_k)(1 - alpha p_j) + alpha^2 p_kj^2 >= 1, where
        p_kj = v_k^T M^{-1} v_j.  r is concave in alpha, maximal at
        (p_k - p_j) / (2 (p_k p_j - p_kj^2)), and the step is clipped at w_j
        (a drop step).  p is then updated exactly (rank-2 Woodbury), so the
        multiplicative update sees the exchanged design's own polynomial.
        """
        p, w, vt = self.p, self.w, self.vt
        j = int(np.where(w > 0.0, p, np.inf).argmin())
        p_k, p_j = float(p[k]), float(p[j])
        u = np.dot(self.m_inv, vt[:, [k, j]])  # M^{-1} [v_k v_j]
        p_kj = float(np.dot(u[:, 0], vt[:, j]))
        delta = p_k * p_j - p_kj * p_kj
        if j == k or not p_k > p_j or not delta > 0.0:
            return
        alpha = min((p_k - p_j) / (2.0 * delta), float(w[j]))
        w[k] += alpha
        w[j] -= alpha
        # M' = M + U diag(alpha, -alpha) U^T with U = [v_k, v_j], so with
        # a_i = v_k^T M^{-1} v_i and b_i = v_j^T M^{-1} v_i, Woodbury gives
        # p'_i = p_i - [a_i b_i] G^{-1} [a_i b_i]^T for
        # G = [[1/alpha + p_k, p_kj], [p_kj, p_j - 1/alpha]], det G = -r/alpha^2.
        # The 2x2 inverse is written out in Python floats, scaled by alpha so
        # that no 1/alpha appears.
        s = alpha / ((1.0 + alpha * p_k) * (1.0 - alpha * p_j) + alpha * alpha * p_kj * p_kj)
        a, b = np.dot(u.T, vt)
        c_aa = -s * (1.0 - alpha * p_j)
        c_ab = -2.0 * s * alpha * p_kj
        c_bb = s * (1.0 + alpha * p_k)
        p += a * (c_aa * a + c_ab * b) + c_bb * b * b


def _reduce(v2: np.ndarray, atoms: np.ndarray,
            w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Caratheodory in moment space: at most rank(v2[atoms]) atoms, same y.

    v2 is the degree-2d Vandermonde matrix, atoms the rows that carry the
    positive weights w.  Returns the kept atoms and their weights, with
    w' @ v2[kept] = w @ v2[atoms] up to round-off, so M(w) and log det M(w)
    do not change.

    The atoms are split into 2s + 2 groups, s = v2.shape[1].  One SVD gives
    the null space of the groups' mean moment vectors, and walking the group
    masses along each null vector in turn, until the first of them reaches
    0, empties at least one group per vector; the other null vectors are
    then eliminated at that group so later walks leave it empty.  Each level
    roughly halves the atoms, and the last level, on single atoms, leaves
    rows that are linearly independent.
    """
    groups = 2 * v2.shape[1] + 2
    while True:
        m = atoms.size
        g = min(groups, m)
        label = np.arange(m) * g // m
        mass = np.bincount(label, w)
        if m <= groups:  # one atom per group, as after each exchange
            mean = v2[atoms]
        else:
            # Group j holds atoms ceil(j m / g) up to ceil((j + 1) m / g).  One
            # product per group, so that no (m, s) copy of v2 is made.
            edges = -(-np.arange(g + 1) * m // g)
            mean = np.array([
                np.dot(w[a:b], v2[atoms[a:b]]) for a, b in zip(edges[:-1], edges[1:])
            ]) / mass[:, None]
        # Scaling columns leaves the null space alone and evens out the
        # moments of different degrees for the rank test.
        scale = np.abs(mean).max(axis=0)
        u, sv, _ = np.linalg.svd(mean / np.where(scale > 0.0, scale, 1.0))
        tol = sv[0] * max(mean.shape) * np.finfo(float).eps
        null = u[:, int(np.count_nonzero(sv > tol)):]
        new = mass.copy()
        for j in range(null.shape[1]):
            step = null[:, j] if null[:, j].max() > 0.0 else -null[:, j]
            up = np.flatnonzero(step > 0.0)
            i = up[np.argmin(new[up] / step[up])]
            new -= (new[i] / step[i]) * step
            new[i] = 0.0
            null[:, j + 1:] -= np.outer(step / step[i], null[i, j + 1:])
        w = w * (new / mass)[label]
        kept = (new > 0.0)[label]
        atoms, w = atoms[kept], w[kept]
        if m <= groups:
            return atoms, w / w.sum()


def _newton_step(loop: _Loop):
    """A backtracked Newton step on the weights of loop's evaluated design.

    Maximizes the quadratic model of log det M(w) on the support subject to
    sum w = 1.  Its Hessian is -(A * A), A = V M^{-1} V^T on the support, and
    since (A * A) w = p the step is w - u / sum(u) with (A * A) u = 1.  The
    step is clipped at the first weight to reach 0, which then drops out, and
    halved until log det rises.  Returns the new weights (0 where an atom
    drops out) and the rise in log det, or None when no rise is found.
    """
    a = np.dot(loop.vt.T, np.dot(loop.m_inv, loop.vt))
    try:
        li = np.linalg.inv(np.linalg.cholesky(a * a))
    except np.linalg.LinAlgError:
        return None
    u = np.dot(li.T, np.dot(li, np.ones(loop.w.size)))
    w = loop.w
    delta = w - u / u.sum()
    shrink = np.flatnonzero(delta < 0.0)
    ratio = w[shrink] / -delta[shrink]
    t_max = float(ratio.min()) if shrink.size else np.inf
    t = min(1.0, t_max)
    for _ in range(_BACKTRACKS):
        trial = np.maximum(w + t * delta, 0.0)
        if t == t_max:
            trial[shrink[ratio.argmin()]] = 0.0
        trial /= trial.sum()
        gain = loop.gain(trial - w)
        if gain > 0.0:
            return trial, gain
        t *= 0.5
    return None


def _newton(v2: np.ndarray, pos: np.ndarray, support: np.ndarray,
            w: np.ndarray, target: float, budget: int):
    """Finish on at most s atoms: Newton steps on the support, exchanges in.

    v2 is the degree-2d Vandermonde matrix of every candidate and
    (support, w) the loop's design.  The design is first reduced to at most s
    atoms with the same moments (`_reduce`).  Then, while p > target on some
    candidate, each step is a Newton step on the weights (`_newton_step`)
    while some support atom fails the target; otherwise, or when Newton
    finds no rise, the loop's exchange moves mass into the worst candidate,
    and the grown support is reduced again.  This is the
    add-a-point-then-Newton scheme of Yang, Biedermann & Tang (2013).

    Returns (support, weights, steps, converged): steps holds one
    (objective, p_max over every candidate) pair per step, at most budget of
    them, and converged means p <= target on every candidate.  The objective
    advances by each step's measured `_Loop.gain`; an exchange is taken
    whenever it moves mass, as in the loop, even where its gain is lost in
    round-off.  An exchange that moves no mass ends the call unconverged.
    """
    support, w = _reduce(v2, support, w)
    loop = _Loop(v2[support], w, pos)
    objective, p_support, _ = loop.evaluate()
    p = np.dot(v2, loop.c)
    steps: list[tuple[float, float]] = []
    while True:
        k = int(p.argmax())
        if p[k] <= target or len(steps) >= budget:
            return support, loop.w, steps, bool(p[k] <= target)
        stepped = _newton_step(loop) if p_support > target else None
        if stepped is not None:
            w, gain = stepped
            support, w = support[w > 0.0], w[w > 0.0]
        else:
            grown = np.append(support, k)
            before = np.append(loop.w, 0.0)
            loop = _Loop(v2[grown], before.copy(), pos)
            loop.evaluate()
            loop.exchange(support.size)
            if not loop.w[-1] > 0.0:
                return support, before[:-1], steps, False
            gain = loop.gain(loop.w - before)
            held = loop.w > 0.0
            support, w = _reduce(v2, grown[held], loop.w[held])
        objective += gain
        loop = _Loop(v2[support], w, pos)
        _, p_support, _ = loop.evaluate()
        p = np.dot(v2, loop.c)
        steps.append((objective, float(p.max())))


def solve(cands: CandidateSet, d: int, cfg: SolverConfig) -> SolveResult:
    """Maximize log det M(w) over the simplex on the candidate set.

    One pass: exchange-plus-multiplicative steps on every candidate, from
    the uniform design, until p_max <= n_d (1 + max(epsilon, 1e-2)); then,
    unless p_max <= n_d (1 + epsilon) already holds, one finish of Newton
    steps on at most s atoms (`_newton`), which ends the solve once p_max <=
    n_d (1 + epsilon) on every candidate, when the iteration budget runs out
    or when its exchange moves no mass.  The design returned is the last
    iterate's atoms of positive weight, in candidate order.
    Non-convergence is not an error: the result carries converged=False and
    the full trace.

    Raises:
        TooFewCandidatesError: if there are fewer candidates than regression
            functions (the information matrix cannot have full rank).
        DegenerateDesignError: if the uniform start is singular (the
            candidates do not determine the model).
    """
    n_d = math.comb(cands.n + d, d)
    # Compared before the basis is built, which costs time and memory in n_d.
    if cands.size < n_d:
        # str() refuses an int of more than 4,300 digits.
        count = n_d if n_d < 10**15 else f"about 10^{math.log10(n_d):.0f}"
        raise TooFewCandidatesError(
            f"{cands.size} candidates for {count} regression functions"
        )

    basis_2d = enumerate_basis(cands.n, 2 * d)
    pos = outer_position_map(enumerate_basis(cands.n, d), basis_2d)
    v2 = vandermonde(basis_2d, cands.points)
    target = n_d * (1.0 + cfg.epsilon)
    handoff = n_d * (1.0 + max(cfg.epsilon, _HANDOFF))

    loop = _Loop(v2, np.full(cands.size, 1.0 / cands.size), pos)
    trace_obj: list[float] = []
    trace_pmax: list[float] = []
    iterations = 0
    while True:
        objective, p_max, k = loop.evaluate()
        trace_obj.append(objective)
        trace_pmax.append(p_max)
        if p_max <= handoff or iterations >= cfg.max_iters:
            break
        loop.step(k)
        iterations += 1
    support = np.flatnonzero(loop.w > 0.0)
    w = loop.w[support]
    converged = p_max <= target
    if not converged and iterations < cfg.max_iters:
        loop = None  # frees its (n_d, N) copy of V_d^T before the finish
        support, w, steps, converged = _newton(
            v2, pos, support, w, target, cfg.max_iters - iterations
        )
        iterations += len(steps)
        for objective, p_max in steps:
            trace_obj.append(objective)
            trace_pmax.append(p_max)
        order = np.argsort(support)
        support, w = support[order], w[order]

    design = DesignMeasure(
        candidates=CandidateSet(points=cands.points[support]),
        weights=w,
    )
    return SolveResult(
        design=design,
        iterations=iterations,
        converged=converged,
        trace_objective=np.array(trace_obj),
        trace_p_max=np.array(trace_pmax),
    )
