"""Log-det maximization over the weight simplex on a candidate set.

Every step reads the Christoffel-Darboux polynomial p of the current design,
p(x) = v(x)^T M(w)^{-1} v(x), whose weighted mean over the design is
identically n_d.  The solver is one engine, the add-a-point-then-Newton
scheme of Yang, Biedermann & Tang (2013, JASA):

* the start puts uniform weight on n_d candidates picked by pivoted
  Gram-Schmidt on the rows of the degree-d Vandermonde matrix V_d, so M(w)
  is nonsingular whenever the candidates determine the model;
* while some support atom fails the stop test p <= n_d (1 + epsilon), the
  step is one Newton trial on the support's weights, taken when it raises
  log det M(w);
* otherwise, or when the trial does not raise it, a vertex exchange (Todd &
  Yildirim 2007) moves the det-maximizing mass from the support atom with
  the lowest p to the candidate with the highest p, found by a line search
  on the eigenvalues of the moment change, which also give its rise in
  log det.

Each iterate is evaluated once, and the Newton trial and the exchange both
read that evaluation.  It works in moment space, the paper's dual pair: the
design's degree-2d moment vector y = V2^T w fills M(w) = M_d(y), and p is
expanded in the degree-2d basis through the adjoint map,
c = M_d^*(M(w)^{-1}), so that p = V2 c on every candidate.  V2, the
degree-2d Vandermonde matrix of the candidates, is built once; its first n_d
columns are the degree-d one.  The evaluation reads p on the support only;
p on every candidate, the pass through all of V2 that prices the candidates
(column generation), is formed on first read, which happens only when the
step needs it: to test convergence, or to pick the exchange's candidate
once no support atom fails the stop test or the Newton trial does not raise
log det.  A support atom that fails the test already shows that the
iterate has not converged.  The certificate evaluates p of the final
design from its own rank-one assembly of M and the inverse of its Cholesky
factor instead, an independent route.

M(w) depends on w only through y, which has s = C(n + 2d, n) entries.  A
Newton step only drops atoms and an exchange adds one.  When the support's
moment rows become dependent, which makes the Newton system singular, or
the support grows past s atoms, Caratheodory's theorem swaps the design for
one on fewer atoms with the same y, hence the same M, p and certificate.

The solve stops once the stop test holds on every candidate, when the
budget runs out, or when an exchange moves no mass.  max_iters counts the
Newton steps and exchanges.  The trace records one (objective, p_max) pair
for the start and one per step, so it holds iterations + 1 entries.  p_max
is taken over every candidate where the iterate was priced and is NaN where
its step did not need p on every candidate; the last iterate is always
priced.

The grid of a symmetric set (`grid_candidates`) is solved on the orbits of
its verified group.  A signed permutation of the coordinates
that maps the candidates onto themselves maps the monomials onto themselves
up to sign, so it leaves log det M of a design's image unchanged; log det M
is concave, so the optimal M and its p are invariant, and one weight per
orbit is enough (Pukelsheim, Optimal Design of Experiments, 1993, ch. 13).
The engine runs on the rows R of its candidates' orbits (`_Orbits`), each
the mean of its members' V2 rows and held on its distinct moments only:
pricing is p = R c, a support atom is an orbit, and the start is uniform
weight on the orbits of the greedy picks.  The Newton Hessian is the
orbit-block mean of A * A over the members, and the exchange's moment
change is the difference of two orbit rows.  Each orbit's weight is split
equally over its members in the design returned, so the design is exactly
invariant.  Any other candidate set has the trivial group (`_Points`): R is
V2 itself, every moment its own column and every point its own orbit, so
each step is the one on the points.

The design returned is the last iterate's atoms of positive weight, and
converged means p <= n_d (1 + epsilon) on every candidate, or on every
orbit, where p is the mean over its members.  p of the final design on the
candidates is the certificate's to compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spd
from .basis import (
    MultiIndexBasis,
    adjoint_expand,
    enumerate_basis,
    moment_matrix,
    vandermonde,
)
from .design import DesignMeasure
from .errors import (
    DegenerateDesignError,
    NotPositiveDefiniteError,
    TooFewCandidatesError,
)
from .semialg import CandidateSet, _GridCandidates

@dataclass(frozen=True)
class SolverConfig:
    """Termination parameters.

    epsilon is the relative optimality tolerance on p_max / n_d - 1; through
    the certificate scaling it bounds the duality gap by n_d * log(1+epsilon).
    max_iters bounds the Newton steps and exchanges.
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

    converged means p <= n_d (1 + epsilon) held on every candidate, or on
    every orbit of a symmetric grid's candidates, at the final iterate; the
    design gives each member of an orbit the same weight.  iterations
    counts Newton steps and exchanges.  The traces hold one entry for the
    greedy start, then one per step, so they have iterations + 1 entries.
    trace_p_max holds p_max over every candidate (or orbit) where that
    iterate was priced and NaN where its step did not need p on every
    candidate; its last entry is always priced.
    prune_rolled_back is always False: nothing is pruned, and the field is
    kept for the benchmark, which reads it.
    """

    design: DesignMeasure
    iterations: int
    converged: bool
    trace_objective: np.ndarray
    trace_p_max: np.ndarray
    prune_rolled_back: bool = False


class _Iterate:
    """One evaluated iterate: weights w on the orbits `support` of `space`.

    space.rows holds one degree-2d moment row per orbit of the candidates
    (`_Orbits`, or `_Points`, where the rows are V2 itself), on the distinct
    moments (`unfold` maps them to all s); rows holds the support's, and
    basis_d is the degree-d basis.  The evaluation, made once when the
    iterate is built, forms y = rows^T w, M(w) = M_d(y) (`moment_matrix`),
    its factor `spd.factorize(M(w))`, and reads from that factor
    log det M(w), li = L^{-1} and m_inv = M^{-1}; then c = M_d*(M^{-1})
    (`adjoint_expand`, folded onto the rows' columns) and the support's p,
    p_support = rows c.  p = space.rows c on every orbit is formed on first
    read and kept; on an orbit it is the mean of p over its members.

    Raises DegenerateDesignError when M(w) fails the factor's pivot test.
    """

    def __init__(self, space: _Points, basis_d: MultiIndexBasis,
                 support: np.ndarray, w: np.ndarray):
        self.space, self.support, self.w, self.basis_d = space, support, w, basis_d
        self.rows = space.rows[support]
        y = space.unfold(np.dot(w, self.rows))
        try:
            factor = spd.factorize(moment_matrix(y, basis_d))
        except NotPositiveDefiniteError:
            raise DegenerateDesignError(
                "information matrix is singular: the design does not determine "
                "the model"
            ) from None
        self.log_det = factor.log_det
        self.li = factor.inv_chol
        self.m_inv = spd.inverse(factor)
        self.c = space.fold(adjoint_expand(self.m_inv, basis_d))
        self.p_support = np.dot(self.rows, self.c)

    @cached_property
    def p(self) -> np.ndarray:
        """p = space.rows c on every orbit: the pricing pass."""
        return np.dot(self.space.rows, self.c)

    def eigenvalues(self, dy: np.ndarray) -> np.ndarray:
        """The eigenvalues of L^{-1} M_d(dy) L^{-T}, ascending, for a change dy
        of the moments (on the columns of space.rows): log det M(y + alpha dy) -
        log det M(y) is the sum of log(1 + alpha lambda) over them."""
        change = moment_matrix(self.space.unfold(dy), self.basis_d)
        b = np.dot(self.li, np.dot(self.li, change).T)
        return np.linalg.eigvalsh(b)

    def gain(self, dy: np.ndarray) -> float:
        """log det M(y + dy) - log det M(y) for a change dy of the moments.

        The sum of log(1 + lambda) over `eigenvalues(dy)` stays accurate for
        a small dy, where the difference of two log dets drowns in their
        round-off; -inf when M(y + dy) is not positive definite.
        """
        lam = self.eigenvalues(dy)
        if not lam[0] > -1.0:
            return -np.inf
        return float(np.log1p(lam).sum())


def _squared_kernel(vd: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    """A * A for A = V M^{-1} V^T, V the rows of vd."""
    a = np.dot(vd, np.dot(m_inv, vd.T))
    a *= a
    return a


class _Points:
    """The candidates under the trivial group: every point is its own orbit,
    the rows are v2, the candidates' degree-2d Vandermonde matrix, itself,
    and every moment is its own column."""

    def __init__(self, cands: CandidateSet, basis_2d: MultiIndexBasis):
        self.v2 = self.rows = vandermonde(basis_2d, cands.points)

    def unfold(self, y: np.ndarray) -> np.ndarray:
        """All s moments from one entry per column of rows."""
        return y

    def fold(self, c: np.ndarray) -> np.ndarray:
        """Coefficients on the s moments summed onto the columns of rows."""
        return c

    def of(self, picks: np.ndarray) -> np.ndarray:
        """The orbits of the candidates `picks`, each once, in pick order."""
        return picks

    def hessian(self, it: _Iterate) -> np.ndarray:
        """The Newton Hessian H on the support of it: A * A on its points."""
        return _squared_kernel(it.rows[:, :it.m_inv.shape[0]], it.m_inv)

    def split(self, support: np.ndarray, w: np.ndarray):
        """The design's candidates and weights from weights w on orbits."""
        return support, w


class _Orbits(_Points):
    """The members of a symmetric grid (`semialg._GridCandidates`) as the
    orbits of its verified group, in moment space.

    An orbit's moment row, the mean of its members' V2 rows, is the group
    average of any one member's row: a moment odd in a flipped axis averages
    to 0, and the moments that the group permutes share one mean.  So rows
    holds one column per shared mean, formed once from each orbit's first
    member, and no second N x s array is formed.  `unfold` maps such a row
    (or a moment change) to all s moments, and `fold` maps coefficients on
    the s moments to the columns of rows, so that a polynomial's orbit mean
    is rows fold(c).  The support's rows are dependent once it has more
    orbits than rows has columns.  v2 is kept for the members' own rows; it
    is built once the orbits are found, so their scratch arrays are gone.
    """

    def __init__(self, cands: _GridCandidates, basis_2d: MultiIndexBasis):
        self.ids, group = cands.orbits(), cands.grid.group
        self.v2 = v2 = vandermonde(basis_2d, cands.points)
        self.sizes = np.bincount(self.ids)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.order = np.argsort(self.ids, kind="stable")  # members, orbit by orbit
        shared: dict[tuple[int, ...], list[int]] = {}
        for col, a in enumerate(basis_2d.indices):
            if not any(a[j] % 2 for j in group.flips):
                a = list(a)
                for cls in group.classes:
                    for j, e in zip(cls, sorted(a[j] for j in cls)):
                        a[j] = e
                shared.setdefault(tuple(a), []).append(col)
        first = self.order[self.starts]
        self.rows = np.empty((first.size, len(shared)))
        self.column = np.full(v2.shape[1], len(shared))  # the odd moments: 0
        for m, cols in enumerate(shared.values()):
            self.rows[:, m] = v2[np.ix_(first, cols)].mean(axis=1)
            self.column[cols] = m

    def unfold(self, y: np.ndarray) -> np.ndarray:
        return np.append(y, 0.0)[self.column]

    def fold(self, c: np.ndarray) -> np.ndarray:
        return np.bincount(self.column, c, minlength=self.rows.shape[1] + 1)[:-1]

    def of(self, picks: np.ndarray) -> np.ndarray:
        return np.array(list(dict.fromkeys(self.ids[picks].tolist())))

    def hessian(self, it: _Iterate) -> np.ndarray:
        """H_ab, the mean of A * A over the members of orbits a and b."""
        members, begin = self.members(it.support)
        a = _squared_kernel(self.v2[members, :it.m_inv.shape[0]], it.m_inv)
        a = np.add.reduceat(np.add.reduceat(a, begin, axis=0), begin, axis=1)
        sizes = self.sizes[it.support]
        a /= np.outer(sizes, sizes)
        return a

    def split(self, support: np.ndarray, w: np.ndarray):
        sizes = self.sizes[support]
        return self.members(support)[0], np.repeat(w / sizes, sizes)

    def members(self, orbits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The members of the given orbits, orbit after orbit, and the
        position where each orbit's members begin."""
        counts = self.sizes[orbits]
        begin = np.cumsum(counts) - counts
        at = np.repeat(self.starts[orbits] - begin, counts) + np.arange(counts.sum())
        return self.order[at], begin


#: Relative width of a tie: the greedy start picks the lowest index among the
#: residual norms within this fraction of the largest.
_TIE = 1e-9


def _greedy(vd: np.ndarray) -> np.ndarray:
    """n_d rows of V_d by pivoted Gram-Schmidt, the largest residual first.

    Each pick is the row farthest from the span of the rows picked before
    it, so the picked block is nonsingular when rank V_d = n_d, and so are
    the picked points' degree-2d moment rows (the degree-d Lagrange
    polynomials on the points separate them).  When the rank falls short,
    the picks end at a zero residual or pass round-off residuals, and the
    start's information matrix is singular.

    No residual matrix is formed: the squared residual norms start as the
    rows' squared norms and each pick's unit direction q downdates them,
    norms -= (V_d q)^2.  Only the picked row's residual is formed,
    orthogonalized twice against the directions picked before.  A tie, norms
    within a relative _TIE of the largest, goes to the lowest index, so
    mirror-image candidates do not pick by round-off.  vd may be a column
    view of V2; its products are taken with @, which does not copy it.
    """
    n_d = vd.shape[1]
    norms = np.einsum("ij,ij->i", vd, vd)
    qs = np.empty((n_d, n_d))  # row j: the unit direction of pick j
    picked = []
    for j in range(n_d):
        top = norms.max()
        if not top > 0.0:
            break
        k = int(np.argmax(norms >= top * (1.0 - _TIE)))
        r = vd[k] - (qs[:j] @ vd[k]) @ qs[:j]
        r -= (qs[:j] @ r) @ qs[:j]
        size = math.sqrt(r @ r)
        if not size > 0.0:
            break
        qs[j] = r / size
        picked.append(k)
        norms -= np.square(vd @ qs[j])
    return np.array(picked)


def _reduce(v2: np.ndarray, atoms: np.ndarray,
            w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Caratheodory in moment space: at most rank(v2[atoms]) atoms, same y.

    v2 is the degree-2d Vandermonde matrix, atoms the rows that carry the
    positive weights w.  Returns the kept atoms and their weights, with
    w' @ v2[kept] = w @ v2[atoms] up to round-off, so M(w) and log det M(w)
    do not change.

    One SVD gives the null space of the atoms' moment rows.  Walking the
    weights along each null vector in turn, until the first of them reaches
    0, empties one atom per vector; the other null vectors are then
    eliminated at that atom so later walks leave it empty.  The rows kept
    are linearly independent.  Rows that already are come back untouched,
    atoms and w themselves: renormalizing w would move log det by round-off.
    """
    rows = v2[atoms]
    # Scaling columns leaves the null space alone and evens out the moments
    # of different degrees for the rank test.
    scale = np.abs(rows).max(axis=0)
    u, sv, _ = np.linalg.svd(rows / np.where(scale > 0.0, scale, 1.0))
    tol = sv[0] * max(rows.shape) * np.finfo(float).eps
    null = u[:, int(np.count_nonzero(sv > tol)):]
    if not null.shape[1]:
        return atoms, w
    w = w.copy()
    for j in range(null.shape[1]):
        step = null[:, j] if null[:, j].max() > 0.0 else -null[:, j]
        up = np.flatnonzero(step > 0.0)
        i = up[np.argmin(w[up] / step[up])]
        w -= (w[i] / step[i]) * step
        w[i] = 0.0
        null[:, j + 1:] -= np.outer(step / step[i], null[i, j + 1:])
    kept = w > 0.0
    return atoms[kept], w[kept] / w[kept].sum()


def _newton_step(it: _Iterate):
    """One Newton step on the weights of the support, tried once.

    Maximizes the quadratic model of log det M(w) on the support subject to
    sum w = 1.  Its Hessian is -H (`hessian`): H = A * A, A = V M^{-1} V^T
    on the support's points, and on orbits H_ab is the mean of A * A over
    the members of orbits a and b.  Since H w = p on the support, the step is
    w - u / sum(u) with H u = 1.  The step is clipped at the first weight to
    reach 0, which then drops out.  Returns (support, weights, rise in log
    det) without the dropped atom, or None when log det does not rise; the
    engine then takes the exchange.

    Raises NotPositiveDefiniteError when H fails the pivot test of
    `spd.factorize`, which happens exactly when the support's degree-2d
    moment rows are dependent.
    """
    a = it.space.hessian(it)
    spd.factorize(a)  # the pivot test only
    w = it.w
    u = np.linalg.solve(a, np.ones(w.size))
    delta = w - u / u.sum()
    shrink = np.flatnonzero(delta < 0.0)
    ratio = w[shrink] / -delta[shrink]
    t_max = float(ratio.min()) if shrink.size else np.inf
    trial = np.maximum(w + min(1.0, t_max) * delta, 0.0)
    if t_max <= 1.0:
        trial[shrink[ratio.argmin()]] = 0.0
    trial /= trial.sum()
    gain = it.gain(np.dot(trial - w, it.rows))
    if not gain > 0.0:
        return None
    held = trial > 0.0
    return it.support[held], trial[held], gain


def _line_search(lam: np.ndarray, top: float) -> float:
    """The alpha in [0, top] that maximizes sum log(1 + alpha lam), for
    eigenvalues lam in ascending order whose sum is positive.

    The sum is concave in alpha, so its slope falls; 1 + alpha lam > 0 on
    [0, top) because the moved mass leaves M positive semidefinite.  Newton
    steps on the slope, bisecting the bracket [lo, hi] whenever a step leaves
    it, stop once a step moves alpha by at most a relative 1e-12 of top, or
    after 100 steps.
    """
    if 1.0 + top * lam[0] > 0.0 and np.sum(lam / (1.0 + top * lam)) >= 0.0:
        return top
    lo, hi, alpha = 0.0, top, 0.0
    for _ in range(100):
        ratio = lam / (1.0 + alpha * lam)
        rise = float(ratio.sum())
        if rise == 0.0:
            break
        lo, hi = (alpha, hi) if rise > 0.0 else (lo, alpha)
        step = alpha + rise / float(ratio @ ratio)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        done = abs(step - alpha) <= 1e-12 * top
        alpha = step
        if done:
            break
    return alpha


def _exchange(it: _Iterate, k: int):
    """Move the det-maximizing mass from the lowest-p atom to row k.

    Reads the rows and the priced p on every row (`_Iterate.p`) from the
    evaluated iterate it; the donor j is the argmin of that p over the
    support.  Moving alpha from atom j to row k changes the moments by
    alpha dy, dy = rows[k] - rows[j], and log det M by the sum of
    log(1 + alpha lambda) over the eigenvalues lambda of dy
    (`_Iterate.eigenvalues`); alpha maximizes that sum on [0, w_j]
    (`_line_search`), a drop step when it reaches w_j.  For two single
    points the change has rank two and the sum is the log of Todd &
    Yildirim's (2007) det ratio.  k joins the support when it is not on it.

    Returns (support, weights, rise in log det) without an emptied atom, the
    rise read from the same eigenvalues; or None when the exchange moves no
    mass.
    """
    support, p, rows = it.support, it.p, it.space.rows
    i = int(p[support].argmin())
    j = int(support[i])
    if not p[k] > p[j]:
        return None
    lam = it.eigenvalues(rows[k] - rows[j])
    alpha = _line_search(lam, float(it.w[i]))
    if k in support:
        m, before = int(np.flatnonzero(support == k)[0]), it.w
    else:
        m, support, before = support.size, np.append(support, k), np.append(it.w, 0.0)
    w = before.copy()
    w[m] += alpha
    w[i] -= alpha
    if not w[m] > before[m]:
        return None
    held = w > 0.0
    return support[held], w[held], float(np.log1p(alpha * lam).sum())


def _newton(space: _Points, basis_d: MultiIndexBasis, support: np.ndarray,
            w: np.ndarray, target: float, budget: int):
    """The solve: Newton steps on the support, exchanges to bring atoms in.

    space holds the degree-2d moment row of every orbit of the candidates
    (`_Orbits`, or `_Points`, whose rows are V2), basis_d is the degree-d
    basis and (support, w) the start, on orbits.  Each iterate is evaluated
    once (`_Iterate`), and its step reads that evaluation.  While some
    support atom fails p <= target, the iterate has not converged and the
    step is one Newton trial on the weights (`_newton_step`), taken without
    pricing every row.  Otherwise, or when the trial does not raise log det,
    the iterate is priced (`_Iterate.p`): it has converged when p <= target
    on every row, and else the exchange moves mass into the worst row
    (`_exchange`).  When the Newton system is singular, or an exchange grows
    the support past as many atoms as the rows have columns (s, or the
    orbit rows' distinct moments), the design is reduced to independent
    moment rows (`_reduce`), which is not a step.

    Returns (support, weights, trace, converged): trace holds one
    [objective, p_max] pair for the start and one per step, at most budget
    steps, with p_max over every row where the iterate was priced and NaN
    elsewhere.  The last iterate is always priced, and converged means
    p <= target on every row.  The objective advances by each step's rise:
    a Newton trial's measured by `_Iterate.gain`, an exchange's read from
    the eigenvalues of its own moment change.  An exchange is taken
    whenever it moves mass, even where its rise is lost in round-off; one
    that moves no mass ends the call unconverged.
    """
    v2 = space.rows
    it = _Iterate(space, basis_d, support, w)
    objective = it.log_det
    trace = [[objective, math.nan]]
    while True:
        step = None
        if it.p_support.max() > target and len(trace) <= budget:
            try:
                step = _newton_step(it)
            except NotPositiveDefiniteError:
                support, w = _reduce(v2, it.support, it.w)
                if support.size < it.support.size:  # else round-off: exchange instead
                    it = _Iterate(space, basis_d, support, w)
                    continue
        if step is None:
            k = int(it.p.argmax())
            trace[-1][1] = float(it.p[k])
            if it.p[k] <= target or len(trace) > budget:
                return it.support, it.w, trace, bool(it.p[k] <= target)
            step = _exchange(it, k)
            if step is None:
                return it.support, it.w, trace, False
        support, w, gain = step
        if support.size > v2.shape[1]:
            support, w = _reduce(v2, support, w)
        objective += gain
        it = _Iterate(space, basis_d, support, w)
        trace.append([objective, math.nan])


def solve(cands: CandidateSet, d: int, cfg: SolverConfig) -> SolveResult:
    """Maximize log det M(w) over the simplex on the candidate set.

    Starts from uniform weight on the orbits of n_d candidates picked
    greedily (`_greedy`), each candidate its own orbit (`_Points`) unless
    the set is the grid of a symmetric set (`_Orbits`), and runs the engine
    once (`_newton`): Newton steps on the support and exchanges, until
    p_max <= n_d (1 + epsilon) on every orbit, the iteration budget runs
    out or an exchange moves no mass.  The design
    returned is the last iterate's atoms of positive weight, each orbit's
    split equally over its members, in candidate order.  Non-convergence is
    not an error: the result carries converged=False and the full trace.

    Raises:
        TooFewCandidatesError: if there are fewer candidates than regression
            functions (the information matrix cannot have full rank).
        DegenerateDesignError: if the greedy start is singular (the
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
    space = (_Orbits(cands, basis_2d) if isinstance(cands, _GridCandidates)
             else _Points(cands, basis_2d))
    start = space.of(_greedy(space.v2[:, :n_d]))
    support, w, trace, converged = _newton(
        space, enumerate_basis(cands.n, d), start,
        np.full(start.size, 1.0 / start.size), n_d * (1.0 + cfg.epsilon),
        cfg.max_iters,
    )
    support, w = space.split(support, w)
    order = np.argsort(support)
    trace_obj, trace_pmax = np.array(trace).T.copy()
    design = DesignMeasure(
        candidates=CandidateSet(points=cands.points[support[order]]),
        weights=w[order],
    )
    return SolveResult(
        design=design,
        iterations=len(trace) - 1,
        converged=converged,
        trace_objective=trace_obj,
        trace_p_max=trace_pmax,
    )
