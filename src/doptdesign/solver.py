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
certificate evaluates p of the final design by triangular solves instead,
an independent route.

Each evaluation also applies the bound of Harman & Pronzato (2007): a
candidate whose p lies below a threshold set by p_max - n_d cannot support
any D-optimal design, so it is removed for good.  The active set is
compacted only when at most half of it survives, which keeps the rebuilds at
O(log N), and only when a lower bound on the change in log det is
nonnegative.

The loop stops once p_max <= n_d (1 + epsilon) on the active rows (the
Kiefer-Wolfowitz equivalence test).  The eliminated rows are then checked
with the same coefficients c, and any above the target re-enter with weight
zero before the loop goes on, so the stop test holds on every candidate.
The trace records one (objective, p_max) pair per evaluated iterate, with
p_max taken over the active rows; the evaluation after a compaction is not
logged, so without pruning the trace holds iterations + 1 entries.

After the loop terminates, weights below the pruning threshold are dropped
and the iteration resumes on the reduced set until the stopping test holds
there as well.  The pruned rows, which no stop test saw, are checked once at
exit, so converged means p <= n_d (1 + epsilon) on every candidate.  p of
the final design on the candidates is the certificate's to compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .basis import enumerate_basis, outer_position_map, vandermonde
from .design import DesignMeasure
from .errors import ConfigError, DegenerateDesignError, TooFewCandidatesError
from .semialg import CandidateSet
from .spd import pivot_tolerance

#: Weights this far below machine range are dead by hundreds of orders of
#: magnitude; flushing them to exact zero keeps the arithmetic out of the
#: subnormal range, where hardware float operations run an order of magnitude
#: slower.  Zero is an absorbing state of the update, so results only change
#: below the 1e-150 level.
_FLUSH = 1e-160


@dataclass(frozen=True)
class SolverConfig:
    """Termination and pruning parameters.

    epsilon is the relative optimality tolerance on p_max / n_d - 1; through
    the certificate scaling it bounds the duality gap by n_d * log(1+epsilon).
    prune_threshold must stay below 1/n_d (checked at solve time) so pruning
    can never empty an optimal support.
    """

    epsilon: float = 1e-6
    max_iters: int = 100_000
    prune_threshold: float = 1e-7

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.prune_threshold >= 0:
            raise ValueError(
                f"prune_threshold must be nonnegative, got {self.prune_threshold}"
            )


@dataclass(frozen=True)
class SolveResult:
    """Final design, the iteration record and the solver's verdict.

    converged means p <= n_d (1 + epsilon) held on every candidate at the
    final iterate.  trace holds one (objective, p_max) pair per evaluated
    iterate (the start, each iteration, and the start of each polish after
    pruning), with p_max over the rows still active at that iterate.
    """

    design: DesignMeasure
    iterations: int
    converged: bool
    trace_objective: np.ndarray
    trace_p_max: np.ndarray
    prune_rolled_back: bool = False


class _Loop:
    """Fused evaluate/step loop over one active subset of the candidates.

    v2 holds the active rows of the degree-2d Vandermonde matrix and
    pos = outer_position_map(basis_d, basis_2d).  Per iteration: y = V2^T w,
    M(w) = y[pos], its Cholesky factor and M^{-1}, c with c_g the sum of
    M^{-1}_ij over pos_ij = g, p = V2 c at every active candidate, then log
    the iterate, test, step.  The two GEMVs on the (N, s) matrix,
    s = C(n + 2d, n), do O(N s) flops where a rank-one GEMM and a triangular
    solve on (N, n_d) matrices do O(N n_d^2).  Uses raw LAPACK (potrf/trtri)
    because these matrices are tiny and call overhead dominates.
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
        self.m_inv = np.empty((n_d, n_d))
        self.c = None  # p in the degree-2d basis, at the last evaluated iterate
        self.p = np.empty(v2.shape[0])

    def evaluate(self) -> tuple[float, float, int]:
        """Objective, p_max and argmax p of the current iterate; fills self.p."""
        np.dot(self.w, self.v2, out=self.y)
        m = self.y[self.pos]
        l, info = dpotrf(m, lower=1)
        diag = l.diagonal()
        # n_d is small, so scalar min/max over Python floats beat array calls.
        # Squaring is monotone on the positive pivots: min(d)^2 = min(d^2).
        d_min = min(diag.tolist()) if info == 0 else 0.0
        if d_min * d_min <= pivot_tolerance(self.n_d, max(m.diagonal().tolist())):
            raise DegenerateDesignError(
                "information matrix is singular: the design does not determine "
                "the model"
            )
        li, _ = dtrtri(l, lower=1)
        np.dot(li.T, li, out=self.m_inv)
        self.c = np.bincount(self.pos_flat, self.m_inv.ravel(), minlength=self.y.size)
        np.dot(self.v2, self.c, out=self.p)
        objective = 2.0 * float(np.log(diag).sum())
        k = int(self.p.argmax())
        return objective, float(self.p[k]), k

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


def _elimination_threshold(n_d: int, p_max: float) -> float:
    """Harman & Pronzato (2007): a row with p below this supports no D-optimum.

    The excess is the ABSOLUTE eps = p_max - n_d, as in their bound.  The
    relative excess p_max / n_d - 1 is n_d times smaller and gives a higher
    threshold that is not a valid bound: on 1-D grids with known optima, a
    random design put a true support point at 0.936 of it.
    """
    eps = max(p_max - n_d, 0.0)
    return n_d * (1.0 + 0.5 * eps - 0.5 * math.sqrt(eps * (4.0 + eps - 4.0 / n_d)))


def _survivors(loop: _Loop, p_max: float) -> np.ndarray | None:
    """Mask of the active rows that outlive elimination, or None to keep all.

    Compacting pays only when at most half of the rows survive; at least n_d
    must survive.  Removing rows of total weight W and sum w_i p_i = S, then
    renormalizing, changes log det M by at least
    -n_d log(1 - W) + log(1 - S) (as det(I - A) >= 1 - tr A for
    0 <= A < I), and compaction waits until that bound is nonnegative.
    """
    n_d, p, w = loop.n_d, loop.p, loop.w
    keep = p >= _elimination_threshold(n_d, p_max)
    kept = int(np.count_nonzero(keep))
    if kept < n_d or 2 * kept > p.size:
        return None
    gone = ~keep
    removed = float(w[gone].sum())
    spent = float(np.dot(w[gone], p[gone]))
    if not (removed < 1.0 and spent < 1.0):
        return None
    if -n_d * math.log1p(-removed) + math.log1p(-spent) < 0.0:
        return None
    return keep


def _readmit(loop: _Loop, v2: np.ndarray, active: np.ndarray, dead: np.ndarray,
             target: float):
    """Full-set stop test: p on the inactive rows from the loop's coefficients.

    v2 is the degree-2d Vandermonde matrix of every candidate, so p on the
    rows of `dead` comes from the same formula as the loop's own stop test.

    Returns None when p <= target on every row of `dead`.  Otherwise the rows
    above target re-enter the active set with weight zero, and the new
    (active, weights, dead) are returned, with active kept in candidate order.
    """
    back = np.dot(v2[dead], loop.c) > target
    if not back.any():
        return None
    merged = np.concatenate([active, dead[back]])
    order = np.argsort(merged, kind="stable")
    w = np.concatenate([loop.w, np.zeros(int(back.sum()))])[order]
    return merged[order], w, dead[~back]


def solve(cands: CandidateSet, d: int, cfg: SolverConfig) -> SolveResult:
    """Maximize log det M(w) over the simplex on the candidate set.

    Iterates exchange-plus-multiplicative steps, eliminating candidates that
    cannot carry an optimal design, until p_max <= n_d (1 + epsilon) on every
    candidate or the iteration budget runs out; then prunes sub-threshold
    weights and polishes the pruned design until the same test holds on it.
    Non-convergence is not an error: the result carries converged=False and
    the full trace.  The start is the uniform design on every candidate.

    Raises:
        TooFewCandidatesError: if there are fewer candidates than regression
            functions (the information matrix cannot have full rank).
        ConfigError: if cfg.prune_threshold is not below 1/n_d.
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
    # n_d <= cands.size here, so 1.0 / n_d is a normal float.
    if not cfg.prune_threshold < 1.0 / n_d:
        raise ConfigError(
            f"solver.prune_threshold must be below 1/n_d = {1.0 / n_d:.6g}, "
            f"got {cfg.prune_threshold}"
        )

    basis_2d = enumerate_basis(cands.n, 2 * d)
    pos = outer_position_map(enumerate_basis(cands.n, d), basis_2d)
    v2 = vandermonde(basis_2d, cands.points)
    target = n_d * (1.0 + cfg.epsilon)

    active = np.arange(cands.size)
    dead = active[:0]  # eliminated for good, unless the stop test readmits
    pruned = active[:0]  # dropped by pruning; checked once at exit
    w = np.full(cands.size, 1.0 / cands.size)
    trace_obj: list[float] = []
    trace_pmax: list[float] = []
    iterations = 0
    rolled_back = False

    while True:
        loop = _Loop(v2[active], w, pos)
        local_ok = False
        while True:
            objective, p_max, k = loop.evaluate()
            if p_max <= target and dead.size:
                readmitted = _readmit(loop, v2, active, dead, target)
                if readmitted is not None:
                    active, w, dead = readmitted
                    loop = _Loop(v2[active], w, pos)
                    objective, p_max, k = loop.evaluate()
            trace_obj.append(objective)
            trace_pmax.append(p_max)
            if p_max <= target:
                local_ok = True
                break
            if iterations >= cfg.max_iters:
                break
            keep = _survivors(loop, p_max)
            if keep is not None:
                kept_w = loop.w[keep] / loop.w[keep].sum()
                compact = _Loop(v2[active[keep]], kept_w, pos)
                # The trace keeps the iterate before compaction.  The log det
                # bound in _survivors needs sum w_i p_i < 1 over the removed
                # rows, which keeps the compacted M positive definite in exact
                # arithmetic; round-off can still break that, and then the
                # rows stay.
                try:
                    objective, p_max, k = compact.evaluate()
                except DegenerateDesignError:
                    pass
                else:
                    dead = np.concatenate([dead, active[~keep]])
                    active = active[keep]
                    loop = compact
            loop.step(k)
            iterations += 1
        w = loop.w

        keep = w >= cfg.prune_threshold
        if keep.all():
            break
        if keep.sum() < n_d:
            rolled_back = True
            break
        try:
            _Loop(v2[active[keep]], w[keep] / w[keep].sum(), pos).evaluate()
        except DegenerateDesignError:
            rolled_back = True
            break
        pruned = np.concatenate([pruned, active[~keep]])
        active = active[keep]
        w = w[keep] / w[keep].sum()
        if not local_ok:
            break  # budget exhausted; prune applied once, no polish

    design = DesignMeasure(
        candidates=CandidateSet(points=cands.points[active], source=cands.source),
        weights=w,
    )
    # When local_ok, `loop` last evaluated this very design.
    converged = local_ok and _readmit(loop, v2, active, pruned, target) is None
    return SolveResult(
        design=design,
        iterations=iterations,
        converged=converged,
        trace_objective=np.array(trace_obj),
        trace_p_max=np.array(trace_pmax),
        prune_rolled_back=rolled_back,
    )
