"""Log-det maximization over the weight simplex on a candidate set.

The iteration is the classical multiplicative update

    w_i <- w_i p(x_i) / n_d,

where p is the Christoffel-Darboux polynomial of the current design.  It
keeps the weights on the simplex (the weighted mean of p over the design is
identically n_d), never decreases log det M(w), and contracts the weight of
every candidate where p stays below n_d.  It stops once p_max <= n_d (1 +
epsilon), which is exactly scaled dual feasibility of the design's
polynomial (the Kiefer-Wolfowitz equivalence test on the candidate set).

After the loop terminates, weights below the pruning threshold are dropped
and the iteration resumes on the reduced set until the stopping test holds
there as well; final report quantities (p values, p_max, converged) are then
evaluated against the FULL original candidate set, so a converged flag means
dual feasibility on everything the solver was given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .basis import enumerate_basis, vandermonde
from .design import DesignMeasure, assemble_information
from .errors import DegenerateDesignError, TooFewCandidatesError
from .semialg import CandidateSet
from .spd import pivot_tolerance, quad_form_inv_many

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
    """Final design plus the audit data needed to certify it.

    p_values are the Christoffel-Darboux values of the FINAL design at every
    ORIGINAL candidate point (order preserved), so p_max is the dual
    feasibility margin over the whole training set, not just the surviving
    support.  trace holds one (objective, p_max) pair per evaluated iterate.
    """

    design: DesignMeasure
    candidates: CandidateSet
    objective: float
    p_values: np.ndarray
    p_max: float
    iterations: int
    converged: bool
    trace_objective: np.ndarray
    trace_p_max: np.ndarray
    support_indices: np.ndarray
    prune_rolled_back: bool = False


def init_uniform(cands: CandidateSet, d: int) -> DesignMeasure:
    """Uniform weights over the candidates; the strictly feasible start.

    Raises:
        TooFewCandidatesError: if there are fewer candidates than regression
            functions (the information matrix cannot have full rank).
        DegenerateDesignError: if even the all-candidate design is rank
            deficient (the candidates do not determine the model).
    """
    basis = enumerate_basis(cands.n, d)
    if cands.size < basis.size:
        raise TooFewCandidatesError(
            f"{cands.size} candidates for {basis.size} regression functions"
        )
    mu = DesignMeasure(
        candidates=cands, weights=np.full(cands.size, 1.0 / cands.size)
    )
    assemble_information(mu, d)  # raises DegenerateDesignError when singular
    return mu


class _Loop:
    """Fused evaluate/step loop over one (possibly pruned) candidate subset.

    Per iteration: assemble M(w) as a rank-one sum, factorize, evaluate p at
    every active candidate, log the iterate, test, step.  Uses raw LAPACK
    (potrf/trtri) because these matrices are tiny and call overhead dominates.
    """

    def __init__(self, v: np.ndarray, w: np.ndarray, n_d: int):
        self.v = v
        self.vt = np.ascontiguousarray(v.T)
        self.w = w
        self.n_d = n_d
        self.wv = np.empty_like(v)
        self.m = np.empty((n_d, n_d))
        self.z = np.empty_like(self.vt)
        self.p = np.empty(v.shape[0])

    def evaluate(self) -> tuple[float, float]:
        """Objective and p_max of the current iterate; fills self.p."""
        np.multiply(self.v, self.w[:, None], out=self.wv)
        np.dot(self.vt, self.wv, out=self.m)
        l, info = dpotrf(self.m, lower=1)
        diag = l.diagonal()
        # n_d is small, so scalar min/max over Python floats beat array calls.
        # Squaring is monotone on the positive pivots: min(d)^2 = min(d^2).
        d_min = min(diag.tolist()) if info == 0 else 0.0
        if d_min * d_min <= pivot_tolerance(self.n_d, max(self.m.diagonal().tolist())):
            raise DegenerateDesignError(
                "information matrix became singular during iteration"
            )
        li, _ = dtrtri(l, lower=1)
        np.dot(li, self.vt, out=self.z)
        np.einsum("ij,ij->j", self.z, self.z, out=self.p)
        objective = 2.0 * float(np.log(diag).sum())
        return objective, float(self.p.max())

    def step(self) -> None:
        """Multiplicative update w_i <- w_i p(x_i) / n_d, renormalized."""
        self.w *= self.p
        self.w *= 1.0 / self.n_d
        self.w[self.w < _FLUSH] = 0.0
        self.w /= self.w.sum()


def solve(cands: CandidateSet, d: int, cfg: SolverConfig) -> SolveResult:
    """Maximize log det M(w) over the simplex on the candidate set.

    Iterates the multiplicative update until p_max <= n_d (1 + epsilon) or the
    iteration budget runs out, prunes sub-threshold weights, and polishes the
    pruned design until the same test holds on it.  Non-convergence is not an
    error: the result carries converged=False and the full trace.
    """
    basis = enumerate_basis(cands.n, d)
    n_d = basis.size
    if not cfg.prune_threshold < 1.0 / n_d:
        raise ValueError(
            f"prune_threshold {cfg.prune_threshold} must be below 1/n_d = {1.0 / n_d}"
        )
    init_uniform(cands, d)  # raises on too few / degenerate candidates

    v_full = vandermonde(basis, cands.points)
    target = n_d * (1.0 + cfg.epsilon)

    active = np.arange(cands.size)
    w = np.full(cands.size, 1.0 / cands.size)
    trace_obj: list[float] = []
    trace_pmax: list[float] = []
    iterations = 0
    rolled_back = False

    while True:
        loop = _Loop(v_full[active], w, n_d)
        local_ok = False
        while True:
            objective, p_max = loop.evaluate()
            trace_obj.append(objective)
            trace_pmax.append(p_max)
            if p_max <= target:
                local_ok = True
                break
            if iterations >= cfg.max_iters:
                break
            loop.step()
            iterations += 1
        w = loop.w

        keep = w >= cfg.prune_threshold
        if keep.all():
            break
        if keep.sum() < n_d:
            rolled_back = True
            break
        try:
            _Loop(v_full[active[keep]], w[keep] / w[keep].sum(), n_d).evaluate()
        except DegenerateDesignError:
            rolled_back = True
            break
        active = active[keep]
        w = w[keep] / w[keep].sum()
        if not local_ok:
            break  # budget exhausted; prune applied once, no polish

    design = DesignMeasure(
        candidates=CandidateSet(points=cands.points[active], source=cands.source),
        weights=w,
    )
    factor = assemble_information(design, d)
    p_values = quad_form_inv_many(factor, v_full)
    p_max = float(p_values.max())
    return SolveResult(
        design=design,
        candidates=cands,
        objective=factor.log_det,
        p_values=p_values,
        p_max=p_max,
        iterations=iterations,
        converged=bool(p_max <= target),
        trace_objective=np.array(trace_obj),
        trace_p_max=np.array(trace_pmax),
        support_indices=active,
        prune_rolled_back=rolled_back,
    )
