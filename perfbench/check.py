"""Independent check of one solved problem, in plain numpy.

Nothing here imports doptdesign.  From the report's design (points and
weights) it recomputes M(w) = sum_i w_i v(x_i) v(x_i)^T and the
Christoffel-Darboux values p(x) = v(x)^T M^{-1} v(x) at every candidate the
benchmark generated, then sorts findings into two kinds:

* a *wrong* output: a reported number that disagrees with the recomputation
  (objective, p_max, p values, gap, the converged flag), an ellipsoid that
  misses a candidate, or a zero exit code on a design the check rejects.
  Any of these makes the run incorrect.
* an *uncertified* design: the gap exceeds n_d log1p(epsilon), or, where the
  optimum is known in closed form, the objective is further than that from
  it.  The output is true but not what the user asked for; the problem
  counts as failed, as does any non-zero exit code.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RTOL = 1e-9


@dataclass
class Verdict:
    wrong: list[str] = field(default_factory=list)
    uncertified: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.wrong or self.uncertified)


def _monomials(pts: np.ndarray, d: int) -> np.ndarray:
    """All monomials of total degree <= d at each point, in any fixed order.

    log det M and p are invariant under a permutation of the basis, so the
    order need not match the program's.
    """
    n = pts.shape[1]
    expos = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d]
    return np.stack([np.prod(pts**np.array(e), axis=1) for e in expos], axis=1)


def _close(a: float, b: float) -> bool:
    """Equal to a relative RTOL, measured against at least 1 (objectives near 0)."""
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def check_problem(
    problem, out_dir: Path, exit_codes: dict[str, int]
) -> tuple[Verdict, dict]:
    """Audit the outputs of one problem; returns the verdict and a summary row."""
    verdict = Verdict()
    for cmd, code in exit_codes.items():
        if code not in (0, 1):
            verdict.wrong.append(f"{cmd} exited {code}")
        elif code:
            verdict.uncertified.append(f"{cmd} exited {code}")
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        verdict.wrong.append("no report.json")
        return verdict, {}
    report = json.loads(report_path.read_text())
    d, eps = problem.degree, problem.epsilon

    v_all = _monomials(problem.points, d)
    n_d = v_all.shape[1]
    v = _monomials(np.array(report["design"]["points"], dtype=float), d)
    w = np.array(report["design"]["weights"], dtype=float)
    chol = np.linalg.cholesky((v * w[:, None]).T @ v)
    objective = 2.0 * float(np.log(np.diag(chol)).sum())
    z = np.linalg.solve(chol, v_all.T)
    p = np.einsum("ij,ij->j", z, z)
    p_max = float(p.max())
    gap = n_d * math.log(max(p_max, n_d) / n_d)
    bound = n_d * math.log1p(eps)

    if report["n_d"] != n_d:
        verdict.wrong.append(f"n_d {report['n_d']} != {n_d}")
    if len(report["p_values"]) != p.size:
        verdict.wrong.append(f"{len(report['p_values'])} p values for {p.size} candidates")
    elif np.max(np.abs(np.array(report["p_values"]) - p)) > RTOL * p_max:
        verdict.wrong.append("p values differ from recomputation")
    if not _close(report["objective"], objective):
        verdict.wrong.append(f"objective {report['objective']!r} != {objective!r}")
    if not _close(report["p_max"], p_max):
        verdict.wrong.append(f"p_max {report['p_max']!r} != {p_max!r}")
    reported_gap = report["certificate"]["gap"]
    if abs(reported_gap - gap) > RTOL * n_d:
        verdict.wrong.append(f"gap {reported_gap!r} != {gap!r}")
    if report["converged"] != (report["p_max"] <= n_d * (1.0 + eps)):
        verdict.wrong.append("converged flag disagrees with p_max")

    quality = []
    if reported_gap > bound:
        quality.append(f"gap {reported_gap:.3e} > bound {bound:.3e}")
    if problem.known_objective is not None:
        shortfall = problem.known_objective - report["objective"]
        if shortfall < -RTOL * max(1.0, abs(problem.known_objective)):
            verdict.wrong.append("objective exceeds the known optimum")
        elif shortfall > bound:
            quality.append(
                f"objective {shortfall:.3e} below the known optimum (bound {bound:.3e})"
            )
    verdict.uncertified += quality
    if d == 1:
        _check_ellipsoid(out_dir / "ellipsoid.json", problem.points, eps, verdict)
    if exit_codes.get("solve") == 0 and quality:
        verdict.wrong.append("solve exited 0 on an uncertified design")
    if exit_codes.get("certify") == 0 and reported_gap > bound:
        verdict.wrong.append("certify exited 0 with the gap above its bound")

    row = {
        "candidates": int(p.size),
        "n_d": n_d,
        "iterations": report["iterations"],
        "converged": report["converged"],
        "support_atoms": int(w.size),
        "prune_rolled_back": report["prune_rolled_back"],
        "gap": reported_gap,
        "gap_bound": bound,
        "trace_entries": len(report["trace"]["objective"]),
    }
    return verdict, row


def _check_ellipsoid(path: Path, pts: np.ndarray, eps: float, verdict: Verdict):
    """Every candidate lies in the extracted ellipsoid up to a factor 1 + eps."""
    if not path.is_file():
        verdict.wrong.append("no ellipsoid.json")
        return
    ell = json.loads(path.read_text())
    diff = pts - np.array(ell["center"], dtype=float)
    q = np.einsum("ij,jk,ik->i", diff, np.array(ell["shape"], dtype=float), diff)
    worst = float(q.max()) / ell["radius_sq"]
    if worst > 1.0 + eps:
        verdict.wrong.append(f"a candidate lies outside the ellipsoid by {worst - 1:.3e}")
