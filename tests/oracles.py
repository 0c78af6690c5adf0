"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: reference
Cholesky runs the textbook scalar recurrence, determinants go through
numpy's slogdet or exact rational arithmetic, and the simplex searches only
ever evaluate the objective, never its gradient structure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def reference_cholesky(a: np.ndarray):
    """Scalar-loop Cholesky; returns (L, None) or (None, failing_pivot_index)."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    low = np.zeros((m, m))
    for j in range(m):
        s = a[j, j] - (low[j, :j] ** 2).sum()
        if s <= 0.0:
            return None, j
        low[j, j] = math.sqrt(s)
        for i in range(j + 1, m):
            low[i, j] = (a[i, j] - low[i, :j] @ low[j, :j]) / low[j, j]
    return low, None


def monomial_design_matrix(points: np.ndarray, degree: int) -> np.ndarray:
    """Univariate or bivariate total-degree monomial rows, graded order."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = points.shape[1]
    cols = []
    for total in range(degree + 1):
        for alpha in _compositions(total, n):
            col = np.ones(points.shape[0])
            for j, e in enumerate(alpha):
                power = np.ones(points.shape[0])
                for _ in range(e):  # x^e as repeated products, rounded as such
                    power *= points[:, j]
                col *= power
            cols.append(col)
    return np.column_stack(cols)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def log_det_objective(v: np.ndarray, w: np.ndarray) -> float:
    """log det of the weighted Gram matrix, via slogdet (independent route)."""
    m = v.T @ (w[:, None] * v)
    sign, val = np.linalg.slogdet(m)
    return val if sign > 0 else -np.inf


def dense_quad_form_inv(a: np.ndarray, v: np.ndarray) -> float:
    """v^T A^{-1} v through numpy.linalg.solve on A, not a Cholesky factor."""
    return float(v @ np.linalg.solve(a, v))


def reference_multiplicative_step(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One update w_i <- w_i p(x_i) / n_d, with p from a dense linear solve.

    p(x_i) = v_i^T M(w)^{-1} v_i is computed by numpy.linalg.solve on the
    explicitly formed Gram matrix, not by a Cholesky factor.
    """
    m = v.T @ (w[:, None] * v)
    p = np.einsum("ij,ji->i", v, np.linalg.solve(m, v.T))
    return w * p / v.shape[1]


def reference_exchange_multiplicative_step(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One vertex exchange followed by one multiplicative update, densely.

    p and p_kj = v_k^T M^{-1} v_j come from numpy.linalg.inv of the explicitly
    formed Gram matrix.  Mass alpha moves from the lowest-p support atom j to
    the highest-p candidate k; the closed-form alpha is checked against a
    brute-force maximization of det M over [0, w_j] before the update is
    applied to the exchanged design.
    """
    m_inv = np.linalg.inv(v.T @ (w[:, None] * v))
    p = np.einsum("ij,jk,ik->i", v, m_inv, v)
    k = int(np.argmax(p))
    j = int(np.argmin(np.where(w > 0, p, np.inf)))
    p_kj = float(v[k] @ m_inv @ v[j])
    delta = p[k] * p[j] - p_kj**2
    w = w.copy()
    if j != k and delta > 0 and p[k] > p[j]:
        alpha = min((p[k] - p[j]) / (2 * delta), w[j])

        def moved(t):
            out = w.copy()
            out[k] += t
            out[j] -= t
            return out

        ts = np.linspace(0.0, w[j], 20_001)
        objs = np.array([log_det_objective(v, moved(t)) for t in ts])
        best = float(objs.max())
        assert log_det_objective(v, moved(alpha)) >= best - 1e-12
        assert abs(alpha - ts[int(np.argmax(objs))]) <= 2 * (ts[1] - ts[0])
        w = moved(alpha)
    return reference_multiplicative_step(v, w)


def _batched_objective(v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """log det objective for a batch of weight vectors (rows of `weights`).

    When the number of atom subsets is small, uses the Cauchy-Binet
    expansion det M(w) = sum_{|S|=m} (prod_{i in S} w_i) det(V_S)^2, a sum of
    nonnegative terms; otherwise falls back to batched slogdet.
    """
    natoms, m = v.shape
    if math.comb(natoms, m) <= 36:
        subsets = np.array(list(itertools.combinations(range(natoms), m)))
        dets_sq = np.array(
            [np.linalg.det(v[list(s)]) ** 2 for s in subsets]
        )
        keep = dets_sq > 0
        subsets, dets_sq = subsets[keep], dets_sq[keep]
        prods = weights[:, subsets].prod(axis=2)
        dets = prods @ dets_sq
        with np.errstate(divide="ignore"):
            return np.where(dets > 0, np.log(np.maximum(dets, 1e-300)), -np.inf)
    mats = np.einsum("bi,ij,ik->bjk", weights, v, v)
    signs, vals = np.linalg.slogdet(mats)
    vals[signs <= 0] = -np.inf
    return vals


def _simplex_lattice(natoms: int, steps: int) -> np.ndarray:
    """All weight vectors with entries k/steps summing to one.

    Built bottom-up: compositions of t into p parts are a first coordinate i
    stacked on compositions of t - i into p - 1 parts.
    """
    prev = {t: np.array([[t]], dtype=np.int64) for t in range(steps + 1)}
    for p in range(2, natoms + 1):
        totals = [steps] if p == natoms else range(steps + 1)
        cur = {}
        for t in totals:
            blocks = [
                np.hstack(
                    [np.full((prev[t - i].shape[0], 1), i, dtype=np.int64), prev[t - i]]
                )
                for i in range(t + 1)
            ]
            cur[t] = np.vstack(blocks)
        prev = cur
    return prev[steps].astype(float) / steps


def simplex_grid_search(
    v: np.ndarray, step: float = 1e-3, exhaustive_cap: int = 3_000_000
) -> float:
    """Best log det objective over the weight simplex at lattice resolution `step`.

    Exhaustive enumeration whenever the 1/step lattice fits under the cap.
    For larger atom counts: exhaustive search on the 10x coarser lattice,
    then pairwise-exchange hill climbing on the fine lattice.  The objective
    is concave on the simplex, so the climb cannot stop far from the lattice
    optimum, and the returned value is always an attained objective (a valid
    lower bound on the simplex maximum).
    """
    natoms = v.shape[0]
    steps = round(1.0 / step)
    if math.comb(steps + natoms - 1, natoms - 1) <= exhaustive_cap:
        lattice = _simplex_lattice(natoms, steps)
        best = -np.inf
        for start in range(0, lattice.shape[0], 200_000):
            chunk = lattice[start : start + 200_000]
            best = max(best, float(_batched_objective(v, chunk).max()))
        return best

    coarse_steps = steps // 10
    while math.comb(coarse_steps + natoms - 1, natoms - 1) > 1_000_000:
        coarse_steps //= 2
    coarse = _simplex_lattice(natoms, coarse_steps)
    vals = np.concatenate(
        [
            _batched_objective(v, coarse[s : s + 200_000])
            for s in range(0, coarse.shape[0], 200_000)
        ]
    )
    k = np.round(coarse[int(np.argmax(vals))] * steps).astype(int)
    k[-1] = steps - k[:-1].sum()  # keep the lattice sum exact after rounding
    # Fine-lattice pairwise exchange: move one step of mass between a pair.
    best = log_det_objective(v, k / steps)
    improved = True
    while improved:
        improved = False
        for i in range(natoms):
            for j in range(natoms):
                if i == j or k[i] == 0:
                    continue
                k[i] -= 1
                k[j] += 1
                cand = log_det_objective(v, k / steps)
                if cand > best + 1e-15:
                    best = cand
                    improved = True
                else:
                    k[i] += 1
                    k[j] -= 1
    assert k.min() >= 0 and k.sum() == steps
    return best


def exact_hankel_inverse_univariate_thirds():
    """Exact inverse and determinant of the moment matrix of the design
    {1/3 at -1, 0, 1} for the quadratic model, in rational arithmetic."""
    third = Fraction(1, 3)
    moments = {
        k: third * ((-1) ** k + 0**k + 1**k) if k > 0 else Fraction(1)
        for k in range(5)
    }
    m = [[moments[i + j] for j in range(3)] for i in range(3)]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    cof = [
        [
            (-1) ** (i + j)
            * (
                m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
                - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    inv = [[cof[j][i] / det for j in range(3)] for i in range(3)]
    return det, inv


def symmetric_pair_search(atoms: np.ndarray, degree: int, step: float = 1e-3) -> float:
    """Simplex search over weights symmetric under x -> -x.

    The atom set must be closed under negation.  The log det objective is
    concave and invariant under the reflection, so replacing any weights by
    the average with their mirrored copy cannot decrease it; the maximum over
    symmetric weights therefore equals the maximum over the full simplex.
    """
    atoms = np.asarray(atoms, dtype=float).reshape(-1)
    order = np.argsort(atoms)
    atoms = atoms[order]
    groups: list[list[int]] = []
    used = np.zeros(len(atoms), dtype=bool)
    for i, a in enumerate(atoms):
        if used[i]:
            continue
        used[i] = True
        if a == 0.0:
            groups.append([i])
            continue
        j = int(np.argmin(np.abs(atoms + a)))
        assert not used[j] and abs(atoms[j] + a) < 1e-12, "atom set not symmetric"
        used[j] = True
        groups.append([i, j])
    v = monomial_design_matrix(atoms, degree)
    steps = round(1.0 / step)
    lattice = _simplex_lattice(len(groups), steps)
    best = -np.inf
    for start in range(0, lattice.shape[0], 100_000):
        chunk = lattice[start : start + 100_000]
        w = np.zeros((chunk.shape[0], len(atoms)))
        for gi, grp in enumerate(groups):
            for idx in grp:
                w[:, idx] = chunk[:, gi] / len(grp)
        best = max(best, float(_batched_objective(v, w).max()))
    return best
