"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: reference
Cholesky runs the textbook scalar recurrence, determinants go through
numpy's slogdet or exact rational arithmetic, and the simplex searches only
ever evaluate the objective, never its gradient structure.  The one
exception is `adjoint_identity_check`, which tests the library's moment map
against its adjoint.
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


def reference_products(n: int, d: int) -> np.ndarray:
    """(n_d, n_d) positions of the index sums a_i + a_j among the degree-2d
    multi-indices, found by searching the graded list for each sum."""
    low = [a for t in range(d + 1) for a in _compositions(t, n)]
    high = [a for t in range(2 * d + 1) for a in _compositions(t, n)]
    return np.array(
        [[high.index(tuple(p + q for p, q in zip(a, b))) for b in low] for a in low]
    )


def reference_adjoint_expand(x: np.ndarray, n: int, d: int) -> np.ndarray:
    """Degree-2d coefficients of v^T X v: each X_ij added in row-major order
    into the coefficient of a_i + a_j by np.add.at."""
    coeffs = np.zeros(math.comb(n + 2 * d, n))
    np.add.at(coeffs, reference_products(n, d), x)
    return coeffs


def adjoint_identity_check(y, x_mat, basis_d) -> float:
    """|trace(M_d(y) X) - <M_d*(X), y>| through the library's pair; zero in
    exact arithmetic."""
    from doptdesign.basis import adjoint_expand, moment_matrix

    x_mat = np.asarray(x_mat, dtype=float)
    lhs = float(np.sum(moment_matrix(y, basis_d) * x_mat))
    return abs(lhs - float(adjoint_expand(x_mat, basis_d) @ y))


def log_det_objective(v: np.ndarray, w: np.ndarray) -> float:
    """log det of the weighted Gram matrix, via slogdet (independent route)."""
    m = v.T @ (w[:, None] * v)
    sign, val = np.linalg.slogdet(m)
    return val if sign > 0 else -np.inf


def christoffel_values(
    design_points: np.ndarray, weights: np.ndarray, points: np.ndarray, degree: int
) -> np.ndarray:
    """p(x) = v(x)^T M(w)^{-1} v(x) at each of `points`, for the design that
    puts `weights` on `design_points`; M is formed explicitly and p comes from
    numpy.linalg.solve on it, not from a Cholesky factor."""
    v = monomial_design_matrix(design_points, degree)
    m = v.T @ (np.asarray(weights)[:, None] * v)
    u = monomial_design_matrix(points, degree)
    return np.einsum("ij,ji->i", u, np.linalg.solve(m, u.T))


def dense_quad_form_inv(a: np.ndarray, v: np.ndarray) -> float:
    """v^T A^{-1} v through numpy.linalg.solve on A, not a Cholesky factor."""
    return float(v @ np.linalg.solve(a, v))


def reference_exchange(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One vertex exchange, densely.

    p and p_kj = v_k^T M^{-1} v_j come from numpy.linalg.inv of the explicitly
    formed Gram matrix.  Mass alpha moves from the lowest-p support atom j to
    the highest-p candidate k; the closed-form alpha is checked against a
    brute-force maximization of det M over [0, w_j].
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
    return w


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


def grid_axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    """The grid axis as the package specifies it, built point by point:
    x_i = mid + half t_i with t_i = (2i - (r-1)) / (r-1), mid = lo/2 + hi/2,
    half = hi/2 - lo/2, and the ends exactly lo and hi."""
    r = resolution
    mid, half = lo / 2 + hi / 2, hi / 2 - lo / 2
    x = [mid + half * ((2.0 * i - (r - 1)) / (r - 1)) for i in range(r)]
    x[0], x[-1] = lo, hi
    return np.array(x, dtype=float)


def product_grid(bounding_box, resolution: int) -> np.ndarray:
    """The box grid built point by point with itertools.product, one row per
    point, first coordinate varying slowest."""
    axes = [grid_axis(lo, hi, resolution) for lo, hi in bounding_box]
    return np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, len(axes))


def reference_symmetry(bounding_box, inequalities):
    """(flips, classes) of the signed permutations about 0 that map the box
    and each inequality (a {exponents: coefficient} dictionary) onto
    themselves: a polynomial is invariant when its image's dictionary equals
    its own.  classes lists the groups of two or more axes that may be
    permuted, the connected components of the valid swaps."""
    n = len(bounding_box)

    def image(terms, move):
        out = {}
        for alpha, c in terms.items():
            beta, sign = move(alpha)
            out[beta] = sign * c
        return out

    def invariant(move):
        return all(image(t, move) == t for t in inequalities)

    flips = [
        j for j in range(n)
        if bounding_box[j][0] == -bounding_box[j][1]
        and invariant(lambda a, j=j: (a, (-1) ** a[j]))
    ]
    parent = list(range(n))
    for i, k in itertools.combinations(range(n), 2):
        swap = [k if m == i else i if m == k else m for m in range(n)]
        if bounding_box[i] == bounding_box[k] and invariant(
            lambda a, swap=swap: (tuple(a[m] for m in swap), 1)
        ):
            parent[k] = parent[i]
    classes = {}
    for j in range(n):
        root = j
        while parent[root] != root:
            root = parent[root]
        classes.setdefault(root, []).append(j)
    return flips, [c for c in classes.values() if len(c) > 1]


def orbit_first_points(pts: np.ndarray, flips, classes) -> np.ndarray:
    """Each row's orbit representative that comes first in the grid's
    row-major order: every flipped coordinate made -|x|, then each class's
    coordinates sorted ascending.  On a grid with mirror-exact axes this is
    a grid point of the same orbit."""
    out = np.array(pts, dtype=float)
    out[:, flips] = -np.abs(out[:, flips])
    for cls in classes:
        out[:, cls] = np.sort(out[:, cls], axis=1)
    return out


def reference_grid_mask(bounding_box, inequalities, resolution: int) -> np.ndarray:
    """The r^n membership mask of the box grid (axes from `grid_axis`),
    membership decided once per orbit of the group of `reference_symmetry`:
    each cell takes the full-shape membership (`reference_members`) of the
    cell of its orbit with the lowest row-major index.  That index is the
    minimum over the flips, taken axis by axis, and over every permutation
    of each class's axes, enumerated."""
    r, n = resolution, len(bounding_box)
    xs = np.meshgrid(*[grid_axis(lo, hi, r) for lo, hi in bounding_box],
                     indexing="ij", sparse=True)
    raw = reference_members(bounding_box, inequalities, xs).reshape(-1)
    flips, classes = reference_symmetry(bounding_box, inequalities)
    cells = [np.minimum(i, r - 1 - i) if j in flips else i
             for j, i in enumerate(np.ogrid[(slice(0, r),) * n])]
    first = None
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        moved = list(cells)
        for cls, perm in zip(classes, perms):
            for j, k in zip(cls, perm):
                moved[j] = cells[k]
        flat = sum(i * r ** (n - 1 - j) for j, i in enumerate(moved))
        first = flat if first is None else np.minimum(first, flat)
    return raw[first]


# Straightforward bulk kernels: each evaluates on the full broadcast shape or
# through numpy's generic routines.  The package's kernels must match them
# bit for bit.


def reference_vandermonde(indices, d: int, pts: np.ndarray):
    """Monomial table from np.vander's power table of each coordinate, each
    column multiplied in place in coordinate order.  Returns (table, i) where
    i is the first row holding a non-finite monomial, or None."""
    pts = np.asarray(pts, dtype=float)
    out = np.ones((pts.shape[0], len(indices)))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [
            np.vander(pts[:, j], d + 1, increasing=True) for j in range(pts.shape[1])
        ]
        for k, alpha in enumerate(indices):
            for j, e in enumerate(alpha):
                if e:
                    out[:, k] *= powers[j][:, e]
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    return out, (int(bad[0]) if bad.size else None)


def reference_values(terms: dict, xs) -> np.ndarray:
    """A polynomial given as {exponents: coefficient} at the points whose
    coordinates are the broadcasting arrays xs, on their full broadcast
    shape: terms added in place to zeros, in dictionary order."""
    vals = np.zeros(np.broadcast_shapes(*(x.shape for x in xs)))
    for alpha, c in terms.items():
        term = c
        for x, e in zip(xs, alpha):
            if e:
                term = term * x**e
        vals += term
    return vals


def reference_members(bounding_box, inequalities, xs) -> np.ndarray:
    """Closed membership on the full broadcast shape of xs: the box tests,
    then each inequality's terms (dictionaries as for reference_values)."""
    mask = np.ones(np.broadcast_shapes(*(x.shape for x in xs)), dtype=bool)
    for x, (lo, hi) in zip(xs, bounding_box):
        mask &= (x >= lo) & (x <= hi)
    for terms in inequalities:
        mask &= reference_values(terms, xs) >= 0.0
    return mask


def reference_first_rows(rows: np.ndarray) -> np.ndarray:
    """rows without repeats, the first occurrence of each kept, in input
    order: one stable np.lexsort of every row puts equal rows (-0.0 equal to
    0.0) next to each other in input order."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    keep = np.zeros(len(order), dtype=bool)
    keep[order[first]] = True
    return rows[keep]


def reference_greedy(vd: np.ndarray, tie: float = 1e-9) -> np.ndarray:
    """Pivoted Gram-Schmidt on the rows of vd with an explicit residual
    matrix: each step recomputes every residual norm, picks the lowest index
    among the norms within a relative `tie` of the largest, and subtracts
    every row's projection onto the pick's unit residual."""
    r = np.array(vd, dtype=float)
    picked = []
    for _ in range(r.shape[1]):
        norms = np.einsum("ij,ij->i", r, r)
        top = norms.max()
        if not top > 0.0:
            break
        k = int(np.argmax(norms >= top * (1.0 - tie)))
        picked.append(k)
        q = r[k] / math.sqrt(norms[k])
        r -= np.outer(r @ q, q)
    return np.array(picked)
