"""The benchmark's workloads: seeded problem configs for the doptdesign CLI.

Every config pins ``epsilon`` and ``max_iters`` and leaves ``algorithm`` and
``prune_threshold`` at the program's defaults, so a change to the default
solver shows up in the numbers.  Each problem also carries the candidate
points generated here, without the program, for the independent check.
See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# g(x) >= 0 polynomials, as lists of (exponents, coeff) terms.
UNIT_DISK = [[((0, 0), 1.0), ((2, 0), -1.0), ((0, 2), -1.0)]]
SIMPLEX_3D = [
    [((1, 0, 0), 1.0), ((0, 0, 0), 1.0)],
    [((0, 1, 0), 1.0), ((0, 0, 0), 1.0)],
    [((0, 0, 1), 1.0), ((0, 0, 0), 1.0)],
    [((0, 0, 0), 1.0), ((1, 0, 0), -1.0), ((0, 1, 0), -1.0), ((0, 0, 1), -1.0)],
]
SIMPLEX_VERTICES = np.array(
    [[-1.0, -1.0, -1.0], [3.0, -1.0, -1.0], [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]]
)
CLOUD_INTERIOR_POINTS = 20_000


@dataclass(frozen=True)
class Problem:
    """One `doptdesign solve` input and what the check needs to audit it."""

    name: str
    degree: int
    epsilon: float
    config_path: Path
    points: np.ndarray  # every candidate, generated without the program
    known_objective: float | None = None  # closed-form optimum of log det M


def _eval_poly(terms, pts: np.ndarray) -> np.ndarray:
    vals = np.zeros(pts.shape[0])
    for expo, coeff in terms:
        term = np.full(pts.shape[0], coeff)
        for j, e in enumerate(expo):
            if e:
                term *= pts[:, j] ** e
        vals += term
    return vals


def grid_points(box, resolution: int, inequalities) -> np.ndarray:
    """Row-major box grid (first axis slowest) kept where every g(x) >= 0."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    keep = np.ones(pts.shape[0], dtype=bool)
    for terms in inequalities:
        keep &= _eval_poly(terms, pts) >= 0.0
    return pts[keep]


def _config(box, inequalities, degree, candidates, epsilon, max_iters) -> dict:
    return {
        "dimension": len(box),
        "degree": degree,
        "set": {
            "bounding_box": [list(b) for b in box],
            "inequalities": [
                [{"exponents": list(e), "coeff": c} for e, c in terms]
                for terms in inequalities
            ],
        },
        "candidates": candidates,
        "solver": {"epsilon": epsilon, "max_iters": max_iters},
    }


def _write(workdir: Path, name: str, cfg: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def interval_401(seed: int, workdir: Path) -> list[Problem]:
    """[-1, 1] on 401 points, d = 1..4; the seed only orders the problems."""
    box, eps = [(-1.0, 1.0)], 1e-6
    pts = grid_points(box, 401, [])
    problems = []
    for d in np.random.default_rng(seed).permutation([1, 2, 3, 4]):
        d = int(d)
        cfg = _config(box, [], d, {"source": "grid", "resolution": 401}, eps, 100_000)
        name = f"interval-401-d{d}"
        problems.append(Problem(name, d, eps, _write(workdir, name, cfg), pts))
    return problems


def disk_d4(seed: int, workdir: Path) -> list[Problem]:
    """Unit disk on a 101^2 grid (N = 7,837), d = 4; the seed has no effect."""
    box, eps = [(-1.0, 1.0), (-1.0, 1.0)], 1e-3
    pts = grid_points(box, 101, UNIT_DISK)
    cfg = _config(
        box, UNIT_DISK, 4, {"source": "grid", "resolution": 101}, eps, 100_000
    )
    return [Problem("disk-d4", 4, eps, _write(workdir, "disk-d4", cfg), pts)]


def simplex_mvee(seed: int, workdir: Path) -> list[Problem]:
    """Degree-1 design (MVEE) on the simplex's 4 vertices plus a seeded cloud.

    The optimum is uniform weight on the vertices, with log det M = log 16.
    """
    box, eps = [(-1.0, 3.0)] * 3, 1e-6
    rng = np.random.default_rng(seed)
    interior = rng.dirichlet([2.0] * 4, size=CLOUD_INTERIOR_POINTS) @ SIMPLEX_VERTICES
    pts = np.vstack([SIMPLEX_VERTICES, interior])
    cloud = workdir / "simplex-cloud.txt"
    np.savetxt(cloud, pts, fmt="%.17g")
    cfg = _config(
        box, SIMPLEX_3D, 1, {"source": "point_cloud_file", "path": str(cloud)},
        eps, 20_000,
    )
    path = _write(workdir, "simplex-mvee", cfg)
    return [Problem("simplex-mvee", 1, eps, path, pts, known_objective=math.log(16))]


WORKLOADS = {
    "interval-401": interval_401,
    "disk-d4": disk_d4,
    "simplex-mvee": simplex_mvee,
}
