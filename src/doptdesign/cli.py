"""Command-line surface: solve, certify, eval-cd, ellipsoid.

Configuration is a single JSON document (all keys lower_snake_case; unknown
keys are a hard error so misspelled tolerances cannot silently weaken a
certificate).  Reports are JSON and tables are RFC-4180 CSV with a header
row; both write each float as Python's shortest round-trip repr, which
parses back to the same binary64 value and makes reruns of the same
configuration byte-identical.

Exit codes: 0 success, 1 quality gate failed (non-convergence or dual
violation; the report is still written) or a report that fails its audit,
2 configuration or input error, 3 degenerate design.  Every error is one
`error:` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import __version__
from .basis import _row_blocks
from .certificate import (
    DualCertificate,
    _certified,
    adjoint_expand,
    build_certificate,
    validate_dual_feasibility,
)
from .design import DesignMeasure, cd_profile, moment_vector
from .errors import (
    ConfigError,
    DegenerateDesignError,
    EmptyCandidateSetError,
    FloatRangeError,
    InvalidDimensionError,
    NotAnEllipsoidError,
    TooFewCandidatesError,
    WrongDegreeError,
)
from .geometry import extract_ellipsoid
from .semialg import (
    CandidateSet,
    GridMembers,
    SemiAlgebraicSet,
    SparsePolynomial,
    _first_equal_rows,
    explicit_candidates,
    grid_candidates,
    grid_members,
)
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_GATE_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

_DEFAULT_VALIDATION_RESOLUTION = 101
#: Relative agreement the report audit demands between a stored number and
#: its recomputation (the same tolerance as the benchmark's independent check).
_CERTIFY_RTOL = 1e-9


# ---------------------------------------------------------------------------
# deterministic JSON and CSV
# ---------------------------------------------------------------------------


#: Values per json.dumps call when `_write_json` streams its array.
_CHUNK = 4096


def _plain(obj: Any) -> Any:
    """numpy arrays and scalars as Python lists and numbers."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _dumps(obj: Any) -> str:
    return json.dumps(obj, default=_plain, allow_nan=False, separators=(",", ":"))


def dump_json(obj: Any) -> str:
    """Compact JSON with shortest round-trip floats and insertion key order.

    Raises ValueError on a non-finite number.
    """
    return _dumps(obj) + "\n"


def _write_json(path: Path, obj: dict, key: str) -> None:
    """Write dump_json(obj) to path, byte for byte, without holding the text
    of obj[key], a 1-D float array at the top level: it is written in place,
    in chunks of _CHUNK values, every chunk encoded by the same json.dumps
    call.

    The rest of obj is encoded by one call, with [] in that key's slot, which
    the text is split at: no value before obj[key] may map a key of that
    name to an empty list.  That call runs, and obj[key] is checked, before
    the file is opened, so a non-finite number raises ValueError and writes
    nothing.
    """
    slot = _dumps(key) + ":["
    head, _, tail = _dumps({**obj, key: []}).partition(slot + "]")
    values = obj[key]
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    with path.open("w") as fh:
        fh.write(head + slot)
        for lo in range(0, values.size, _CHUNK):
            part = _dumps(values[lo:lo + _CHUNK].tolist())[1:-1]
            fh.write(("," if lo else "") + part)
        fh.write("]" + tail + "\n")


def _write_csv(path: Path, header: list[str], table: np.ndarray, flags=None) -> None:
    """Write `header`, then one row per row of the float `table`, followed by
    the row's entry of the boolean `flags`, if given, as true or false.

    The cells reach csv.writer as Python floats, which it writes as their
    shortest round-trip repr, one block of rows (`_row_blocks`) at a time.
    Raises ValueError on a non-finite value, before the file is opened.
    """
    if not np.isfinite(table).all():
        raise ValueError(f"non-finite value in {path.name}")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for block in _row_blocks(len(table), 8 * table.shape[1]):
            rows = table[block].tolist()
            if flags is not None:
                for row, flag in zip(rows, flags[block].tolist()):
                    row.append("true" if flag else "false")
            writer.writerows(rows)
            del rows  # freed before the next block is built


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _section(value, where: str, allowed, required=()) -> dict:
    """`value`, the config object named `where`: ConfigError unless it is an
    object whose keys are all `allowed` and include every `required` one."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be an object")
    unknown = value.keys() - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - value.keys()
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {where}")
    return value


#: The one key each candidate source takes besides `source`.
_SOURCE_KEYS = {"grid": "resolution", "points": "points", "point_cloud_file": "path"}


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def parse_config(raw: dict) -> dict:
    """Validate a raw config dict and fill in defaults.

    Every config object (the root, `set`, each inequality term, `candidates`
    and `solver`) passes one check, `_section`: it must be an object with no
    unknown key and no missing one.  `candidates` takes `source` and the one
    key `_SOURCE_KEYS` names for that source.
    Returns a normalized copy, in the key order that reports echo; raises
    ConfigError on any unknown key, missing key, type error or cross-section
    inconsistency.
    """
    raw = _section(
        raw,
        "config",
        allowed={
            "dimension",
            "degree",
            "set",
            "candidates",
            "solver",
            "validation_resolution",
        },
        required={"dimension", "degree", "set", "candidates"},
    )
    n = _as_int(raw["dimension"], "dimension")
    d = _as_int(raw["degree"], "degree")
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    if d < 1:
        raise ConfigError(f"degree must be >= 1, got {d}")

    set_raw = _section(
        raw["set"], "set", allowed={"bounding_box", "inequalities"},
        required={"bounding_box"},
    )
    box = set_raw["bounding_box"]
    if not isinstance(box, list) or len(box) != n:
        raise ConfigError(f"bounding_box must list {n} [lo, hi] intervals")
    box_norm = []
    for i, interval in enumerate(box):
        if not isinstance(interval, list) or len(interval) != 2:
            raise ConfigError(f"bounding_box[{i}] must be [lo, hi]")
        lo = _as_number(interval[0], f"bounding_box[{i}][0]")
        hi = _as_number(interval[1], f"bounding_box[{i}][1]")
        if not lo < hi:
            raise ConfigError(f"bounding_box[{i}] is empty: [{lo}, {hi}]")
        box_norm.append([lo, hi])
    ineqs = set_raw.get("inequalities", [])
    if not isinstance(ineqs, list):
        raise ConfigError("set.inequalities must be a list of term lists")
    ineqs_norm = []
    for gi, terms in enumerate(ineqs):
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"inequalities[{gi}] must be a non-empty term list")
        terms_norm = []
        for ti, term in enumerate(terms):
            where = f"inequalities[{gi}][{ti}]"
            keys = {"exponents", "coeff"}
            term = _section(term, where, allowed=keys, required=keys)
            expo = term["exponents"]
            if not isinstance(expo, list) or len(expo) != n:
                raise ConfigError(f"{where}.exponents must list {n} integers")
            expo = [_as_int(e, f"{where}.exponents") for e in expo]
            if any(e < 0 for e in expo):
                raise ConfigError(f"{where}.exponents must be nonnegative")
            for e in expo:  # evaluation raises past the float range
                _as_number(e, f"{where}.exponents")
            terms_norm.append(
                {"exponents": expo, "coeff": _as_number(term["coeff"], f"{where}.coeff")}
            )
        ineqs_norm.append(terms_norm)

    cand_raw = _section(
        raw["candidates"], "candidates", allowed={"source", *_SOURCE_KEYS.values()}
    )
    source = cand_raw.get("source")
    if not isinstance(source, str) or source not in _SOURCE_KEYS:
        raise ConfigError(
            "candidates.source must be 'grid', 'points' or 'point_cloud_file'"
        )
    name = _SOURCE_KEYS[source]
    keys = {"source", name}
    value = _section(cand_raw, "candidates", allowed=keys, required=keys)[name]
    if source == "grid":
        value = _as_int(value, "candidates.resolution")
    elif source == "points":
        if not isinstance(value, list) or not value:
            raise ConfigError("candidates.points must be a non-empty list")
        pts_norm = []
        for pi, pt in enumerate(value):
            if not isinstance(pt, list) or len(pt) != n:
                raise ConfigError(f"candidates.points[{pi}] must list {n} numbers")
            pts_norm.append([_as_number(c, f"candidates.points[{pi}]") for c in pt])
        value = pts_norm
    elif not isinstance(value, str) or not Path(value).is_file():
        raise ConfigError(f"candidates.path does not exist: {value!r}")
    cand_norm = {"source": source, name: value}

    defaults = {f.name: f.default for f in fields(SolverConfig)}
    solver_raw = _section(raw.get("solver", {}), "solver", allowed=set(defaults))
    solver_norm = {}
    for key, default in defaults.items():
        as_type = _as_int if isinstance(default, int) else _as_number
        solver_norm[key] = as_type(solver_raw.get(key, default), f"solver.{key}")
    try:
        SolverConfig(**solver_norm)
    except ValueError as err:
        raise ConfigError(f"solver.{err}") from err

    validation_resolution = raw.get(
        "validation_resolution", _DEFAULT_VALIDATION_RESOLUTION
    )
    validation_resolution = _as_int(validation_resolution, "validation_resolution")

    return {
        "dimension": n,
        "degree": d,
        "set": {"bounding_box": box_norm, "inequalities": ineqs_norm},
        "candidates": cand_norm,
        "solver": solver_norm,
        "validation_resolution": validation_resolution,
    }


def load_config(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    except ValueError as err:  # also an integer of more than 4300 digits
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return parse_config(raw)


def _grid(build, space: SemiAlgebraicSet, resolution: int):
    """build(space, resolution): the candidate or evaluation grid's points
    (`grid_candidates`) or the held validation grid (`grid_members`), and the
    CLI's one resolution check (a resolution below 2, or a grid whose axes or
    r^n membership mask are too large to allocate or to index, raises
    ConfigError; an empty grid raises EmptyCandidateSetError).  Neither forms
    the grid's (r^n, n) coordinate array."""
    if resolution < 2:
        raise ConfigError(f"grid resolution must be >= 2, got {resolution}")
    try:
        return build(space, resolution)
    except EmptyCandidateSetError:
        raise
    except (MemoryError, ValueError) as err:
        raise ConfigError(f"the {resolution}^{space.n} grid is too large") from err


def _build_set(cfg: dict) -> SemiAlgebraicSet:
    """The design space described by a config, without its candidates."""
    n = cfg["dimension"]
    ineqs = tuple(
        SparsePolynomial(
            n=n,
            terms={tuple(t["exponents"]): t["coeff"] for t in terms},
        )
        for terms in cfg["set"]["inequalities"]
    )
    return SemiAlgebraicSet(
        n=n,
        inequalities=ineqs,
        bounding_box=tuple((lo, hi) for lo, hi in cfg["set"]["bounding_box"]),
    )


def build_problem(cfg: dict) -> tuple[SemiAlgebraicSet, CandidateSet]:
    """Instantiate the design space and candidate set described by a config."""
    n = cfg["dimension"]
    space = _build_set(cfg)
    cand_cfg = cfg["candidates"]
    if cand_cfg["source"] == "grid":
        cands = _grid(grid_candidates, space, cand_cfg["resolution"])
    elif cand_cfg["source"] == "points":
        cands = explicit_candidates(space, np.array(cand_cfg["points"], dtype=float))
    else:
        try:
            with warnings.catch_warnings():
                # An empty file is reported below, as one error line.
                warnings.simplefilter("ignore", UserWarning)
                pts = np.loadtxt(cand_cfg["path"], ndmin=2)
        except (OSError, ValueError) as err:
            raise ConfigError(f"point cloud file: {err}") from err
        if pts.size == 0:
            raise ConfigError(f"point cloud file has no points: {cand_cfg['path']}")
        if pts.shape[1] != n:
            raise ConfigError(
                f"point cloud has {pts.shape[1]} columns, expected {n}"
            )
        cands = explicit_candidates(space, pts)
    return space, cands


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _assemble_report(cfg, result, cert, validation) -> dict:
    d = cfg["degree"]
    # Every number of p comes from cert; p_max is not floored at n_d.
    p_max = float(cert.p_values.max())
    # Expansion of the design's own polynomial (unscaled inverse information
    # matrix); the certificate block carries the scaled dual matrix.
    coeffs = adjoint_expand(cert.x_hat * (cert.p_max / cert.n_d), cert.basis)
    return {
        "artifact_version": __version__,
        "config": cfg,
        "n_d": cert.n_d,
        "objective": -cert.primal_value,
        "p_max": p_max,
        "iterations": result.iterations,
        "converged": p_max <= cert.n_d * (1.0 + cfg["solver"]["epsilon"]),
        "prune_rolled_back": result.prune_rolled_back,
        "design": {
            "points": result.design.candidates.points,
            "weights": result.design.weights,
        },
        "p_values": cert.p_values,
        "trace": {
            "objective": result.trace_objective,
            # null where the iterate was not priced (NaN in the solver's trace).
            "p_max": [None if v != v else v for v in result.trace_p_max.tolist()],
        },
        "certificate": {
            "x_hat": cert.x_hat,
            "z_hat": cert.z_hat,
            "primal_value": cert.primal_value,
            "dual_value": cert.dual_value,
            "dual_value_mass_form": cert.dual_value_mass_form,
            "gap": cert.gap,
            "p_max": cert.p_max,
            "complementarity_residual": cert.complementarity_residual,
        },
        "moment_vector": {"degree": 2 * d, "values": moment_vector(result.design, d)},
        "cd_coefficients": {"degree": 2 * d, "values": coeffs},
        "validation": validation,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class _Rejected(Exception):
    """A report whose design or stored numbers fail the audit."""


#: Exit code of each error that a subcommand reports as one `error:` line.
_EXIT_CODES = {
    _Rejected: EXIT_GATE_FAILED,
    ConfigError: EXIT_CONFIG,
    EmptyCandidateSetError: EXIT_CONFIG,
    FloatRangeError: EXIT_CONFIG,
    InvalidDimensionError: EXIT_CONFIG,
    WrongDegreeError: EXIT_CONFIG,
    DegenerateDesignError: EXIT_DEGENERATE,
    NotAnEllipsoidError: EXIT_DEGENERATE,
    TooFewCandidatesError: EXIT_DEGENERATE,
}


def _one_line_errors(cmd):
    """Turn an error of `_EXIT_CODES` raised by a subcommand into one
    `error:` line on stderr and its exit code, never a traceback."""

    @functools.wraps(cmd)
    def run(*args, **kwargs):
        try:
            return cmd(*args, **kwargs)
        except tuple(_EXIT_CODES) as err:
            print(f"error: {err}", file=sys.stderr)
            return next(c for kind, c in _EXIT_CODES.items() if isinstance(err, kind))

    return run


@contextlib.contextmanager
def _out_dir(out_dir: str):
    """The --out directory, created if it is missing.  An OSError from
    creating it or from a write inside the block (--out names a file, or a
    directory sits where an output file goes) becomes a ConfigError."""
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except OSError as err:
        raise ConfigError(f"cannot write to --out {out_dir}: {err}") from err


def _gate(cert, grid: GridMembers, epsilon: float):
    """The quality gate of `solve` and `certify`.

    Samples the dual constraint v(x)^T X v(x) <= n_d on `grid`, a fresh grid
    of the set held as its membership mask (`validate_dual_feasibility`
    walks its members one block at a time), and passes when the certified
    gap is at most n_d log1p(epsilon), which is p_max <= n_d (1 + epsilon) up
    to rounding, and the worst sampled violation is at most n_d epsilon.
    """
    max_violation, argmax_point = validate_dual_feasibility(cert, grid)
    gap_bound = cert.n_d * math.log1p(epsilon)
    violation_bound = cert.n_d * epsilon
    return SimpleNamespace(
        passed=cert.gap <= gap_bound and max_violation <= violation_bound,
        max_violation=max_violation,
        argmax_point=argmax_point,
        gap_bound=gap_bound,
        violation_bound=violation_bound,
    )


@_one_line_errors
def cmd_solve(config_path: str, out_dir: str, quiet: bool = False) -> int:
    """Solve, certify and gate a config's problem; write report.json,
    support.csv and timings.json into `out_dir`."""
    cfg = load_config(config_path)
    space, cands = build_problem(cfg)
    # Built before the solve, so a bad validation grid fails at once.
    t0 = time.perf_counter()
    grid = _grid(grid_members, space, cfg["validation_resolution"])
    grid_s = time.perf_counter() - t0
    solver_cfg = SolverConfig(**cfg["solver"])
    d = cfg["degree"]
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    result = solve(cands, d, solver_cfg)
    timings["solve"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cert = build_certificate(result.design, cands, d)
    timings["certificate"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gate = _gate(cert, grid, solver_cfg.epsilon)
    timings["validation"] = grid_s + time.perf_counter() - t0
    validation = {
        "resolution": cfg["validation_resolution"],
        "max_violation": gate.max_violation,
        "argmax_point": gate.argmax_point,
    }

    t0 = time.perf_counter()
    report = _assemble_report(cfg, result, cert, validation)
    with _out_dir(out_dir) as out:
        report_path = out / "report.json"
        _write_json(report_path, report, "p_values")
        _write_csv(
            out / "support.csv",
            [f"x{j + 1}" for j in range(cfg["dimension"])] + ["weight", "p"],
            np.column_stack(
                [result.design.candidates.points, result.design.weights, cert.support_p]
            ),
        )
        timings["report"] = time.perf_counter() - t0
        (out / "timings.json").write_text(
            json.dumps({k: round(v, 6) for k, v in timings.items()}, indent=1) + "\n"
        )

    if not quiet:
        print(f"report: {report_path}")
        print(
            f"n_d={cert.n_d} objective={report['objective']:.12g} "
            f"gap={cert.gap:.3e} p_max={report['p_max']:.12g}"
        )
        print(
            f"converged={report['converged']} iterations={result.iterations} "
            f"priced={int(np.isfinite(result.trace_p_max).sum())} "
            f"support={result.design.size} "
            f"max_violation={gate.max_violation:.3e}"
        )
        print("timings: " + " ".join(f"{k}={v:.3f}s" for k, v in timings.items()))
    return EXIT_OK if gate.passed else EXIT_GATE_FAILED


def _candidate_rows(cands: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The row of `cands` equal to each row of `points`, or -1 where none is.

    Only a candidate whose last coordinate is some point's can match, so
    `_first_equal_rows` sorts just those candidates, then the points.  They
    are marked by one comparison per distinct last coordinate of the
    points, not by `np.isin`, whose sorting path imports numpy.ma.  The
    candidates are distinct and come first, so the first row equal to a
    point is its candidate when it has one.  Rows compare as floats, so -0.0
    matches 0.0 and a NaN matches nothing."""
    last = cands[:, -1]
    can = np.zeros(last.shape, dtype=bool)
    for value in set(points[:, -1].tolist()):
        can |= last == value
    maybe = np.flatnonzero(can)
    match = _first_equal_rows(np.concatenate([cands[maybe], points]))[len(maybe):]
    return np.append(maybe, -1)[np.minimum(match, len(maybe))]


def _audit_report(
    report_path: str,
) -> tuple[dict, SemiAlgebraicSet, DualCertificate]:
    """Rebuild a report's certificate from its config and design, and audit it.

    Only the config and the design (points and weights) are read as input.
    The config passes `parse_config` again, so a report cannot carry a key
    that a config file may not.  Every design point must be a candidate of
    the config (`_candidate_rows`, which sorts only the candidates that share
    a point's last coordinate); points are written with round-trip
    precision, so the match is exact.  build_certificate
    rebuilds the certificate from the design and the candidates; each stored
    n_d, objective, p_max, gap and x_hat must agree with its rebuilt value to
    a relative _CERTIFY_RTOL (measured against at least 1, so values near 0
    compare absolutely).  The stored p_max is the largest p on the
    candidates, not floored at n_d as cert.p_max is, so it is compared with
    the largest rebuilt p.

    Returns (cfg, space, cert): the report's parsed config, its set and the
    rebuilt certificate.  Raises ConfigError on an unreadable or malformed
    report, _Rejected on a design point off the candidates or a mismatch, and
    DegenerateDesignError on a singular design.
    """
    path = Path(report_path)
    if not path.is_file():
        raise ConfigError(f"report file not found: {path}")
    try:
        report = json.loads(path.read_text())
        cfg = parse_config(report["config"])
        stored = {
            "n_d": float(report["n_d"]),
            "objective": float(report["objective"]),
            "p_max": float(report["p_max"]),
            "gap": float(report["certificate"]["gap"]),
            "x_hat": np.array(report["certificate"]["x_hat"], dtype=float),
        }
        points = np.array(report["design"]["points"], dtype=float)
        weights = np.array(report["design"]["weights"], dtype=float)
    except ConfigError:
        raise
    except OSError as err:
        raise ConfigError(f"cannot read report file: {err}") from err
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        what = f"missing key {err}" if isinstance(err, KeyError) else err
        raise ConfigError(f"malformed report: {what}") from err
    if points.ndim != 2 or points.shape[1] != cfg["dimension"]:
        raise ConfigError(
            f"report design points must be rows of {cfg['dimension']} coordinates"
        )
    space, cands = build_problem(cfg)
    support = _candidate_rows(cands.points, points)
    missing = support < 0
    if missing.any():
        raise _Rejected(
            f"report design point {points[np.argmax(missing)].tolist()} "
            "is not a candidate of its config"
        )
    try:
        design = DesignMeasure(
            candidates=CandidateSet(points=cands.points[support]),
            weights=weights,
        )
    except ValueError as err:
        raise ConfigError(f"report design: {err}") from err

    cert = build_certificate(design, cands, cfg["degree"])
    recomputed = {
        "n_d": cert.n_d,
        "objective": -cert.primal_value,
        "p_max": cert.p_values.max(),
        "gap": cert.gap,
        "x_hat": cert.x_hat,
    }
    for name, value in recomputed.items():
        value, mine = np.asarray(value, dtype=float), np.asarray(stored[name])
        tol = _CERTIFY_RTOL * max(1.0, float(np.abs(value).max()))
        if mine.shape != value.shape or not np.all(np.abs(mine - value) <= tol):
            raise _Rejected(
                f"report {name} does not match its value recomputed from the design"
            )
    return cfg, space, cert


@_one_line_errors
def cmd_certify(report_path: str, resolution: int | None, quiet=False) -> int:
    """Audit a report (`_audit_report`) and gate on its rebuilt certificate,
    never on the stored numbers."""
    cfg, space, cert = _audit_report(report_path)
    if resolution is None:
        resolution = cfg["validation_resolution"]
    grid = _grid(grid_members, space, resolution)
    gate = _gate(cert, grid, cfg["solver"]["epsilon"])
    if not quiet:
        print(f"primal_value={cert.primal_value:.12g}")
        print(f"dual_value={cert.dual_value:.12g}")
        print(f"gap={cert.gap:.6e} (bound {gate.gap_bound:.6e})")
        print(f"complementarity_residual={cert.complementarity_residual:.6e}")
        print(
            f"max_violation={gate.max_violation:.6e} on {resolution}-per-axis grid "
            f"(bound {gate.violation_bound:.6e})"
        )
    return EXIT_OK if gate.passed else EXIT_GATE_FAILED


#: Relative slack of eval-cd's membership test q <= n_d (1 + BOUNDARY_SLACK),
#: absorbing round-off for points exactly on the boundary.
BOUNDARY_SLACK = 1e-10


@_one_line_errors
def cmd_eval_cd(
    config_path: str,
    report_path: str,
    grid_resolution: int | None,
    out_dir: str,
    quiet=False,
) -> int:
    """Tabulate the audited report's p, the certified q = (n_d / p_max) p
    and membership in {q <= n_d (1 + BOUNDARY_SLACK)} on a grid of the
    config's set (at its validation_resolution unless given), from one pass
    of p over the grid.  Tabulates only: an untouched unconverged report
    exits 0."""
    cfg = load_config(config_path)
    report_cfg, _, cert = _audit_report(report_path)
    n, d = report_cfg["dimension"], report_cfg["degree"]
    if (n, d) != (cfg["dimension"], cfg["degree"]):
        raise ConfigError(
            f"report dimensions do not match config (report n={n} d={d}, "
            f"config n={cfg['dimension']} d={cfg['degree']})"
        )
    space = _build_set(cfg)
    if grid_resolution is None:
        grid_resolution = cfg["validation_resolution"]
    grid = _grid(grid_candidates, space, grid_resolution)  # every point is written
    with np.errstate(over="ignore", invalid="ignore"):  # q's check names the point
        p = cd_profile(cert.polynomial, grid.points)
    q = _certified(cert, p.copy(), grid.points)

    with _out_dir(out_dir) as out:
        csv_path = out / "cd_profile.csv"
        _write_csv(
            csv_path,
            [f"x{j + 1}" for j in range(n)] + ["p", "p_scaled", "inside_levelset"],
            np.column_stack([grid.points, p, q]),
            q <= cert.n_d * (1.0 + BOUNDARY_SLACK),
        )
    if not quiet:
        print(f"cd profile: {csv_path} ({grid.size} points)")
    return EXIT_OK


@_one_line_errors
def cmd_ellipsoid(report_path: str, out_dir: str, quiet=False) -> int:
    """Extract the enclosing ellipsoid of an audited degree-1 report from its
    rebuilt x_hat."""
    _, _, cert = _audit_report(report_path)
    payload = asdict(extract_ellipsoid(cert))
    with _out_dir(out_dir) as out:
        path = out / "ellipsoid.json"
        path.write_text(dump_json(payload))
    if not quiet:
        print(f"ellipsoid: {path}")
        print(dump_json(payload), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing is per call."""
    parser = argparse.ArgumentParser(
        prog="doptdesign",
        description="D-optimal design on semi-algebraic candidate sets "
        "with dual optimality certificates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a design problem from a config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=".")
    p_solve.add_argument("--quiet", action="store_true")

    p_cert = sub.add_parser("certify", help="audit the duality gap of a report")
    p_cert.add_argument("--report", required=True)
    p_cert.add_argument("--validation-resolution", type=int, default=None)
    p_cert.add_argument("--quiet", action="store_true")

    p_eval = sub.add_parser("eval-cd", help="tabulate the certified polynomial")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--report", required=True)
    p_eval.add_argument("--validation-resolution", type=int, default=None)
    p_eval.add_argument("--out", default=".")
    p_eval.add_argument("--quiet", action="store_true")

    p_ell = sub.add_parser("ellipsoid", help="extract the enclosing ellipsoid (d=1)")
    p_ell.add_argument("--report", required=True)
    p_ell.add_argument("--out", default=".")
    p_ell.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        code = cmd_solve(args.config, args.out, args.quiet)
    elif args.command == "certify":
        code = cmd_certify(args.report, args.validation_resolution, args.quiet)
    elif args.command == "eval-cd":
        code = cmd_eval_cd(
            args.config, args.report, args.validation_resolution, args.out, args.quiet
        )
    else:
        code = cmd_ellipsoid(args.report, args.out, args.quiet)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
