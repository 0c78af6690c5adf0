"""Per-layer measurement from outside the program.

`Tracer` records spans (name, start, end, parent) around the public functions
of every doptdesign module by swapping each function, wherever a doptdesign
module refers to it, for a timing wrapper, and puts the originals back
afterwards.  Spans inside `solver.solve` (assembly, Cholesky, p evaluation,
step, prune) need timers in the program and are not recorded here.

`layer_timings` times one public call per layer at each problem's own N, n_d
and validation grid, as the median of repeated calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# (module, function) pairs that get a span when a traced pass runs.
TRACED = [
    ("cli", "cmd_solve"),
    ("cli", "cmd_certify"),
    ("cli", "cmd_ellipsoid"),
    ("cli", "load_config"),
    ("cli", "build_problem"),
    ("cli", "dump_json"),
    ("semialg", "grid_candidates"),
    ("semialg", "explicit_candidates"),
    ("basis", "vandermonde"),
    ("design", "assemble_information"),
    ("design", "moment_vector"),
    ("spd", "factorize"),
    ("spd", "inverse"),
    ("spd", "quad_form_inv_many"),
    ("solver", "solve"),
    ("certificate", "build_certificate"),
    ("certificate", "validate_dual_feasibility"),
    ("certificate", "adjoint_expand"),
    ("geometry", "ellipsoid_from_quadratic"),
]

# Spans that occur on every workload; their self times are per-layer metrics.
SELF_TIME_SPANS = [
    "cli.cmd_solve",
    "cli.cmd_certify",
    "cli.load_config",
    "cli.build_problem",
    "cli.dump_json",
    "semialg.grid_candidates",
    "basis.vandermonde",
    "design.assemble_information",
    "design.moment_vector",
    "spd.quad_form_inv_many",
    "solver.solve",
    "certificate.build_certificate",
    "certificate.validate_dual_feasibility",
    "certificate.adjoint_expand",
]


class Tracer:
    """In-memory span recorder; use as a context manager around a traced pass.

    Return values of the functions named in `keep` are kept in `returned`.
    """

    def __init__(self, keep: tuple[str, ...] = ()):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.returned: dict[str, list] = {name: [] for name in keep}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if name in self.returned:
                self.returned[name].append(result)
            return result

        return traced

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k.startswith("doptdesign.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"doptdesign.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self._wrap(name, fn)(*args)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Each span name's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - covered)
        return out


def median_call_time(fn, *args, budget_s: float = 0.1, max_calls: int = 200) -> float:
    """Median seconds per call, calling until budget_s is spent or max_calls made."""
    samples: list[float] = []
    spent = 0.0
    while spent < budget_s and len(samples) < max_calls:
        t0 = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
    return statistics.median(samples)


def layer_timings(problems, reports: dict[str, dict]) -> dict[str, tuple]:
    """Time one public call per layer for each problem and sum over problems.

    `reports` maps problem names to their parsed report.json.  Kernel-sized
    calls are reported in microseconds, set-up sized calls in seconds.
    Returns (value, unit) by metric name.
    """
    from doptdesign import basis, cli, design, geometry, semialg, spd
    from doptdesign.errors import NotAnEllipsoidError

    sums: dict[str, float] = {}
    units: dict[str, str] = {}

    def add(key, value, unit):
        sums[key] = sums.get(key, 0) + value
        units[key] = unit

    for prob in problems:
        cfg = cli.load_config(prob.config_path)
        add("semialg.build_problem_s", median_call_time(cli.build_problem, cfg), "s")
        space, cands = cli.build_problem(cfg)
        d, n, N = cfg["degree"], cfg["dimension"], cands.size
        mono = basis.enumerate_basis(n, d)
        n_d = mono.size
        add("semialg.candidates", N, "count")

        res = cfg["validation_resolution"]
        add("semialg.validation_grid_s",
            median_call_time(semialg.grid_candidates, space, res), "s")
        vgrid = semialg.grid_candidates(space, res)
        add("semialg.validation_points", vgrid.size, "count")

        add("basis.vandermonde_us",
            1e6 * median_call_time(basis.vandermonde, mono, cands.points), "us")
        add("basis.vandermonde_validation_us",
            1e6 * median_call_time(basis.vandermonde, mono, vgrid.points), "us")

        uniform = design.DesignMeasure(candidates=cands, weights=np.full(N, 1.0 / N))
        add("design.assemble_information_us",
            1e6 * median_call_time(design.assemble_information, uniform, d), "us")
        poly = design.cd_polynomial(uniform, d)
        add("design.cd_profile_us",
            1e6 * median_call_time(design.cd_profile, poly, cands.points), "us")
        # One iteration's assembly, wV = w * V then M = V^T wV: 2 N n_d^2
        # flops for the product, and 8-byte words of every array read or
        # written (V, w, wV twice, V^T, M).  Computed, not measured.
        add("design.assembly_flop_per_iter", 2 * N * n_d**2, "flop")
        add("design.assembly_bytes_per_iter", 8 * (N * (4 * n_d + 1) + n_d**2), "B")

        v = basis.vandermonde(mono, cands.points)
        m = (v * uniform.weights[:, None]).T @ v
        add("spd.factorize_us", 1e6 * median_call_time(spd.factorize, m), "us")
        factor = spd.factorize(m)
        add("spd.quad_form_inv_many_us",
            1e6 * median_call_time(spd.quad_form_inv_many, factor, v), "us")

        report = reports[prob.name]
        # The degree-1 block of the certificate (basis 1, x_1..x_n) is the
        # matrix `ellipsoid` reads for a degree-1 report.
        x1 = np.array(report["certificate"]["x_hat"], dtype=float)[: n + 1, : n + 1]

        def ellipsoid():
            try:
                geometry.ellipsoid_from_quadratic(x1, n + 1)
            except NotAnEllipsoidError:
                pass

        add("geometry.ellipsoid_us", 1e6 * median_call_time(ellipsoid), "us")
        add("cli.dump_json_s", median_call_time(cli.dump_json, report), "s")
        add("cli.trace_entries", len(report["trace"]["objective"]), "count")

    add("design.assembly_flop_per_byte",
        sums["design.assembly_flop_per_iter"] / sums["design.assembly_bytes_per_iter"],
        "flop/B")
    return {key: (value, units[key]) for key, value in sums.items()}
