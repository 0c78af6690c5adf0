"""Benchmark of doptdesign: time to a certified D-optimal design via the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload interval-401 --seed 1 --seconds 34 --trace 0

One process drives the real command line in-process.  A pass runs
`cli.main(["solve", ...])` on every problem of the workload, then `certify`
(and `ellipsoid` for degree-1 problems) on every report, and checks every
output with the plain numpy code in check.py.  With --trace 0, passes repeat
while another one fits in --seconds (at least one runs) and the end-to-end
metrics are printed.  With --trace 1, untraced and traced passes alternate
while a pair fits in --seconds, and the per-layer metrics are printed,
including the tracing overhead.  The last line of standard output is the JSON result.  The
workloads and the defects they show are described in NOTES.md.
"""

import os

# Fixed before numpy loads OpenBLAS, so that iteration counts repeat exactly.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from check import check_problem  # noqa: E402
from layers import SELF_TIME_SPANS, Tracer, layer_timings  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = Path(".bench_work")  # scratch outputs, removed at exit
OUT_DIR = Path(".bench_out")  # result and span files, kept
# The machine's speed drifts by tens of percent over seconds, so the set-up
# probes are split into two windows, before and after the passes.  Every
# timed CLI call starts from a collected heap, as in a fresh process;
# otherwise when a full garbage collection falls due depends on what earlier
# calls left behind.
SETUP_PROBES = 8


def _timed_call(cli, argv: list[str], tracer=None) -> tuple[float, int]:
    """Seconds and exit code of one CLI invocation; an exception exits -1."""

    def call():
        try:
            return cli.main(argv)
        except Exception:
            traceback.print_exc()
            return -1

    gc.collect()
    t0 = time.perf_counter()
    code = call() if tracer is None else tracer.call(f"bench.{argv[0]}", call)
    return time.perf_counter() - t0, code


def solve_pass(cli, problems, pass_dir: Path, tracer=None):
    """`solve` on every problem; returns seconds and exit codes by problem."""
    seconds, codes = 0.0, {}
    for prob in problems:
        argv = ["solve", "--config", str(prob.config_path),
                "--out", str(pass_dir / prob.name), "--quiet"]
        spent, codes[prob.name] = _timed_call(cli, argv, tracer)
        seconds += spent
    return seconds, codes


def certify_sweep(cli, problems, pass_dir: Path, tracer=None):
    """`certify` (and `ellipsoid` at degree 1) on every report."""
    seconds, codes = 0.0, {}
    for prob in problems:
        out = pass_dir / prob.name
        report = str(out / "report.json")
        calls = [["certify", "--report", report, "--quiet"]]
        if prob.degree == 1:
            calls.append(["ellipsoid", "--report", report, "--out", str(out), "--quiet"])
        codes[prob.name] = {}
        for argv in calls:
            spent, codes[prob.name][argv[0]] = _timed_call(cli, argv, tracer)
            seconds += spent
    return seconds, codes


def audit(problems, pass_dir: Path, solve_codes, certify_codes):
    """Independent check of every problem's outputs; one row per problem."""
    rows = []
    for prob in problems:
        codes = {"solve": solve_codes[prob.name], **certify_codes[prob.name]}
        verdict, row = check_problem(prob, pass_dir / prob.name, codes)
        report = pass_dir / prob.name / "report.json"
        rows.append({
            "problem": prob.name,
            "exit": codes,
            "failed": verdict.failed,
            "wrong": verdict.wrong,
            "uncertified": verdict.uncertified,
            "report_bytes": report.stat().st_size if report.is_file() else 0,
            **row,
        })
    return rows


def repeat_within(seconds: float, body) -> list:
    """Call body(k) for k = 0, 1, ... while one more call fits in `seconds`."""
    start, results = time.perf_counter(), []
    while True:
        results.append(body(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def setup_seconds(problems) -> float:
    """Import plus load_config and build_problem on every problem, in a fresh process."""
    argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC)]
    argv += [str(p.config_path) for p in problems]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _summary(samples: list, unit: str) -> tuple:
    return statistics.median(samples), unit, len(samples)


def end_to_end(cli, problems, workdir: Path, seconds: float):
    setup = [setup_seconds(problems) for _ in range(SETUP_PROBES // 2)]

    def one_pass(k):
        pass_dir = workdir / f"pass{k}"
        wall, solve_codes = solve_pass(cli, problems, pass_dir)
        _, certify_codes = certify_sweep(cli, problems, pass_dir)
        rows = audit(problems, pass_dir, solve_codes, certify_codes)
        # Peak RSS after one pass; later passes add only heap fragmentation.
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"wall_s": wall, "rows": rows, "rss_mib": rss_mib}

    passes = repeat_within(seconds, one_pass)
    setup += [setup_seconds(problems) for _ in range(SETUP_PROBES - len(setup))]
    metrics = {
        "wall_s": _summary([p["wall_s"] for p in passes], "s"),
        "setup_s": _summary(setup, "s"),
        "report_bytes": _summary(
            [sum(r["report_bytes"] for r in p["rows"]) for p in passes], "B"),
        "peak_rss_mb": (passes[0]["rss_mib"], "MiB", 1),
    }
    return metrics, passes, None


def per_layer(cli, problems, workdir: Path, seconds: float):
    def one_pair(k):
        plain_dir, traced_dir = workdir / f"plain{k}", workdir / f"traced{k}"
        plain, _ = solve_pass(cli, problems, plain_dir)
        certify, _ = certify_sweep(cli, problems, plain_dir)
        phases = {}
        for prob in problems:
            timings = json.loads((plain_dir / prob.name / "timings.json").read_text())
            for phase, s in timings.items():
                phases[phase] = phases.get(phase, 0.0) + s
        shutil.rmtree(plain_dir)
        tracer = Tracer(keep=("solver.solve",))
        with tracer:
            traced, solve_codes = solve_pass(cli, problems, traced_dir, tracer)
            _, certify_codes = certify_sweep(cli, problems, traced_dir, tracer)
        rows = audit(problems, traced_dir, solve_codes, certify_codes)
        return {"plain": plain, "certify": certify, "traced": traced, "phases": phases,
                "tracer": tracer, "rows": rows, "dir": traced_dir}

    pairs = repeat_within(seconds, one_pair)
    last = pairs[-1]
    reports = {p.name: json.loads((last["dir"] / p.name / "report.json").read_text())
               for p in problems}

    def med(fn):
        return statistics.median(fn(p) for p in pairs)

    results = last["tracer"].returned["solver.solve"]
    iterations = sum(r.iterations for r in results)
    solve_s = med(lambda p: p["tracer"].total("solver.solve"))
    metrics = {
        "solver.solve_s": (solve_s, "s"),
        "solver.iterations": (iterations, "count"),
        "solver.us_per_iter": (1e6 * solve_s / max(iterations, 1), "us"),
        "solver.converged": (sum(r.converged for r in results), "count"),
        "solver.support_atoms": (sum(r.design.size for r in results), "count"),
        "solver.prune_rolled_back": (sum(r.prune_rolled_back for r in results), "count"),
        "certificate.build_s": (
            med(lambda p: p["tracer"].total("certificate.build_certificate")), "s"),
        "certificate.validate_s": (
            med(lambda p: p["tracer"].total("certificate.validate_dual_feasibility")), "s"),
    }
    for phase in ("solve", "certificate", "validation", "report"):
        metrics[f"cli.phase.{phase}_s"] = (med(lambda p: p["phases"][phase]), "s")
    metrics["cli.certify_s"] = (med(lambda p: p["certify"]), "s")
    metrics.update(layer_timings(problems, reports))
    metrics["trace.overhead_s"] = (med(lambda p: p["traced"] - p["plain"]), "s")
    metrics["trace.spans"] = (len(last["tracer"].spans), "count")
    for name in SELF_TIME_SPANS:
        metrics[f"trace.self_s.{name}"] = (
            med(lambda p: p["tracer"].self_times().get(name, 0.0)), "s")
    metrics = {k: (v, u, len(pairs)) for k, (v, u) in metrics.items()}
    return metrics, pairs, last["tracer"]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads(package) -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy or scipy."""
    libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _blas_version(package) -> str | None:
    try:
        return package.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "doptdesign").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": {"numpy": _blas_version(np), "scipy": _blas_version(scipy)},
        "blas_threads": {"fixed": BLAS_THREADS, "numpy": _blas_threads(np),
                         "scipy": _blas_threads(scipy)},
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "doptdesign" / "__init__.py").is_file():
        print(f"error: no doptdesign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # the configs name their point cloud relative to the root
    from doptdesign import cli

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        problems = WORKLOADS[args.workload](args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, passes, tracer = measure(cli, problems, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rows = [row for p in passes for row in p["rows"]]
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not any(r["wrong"] for r in rows),
        "attempted": len(rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "problems": rows, "samples": len(passes), **result},
        indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps({"spans": tracer.spans}) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} pass(es) of {len(problems)} problem(s)")
    for r in rows[-len(problems):]:
        status = "FAILED" if r["failed"] else "ok"
        print(f"  {r['problem']}: N={r.get('candidates')} n_d={r.get('n_d')} "
              f"iterations={r.get('iterations')} converged={r.get('converged')} "
              f"gap={r.get('gap')} bound={r.get('gap_bound')} exit={r['exit']} "
              f"{status} {'; '.join(r['wrong'] + r['uncertified'])}")
    print(f"  failed_share = {result['failed']}/{result['attempted']}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (median of {n})")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
