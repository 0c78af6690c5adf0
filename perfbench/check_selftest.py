"""Show that the independent check accepts a certified design and rejects tampering.

For each seed it builds the simplex-mvee problem, solves it through the CLI
with the multiplicative algorithm (which converges; the default does not),
and expects check.py to pass it.  It then alters the reported objective and,
separately, p_max by one part in 10^8 and expects the check to call each
output wrong.  Exits 1 if any expectation fails.

    python3 perfbench/check_selftest.py [SEED ...]      (default: 1 2)
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from check import check_problem
from workloads import simplex_mvee

ROOT = Path(__file__).resolve().parent.parent


def run_seed(cli, seed: int, workdir: Path) -> bool:
    (prob,) = simplex_mvee(seed, workdir)
    cfg = json.loads(prob.config_path.read_text())
    cfg["solver"]["algorithm"] = "multiplicative"
    prob.config_path.write_text(json.dumps(cfg))
    out = workdir / "out"
    report = str(out / "report.json")
    codes = {
        "solve": cli.main(["solve", "--config", str(prob.config_path),
                           "--out", str(out), "--quiet"]),
        "certify": cli.main(["certify", "--report", report, "--quiet"]),
        "ellipsoid": cli.main(["ellipsoid", "--report", report, "--out", str(out),
                               "--quiet"]),
    }
    verdict, row = check_problem(prob, out, codes)
    ok = not verdict.failed
    print(f"seed {seed}: exit {codes} iterations={row.get('iterations')} "
          f"gap={row.get('gap')} -> {'pass' if ok else 'FAIL'} "
          f"{verdict.wrong + verdict.uncertified}")
    original = json.loads((out / "report.json").read_text())
    for key in ("objective", "p_max"):
        tampered = dict(original, **{key: original[key] * (1 + 1e-8)})
        (out / "report.json").write_text(json.dumps(tampered))
        caught = bool(check_problem(prob, out, codes)[0].wrong)
        print(f"seed {seed}: {key} altered by 1e-8 -> "
              f"{'caught' if caught else 'MISSED'}")
        ok = ok and caught
    return ok


def main(seeds: list[int]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from doptdesign import cli

    results = []
    for seed in seeds:
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work"))
        try:
            results.append(run_seed(cli, seed, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [1, 2]))
