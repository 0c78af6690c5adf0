import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doptdesign import cli
from doptdesign.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_GATE_FAILED,
    EXIT_OK,
    _write_csv,
    cmd_certify,
    cmd_ellipsoid,
    cmd_eval_cd,
    cmd_solve,
    dump_json,
    main,
    parse_config,
)
from doptdesign.errors import ConfigError

INTERVAL_CONFIG = {
    "dimension": 1,
    "degree": 2,
    "set": {"bounding_box": [[-1.0, 1.0]]},
    "candidates": {"source": "grid", "resolution": 201},
    "solver": {
        "epsilon": 1e-6,
        "max_iters": 200000,
    },
    "validation_resolution": 401,
}

PAIR_CONFIG = {
    "dimension": 1,
    "degree": 1,
    "set": {"bounding_box": [[-1.0, 1.0]]},
    "candidates": {"source": "points", "points": [[-1.0], [1.0]]},
    "solver": {"epsilon": 1e-6},
    "validation_resolution": 11,
}

SQUARE_CONFIG = {
    "dimension": 2,
    "degree": 1,
    "set": {"bounding_box": [[-1.0, 1.0], [-1.0, 1.0]]},
    "candidates": {
        "source": "points",
        "points": [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]],
    },
    "validation_resolution": 21,
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def interval_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("interval")
    config_path = write_config(tmp, INTERVAL_CONFIG)
    out = tmp / "out"
    code = cmd_solve(config_path, str(out), quiet=True)
    return {
        "config": config_path,
        "out": out,
        "code": code,
        "report": json.loads((out / "report.json").read_text()),
    }


@pytest.fixture(scope="module")
def square_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("square")
    config_path = write_config(tmp, SQUARE_CONFIG)
    out = tmp / "out"
    code = cmd_solve(config_path, str(out), quiet=True)
    return {"config": config_path, "out": out, "code": code}


# -- config parsing ---------------------------------------------------------


def test_parse_config_fills_defaults():
    cfg = parse_config(
        {
            "dimension": 1,
            "degree": 1,
            "set": {"bounding_box": [[-1.0, 1.0]]},
            "candidates": {"source": "grid", "resolution": 5},
        }
    )
    assert cfg["solver"] == {
        "epsilon": 1e-6,
        "max_iters": 100_000,
    }
    assert cfg["validation_resolution"] == 101


def test_parse_config_rejects_unknown_root_key():
    # Runs are deterministic, so there is no `seed` key either, and solve
    # writes its files under fixed names, so there is no `output` object.
    for key, value in [
        ("epsilonn", 1e-6),
        ("seed", 1),
        ("output", {"report_json": "report.json", "support_csv": "support.csv"}),
    ]:
        with pytest.raises(
            ConfigError, match=rf"unknown key\(s\) \['{key}'\] in config"
        ):
            parse_config(
                {
                    "dimension": 1,
                    "degree": 1,
                    "set": {"bounding_box": [[-1, 1]]},
                    "candidates": {"source": "grid", "resolution": 5},
                    key: value,
                }
            )


def test_parse_config_rejects_unknown_solver_key():
    cfg = dict(INTERVAL_CONFIG)
    cfg["solver"] = {"tolerance": 1e-6}
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(cfg)


def test_parse_config_rejects_algorithm_key():
    # Reports written before the solver had a single update echo this key.
    cfg = dict(INTERVAL_CONFIG)
    cfg["solver"] = {"algorithm": "multiplicative", "epsilon": 1e-6}
    with pytest.raises(
        ConfigError, match=r"unknown key\(s\) \['algorithm'\] in solver"
    ):
        parse_config(cfg)


def test_solve_rejects_the_prune_threshold_key(tmp_path, capsys):
    # The solver prunes nothing, so the key is unknown, at any value; reports
    # written before pruning was removed echo it.
    cfg = json.loads(json.dumps(INTERVAL_CONFIG))
    cfg["solver"]["prune_threshold"] = 1e-7
    with pytest.raises(
        ConfigError, match=r"unknown key\(s\) \['prune_threshold'\] in solver"
    ):
        parse_config(cfg)
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: unknown key(s) ['prune_threshold'] in solver\n"


@pytest.mark.parametrize(
    "raw, message",
    [
        ([], "'config' must be an object"),
        (dict(PAIR_CONFIG, set=[]), "'set' must be an object"),
        (
            dict(PAIR_CONFIG, set={"bounding_box": [[-1, 1]], "inequalities": [[5]]}),
            "'inequalities[0][0]' must be an object",
        ),
        (dict(PAIR_CONFIG, candidates=[]), "'candidates' must be an object"),
        (dict(PAIR_CONFIG, solver=[]), "'solver' must be an object"),
        (
            dict(PAIR_CONFIG, set={"bounding_box": [[-1, 1]], "inequalities": [[{}]]}),
            "missing key(s) ['coeff', 'exponents'] in inequalities[0][0]",
        ),
        (
            dict(PAIR_CONFIG, candidates={"source": []}),
            "candidates.source must be 'grid', 'points' or 'point_cloud_file'",
        ),
        (
            dict(PAIR_CONFIG, candidates={"source": "grid", "points": [[0.0]]}),
            "unknown key(s) ['points'] in candidates",
        ),
        (
            dict(PAIR_CONFIG, candidates={"source": "points"}),
            "missing key(s) ['points'] in candidates",
        ),
        (dict(PAIR_CONFIG, seed=1), "unknown key(s) ['seed'] in config"),
        (
            dict(PAIR_CONFIG, output={"report_json": "report.json"}),
            "unknown key(s) ['output'] in config",
        ),
        (
            dict(PAIR_CONFIG, set={"bounding_box": [[-1, 0, 1]]}),
            "bounding_box[0] must be [lo, hi]",
        ),
        (
            dict(PAIR_CONFIG, set={"bounding_box": [[1, 1]]}),
            "bounding_box[0] is empty: [1.0, 1.0]",
        ),
        (
            dict(PAIR_CONFIG, set={"bounding_box": [[-1, 1]], "inequalities": [[]]}),
            "inequalities[0] must be a non-empty term list",
        ),
        (
            dict(PAIR_CONFIG, set={
                "bounding_box": [[-1, 1]],
                "inequalities": [[{"exponents": [-1], "coeff": 1.0}]],
            }),
            "inequalities[0][0].exponents must be nonnegative",
        ),
    ],
)
def test_parse_config_checks_every_object_alike(tmp_path, capsys, raw, message):
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert str(err.value) == message
    # solve refuses the config with that message as its one error line.
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, raw), str(out), True) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_parse_config_rejects_non_finite_number():
    cfg = dict(INTERVAL_CONFIG)
    cfg["solver"] = {"epsilon": float("inf")}
    with pytest.raises(ConfigError, match="finite"):
        parse_config(cfg)


def test_parse_config_rejects_degree_zero():
    cfg = dict(PAIR_CONFIG)
    cfg["degree"] = 0
    with pytest.raises(ConfigError, match="degree"):
        parse_config(cfg)


def test_parse_config_rejects_wrong_exponent_length():
    cfg = json.loads(json.dumps(INTERVAL_CONFIG))
    cfg["set"]["inequalities"] = [[{"exponents": [1, 2], "coeff": 1.0}]]
    with pytest.raises(ConfigError, match="exponents"):
        parse_config(cfg)


# -- solve ------------------------------------------------------------------


def test_solve_interval_exit_and_support(interval_run):
    assert interval_run["code"] == EXIT_OK
    report = interval_run["report"]
    design = report["design"]
    points = sorted(point[0] for point in design["points"])
    assert points == [-1.0, 0.0, 1.0]
    for weight in design["weights"]:
        assert abs(weight - 1 / 3) < 1e-6
    assert report["converged"] is True
    assert report["n_d"] == 3


def test_solve_report_round_trips(interval_run):
    raw = (interval_run["out"] / "report.json").read_text()
    assert dump_json(json.loads(raw)) == raw


def test_solve_report_has_required_sections(interval_run):
    report = interval_run["report"]
    for key in (
        "artifact_version",
        "config",
        "n_d",
        "objective",
        "p_max",
        "iterations",
        "converged",
        "design",
        "p_values",
        "trace",
        "certificate",
        "moment_vector",
        "cd_coefficients",
        "validation",
    ):
        assert key in report
    assert "ellipsoid" not in report  # written only by the ellipsoid command
    assert len(report["moment_vector"]["values"]) == 5
    assert len(report["cd_coefficients"]["values"]) == 5
    # quartic ceiling polynomial: 3 - 4.5 x^2 + 4.5 x^4, scaled by n_d/p_max
    coeffs = report["cd_coefficients"]["values"]
    assert abs(coeffs[0] - 3.0) < 1e-4
    assert abs(coeffs[2] + 4.5) < 1e-3
    assert abs(coeffs[4] - 4.5) < 1e-3


def test_solve_support_csv(interval_run):
    raw = (interval_run["out"] / "support.csv").read_bytes().decode()
    lines = raw.split("\r\n")
    assert lines[0] == "x1,weight,p"
    assert len([ln for ln in lines if ln]) == 4  # header + 3 atoms


def test_solve_timings_sidecar_not_in_report(interval_run):
    assert "timings" not in interval_run["report"]
    sidecar = json.loads((interval_run["out"] / "timings.json").read_text())
    assert set(sidecar) == {"solve", "certificate", "validation", "report"}


def test_solve_determinism_byte_identical(tmp_path):
    cfg = json.loads(json.dumps(INTERVAL_CONFIG))
    cfg["candidates"]["resolution"] = 41
    config_path = write_config(tmp_path, cfg)
    assert cmd_solve(config_path, str(tmp_path / "a"), quiet=True) == EXIT_OK
    assert cmd_solve(config_path, str(tmp_path / "b"), quiet=True) == EXIT_OK
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_solve_degree_zero_exits_config(tmp_path):
    cfg = dict(PAIR_CONFIG)
    cfg["degree"] = 0
    assert cmd_solve(write_config(tmp_path, cfg), str(tmp_path), True) == EXIT_CONFIG


def test_solve_too_few_candidates_exits_degenerate(tmp_path):
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["degree"] = 2  # n_d = 3 > 2 candidates
    assert cmd_solve(write_config(tmp_path, cfg), str(tmp_path), True) == EXIT_DEGENERATE


@pytest.mark.parametrize(
    ("command", "unreadable"),
    [
        ("solve", "config"),
        ("eval-cd", "config"),
        ("certify", "report"),
        ("eval-cd", "report"),
        ("ellipsoid", "report"),
    ],
)
def test_an_unreadable_input_exits_config(
    square_run, tmp_path, capsys, monkeypatch, command, unreadable
):
    # The read itself is made to fail: root reads a mode-000 file.
    config, report = square_run["config"], str(square_run["out"] / "report.json")
    path = Path({"config": config, "report": report}[unreadable])
    read_text = Path.read_text

    def refuse(self, *args, **kwargs):
        if self == path:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse)
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "solve": ["solve", "--config", config, *out],
        "certify": ["certify", "--report", report],
        "eval-cd": ["eval-cd", "--config", config, "--report", report, *out],
        "ellipsoid": ["ellipsoid", "--report", report, *out],
    }[command]
    assert main(argv) == EXIT_CONFIG
    reason = f"[Errno 13] Permission denied: '{path}'"
    assert capsys.readouterr().err == f"error: cannot read {unreadable} file: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_solve_missing_config(tmp_path):
    assert cmd_solve(str(tmp_path / "nope.json"), str(tmp_path), True) == EXIT_CONFIG


def test_solve_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cmd_solve(str(path), str(tmp_path), True) == EXIT_CONFIG


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "solver",
    [
        {"prune_threshold": 0.0},  # no longer a key
        {"epsilon": 0.0},
        {"algorithm": "multiplicative"},
    ],
)
def test_solve_bad_solver_block_exits_config(tmp_path, capsys, solver):
    cfg = json.loads(json.dumps(INTERVAL_CONFIG))  # n_d = 3
    cfg["solver"].update(solver)
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "degree",
    ["9" * 5000],  # more digits than json.loads turns into an int
    ids=["5000-digits"],
)
def test_solve_enormous_degree_exits_config(tmp_path, capsys, degree):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(PAIR_CONFIG, degree=0)).replace(
        '"degree": 0', f'"degree": {degree}'
    ))
    assert cmd_solve(str(path), str(tmp_path / "out"), True) == EXIT_CONFIG
    assert_one_error_line(capsys)


@pytest.mark.parametrize(
    "degree",
    [
        5000,  # n_d = 12,507,501
        10**300,  # 1/n_d underflows to 0
        10**400,  # the degree itself is too large for a float
        10**3000,  # n_d has more digits than Python turns into a str
    ],
    ids=["5000", "301-digits", "401-digits", "3001-digits"],
)
def test_solve_impossible_degree_exits_degenerate(tmp_path, capsys, degree):
    # Two points in the plane fit no model beyond 2 regression functions; the
    # error says so, and blames no solver setting.
    cfg = {
        "dimension": 2,
        "degree": degree,
        "set": {"bounding_box": [[-1.0, 1.0], [-1.0, 1.0]]},
        "candidates": {"source": "points", "points": [[-1.0, 0.0], [1.0, 0.0]]},
    }
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("error: 2 candidates for ") and err.count("\n") == 1, err


def test_solve_enormous_exponent_exits_config(tmp_path, capsys):
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["set"]["inequalities"] = [[{"exponents": [10**400], "coeff": 1.0}]]
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


@pytest.mark.parametrize("inequalities", [5, None, True, 1.5, {}])
def test_solve_inequalities_not_a_list_exits_config(tmp_path, capsys, inequalities):
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["set"]["inequalities"] = inequalities
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_solve_writes_report_support_and_timings(tmp_path):
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, PAIR_CONFIG), str(out), True) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "report.json", "support.csv", "timings.json",
    ]


@pytest.mark.parametrize("grid", ["candidates", "validation"])
def test_solve_unallocatable_grid_exits_config(tmp_path, capsys, grid):
    # 10^5 points per axis of a cube is 10^15 points, 21 PiB of coordinates:
    # past the 128 TiB address space, so the allocation fails at once.
    cfg = {
        "dimension": 3,
        "degree": 1,
        "set": {"bounding_box": [[-1.0, 1.0]] * 3},
        "candidates": {"source": "grid", "resolution": 3},
        "validation_resolution": 5,
    }
    if grid == "candidates":
        cfg["candidates"]["resolution"] = 10**5
    else:
        cfg["validation_resolution"] = 10**5
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_solve_unallocatable_half_space_grid_exits_config(tmp_path, capsys):
    # The simplex's three single-axis half-spaces x_j + 1 >= 0 are each tested
    # on one axis of 10^5 points, so no full-size inequality builds the mask;
    # the 10^15-point mask itself is allocated first and fails at once.
    half_space = [
        [{"exponents": [int(i == j) for i in range(3)], "coeff": 1.0},
         {"exponents": [0, 0, 0], "coeff": 1.0}]
        for j in range(3)
    ]
    cfg = {
        "dimension": 3,
        "degree": 1,
        "set": {"bounding_box": [[-1.0, 3.0]] * 3, "inequalities": half_space},
        "candidates": {"source": "grid", "resolution": 3},
        "validation_resolution": 10**5,
    }
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


@pytest.mark.parametrize("command", ["solve", "eval-cd", "ellipsoid"])
@pytest.mark.parametrize("blocker", ["out-is-a-file", "output-is-a-directory"])
def test_unwritable_out_exits_config(square_run, tmp_path, capsys, command, blocker):
    # --out naming an existing file, or a directory where the output file
    # goes, is one error line with exit 2, not a traceback.
    assert square_run["code"] == EXIT_OK
    out = tmp_path / "out"
    name = {"solve": "report.json", "eval-cd": "cd_profile.csv",
            "ellipsoid": "ellipsoid.json"}[command]
    if blocker == "out-is-a-file":
        out.write_text("")
    else:
        (out / name).mkdir(parents=True)
    report = str(square_run["out"] / "report.json")
    argv = {
        "solve": ["solve", "--config", square_run["config"]],
        "eval-cd": ["eval-cd", "--config", square_run["config"], "--report", report],
        "ellipsoid": ["ellipsoid", "--report", report],
    }[command]
    assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert_one_error_line(capsys)


HUGE = 10**21  # np.arange refuses this many grid points with a ValueError


@pytest.mark.parametrize(
    "case", ["solve-candidates", "solve-validation", "certify", "eval-cd"]
)
def test_unindexable_grid_exits_config(square_run, tmp_path, capsys, case):
    assert square_run["code"] == EXIT_OK
    cfg = json.loads(json.dumps(SQUARE_CONFIG))
    if case == "solve-candidates":
        cfg["candidates"] = {"source": "grid", "resolution": HUGE}
    else:
        cfg["validation_resolution"] = HUGE
    report = str(square_run["out"] / "report.json")
    solve = ["solve", "--config", write_config(tmp_path, cfg)]
    grid = ["--validation-resolution", str(HUGE)]
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "solve-candidates": [*solve, *out],
        "solve-validation": [*solve, *out],
        "certify": ["certify", "--report", report, *grid],
        "eval-cd": ["eval-cd", "--config", square_run["config"], "--report", report,
                    *grid, *out],
    }[case]
    assert main([*argv, "--quiet"]) == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_solve_checks_the_validation_grid_before_solving(
    tmp_path, capsys, monkeypatch
):
    def fail(*args):
        pytest.fail("solve ran before the validation grid was checked")

    monkeypatch.setattr(cli, "solve", fail)
    for resolution in (HUGE, 1):
        cfg = dict(SQUARE_CONFIG, validation_resolution=resolution)
        out = tmp_path / str(resolution)
        assert cmd_solve(write_config(tmp_path, cfg), str(out), True) == EXIT_CONFIG
        assert_one_error_line(capsys)
        assert not (out / "report.json").exists()


def test_solve_rejects_a_validation_grid_too_large_to_allocate(
    tmp_path, capsys, monkeypatch
):
    # 10^6 points per axis of a cube: each axis is 8 MB, but the grid's r^n
    # membership mask is 10^18 bytes, so the grid fails with a MemoryError
    # before anything is solved.
    def fail(*args):
        pytest.fail("solve ran before the validation grid was checked")

    monkeypatch.setattr(cli, "solve", fail)
    cfg = {
        "dimension": 3,
        "degree": 1,
        "set": {"bounding_box": [[-1.0, 1.0]] * 3},
        "candidates": {"source": "grid", "resolution": 3},
        "validation_resolution": 10**6,
    }
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, cfg), str(out), True) == EXIT_CONFIG
    assert_one_error_line(capsys)
    assert not (out / "report.json").exists()


def test_solve_overflowing_monomials_exits_config(tmp_path, capsys):
    # At x = 1e80 the degree-4 moment x^4 = 1e320 is not a float.  A warning
    # would fail the suite, which turns RuntimeWarning into an error.
    cfg = {
        "dimension": 1,
        "degree": 2,
        "set": {"bounding_box": [[-1e80, 1e80]]},
        "candidates": {"source": "grid", "resolution": 21},
    }
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_solve_small_points_in_a_huge_box(tmp_path, capsys):
    # The box alone is no error: the candidates' monomials are finite, so the
    # solve and the certificate run.  The certified q at the box's corners,
    # about 1e320, is not a float, so the validation grid is an input error.
    cfg = {
        "dimension": 1,
        "degree": 2,
        "set": {"bounding_box": [[-1e80, 1e80]]},
        "candidates": {"source": "points", "points": [[-1.0], [0.0], [1.0]]},
        "validation_resolution": 2,
    }
    code = cmd_solve(write_config(tmp_path, cfg), str(tmp_path / "out"), True)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: the certified polynomial is not a finite float")
    assert err.count("\n") == 1, err


def test_solve_point_cloud_file(tmp_path):
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("-1.0\n-0.5\n0.0\n0.5\n1.0\n")
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["candidates"] = {"source": "point_cloud_file", "path": str(cloud)}
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, cfg), str(out), True) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True


def test_solve_malformed_point_cloud_exits_config(tmp_path, capsys):
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("-1.0\nnot-a-number\n")
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["candidates"] = {"source": "point_cloud_file", "path": str(cloud)}
    assert cmd_solve(write_config(tmp_path, cfg), str(tmp_path), True) == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_solve_point_cloud_with_the_wrong_column_count_exits_config(tmp_path, capsys):
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("-1.0 0.0\n1.0 0.0\n")
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["candidates"] = {"source": "point_cloud_file", "path": str(cloud)}
    assert cmd_solve(write_config(tmp_path, cfg), str(tmp_path), True) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: point cloud has 2 columns, expected 1\n"


@pytest.mark.parametrize("text", ["", "# no points\n\n"], ids=["empty", "comment"])
def test_solve_empty_point_cloud_prints_one_error_line(tmp_path, text):
    # In a fresh interpreter, so that stderr holds whatever a user would see,
    # numpy's warnings included.
    cloud = tmp_path / "cloud.txt"
    cloud.write_text(text)
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["candidates"] = {"source": "point_cloud_file", "path": str(cloud)}
    config = write_config(tmp_path, cfg)
    code = (
        "import sys; from doptdesign import cli; "
        f"sys.exit(cli.main(['solve', '--config', {config!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--quiet']))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == EXIT_CONFIG
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr


# The 401-point grid on [-1, 1] at degree 22, stopped after 50 steps: the
# design's information matrix factors, but the certificate's scaled dual
# matrix fails its pivot test.
ILL_CONDITIONED_CONFIG = {
    "dimension": 1,
    "degree": 22,
    "set": {"bounding_box": [[-1.0, 1.0]]},
    "candidates": {"source": "grid", "resolution": 401},
    "solver": {"max_iters": 50},
}


def test_solve_and_certify_an_ill_conditioned_design_exit_degenerate(
    tmp_path, capsys
):
    out = tmp_path / "out"
    code = cmd_solve(write_config(tmp_path, ILL_CONDITIONED_CONFIG), str(out), True)
    assert code == EXIT_DEGENERATE
    assert_one_error_line(capsys)
    assert not (out / "report.json").exists()
    # certify rebuilds the certificate from a report's config and design, so
    # a report carrying that design exits 3 as well.
    cfg = parse_config(ILL_CONDITIONED_CONFIG)
    _, cands = cli.build_problem(cfg)
    res = cli.solve(cands, 22, cli.SolverConfig(**cfg["solver"]))
    report = {
        "config": cfg,
        "n_d": 23,
        "objective": 0.0,
        "p_max": 23.0,
        "design": {
            "points": res.design.candidates.points,
            "weights": res.design.weights,
        },
        "certificate": {"gap": 0.0, "x_hat": np.eye(23)},
    }
    assert run_on_report("certify", report, tmp_path) == EXIT_DEGENERATE
    assert_one_error_line(capsys)


# -- certify ----------------------------------------------------------------


def test_certify_converged_run(interval_run, capsys):
    code = cmd_certify(str(interval_run["out"] / "report.json"), None)
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "gap=" in out and "max_violation=" in out
    # exit code is a pure function of the report and grid
    rerun = cmd_certify(str(interval_run["out"] / "report.json"), None, quiet=True)
    assert rerun == code


def test_certify_truncated_run(tmp_path, capsys):
    out = tmp_path / "out"
    code = cmd_solve(write_config(tmp_path, TRUNCATED_CONFIG), str(out), True)
    assert code == EXIT_GATE_FAILED
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["certificate"]["gap"] > 0
    assert cmd_certify(str(out / "report.json"), None, quiet=True) == EXIT_GATE_FAILED


def linear(c, a, b):
    """The polynomial c + a x + b y as a config term list."""
    return [
        {"exponents": [0, 0], "coeff": c},
        {"exponents": [1, 0], "coeff": a},
        {"exponents": [0, 1], "coeff": b},
    ]


# A degree-1 solve stopped after one step.  The greedy start is uniform on
# three of the four candidates, and the optimum gives them weights 9/32,
# 9/32, 5/16 and 1/8, so one step does not converge.  X is the kite that
# the candidates span, which the optimal design's ellipsoid contains.
TRUNCATED_CONFIG = {
    "dimension": 2,
    "degree": 1,
    "set": {
        "bounding_box": [[-1.0, 1.0], [-1.0, 1.0]],
        "inequalities": [
            linear(1.0, 1.0, -1.0),
            linear(1.0, -1.0, -1.0),
            linear(0.5, 0.5, 1.0),
            linear(0.5, -0.5, 1.0),
        ],
    },
    "candidates": {
        "source": "points",
        "points": [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -0.5]],
    },
    "solver": {"max_iters": 1},
    "validation_resolution": 11,
}
TRUNCATED_OPTIMUM = {(-1.0, 0.0): 9 / 32, (1.0, 0.0): 9 / 32, (0.0, 1.0): 5 / 16, (0.0, -0.5): 1 / 8}


REPORT_COMMANDS = ["certify", "eval-cd", "ellipsoid"]


def run_on_report(command, report, tmp_path):
    """Write `report`, run one report-reading subcommand on it through `main`
    and return its exit code; eval-cd and ellipsoid write under tmp_path/cmd."""
    path = tmp_path / "altered.json"
    path.write_text(dump_json(report))
    out = ["--out", str(tmp_path / "cmd")]
    config = write_config(tmp_path, report["config"], "echo.json")
    argv = {
        "certify": ["certify", "--report", str(path)],
        "eval-cd": [
            "eval-cd", "--config", config, "--report", str(path),
            "--validation-resolution", "5", *out,
        ],
        "ellipsoid": ["ellipsoid", "--report", str(path), *out],
    }[command]
    return main([*argv, "--quiet"])


def assert_nothing_written(tmp_path):
    for name in ("cd_profile.csv", "ellipsoid.json"):
        assert not (tmp_path / "cmd" / name).exists()


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_certify_rejects_tampered_report(tmp_path, capsys, command):
    # An unconverged report doctored to look certified: gap set to 0 and the
    # weights replaced by the optimal ones.  The stored numbers no longer
    # match the design, so every report reader exits 1 instead of trusting
    # them.
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, TRUNCATED_CONFIG), str(out), True) == 1
    report = json.loads((out / "report.json").read_text())
    report["certificate"]["gap"] = 0.0
    points = report["design"]["points"]
    report["design"]["weights"] = [TRUNCATED_OPTIMUM[tuple(x)] for x in points]
    capsys.readouterr()
    assert run_on_report(command, report, tmp_path) == EXIT_GATE_FAILED
    assert_one_error_line(capsys)
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize(
    ("command", "field"),
    [
        # certify keeps the ids it had before eval-cd and ellipsoid joined.
        pytest.param(
            command, field, id=field if command == "certify" else f"{command}-{field}"
        )
        for command in REPORT_COMMANDS
        for field in ["objective", "p_max", "gap", "x_hat"]
    ],
)
def test_certify_rejects_one_altered_number(
    interval_run, square_run, tmp_path, capsys, command, field
):
    run = square_run if command == "ellipsoid" else interval_run  # ellipsoid: d = 1
    report = json.loads((run["out"] / "report.json").read_text())
    if field == "gap":
        report["certificate"]["gap"] += 1e-6
    elif field == "x_hat":
        report["certificate"]["x_hat"][0][0] *= 1.0 + 1e-7
    else:  # the square's objective is log det I = 0, so shift, not scale
        report[field] += 1e-7 * max(1.0, abs(report[field]))
    assert run_on_report(command, report, tmp_path) == EXIT_GATE_FAILED
    assert_one_error_line(capsys)
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command", ["eval-cd", "ellipsoid"])
def test_report_readers_reject_weights_off_the_simplex(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, PAIR_CONFIG), str(out), True) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    report["design"]["weights"] = [0.7, 0.7]
    assert run_on_report(command, report, tmp_path) == EXIT_CONFIG
    assert_one_error_line(capsys)
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command", ["eval-cd", "ellipsoid"])
def test_report_readers_tabulate_an_untouched_unconverged_report(
    tmp_path, capsys, command
):
    # eval-cd and ellipsoid tabulate and extract; only certify gates.
    out = tmp_path / "out"
    code = cmd_solve(write_config(tmp_path, TRUNCATED_CONFIG), str(out), True)
    assert code == EXIT_GATE_FAILED
    report = json.loads((out / "report.json").read_text())
    assert run_on_report(command, report, tmp_path) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", REPORT_COMMANDS)
def test_report_readers_need_the_point_cloud_file(tmp_path, capsys, command):
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("-1.0\n1.0\n")
    cfg = json.loads(json.dumps(PAIR_CONFIG))
    cfg["candidates"] = {"source": "point_cloud_file", "path": str(cloud)}
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, cfg), str(out), True) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    cloud.unlink()
    assert run_on_report(command, report, tmp_path) == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_certify_rejects_design_off_the_candidates(tmp_path, capsys):
    # Atoms at +-2 with every stored number rewritten to match them: p is at
    # most 1.25 < n_d = 2 on [-1, 1], so without the candidate check the
    # report passes with objective log 4, above the true optimum 0.
    cfg = {
        "dimension": 1,
        "degree": 1,
        "set": {"bounding_box": [[-1.0, 1.0]]},
        "candidates": {"source": "points", "points": [[-1.0], [-0.2], [0.5], [1.0]]},
        "validation_resolution": 11,
    }
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, cfg), str(out), True) == 0
    report = json.loads((out / "report.json").read_text())
    report["design"] = {"points": [[-2.0], [2.0]], "weights": [0.5, 0.5]}
    report["objective"] = math.log(4.0)
    report["p_max"] = 1.25
    report["certificate"]["gap"] = 0.0
    report["certificate"]["x_hat"] = [[1.0, 0.0], [0.0, 0.25]]
    path = tmp_path / "off.json"
    path.write_text(dump_json(report))
    capsys.readouterr()
    assert cmd_certify(str(path), None, quiet=True) == EXIT_GATE_FAILED
    assert_one_error_line(capsys)


THREE_POINT_CONFIG = {
    "dimension": 1,
    "degree": 2,
    "set": {"bounding_box": [[-1.0, 1.0]]},
    "candidates": {"source": "points", "points": [[-1.0], [0.0], [1.0]]},
    "validation_resolution": 11,
}


@pytest.fixture
def three_point_report(tmp_path):
    """The report of the optimal quadratic design on {-1, 0, 1}."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, THREE_POINT_CONFIG)
    assert cmd_solve(cfg, str(out), True) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["design"]["points"] == [[-1.0], [0.0], [1.0]]
    return report


def certify_design_points(report, points, tmp_path):
    """Exit code of certify on `report` with its design points replaced
    (written with json.dumps, which spells NaN as NaN)."""
    report["design"]["points"] = points
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    return cmd_certify(str(path), None, quiet=True)


def test_certify_matches_a_negative_zero_design_point(
    three_point_report, tmp_path, capsys
):
    points = [[-1.0], [-0.0], [1.0]]
    assert certify_design_points(three_point_report, points, tmp_path) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_certify_never_matches_a_nan_design_point(three_point_report, tmp_path, capsys):
    points = [[-1.0], [math.nan], [1.0]]
    code = certify_design_points(three_point_report, points, tmp_path)
    assert code == EXIT_GATE_FAILED
    err = capsys.readouterr().err
    assert err == "error: report design point [nan] is not a candidate of its config\n"


def test_certify_names_the_first_design_point_off_the_candidates(
    three_point_report, tmp_path, capsys
):
    # 7.0 sorts after 5.0, but comes first in the design.
    points = [[7.0], [0.0], [5.0]]
    code = certify_design_points(three_point_report, points, tmp_path)
    assert code == EXIT_GATE_FAILED
    err = capsys.readouterr().err
    assert err == "error: report design point [7.0] is not a candidate of its config\n"


FLOAT_ROWS = st.lists(
    st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, math.nan]), min_size=2, max_size=2),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(cands=FLOAT_ROWS, points=FLOAT_ROWS.filter(bool), n=st.integers(1, 2))
@example(cands=[[1.0, 0.0], [0.0, 1.0]], points=[[1.0, -0.0]], n=2)  # -0.0 == 0.0
@example(cands=[[math.nan, 1.0], [0.0, math.nan]], points=[[math.nan, 1.0]], n=2)
@example(cands=[[0.0, 1.0], [1.0, 1.0]], points=[[0.0, -1.0], [1.0, 0.0]], n=2)
def test_candidate_rows_matches_brute_force(cands, points, n):
    # Distinct candidates, as build_problem makes them: each row unequal, as
    # floats, to every row before it (a row holding a NaN equals none).
    cands = np.array(cands).reshape(-1, 2)[:, :n]
    cands = cands[[not any((c == cands[j]).all() for j in range(i))
                   for i, c in enumerate(cands)]]
    points = np.array(points)[:, :n]
    expected = [
        next((j for j in range(len(cands)) if (cands[j] == p).all()), -1)
        for p in points
    ]
    assert cli._candidate_rows(cands, points).tolist() == expected


def test_parser_is_built_once_and_parses_each_call(square_run, capsys):
    assert cli.build_parser() is cli.build_parser()
    report = str(square_run["out"] / "report.json")
    assert main(["certify", "--report", report, "--quiet"]) == EXIT_OK
    assert main(["certify", "--report", report]) == EXIT_OK
    assert "max_violation=" in capsys.readouterr().out


@pytest.mark.parametrize("config", [TRUNCATED_CONFIG, SQUARE_CONFIG, INTERVAL_CONFIG])
def test_certify_untouched_report_keeps_its_exit_code(tmp_path, capsys, config):
    out = tmp_path / "out"
    code = cmd_solve(write_config(tmp_path, config), str(out), True)
    assert cmd_certify(str(out / "report.json"), None, quiet=True) == code
    assert capsys.readouterr().err == ""


def test_certify_accepts_report_with_support_list(interval_run, tmp_path, capsys):
    # Reports written before certificate.support was dropped list each atom
    # there too; certify reads only the design, so they still pass.
    report = json.loads(json.dumps(interval_run["report"]))
    rows = (interval_run["out"] / "support.csv").read_text().split()[1:]
    report["certificate"]["support"] = [
        {"point": [float(x)], "weight": float(w), "p": float(p)}
        for x, w, p in (row.split(",") for row in rows)
    ]
    path = tmp_path / "old.json"
    path.write_text(dump_json(report))
    assert cmd_certify(str(path), None, quiet=True) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_certify_report_with_impossible_degree_exits_degenerate(
    tmp_path, capsys
):
    # A report config whose degree the design cannot fit is rejected before
    # the degree's basis (12,507,501 multi-indices here) is built.
    out = tmp_path / "out"
    cfg = json.loads(json.dumps(SQUARE_CONFIG))
    assert cmd_solve(write_config(tmp_path, cfg), str(out), True) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    report["config"]["degree"] = 5000
    path = tmp_path / "report.json"
    path.write_text(dump_json(report))
    assert cmd_certify(str(path), None, quiet=True) == EXIT_DEGENERATE
    assert_one_error_line(capsys)


def test_certify_corrupted_report(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"certificate": ')
    assert cmd_certify(str(path), None, quiet=True) == EXIT_CONFIG


@pytest.fixture
def tiny_disk_run(tmp_path):
    """Disk of radius 1e-3 in [-1, 1]^2: only odd grids hit its center."""
    cfg = {
        "dimension": 2,
        "degree": 1,
        "set": {
            "bounding_box": [[-1.0, 1.0], [-1.0, 1.0]],
            "inequalities": [[
                {"exponents": [0, 0], "coeff": 1e-6},
                {"exponents": [2, 0], "coeff": -1.0},
                {"exponents": [0, 2], "coeff": -1.0},
            ]],
        },
        "candidates": {
            "source": "points",
            "points": [[5e-4, 0.0], [-5e-4, 0.0], [0.0, 5e-4], [0.0, -5e-4]],
        },
        "validation_resolution": 101,
    }
    config_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cmd_solve(config_path, str(out), True) == EXIT_OK
    return {"config": config_path, "out": out}


def test_certify_empty_validation_grid_exits_config(tiny_disk_run, capsys):
    report = str(tiny_disk_run["out"] / "report.json")
    assert cmd_certify(report, 101, quiet=True) == EXIT_OK
    capsys.readouterr()
    for resolution in (100, 1, 0):  # a grid that misses the set, and no grid
        assert cmd_certify(report, resolution, quiet=True) == EXIT_CONFIG
        assert_one_error_line(capsys)


def test_certify_rejects_report_naming_algorithm(interval_run, tmp_path, capsys):
    report = json.loads(json.dumps(interval_run["report"]))
    report["config"]["solver"]["algorithm"] = "multiplicative"
    path = tmp_path / "report.json"
    path.write_text(dump_json(report))
    assert cmd_certify(str(path), None, quiet=True) == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_certify_rejects_report_naming_prune_threshold(interval_run, tmp_path, capsys):
    # Reports written while the solver pruned echo the key with its value.
    report = json.loads(json.dumps(interval_run["report"]))
    report["config"]["solver"]["prune_threshold"] = 1e-7
    path = tmp_path / "report.json"
    path.write_text(dump_json(report))
    assert cmd_certify(str(path), None, quiet=True) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: unknown key(s) ['prune_threshold'] in solver\n"
    )


def test_certify_rejects_report_naming_output(interval_run, tmp_path, capsys):
    # Reports written while solve took its file names from the config echo
    # the names it used.
    report = json.loads(json.dumps(interval_run["report"]))
    report["config"]["output"] = {
        "report_json": "report.json", "support_csv": "support.csv",
    }
    path = tmp_path / "report.json"
    path.write_text(dump_json(report))
    assert cmd_certify(str(path), None, quiet=True) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: unknown key(s) ['output'] in config\n"


# -- eval-cd ----------------------------------------------------------------


def test_eval_cd_empty_grid_exits_config(tiny_disk_run, capsys):
    out = tiny_disk_run["out"]
    code = cmd_eval_cd(
        tiny_disk_run["config"], str(out / "report.json"), 100, str(out), True
    )
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_eval_cd_linear_profile(tmp_path):
    out = tmp_path / "out"
    config_path = write_config(tmp_path, PAIR_CONFIG)
    assert cmd_solve(config_path, str(out), True) == EXIT_OK
    code = cmd_eval_cd(config_path, str(out / "report.json"), 3, str(out), True)
    assert code == EXIT_OK
    rows = (out / "cd_profile.csv").read_bytes().decode().strip().split("\r\n")
    assert rows[0] == "x1,p,p_scaled,inside_levelset"
    table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert abs(table[-1.0] - 2.0) < 1e-9
    assert abs(table[0.0] - 1.0) < 1e-9
    assert abs(table[1.0] - 2.0) < 1e-9


def test_eval_cd_scaled_value_at_support(interval_run):
    out = interval_run["out"]
    code = cmd_eval_cd(
        interval_run["config"], str(out / "report.json"), 5, str(out), True
    )
    assert code == EXIT_OK
    rows = (out / "cd_profile.csv").read_bytes().decode().strip().split("\r\n")[1:]
    for row in rows:
        x, _, p_scaled, _ = row.split(",")
        if float(x) in (-1.0, 0.0, 1.0):
            assert abs(float(p_scaled) - 3.0) <= 3.0 * 1e-4


def test_eval_cd_resolution_one_rejected(interval_run):
    code = cmd_eval_cd(
        interval_run["config"],
        str(interval_run["out"] / "report.json"),
        1,
        str(interval_run["out"]),
        True,
    )
    assert code == EXIT_CONFIG


def test_eval_cd_defaults_to_the_config_validation_resolution(interval_run, tmp_path):
    out = tmp_path / "out"
    report = str(interval_run["out"] / "report.json")
    argv = ["eval-cd", "--config", interval_run["config"], "--report", report]
    assert main([*argv, "--out", str(out), "--quiet"]) == EXIT_OK
    rows = (out / "cd_profile.csv").read_bytes().decode().strip().split("\r\n")
    assert len(rows) == 1 + 401  # the header, then the config's 401-point grid


def test_eval_cd_builds_one_problem(interval_run, tmp_path, monkeypatch):
    # The audit needs the report's candidates; --config lends only its set.
    calls = []
    real_build_problem = cli.build_problem

    def counting(cfg):
        calls.append(cfg)
        return real_build_problem(cfg)

    monkeypatch.setattr(cli, "build_problem", counting)
    code = cmd_eval_cd(
        interval_run["config"], str(interval_run["out"] / "report.json"), 5,
        str(tmp_path), True,
    )
    assert code == EXIT_OK
    assert len(calls) == 1


def test_eval_cd_tabulates_one_pass_of_p_bitwise(interval_run, tmp_path, monkeypatch):
    # One pass of p over the 9-point grid gives both columns: p is
    # `cd_profile` and p_scaled is `dual_values` on the same grid, bit for
    # bit.  The audit's passes over the 201 candidates and 3 atoms are not
    # the grid's.
    from doptdesign import certificate, design
    from doptdesign.certificate import dual_values

    passes = []
    real_profile = design.cd_profile

    def counting(poly, pts):
        passes.append(len(pts))
        return real_profile(poly, pts)

    for module in (cli, certificate, design):
        monkeypatch.setattr(module, "cd_profile", counting)
    report = str(interval_run["out"] / "report.json")
    code = cmd_eval_cd(interval_run["config"], report, 9, str(tmp_path), True)
    assert code == EXIT_OK
    assert passes.count(9) == 1

    with (tmp_path / "cd_profile.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    pts = np.array([[float(r[0])] for r in rows])
    p, q = (np.array([float(r[j]) for r in rows]) for j in (1, 2))
    _, _, cert = cli._audit_report(report)
    assert p.tobytes() == real_profile(cert.polynomial, pts).tobytes()
    assert q.tobytes() == dual_values(cert, pts).tobytes()
    inside = q <= cert.n_d * (1.0 + cli.BOUNDARY_SLACK)
    assert [r[3] for r in rows] == ["true" if ok else "false" for ok in inside]


def test_eval_cd_names_the_first_point_where_q_overflows(tmp_path, capsys):
    # At x = -1e80 the monomials reach 1e160, but p sums their squares and
    # overflows.  The suite turns a RuntimeWarning into an error, so this
    # also checks that the pass of p warns of nothing.
    cfg = dict(PAIR_CONFIG, degree=2)
    cfg["candidates"] = {"source": "points", "points": [[-1.0], [0.0], [1.0]]}
    out = tmp_path / "out"
    assert cmd_solve(write_config(tmp_path, cfg), str(out), True) == EXIT_OK
    huge = dict(cfg, set={"bounding_box": [[-1e80, 1e80]]})
    code = cmd_eval_cd(
        write_config(tmp_path, huge, "huge.json"), str(out / "report.json"), 3,
        str(tmp_path / "profile"), True,
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: the certified polynomial is not a finite float at the point [-1e+80]\n"
    )
    assert not (tmp_path / "profile" / "cd_profile.csv").exists()


def test_eval_cd_mismatched_report(tmp_path, interval_run):
    config_path = write_config(tmp_path, PAIR_CONFIG)  # degree 1 vs report's 2
    code = cmd_eval_cd(
        config_path, str(interval_run["out"] / "report.json"), 5, str(tmp_path), True
    )
    assert code == EXIT_CONFIG


# -- ellipsoid --------------------------------------------------------------


def test_ellipsoid_square(square_run):
    assert square_run["code"] == EXIT_OK
    out = square_run["out"]
    assert cmd_ellipsoid(str(out / "report.json"), str(out), True) == EXIT_OK
    ell = json.loads((out / "ellipsoid.json").read_text())
    assert set(ell) == {"center", "shape", "radius_sq", "log_volume_proxy"}
    assert np.allclose(ell["center"], [0.0, 0.0], atol=1e-8)
    assert np.allclose(ell["shape"], np.eye(2), atol=1e-8)
    assert abs(ell["radius_sq"] - 2.0) < 1e-8


def test_ellipsoid_rejects_degree_two(interval_run, capsys):
    code = cmd_ellipsoid(
        str(interval_run["out"] / "report.json"), str(interval_run["out"]), True
    )
    assert code == EXIT_CONFIG
    assert_one_error_line(capsys)


def test_ellipsoid_missing_report(tmp_path):
    assert cmd_ellipsoid(str(tmp_path / "nope.json"), str(tmp_path), True) == EXIT_CONFIG


# -- entry point ------------------------------------------------------------


def test_main_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_main_dispatches_solve(tmp_path, capsys):
    config_path = write_config(tmp_path, PAIR_CONFIG)
    code = main(["solve", "--config", config_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert "report" in capsys.readouterr().out


def test_float_serialization_round_trips():
    values = [0.1, 1 / 3, 1e-300, 5e-324, 1.0, -0.0]
    for sent in (values, np.array(values)):
        back = json.loads(dump_json(sent))
        assert all(type(b) is float for b in back)
        assert np.array(back).tobytes() == np.array(values).tobytes()


def test_dump_json_rejects_non_finite():
    with pytest.raises(ValueError):
        dump_json({"p_max": np.float64(np.inf)})


def test_csv_rejects_non_finite(tmp_path):
    table = np.array([[0.5, 1.0], [0.0, np.nan]])
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "t.csv", ["x1", "p"], table)


def test_solve_runs_without_scipy(tmp_path):
    # A fresh interpreter, so no other test's imports are in sys.modules.
    cfg = write_config(tmp_path, SQUARE_CONFIG)
    code = (
        "import sys; from doptdesign import cli; "
        f"code = cli.main(['solve', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]); "
        "assert code == 0, code; "
        "assert 'scipy' not in sys.modules, 'scipy was imported'"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "report.json").exists()


DISK_D4_CONFIG = {
    "dimension": 2,
    "degree": 4,
    "set": {
        "bounding_box": [[-1.0, 1.0], [-1.0, 1.0]],
        "inequalities": [[{"exponents": [0, 0], "coeff": 1.0},
                          {"exponents": [2, 0], "coeff": -1.0},
                          {"exponents": [0, 2], "coeff": -1.0}]],
    },
    "candidates": {"source": "grid", "resolution": 101},
    "solver": {"epsilon": 1e-3},
}


def test_solve_and_certify_leave_numpy_ma_unimported(tmp_path):
    # A fresh interpreter, so no other test's imports are in sys.modules.
    # The disk's design has 41 points, enough for np.isin to take its
    # sorting path, whose np.unique imports numpy.ma.
    cfg = write_config(tmp_path, DISK_D4_CONFIG)
    report = str(tmp_path / "report.json")
    code = (
        "import json, sys; from doptdesign import cli; "
        f"code = cli.main(['solve', '--config', {cfg!r}, '--out', {str(tmp_path)!r}, "
        "'--quiet']); "
        "assert code == 0, code; "
        f"assert len(json.load(open({report!r}))['design']['points']) > 37; "
        f"code = cli.main(['certify', '--report', {report!r}, '--quiet']); "
        "assert code == 0, code; "
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
