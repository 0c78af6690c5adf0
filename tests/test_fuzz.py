"""Property tests: arbitrary solver blocks never crash the configuration path,
and no altered report crashes the subcommands that read reports."""

import functools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import ConfigError, SolverConfig
from doptdesign.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_GATE_FAILED,
    EXIT_OK,
    main,
    parse_config,
)

# Two points at +-1 with the linear model: the uniform start is optimal, so any
# accepted solver block converges at iteration 0 and each example stays fast.
PAIR_CONFIG = {
    "dimension": 1,
    "degree": 1,
    "set": {"bounding_box": [[-1.0, 1.0]]},
    "candidates": {"source": "points", "points": [[-1.0], [1.0]]},
    "validation_resolution": 11,
}

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
SOLVER_BLOCKS = st.one_of(
    st.dictionaries(
        st.sampled_from(
            ["epsilon", "max_iters", "prune_threshold", "algorithm", "tolerance"]
        ),
        VALUES,
        max_size=4,
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "epsilon": st.floats(min_value=1e-12, max_value=1.0),
            "max_iters": st.integers(min_value=-2, max_value=10**30),
            "prune_threshold": st.floats(min_value=-0.1, max_value=0.6),
        },
    ),
    VALUES,
)


@given(SOLVER_BLOCKS)
def test_parse_config_returns_config_or_raises_config_error(block):
    try:
        cfg = parse_config(dict(PAIR_CONFIG, solver=block))
    except ConfigError:
        return
    assert set(cfg["solver"]) == {"epsilon", "max_iters", "prune_threshold"}
    SolverConfig(**cfg["solver"])
    assert cfg["solver"]["prune_threshold"] < 1 / 2


@settings(max_examples=60, deadline=None)
@given(SOLVER_BLOCKS)
def test_cli_solve_never_raises(block):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(dict(PAIR_CONFIG, solver=block)))
        code = main(["solve", "--config", str(config_path), "--out", tmp, "--quiet"])
    assert code in (EXIT_OK, EXIT_CONFIG)


@functools.lru_cache(maxsize=1)
def pair_report() -> str:
    """The degree-1 report of PAIR_CONFIG, as written by `solve`."""
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(PAIR_CONFIG))
        argv = ["solve", "--config", str(config_path), "--out", tmp, "--quiet"]
        assert main(argv) == EXIT_OK
        return (Path(tmp) / "report.json").read_text()


NUMBERS = st.one_of(
    st.floats(), st.integers(min_value=-(10**400), max_value=10**400)
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    NUMBERS,
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
COORDS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), NUMBERS)
# Each report entry a mutation may replace, with values shaped like it.
REPORT_ENTRIES = {
    ("design", "weights"): st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 0.7]), NUMBERS), max_size=3
    ),
    ("design", "points"): st.lists(st.lists(COORDS, max_size=2), max_size=3),
    ("n_d",): NUMBERS,
    ("objective",): NUMBERS,
    ("p_max",): NUMBERS,
    ("certificate", "gap"): NUMBERS,
    ("certificate", "x_hat"): st.lists(
        st.lists(NUMBERS, min_size=2, max_size=2), max_size=3
    ),
    ("design",): JUNK,
    ("certificate",): JUNK,
    ("config",): JUNK,
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_report_readers_never_raise(data):
    report = json.loads(pair_report())
    *parents, key = data.draw(st.sampled_from(sorted(REPORT_ENTRIES)), label="entry")
    entry = report
    for name in parents:
        entry = entry[name]
    if data.draw(st.booleans(), label="delete"):
        del entry[key]
    else:
        strategy = st.one_of(REPORT_ENTRIES[(*parents, key)], JUNK)
        entry[key] = data.draw(strategy, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report.json"
        report_path.write_text(json.dumps(report))  # keeps NaN and inf
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(PAIR_CONFIG))
        report_arg = ["--report", str(report_path), "--quiet"]
        for argv in (
            ["certify", *report_arg],
            ["eval-cd", "--config", str(config_path), "--out", tmp, *report_arg],
            ["ellipsoid", "--out", tmp, *report_arg],
        ):
            code = main(argv)
            assert code in (EXIT_OK, EXIT_GATE_FAILED, EXIT_CONFIG, EXIT_DEGENERATE)
