"""Property tests: arbitrary configs never crash the configuration path, and
no altered report crashes the subcommands that read reports."""

import functools
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import SolverConfig
from doptdesign.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_GATE_FAILED,
    EXIT_OK,
    main,
    parse_config,
)
from doptdesign.errors import ConfigError

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
# Not solver keys; `algorithm` and `prune_threshold` were once, and reports of
# those versions echo them.
REJECTED_SOLVER_KEYS = ["prune_threshold", "algorithm", "tolerance"]
SOLVER_BLOCKS = st.one_of(
    st.dictionaries(
        st.sampled_from(["epsilon", "max_iters", *REJECTED_SOLVER_KEYS]),
        VALUES,
        max_size=4,
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "epsilon": st.floats(min_value=1e-12, max_value=1.0),
            "max_iters": st.integers(min_value=-2, max_value=10**30),
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
    assert not set(REJECTED_SOLVER_KEYS) & set(block)
    assert set(cfg["solver"]) == {"epsilon", "max_iters"}
    SolverConfig(**cfg["solver"])


NUMBERS = st.one_of(
    st.floats(), st.integers(min_value=-(10**400), max_value=10**400)
)
INTS = st.one_of(
    st.integers(min_value=-2, max_value=12),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=10**300, max_value=10**400),  # mostly beyond a float
)
TERMS = st.lists(
    st.one_of(
        st.fixed_dictionaries(
            {"exponents": st.lists(INTS, max_size=2), "coeff": NUMBERS}
        ),
        VALUES,
    ),
    max_size=2,
)
# Each config entry outside the solver block, with values shaped like it.
CONFIG_ENTRIES = {
    "dimension": INTS,
    "degree": INTS,
    "validation_resolution": INTS,
    "seed": INTS,  # not a key (runs are deterministic): probes the unknown-key path
    "set": st.fixed_dictionaries(
        {"bounding_box": st.lists(st.lists(NUMBERS, max_size=3), max_size=2)},
        optional={"inequalities": st.one_of(st.lists(TERMS, max_size=2), VALUES)},
    ),
    "candidates": st.one_of(
        st.fixed_dictionaries({"source": st.just("grid"), "resolution": INTS}),
        st.fixed_dictionaries(
            {
                "source": st.just("points"),
                "points": st.lists(st.lists(NUMBERS, max_size=2), max_size=3),
            }
        ),
        st.fixed_dictionaries(
            {"source": st.just("point_cloud_file"), "path": st.text(max_size=8)}
        ),
        st.dictionaries(
            st.sampled_from(["source", "resolution", "points", "path"]), VALUES,
            max_size=3,
        ),
    ),
    "output": st.dictionaries(
        st.sampled_from(["report_json", "support_csv", "trace_json"]),
        st.one_of(st.text(max_size=4), VALUES),
        max_size=2,
    ),
}


@settings(max_examples=300)
@given(st.data())
def test_parse_config_sections_return_config_or_raise_config_error(data):
    raw = json.loads(json.dumps(PAIR_CONFIG))
    keys = data.draw(
        st.sets(st.sampled_from(sorted(CONFIG_ENTRIES)), min_size=1, max_size=2)
    )
    for key in sorted(keys):
        if data.draw(st.booleans(), label=f"delete {key}"):
            raw.pop(key, None)
        else:
            raw[key] = data.draw(st.one_of(CONFIG_ENTRIES[key], VALUES), label=key)
    try:
        cfg = parse_config(raw)
    except ConfigError:
        return
    assert cfg["dimension"] >= 1 and cfg["degree"] >= 1
    assert parse_config(cfg) == cfg  # reports echo cfg, and readers parse it again


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
