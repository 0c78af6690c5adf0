"""Property tests: arbitrary solver blocks never crash the configuration path."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from doptdesign import ConfigError, SolverConfig
from doptdesign.cli import EXIT_CONFIG, EXIT_OK, main, parse_config

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
