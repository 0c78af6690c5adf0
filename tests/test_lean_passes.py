"""Passes over N points hold their N-sized result and one bounded block.

`basis.vandermonde` writes its output one row block at a time, the greedy
start downdates residual norms instead of copying V_d, `cd_profile`
evaluates one block of rows at a time and `dual_values` reads q from it,
`solve` streams p_values, the one N-sized array of report.json, in chunks
and encodes the rest of the report whole, `cli._write_csv` turns
one block of a table's rows into Python objects at a time, and
`cli._candidate_rows` sorts only the candidates that can match a point.
Each test bounds a traced peak (tracemalloc counts numpy's buffers) or
checks that the blocks change no byte.
"""

import json
import tracemalloc

import numpy as np
import pytest

from doptdesign import FloatRangeError, SemiAlgebraicSet, SparsePolynomial, solver
from doptdesign import basis, cli
from doptdesign.basis import enumerate_basis, vandermonde
from doptdesign.cli import (
    EXIT_OK,
    _write_csv,
    _write_json,
    cmd_solve,
    dump_json,
)
from doptdesign.semialg import grid_candidates

MIB = 2**20

DISK = SemiAlgebraicSet(
    2,
    (SparsePolynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}),),
    ((-1.0, 1.0),) * 2,
)

SIMPLEX_INEQUALITIES = [
    [{"exponents": [1, 0, 0], "coeff": 1.0}, {"exponents": [0, 0, 0], "coeff": 1.0}],
    [{"exponents": [0, 1, 0], "coeff": 1.0}, {"exponents": [0, 0, 0], "coeff": 1.0}],
    [{"exponents": [0, 0, 1], "coeff": 1.0}, {"exponents": [0, 0, 0], "coeff": 1.0}],
    [{"exponents": [0, 0, 0], "coeff": 1.0}, {"exponents": [1, 0, 0], "coeff": -1.0},
     {"exponents": [0, 1, 0], "coeff": -1.0}, {"exponents": [0, 0, 1], "coeff": -1.0}],
]


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def disk_v2():
    """V2 of the unit disk's 101^2 grid at d = 4 (7,837 x 45, 2.69 MiB)."""
    return vandermonde(enumerate_basis(2, 8), grid_candidates(DISK, 101).points)


@pytest.fixture(scope="module")
def cloud_config(tmp_path_factory):
    """The simplex's 4 vertices and 20,000 seeded interior points at d = 1,
    validated on the 101^3 grid."""
    work = tmp_path_factory.mktemp("cloud")
    rng = np.random.default_rng(2024)
    vertices = np.array([[-1.0, -1.0, -1.0], [3.0, -1.0, -1.0],
                         [-1.0, 3.0, -1.0], [-1.0, -1.0, 3.0]])
    interior = rng.dirichlet(np.ones(4), size=20_000) @ vertices
    np.savetxt(work / "cloud.txt", np.vstack([vertices, interior]), fmt="%.17g")
    cfg = {
        "dimension": 3,
        "degree": 1,
        "set": {"bounding_box": [[-1.0, 3.0]] * 3, "inequalities": SIMPLEX_INEQUALITIES},
        "candidates": {"source": "point_cloud_file", "path": str(work / "cloud.txt")},
        "validation_resolution": 101,
    }
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_vandermonde_peak_is_its_output_and_one_block(disk_v2):
    pts = grid_candidates(DISK, 101).points
    out, peak = traced_peak(vandermonde, enumerate_basis(2, 8), pts)
    assert out.flags.c_contiguous
    assert peak <= out.nbytes + 1.5 * MIB  # one (45 x N) table took 6.68 MiB


def test_vandermonde_blocks_change_no_bit(disk_v2, monkeypatch):
    pts = grid_candidates(DISK, 101).points
    monkeypatch.setattr(basis, "_BLOCK_BYTES", 1 << 40)  # one block
    assert vandermonde(enumerate_basis(2, 8), pts).tobytes() == disk_v2.tobytes()


def test_vandermonde_names_the_first_bad_point_past_the_first_block(monkeypatch):
    # x^4 overflows from about 1.3e77 on; the first such point of the line
    # lies in a later block, and one block names the same point.
    pts = np.linspace(0.0, 1.5e77, 50_001).reshape(-1, 1)
    quartic = enumerate_basis(1, 4)
    with pytest.raises(FloatRangeError) as blocked:
        vandermonde(quartic, pts)
    monkeypatch.setattr(basis, "_BLOCK_BYTES", 1 << 40)
    with pytest.raises(FloatRangeError) as whole:
        vandermonde(quartic, pts)
    assert str(blocked.value) == str(whole.value)
    first_bad = float(str(whole.value).rsplit("[", 1)[1].rstrip("]"))
    assert first_bad > pts[(1 << 19) // 40, 0]


def test_csv_peak_is_one_block_and_the_blocks_change_no_byte(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    table = rng.standard_normal((100_000, 4))
    flags = table[:, -1] > 0
    header = ["x1", "x2", "p", "p_scaled", "inside_levelset"]
    _, peak = traced_peak(_write_csv, tmp_path / "blocks.csv", header, table, flags)
    assert peak <= 5 * MIB  # 3.8 MiB; the whole table as Python lists took 22.1 MiB
    monkeypatch.setattr(basis, "_BLOCK_BYTES", 1 << 40)  # one block
    _write_csv(tmp_path / "whole.csv", header, table, flags)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_candidate_rows_sorts_only_the_candidates_that_can_match():
    cands = grid_candidates(DISK, 401).points  # 125,621 candidates, 1.92 MiB
    rows = np.random.default_rng(5).choice(len(cands), 27, replace=False)
    match, peak = traced_peak(cli._candidate_rows, cands, cands[rows])
    assert match.tolist() == rows.tolist()
    assert peak <= cands.nbytes  # 0.70 MiB; sorting every candidate took 6.83 MiB


def test_greedy_on_the_column_view_copies_nothing(disk_v2):
    vd = disk_v2[:, :15]  # as solve passes it: not contiguous
    picks, peak = traced_peak(solver._greedy, vd)
    assert picks.size == 15
    assert peak <= 0.5 * MIB  # the residual copy and its update took 2.04 MiB


def test_solve_peak_on_a_20004_point_cloud(cloud_config, tmp_path):
    assert cmd_solve(str(cloud_config), str(tmp_path / "warm"), quiet=True) == EXIT_OK
    code, peak = traced_peak(cmd_solve, str(cloud_config), str(tmp_path / "out"),
                             quiet=True)
    assert code == EXIT_OK
    assert peak <= 5 * MIB  # 5.6-5.8 MiB with one block per pass


@pytest.fixture(scope="module")
def disk_config(tmp_path_factory):
    """The unit disk's 101^2 grid (7,837 candidates) at d = 4 and epsilon
    1e-3, validated on the 21^2 grid: 15 of its 21 trace entries are not
    priced."""
    path = tmp_path_factory.mktemp("disk") / "config.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "degree": 4,
        "set": {
            "bounding_box": [[-1.0, 1.0]] * 2,
            "inequalities": [[{"exponents": [0, 0], "coeff": 1.0},
                              {"exponents": [2, 0], "coeff": -1.0},
                              {"exponents": [0, 2], "coeff": -1.0}]],
        },
        "candidates": {"source": "grid", "resolution": 101},
        "solver": {"epsilon": 1e-3},
        "validation_resolution": 21,
    }))
    return path


def solve_and_keep_the_report(config, out, monkeypatch):
    """Run `solve` on config into out; the report object it wrote."""
    written = []

    def write_json(path, obj, key):
        written.append(obj)
        _write_json(path, obj, key)

    monkeypatch.setattr(cli, "_write_json", write_json)
    assert cmd_solve(str(config), str(out), quiet=True) == EXIT_OK
    (report,) = written
    return report


def test_streamed_report_is_dump_json_of_the_report(cloud_config, tmp_path, monkeypatch):
    report = solve_and_keep_the_report(cloud_config, tmp_path, monkeypatch)
    assert report["p_values"].size > 4 * cli._CHUNK
    assert (tmp_path / "report.json").read_text() == dump_json(report)


def test_a_grid_report_with_unpriced_trace_entries_is_dump_json_of_the_report(
    disk_config, tmp_path, monkeypatch
):
    report = solve_and_keep_the_report(disk_config, tmp_path, monkeypatch)
    assert report["p_values"].size > cli._CHUNK
    text = (tmp_path / "report.json").read_text()
    assert text == dump_json(report)
    trace = json.loads(text)["trace"]
    assert None in trace["p_max"] and trace["p_max"][-1] is not None
    assert len(trace["p_max"]) == len(trace["objective"]) == report["iterations"] + 1


def test_write_json_streams_nulls_and_empty_arrays(tmp_path):
    trace = [None if i % 5 == 0 else i / 7.0 for i in range(2 * cli._CHUNK + 3)]
    obj = {
        "head": [1, 2.5],
        "values": np.linspace(-1.0, 1.0, 3 * cli._CHUNK + 1),
        "trace": {"none": np.empty(0), "p_max": trace},
        "tail": "end",
    }
    path = tmp_path / "report.json"
    _write_json(path, obj, "values")
    text = path.read_text()
    assert text == dump_json(obj)
    assert json.loads(text)["trace"]["p_max"] == trace
    # An empty streamed array is written as [].
    _write_json(path, {**obj, "values": np.empty(0)}, "values")
    assert path.read_text() == dump_json({**obj, "values": []})


@pytest.mark.parametrize(
    ("values", "p_max"),
    [
        (np.array([1.0, np.nan, 2.0]), [None, 1.0]),
        (np.array([1.0, 2.0]), [None, np.inf, None]),
        (np.array([1.0, 2.0]), np.array([1.0, np.nan])),
    ],
    ids=["nan", "inf-with-nulls", "nan-outside-the-streamed-array"],
)
def test_a_non_finite_streamed_value_raises_before_the_file_exists(
    tmp_path, values, p_max
):
    # A non-finite value in the streamed array, or anywhere else in the
    # report, writes nothing.
    path = tmp_path / "report.json"
    big = np.concatenate([np.ones(cli._CHUNK + 1), values])
    with pytest.raises(ValueError):
        _write_json(path, {"n_d": 3, "p_values": big, "trace": {"p_max": p_max}},
                    "p_values")
    assert not path.exists()
