import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sddelab import _singular
from sddelab.grids import ALIGNMENT_TOL, FLOAT_FORMAT, aligned_steps, atomic_open, require_same_grid
from sddelab import (
    DelayAlignmentError,
    GridError,
    GridMismatchError,
    InitialSegment,
    SamplePath,
    main_segment,
    make_grid,
    read_path_csv,
    shift_by_delay,
    write_csv,
    write_path_csv,
)


def test_make_grid_basic_layout():
    grid = make_grid(1.0, 8, 0.25)
    assert grid.h == pytest.approx(0.125)
    assert grid.n_history == 2
    assert grid.n_main == 8
    assert grid.n_nodes == 11
    assert grid.index_of_zero == 2
    assert grid.r == pytest.approx(0.25)
    assert grid.t_end == 1.0
    times = grid.times()
    assert times[0] == pytest.approx(-0.25)
    assert times[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(times), grid.h)


def test_make_grid_without_history():
    grid = make_grid(2.0, 4)
    assert grid.n_history == 0
    assert grid.index_of_zero == 0
    assert grid.times()[0] == 0.0


def test_make_grid_snaps_near_multiples():
    # r off a node by far less than the alignment tolerance still lands on it
    grid = make_grid(1.0, 100, 0.25 + 1e-13)
    assert grid.n_history == 25


def test_make_grid_rejects_misaligned_delay():
    with pytest.raises(DelayAlignmentError):
        make_grid(1.0, 10, 0.25)


@pytest.mark.parametrize("T,n", [(0.0, 4), (-1.0, 4), (1.0, 1), (1.0, 0)])
def test_make_grid_rejects_degenerate_inputs(T, n):
    with pytest.raises(GridError):
        make_grid(T, n)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_horizons_and_delays_are_grid_errors(bad):
    with pytest.raises(GridError, match="finite"):
        make_grid(bad, 8)
    with pytest.raises(GridError, match="finite"):
        make_grid(1.0, 8, bad)
    with pytest.raises(GridError, match="finite"):
        aligned_steps(bad, 0.125)


def test_index_of_roundtrip():
    grid = make_grid(1.0, 16, 0.5)
    for k, t in enumerate(grid.times()):
        assert grid.index_of(t) == k
    with pytest.raises(GridError):
        grid.index_of(0.03)


# k = 2^20 steps off by a multiple of ALIGNMENT_TOL * k steps, far more than
# ALIGNMENT_TOL steps: the tolerance grows with the step count in every entry
K = 2**20


def test_every_entry_snaps_within_the_tolerance_of_its_step_count():
    r = (K + 0.5 * ALIGNMENT_TOL * K) / K
    assert make_grid(1.0, K, r).n_history == K
    assert make_grid(1.0, K, 1.0).history_start(r) == 0
    assert make_grid(1.0, K).index_of(r) == K


def test_every_entry_refuses_beyond_the_tolerance_of_its_step_count():
    r = (K + 2.0 * ALIGNMENT_TOL * K) / K
    with pytest.raises(DelayAlignmentError, match=r"delay r=.* is not aligned with the grid"):
        make_grid(1.0, K, r)
    with pytest.raises(DelayAlignmentError, match=r"r/h=.* from an integer"):
        make_grid(1.0, K, 1.0).history_start(r)
    with pytest.raises(GridError, match=r"time .* is not a node of the grid"):
        make_grid(1.0, K).index_of(r)


def test_main_only_drops_history():
    grid = make_grid(1.0, 8, 0.5)
    main = grid.main_only()
    assert main.n_history == 0
    assert main.n_main == grid.n_main
    assert main.h == grid.h
    assert main.times()[0] == 0.0


def test_sample_path_from_function_and_views():
    grid = make_grid(1.0, 8, 0.25)
    path = SamplePath.from_function(grid, lambda t: 2.0 * t)
    assert path.dim == 1
    assert np.allclose(path.values[:, 0], 2.0 * grid.times())
    assert path.main_values().shape == (grid.n_main + 1, 1)
    assert path.history_values().shape == (grid.n_history + 1, 1)
    assert np.allclose(path.values[grid.index_of(0.5)], [1.0])


def test_sample_path_values_are_read_only():
    grid = make_grid(1.0, 4)
    path = SamplePath.from_function(grid, lambda t: t)
    with pytest.raises(ValueError):
        path.values[0, 0] = 99.0


def test_sample_path_arithmetic_and_grid_guard():
    # paths combine through their values, on a grid require_same_grid admits
    grid = make_grid(1.0, 8)
    f = SamplePath.from_function(grid, lambda t: t)
    g = SamplePath.from_function(grid, lambda t: 1.0 - t)
    require_same_grid(f.grid, g.grid)
    assert SamplePath(grid, f.values - g.values).sup_norm() == pytest.approx(1.0)
    for other in (make_grid(1.0, 16), make_grid(2.0, 8), make_grid(1.0, 8, 0.125)):
        with pytest.raises(GridMismatchError, match="do not share a main-segment grid"):
            require_same_grid(grid, other)


def test_a_csv_round_trip_subtracts_from_its_source_to_zero():
    # make_grid(1.0, 3, 2/3) reads back with t_end = 0.9999999999999999, the same grid to rounding
    x = SamplePath.from_function(make_grid(1.0, 3, 2.0 / 3.0), lambda t: np.sin(3.0 * t))
    back = read_path_csv(io.StringIO(path_text(x)))
    assert back.grid != x.grid
    require_same_grid(back.grid, x.grid)
    require_same_grid(x.grid, back.grid)
    assert np.array_equal(back.values - x.values, np.zeros_like(x.values))


def test_initial_segment_from_function():
    eta = InitialSegment.from_function(lambda t: 1.0 + t, 0.5, 0.125)
    assert eta.n_steps == 4
    assert eta.r == pytest.approx(0.5)
    assert np.allclose(eta.values[-1], [1.0])
    assert np.allclose(eta.times(), [-0.5, -0.375, -0.25, -0.125, 0.0])
    assert np.allclose(eta.values[:, 0], 1.0 + eta.times())


def stacked_per_node(fn, times):
    # how both from_functions built their matrix before they shared one sampler
    return np.vstack([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in times])


@pytest.mark.parametrize("fn", [
    pytest.param(lambda t: np.sin(3.0 * t) / 7.0, id="scalar"),
    pytest.param(lambda t: np.array([t, np.cos(t) / 3.0, np.exp(-t)]), id="vector"),
    pytest.param(lambda t: 1.0, id="constant"),
    pytest.param(lambda t: [t * t, 2], id="list"),
])
def test_both_from_functions_sample_bit_equal_to_per_node_stacking(fn):
    grid = make_grid(1.0, 64, 0.25)
    path = SamplePath.from_function(grid, fn)
    eta = InitialSegment.from_function(fn, 0.25, grid.h)
    for got, times in [(path.values, grid.times()), (eta.values, eta.times())]:
        want = stacked_per_node(fn, times)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_a_per_node_value_of_two_dimensions_is_a_grid_error():
    # per-node stacking would have turned each 2 x 2 value into two extra rows
    grid = make_grid(1.0, 8, 0.25)
    with pytest.raises(GridError, match="1-D or 2-D"):
        SamplePath.from_function(grid, lambda t: np.eye(2) * t)
    with pytest.raises(GridError, match="1-D or 2-D"):
        InitialSegment.from_function(lambda t: np.ones((1, 1)), 0.25, grid.h)


def test_initial_segment_zero_delay_is_a_point():
    eta = InitialSegment.from_function(lambda t: 3.0, 0.0, 0.125)
    assert eta.n_steps == 0
    assert np.allclose(eta.values[-1], [3.0])


def test_shift_by_delay_ramp():
    grid = make_grid(1.0, 8, 0.25)
    x = SamplePath.from_function(grid, lambda t: t)
    y = shift_by_delay(x, 0.25)
    # y(t) = x(t - r) on the main grid
    assert y.grid.n_history == 0
    assert np.allclose(y.values[:, 0], y.times() - 0.25)


def test_shift_by_delay_zero_is_identity_on_main():
    grid = make_grid(1.0, 8, 0.25)
    x = SamplePath.from_function(grid, lambda t: np.sin(t))
    y = shift_by_delay(x, 0.0)
    assert np.allclose(y.values, x.main_values())


def test_shift_by_delay_requires_enough_history():
    grid = make_grid(1.0, 8, 0.25)
    x = SamplePath.from_function(grid, lambda t: t)
    with pytest.raises(GridError):
        shift_by_delay(x, 0.5)


def test_main_segment_strips_history():
    grid = make_grid(1.0, 8, 0.5)
    x = SamplePath.from_function(grid, lambda t: t)
    m = main_segment(x)
    assert m.grid.n_history == 0
    assert np.allclose(m.values, x.main_values())


def test_csv_roundtrip_is_exact():
    grid = make_grid(1.0, 16, 0.25)
    rng = np.random.default_rng(5)
    x = SamplePath(grid, rng.standard_normal((grid.n_nodes, 2)))
    buf = io.StringIO()
    write_path_csv(x, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,x_1,x_2"
    back = read_path_csv(io.StringIO(text))
    assert np.array_equal(back.values, x.values)
    assert back.grid.n_main + back.grid.n_history == grid.n_main + grid.n_history


def test_csv_text_is_fixed():
    grid = make_grid(1.0, 4, 0.5)
    vals = [[0.0, -0.0], [-0.0, 5e-324], [0.1, 1e300], [1 / 3, -2.5],
            [-1e-7, 123456789.0], [2.0, -1e300], [1.5, 3 * 5e-324]]
    x = SamplePath(grid, vals)
    assert path_text(x) == (
        "t,x_1,x_2\n"
        "-0.5,0,-0\n"
        "-0.25,-0,4.9406564584124654e-324\n"
        "0,0.10000000000000001,1.0000000000000001e+300\n"
        "0.25,0.33333333333333331,-2.5\n"
        "0.5,-9.9999999999999995e-08,123456789\n"
        "0.75,2,-1.0000000000000001e+300\n"
        "1,1.5,1.4821969375237396e-323\n"
    )
    back = read_path_csv(io.StringIO(path_text(x)))
    assert back.values.tobytes() == x.values.tobytes()
    assert back.grid == grid


def per_row_text(x):
    """The row-by-row formatting the block writer must reproduce."""
    lines = ["t," + ",".join(f"x_{i + 1}" for i in range(x.dim))]
    for t, row in zip(x.times(), x.values):
        lines.append(",".join([f"{t:.17g}"] + [f"{v:.17g}" for v in row]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("dim", [1, 3])
def test_csv_blocks_match_per_row_formatting(monkeypatch, dim):
    grid = make_grid(2.0, 40, 0.25)
    vals = np.random.default_rng(dim).standard_normal((grid.n_nodes, dim))
    vals *= 10.0 ** np.random.default_rng(7).integers(-300, 300, vals.shape)
    x = SamplePath(grid, vals)
    # seven rows per formatting block: 45 nodes take seven blocks
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 7 * 24 * (dim + 1))
    text = path_text(x)
    assert text == per_row_text(x)
    assert read_path_csv(io.StringIO(text)).values.tobytes() == x.values.tobytes()


def test_csv_file_write_replaces_the_target_atomically(tmp_path, monkeypatch):
    grid = make_grid(1.0, 8, 0.25)
    target = tmp_path / "path.csv"
    write_path_csv(SamplePath(grid, np.arange(grid.n_nodes, dtype=float)), target)
    before = target.read_bytes()

    class FailingPath(SamplePath):
        def times(self):
            raise OSError("device full")

    with pytest.raises(OSError, match="device full"):
        write_path_csv(FailingPath(grid, np.ones(grid.n_nodes)), target)
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["path.csv"]

    x = SamplePath(grid, np.full(grid.n_nodes, 2.0))
    synced = []  # the whole text reaches the disk before the move
    fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: synced.append(os.fstat(fd).st_size) or fsync(fd))
    write_path_csv(x, str(target))
    assert target.read_text() == per_row_text(x)
    assert synced == [target.stat().st_size]
    assert [p.name for p in tmp_path.iterdir()] == ["path.csv"]


def test_a_writer_failing_partway_leaves_the_earlier_file(tmp_path):
    target = tmp_path / "record.json"
    target.write_text("{}\n")
    with pytest.raises(RuntimeError, match="halfway"):
        with atomic_open(target) as fh:
            fh.write('{"partial": ')
            raise RuntimeError("halfway")
    assert target.read_text() == "{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]
    with atomic_open(str(target)) as fh:
        fh.write("new\n")
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


SPECIAL_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 2.0**53, -(2.0**53)]


FINITE_ENTRIES = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-(2**53), 2**53).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(table=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                        elements=FINITE_ENTRIES))
@example(table=np.array(SPECIAL_FLOATS).reshape(2, 4))
def test_write_csv_round_trips_through_loadtxt_bit_for_bit(table):
    header = [f"c{i}" for i in range(table.shape[1])]
    buf = io.StringIO()
    write_csv(buf, header, table)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(header)
    back = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    assert back.shape == table.shape and back.tobytes() == table.tobytes()


@pytest.mark.parametrize("header,table", [
    pytest.param(["a", "b"], np.zeros((3, 3)), id="width-differs-from-header"),
    pytest.param(["a", "b"], np.zeros((2, 2, 2)), id="three-dimensional"),
])
def test_write_csv_refuses_a_table_before_opening_a_file(tmp_path, header, table):
    with pytest.raises(ValueError, match="2-D with 2 columns"):
        write_csv(tmp_path / "t.csv", header, table)
    assert list(tmp_path.iterdir()) == []


def test_write_csv_of_no_rows_writes_only_the_header(tmp_path):
    write_csv(tmp_path / "t.csv", ["r", "p"], np.empty((0, 2)))
    assert (tmp_path / "t.csv").read_text() == "r,p\n"


def test_write_csv_gives_the_text_of_per_field_formatting():
    # integers up to 2^53 and p in (1, 2) print as str and :g print them
    rows = [(seed, r, p, x) for seed in (0, 7, 2**53) for r, p, x in
            [(0.25, 1.0, 1 / 3), (0.125, 2.0, -1e-300)]]
    buf = io.StringIO()
    write_csv(buf, ["seed", "r", "p", "x"], rows)
    assert buf.getvalue() == "seed,r,p,x\n" + "".join(
        f"{seed},{FLOAT_FORMAT % r},{p:g},{FLOAT_FORMAT % x}\n" for seed, r, p, x in rows
    )


def test_csv_rejects_bad_header():
    with pytest.raises(GridError):
        read_path_csv(io.StringIO("time,value\n0,1\n0.5,2\n1,3\n"))


@pytest.mark.parametrize(
    "body,message",
    [
        ("", "needs at least 3 nodes"),
        ("0,1\n0.5,2,7\n1,3\n", "holds a malformed row"),
        ("0,1\n\n0.5\n1,3\n", "holds a malformed row"),
        ("0,1\n0.5,abc\n1,3\n", "holds a malformed row"),
    ],
)
def test_csv_rejects_a_malformed_body_with_a_grid_error(body, message):
    # no numpy warning or bare ValueError escapes, and the message names the CSV fault
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match=message) as caught:
            read_path_csv(io.StringIO("t,x_1\n" + body))
    assert "usecols" not in str(caught.value) and "float64" not in str(caught.value)


@pytest.mark.parametrize("text,message", [
    pytest.param("t,x_1,x_2\n0,1\n0.5,2\n1,3\n", "rows do not match header width",
                 id="header-wider-than-rows"),
    pytest.param("t,x_1\n1,1\n0.5,2\n0,3\n", "strictly increasing", id="decreasing-times"),
    pytest.param("t,x_1\n0,1\n0.25,2\n1,3\n", "not uniformly spaced", id="non-uniform"),
    pytest.param("t,x_1\n0.1,1\n0.2,2\n0.3,3\n", "contain t = 0", id="no-node-at-zero"),
])
def test_csv_refuses_a_table_that_is_no_grid(text, message):
    with pytest.raises(GridError, match=message):
        read_path_csv(io.StringIO(text))


@pytest.mark.parametrize("t0", [1e-17, -1e-17, 1e-12, -1e-12])
def test_csv_first_time_near_zero_snaps_the_same_on_both_sides(t0):
    # either sign snaps to the node t = 0; only the drift check tells them apart
    text = f"t,x_1\n{t0!r},0\n0.01,1\n0.02,2\n0.03,3\n"
    if abs(t0) < 4 * np.finfo(float).eps:
        assert read_path_csv(io.StringIO(text)).grid.index_of_zero == 0
    else:
        with pytest.raises(GridError, match="drift"):
            read_path_csv(io.StringIO(text))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    k=st.integers(min_value=0, max_value=8),
    T=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
def test_grid_times_are_uniform_and_contain_zero(n, k, T):
    grid = make_grid(T, n, k * (T / n))
    times = grid.times()
    assert times.shape == (n + k + 1,)
    assert np.allclose(np.diff(times), grid.h)
    assert abs(times[grid.index_of_zero]) <= 1e-9 * max(1.0, T)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_csv_roundtrip_random_values(seed):
    grid = make_grid(1.0, 8)
    vals = np.random.default_rng(seed).standard_normal((grid.n_nodes, 1))
    x = SamplePath(grid, vals)
    back = read_path_csv(io.StringIO(path_text(x)))
    assert np.array_equal(back.values, x.values)


def path_text(x):
    buf = io.StringIO()
    write_path_csv(x, buf)
    return buf.getvalue()
