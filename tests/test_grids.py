import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddelab import _singular
from sddelab.grids import aligned_steps, atomic_open
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
    assert grid.horizon == 1.0
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
    for k in range(grid.n_nodes):
        assert grid.index_of(grid.time_at(k)) == k
    with pytest.raises(GridError):
        grid.index_of(0.03)


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
    assert np.allclose(path.value_at_time(0.5), [1.0])


def test_sample_path_values_are_read_only():
    grid = make_grid(1.0, 4)
    path = SamplePath.from_function(grid, lambda t: t)
    with pytest.raises(ValueError):
        path.values[0, 0] = 99.0


def test_sample_path_arithmetic_and_grid_guard():
    grid = make_grid(1.0, 8)
    f = SamplePath.from_function(grid, lambda t: t)
    g = SamplePath.from_function(grid, lambda t: 1.0 - t)
    assert np.allclose((f + g).values, 1.0)
    assert np.allclose((f - f).values, 0.0)
    assert np.allclose((f * 3.0).values, 3.0 * f.values)
    assert (f - g).sup_norm() == pytest.approx(1.0)
    other = SamplePath.from_function(make_grid(1.0, 16), lambda t: t)
    with pytest.raises(GridMismatchError):
        _ = f + other


def test_a_csv_round_trip_subtracts_from_its_source_to_zero():
    # make_grid(1.0, 3, 2/3) reads back with t_end = 0.9999999999999999, the same grid to rounding
    x = SamplePath.from_function(make_grid(1.0, 3, 2.0 / 3.0), lambda t: np.sin(3.0 * t))
    back = read_path_csv(io.StringIO(path_text(x)))
    assert back.grid != x.grid
    assert np.array_equal((back - x).values, np.zeros_like(x.values))
    assert np.array_equal((x + back).values, 2.0 * x.values)


def test_initial_segment_from_function():
    eta = InitialSegment.from_function(lambda t: 1.0 + t, 0.5, 0.125)
    assert eta.n_steps == 4
    assert eta.r == pytest.approx(0.5)
    assert np.allclose(eta.value_at_zero(), [1.0])
    assert np.allclose(eta.times(), [-0.5, -0.375, -0.25, -0.125, 0.0])
    assert np.allclose(eta.values[:, 0], 1.0 + eta.times())


def test_initial_segment_zero_delay_is_a_point():
    eta = InitialSegment.from_function(lambda t: 3.0, 0.0, 0.125)
    assert eta.n_steps == 0
    assert np.allclose(eta.value_at_zero(), [3.0])


def test_initial_segment_from_path_keeps_history_and_zero_node():
    grid = make_grid(1.0, 8, 0.25)
    path = SamplePath.from_function(grid, lambda t: t * t)
    eta = InitialSegment.from_path(path)
    assert eta.n_steps == grid.n_history
    assert np.allclose(eta.values[:, 0], grid.times()[: grid.n_history + 1] ** 2)


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
