"""Uniform time grids and sample paths on [-r, T].

Every object in this package lives on a uniform grid with step h = T / n_main
whose main segment covers [0, T] and whose history segment covers [-r, 0].
Node times are always computed as t_start + k * h, never by repeated
accumulation, so they are reproducible to a few machine epsilons.
"""
from __future__ import annotations

import contextlib
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._singular import _magnitude, _row_blocks

__all__ = [
    "GridError",
    "DelayAlignmentError",
    "GridMismatchError",
    "TimeGrid",
    "SamplePath",
    "InitialSegment",
    "aligned_steps",
    "make_grid",
    "require_same_grid",
    "shift_by_delay",
    "main_segment",
    "atomic_open",
    "write_csv",
    "write_path_csv",
    "read_path_csv",
]

#: relative tolerance, against max(1, steps), within which a step count
#: snaps to the nearest whole number of grid steps (see aligned_steps).
ALIGNMENT_TOL = 1e-9

#: relative tolerance, against max(1, |value|), within which two grid
#: steps, endpoints or node times agree to rounding.
ROUNDING_TOL = 4 * np.finfo(float).eps


class GridError(ValueError):
    """Invalid grid construction or use."""


class DelayAlignmentError(GridError):
    """Delay r is not a whole number of grid steps."""


class GridMismatchError(GridError):
    """Two objects that must share a grid do not."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_history + n_main steps.

    t_start = -r, t_end = T, h = T / n_main and r = n_history * h.
    """

    t_start: float
    t_end: float
    n_history: int
    n_main: int
    h: float

    @property
    def n_nodes(self) -> int:
        return self.n_history + self.n_main + 1

    @property
    def r(self) -> float:
        return self.n_history * self.h

    @property
    def horizon(self) -> float:
        return self.t_end

    @property
    def index_of_zero(self) -> int:
        return self.n_history

    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.n_nodes) * self.h

    def time_at(self, index: int) -> float:
        if not 0 <= index < self.n_nodes:
            raise GridError(f"node index {index} outside [0, {self.n_nodes})")
        return self.t_start + index * self.h

    def index_of(self, t: float) -> int:
        """Index of the node at time t, snapped by aligned_steps; GridError if none."""
        try:
            if (j := aligned_steps(t - self.t_start, self.h)) < self.n_nodes:
                return j
        except GridError:
            pass
        raise GridError(f"time {t!r} is not a node of the grid")

    def main_only(self) -> "TimeGrid":
        """The [0, T] portion of this grid as a grid in its own right."""
        return TimeGrid(0.0, self.t_end, 0, self.n_main, self.h)

    def history_start(self, r: float | None) -> int:
        """Index of the node at -r, aligned and within the history (None: node 0)."""
        if r is None:
            return 0
        n = aligned_steps(r, self.h)
        if n > self.n_history:
            raise GridError(f"r={r} needs {n} history steps, the grid carries {self.n_history}")
        return self.index_of_zero - n


def aligned_steps(r: float, h: float) -> int:
    """The number of steps h in r >= 0: the one snapping rule of every grid entry.

    r / h snaps to the nearest integer n >= 0 within ALIGNMENT_TOL * max(1, |r / h|),
    a tolerance that grows with the count as float error does.  A non-finite r or
    one further below 0 raises GridError, and r further off DelayAlignmentError.
    """
    steps = r / h
    if not -ALIGNMENT_TOL <= steps < math.inf:
        raise GridError(f"delay r must be finite and >= 0, got {r}")
    n = int(round(steps))
    if abs(steps - n) > ALIGNMENT_TOL * max(1.0, steps):
        raise DelayAlignmentError(
            f"delay r={r} is not aligned with the grid: r/h={steps} "
            f"is {abs(steps - n):.3e} from an integer"
        )
    return n


def same_step(a: float, b: float) -> bool:
    """Whether two grid steps or endpoints agree to rounding, relative to max(1, |a|)."""
    return abs(a - b) <= ROUNDING_TOL * max(1.0, abs(a))


def require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    """Raise GridMismatchError unless a and b have the same nodes, to rounding."""
    if (
        (a.n_history, a.n_main) != (b.n_history, b.n_main)
        or not same_step(a.h, b.h)
        or not same_step(a.t_end, b.t_end)
    ):
        raise GridMismatchError("paths do not share a main-segment grid")


def make_grid(T: float, n_main: int, r: float = 0.0) -> TimeGrid:
    """Build the uniform grid on [-r, T] with step h = T / n_main.

    The delay must be a whole number of steps (see aligned_steps).
    """
    if not 0 < T < math.inf:
        raise GridError(f"horizon T must be positive and finite, got {T}")
    if n_main < 2:
        raise GridError(f"n_main must be >= 2, got {n_main}")
    h = T / n_main
    n_history = aligned_steps(r, h)
    return TimeGrid(-n_history * h, T, n_history, n_main, h)


def _as_value_matrix(values: np.ndarray | Sequence[float]) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")  # a copy, made read-only below
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise GridError(f"path values must be 1-D or 2-D, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _sample(fn: Callable[[float], float | np.ndarray], times: np.ndarray) -> np.ndarray:
    """fn at each time as (nodes, d) rows by one np.array call; ndim > 1 per node is a GridError."""
    return _as_value_matrix([fn(t) for t in times])


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Immutable d-component path sampled on a TimeGrid.

    values has shape (n_nodes, dim); a 1-D array is accepted and treated
    as a single component.
    """

    grid: TimeGrid
    values: np.ndarray
    meta: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        arr = _as_value_matrix(self.values)
        if arr.shape[0] != self.grid.n_nodes:
            raise GridMismatchError(
                f"path has {arr.shape[0]} rows but grid has {self.grid.n_nodes} nodes"
            )
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_function(cls, grid: TimeGrid, fn: Callable[[float], float | np.ndarray],
                      meta: dict | None = None) -> "SamplePath":
        """fn sampled at the grid's nodes by _sample."""
        return cls(grid, _sample(fn, grid.times()), meta)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        return self.grid.times()

    def main_values(self) -> np.ndarray:
        """Values on [0, T] (read-only view)."""
        return self.values[self.grid.index_of_zero:]

    def history_values(self) -> np.ndarray:
        """Values on [-r, 0] including the node at 0 (read-only view)."""
        return self.values[: self.grid.index_of_zero + 1]

    def value_at_time(self, t: float) -> np.ndarray:
        return self.values[self.grid.index_of(t)]

    def __add__(self, other: "SamplePath") -> "SamplePath":
        require_same_grid(self.grid, other.grid)
        return SamplePath(self.grid, self.values + other.values)

    def __sub__(self, other: "SamplePath") -> "SamplePath":
        require_same_grid(self.grid, other.grid)
        return SamplePath(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "SamplePath":
        return SamplePath(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def sup_norm(self) -> float:
        """sup over nodes of the euclidean norm of the value."""
        return float(np.max(_magnitude(self.values, 1)))


@dataclass(frozen=True, eq=False)
class InitialSegment:
    """History segment eta on [-r, 0], sampled at step h.

    values has shape (n_steps + 1, dim); the last row is eta(0).
    """

    h: float
    values: np.ndarray

    def __post_init__(self):
        arr = _as_value_matrix(self.values)
        if arr.shape[0] < 1:
            raise GridError("initial segment needs at least the node at 0")
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_function(cls, eta: Callable[[float], float | np.ndarray],
                      r: float, h: float) -> "InitialSegment":
        """eta sampled by _sample at the aligned_steps(r, h) + 1 nodes of [-r, 0]."""
        n = aligned_steps(r, h)
        return cls(h, _sample(eta, -n * h + np.arange(n + 1) * h))

    @classmethod
    def from_path(cls, path: SamplePath) -> "InitialSegment":
        return cls(path.grid.h, path.history_values())

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    @property
    def r(self) -> float:
        return self.n_steps * self.h

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        return -self.n_steps * self.h + np.arange(self.n_steps + 1) * self.h

    def value_at_zero(self) -> np.ndarray:
        return self.values[-1]


def shift_by_delay(x: SamplePath, r: float) -> SamplePath:
    """The path s -> x(s - r) on [0, T].

    r must be grid-aligned and no larger than the history x carries.
    With r = 0 this is the restriction of x to its main segment.
    """
    grid = x.grid
    start = grid.history_start(r)
    return SamplePath(grid.main_only(), x.values[start: start + grid.n_main + 1])


def main_segment(x: SamplePath) -> SamplePath:
    """Restriction of x to [0, T] as a path on the history-free grid."""
    return shift_by_delay(x, 0.0)


# ---------------------------------------------------------------- CSV format #
# One shared on-disk format: a header line, then one row per line of
# comma-joined decimals with 17 significant digits (FLOAT_FORMAT, lossless for
# float64).  write_csv writes every CSV the package outputs, the CLI's included.
FLOAT_FORMAT = "%.17g"


@contextlib.contextmanager
def atomic_open(file):
    """Open a text file for writing that appears whole or not at all.

    The text goes to a temporary file in the target's directory, which is
    fsynced and then moved into place, so the target holds the earlier
    file or the whole new one, also after a crash.  If the writer fails,
    the temporary file is removed and the target is left as it was.  A
    symlinked target is replaced, not written through.
    """
    target = os.fsdecode(file)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(file, header: Sequence[str], table) -> None:
    """Write header and one FLOAT_FORMAT row per row of a 2-D number table.

    file is an open text file, or a filesystem path written through
    atomic_open.  A table that is not 2-D, or whose width is not
    len(header), is a ValueError raised before any file is opened.
    """
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError(
            f"a CSV table must be 2-D with {len(header)} columns, got shape {table.shape}"
        )
    is_path = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    with atomic_open(file) if is_path else contextlib.nullcontext(file) as fh:
        fh.write(",".join(header) + "\n")
        row = ",".join([FLOAT_FORMAT] * table.shape[1]) + "\n"
        # a %.17g field is at most 24 characters: about 0.5 MB of text per call
        for blk in _row_blocks(len(table), 24 * table.shape[1]):
            block = table[blk]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_path_csv(path: SamplePath, file) -> None:
    """Write path by write_csv: header "t,x_1,...,x_d", one row per node in ascending time."""
    header = ["t"] + [f"x_{i + 1}" for i in range(path.dim)]
    write_csv(file, header, np.column_stack((path.times(), path.values)))


def read_path_csv(file) -> SamplePath:
    """Read a path CSV and rebuild its grid.

    The time column must be uniform, contain t = 0 as a node, and end at
    a positive horizon; every entry must be finite.
    """
    is_path = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    with open(file, "r", newline="") if is_path else contextlib.nullcontext(file) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if cols != ["t"] + [f"x_{i}" for i in range(1, len(cols))] or len(cols) < 2:
            raise GridError(f"bad path CSV header: {header!r}")
        try:
            with warnings.catch_warnings():  # a header-only file fails below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError:  # ragged rows or a non-numeric field
            raise GridError("path CSV holds a malformed row") from None
    if len(data) and data.shape[1] != len(cols):
        raise GridError("path CSV rows do not match header width")
    if not np.isfinite(data).all():
        raise GridError("path CSV holds a non-finite value")
    times, values = data[:, 0], data[:, 1:]
    n = len(times) - 1
    if n < 2:
        raise GridError("path CSV needs at least 3 nodes")
    h = (times[-1] - times[0]) / n
    if h <= 0:
        raise GridError("path CSV times must be strictly increasing")
    if np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(1.0, h):
        raise GridError("path CSV times are not uniformly spaced")
    try:
        k0 = aligned_steps(-times[0], h)
    except GridError:
        k0 = n
    if k0 >= n:
        raise GridError("path CSV must contain t = 0 as a grid node")
    grid = TimeGrid(times[0], times[-1], k0, n - k0, h)
    recomputed = grid.times()
    if np.max(np.abs(recomputed - times)) > ROUNDING_TOL * max(1.0, np.max(np.abs(times))):
        raise GridError("path CSV times drift from uniform node arithmetic")
    return SamplePath(grid, values)
