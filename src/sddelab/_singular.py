"""Product-linear quadrature for weakly singular kernels on uniform grids.

All norm functionals and bound checks integrate quantities of the form
phi(s) * v^(-kappa) where v is the distance to an anchor node and phi is
known at grid nodes.  The rule used everywhere: interpolate phi piecewise
linearly between nodes and integrate the kernel moments analytically per
cell.  For kappa >= 1 the anchor cell is integrable because phi vanishes
at the anchor (phi is an increment of the path there), which the product
rule preserves exactly.

The kernels take one row layout: values (..., n_nodes, d), a batch of
paths on one grid, and profiles (..., n_nodes); results are
(..., n_nodes), (..., len(lags)) for lag_sups, or (...) for a sup.
Each runs over cache-sized blocks of rows (_row_blocks), and a row's
arithmetic does not depend on its block, so a batch equals its rows'
separate calls bit for bit.

A non-finite node follows one rule in every kernel (_non_finite_rule):
a NaN node reads NaN wherever it enters, and an inf node reads inf there,
also where it meets another inf as inf - inf, so no kernel warns on it.

Cell weights are expressed through the two hat functions on each cell, so
every discrete integral is a nonnegative combination of nodal phi values.
That makes nodewise inequalities between integrands carry over to the
discrete integrals exactly, which the bound-checking modules rely on, and
it lets the sups bound whole pieces of lags by the path's range over them
(_piece_boxes).  The sups over nodes (backward_increment_sups), anchored
pairs (anchored_sweep) and lags (holder_seminorm) share one skeleton,
_certified_sups: an exact head, certified bounds on the rest, exact
values only where a bound can reach the sup (_raise_to_exact, which sorts
nothing), and the full sweep for rows with a non-finite entry or bound.
Each equals its full sweep bit for bit, since a max does not depend on
the order of its visits.

Every euclidean magnitude of the norm family, here and in norms, comes
from _magnitude, so each functional scales by exactly 2^k with the path
while the values stay normal doubles, and a finite path never gives NaN.
The kernels decide once per block of rows (_plain_rows) whether the plain
sum of squares gives _magnitude's bits, and use it in their lag loops.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "hat_weights",
    "backward_increment_integrals",
    "backward_increment_sups",
    "anchored_sweep",
    "holder_seminorm",
    "lag_sups",
    "backward_profile_integrals",
    "iterated_increment_integrals",
    "cumulative_from_zero",
    "quadrature_slack",
]

#: tolerance granted to inequality checks built on this quadrature:
#: absolute + relative slack on the right-hand side scale.
SLACK_ABS = 1e-8
SLACK_REL = 1e-6

#: row data one kernel block keeps hot (about half a megabyte); the rows
#: per block follow from the row length
_BLOCK_BYTES = 1 << 19

#: certified sups: lags 1.._HEAD_LAGS are reduced exactly at every node,
#: anchor or path, each later octave of lags is bounded in 2**_SPLIT
#: pieces, and rows of fewer nodes than _PRUNE_MIN_NODES
#: (_ANCHORED_MIN_NODES) take the full sweep, which is faster there
_HEAD_LAGS = 15
_SPLIT = 2
_PRUNE_MIN_NODES = 160
_ANCHORED_MIN_NODES = 64
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal


def quadrature_slack(scale: float | np.ndarray) -> float | np.ndarray:
    """Permitted slack for an inequality whose sides have the given scale."""
    return SLACK_ABS + SLACK_REL * np.abs(scale)


def hat_weights(kappa: float, h: float, n_cells: int):
    """Hat-function weights of the kernel v**(-kappa) on uniform cells.

    Returns (P, Q), each of length n_cells + 1 and indexed by lag l >= 1
    (entry 0 is unused).  Cell l spans v in [(l-1)h, lh]; P[l] multiplies
    the nodal value at the near end (l-1)h, Q[l] the value at the far end
    l*h.  Both are nonnegative, and P[l] + Q[l] is the cell's kernel mass.

    For kappa >= 1 the near weight of the first cell is set to zero: the
    integral only converges when the integrand vanishes at the anchor, and
    then the anchor value contributes nothing.
    """
    if not 0.0 <= kappa < 2.0:
        raise ValueError(f"kernel exponent kappa={kappa} outside [0, 2)")
    if n_cells < 1:
        return np.zeros(1), np.zeros(1)
    singular = kappa >= 1.0
    l = np.arange(n_cells + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(kappa - 1.0) < 1e-12:
            g1 = np.log(l, where=l > 0, out=np.full_like(l, -np.inf))
            m0 = g1[1:] - g1[:-1]
        else:
            p1 = l ** (1.0 - kappa)
            m0 = (p1[1:] - p1[:-1]) * h ** (1.0 - kappa) / (1.0 - kappa)
        p2 = l ** (2.0 - kappa)
        m1 = (p2[1:] - p2[:-1]) * h ** (2.0 - kappa) / (2.0 - kappa)
    if singular:
        m0[0] = 0.0
    P = l[1:] * m0 - m1 / h
    Q = m1 / h - l[:-1] * m0
    if singular:
        P[0] = 0.0
    return np.concatenate(([0.0], P)), np.concatenate(([0.0], Q))


def _non_finite_rule(kernel):
    """kernel, with the module's rule for non-finite nodes.

    On a path with a non-finite node the kernel runs with invalid
    operations ignored, so inf - inf gives NaN without a warning.  Each NaN
    of the result that the kernel does not also give on the path's NaN
    nodes alone (every other node 0) came from such an operation, or from
    a finite path's overflowed increments, and reads inf.
    """
    @functools.wraps(kernel)
    def ruled(values, *args, **kwargs):
        values = np.asarray(values, dtype=float)
        finite = np.isfinite(values).all()
        with np.errstate(invalid=None if finite else "ignore"):
            out = kernel(values, *args, **kwargs)
        nan = np.isnan(out)
        if nan.any():
            if np.isnan(values).any():
                nan &= ~np.isnan(kernel(np.where(np.isnan(values), np.nan, 0.0), *args, **kwargs))
            out[nan] = np.inf
        return out

    return ruled


def _as_rows(values: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """(rows, batch) of values shaped (..., n_nodes, d).

    rows is C-contiguous, (B, n_nodes) for one component and
    (B, d, n_nodes) otherwise, with B the product of the batch shape.
    """
    vals = np.asarray(values, dtype=float)
    batch, (n_nodes, d) = vals.shape[:-2], vals.shape[-2:]
    rows = np.moveaxis(vals, -1, -2).reshape((-1, d, n_nodes))
    return np.ascontiguousarray(rows[:, 0] if d == 1 else rows), batch


def _row_blocks(count: int, row_bytes: int) -> list[slice]:
    """Slices of count rows holding at most _BLOCK_BYTES of data each (at least one row)."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _magnitude(x: np.ndarray, axis: int, plain: bool = False) -> np.ndarray:
    """Euclidean magnitude of x over its component axis; the norm family's one rule.

    One component gives |x|.  d components are scaled by 2^-e, with e the
    binary exponent of the largest |component| (frexp); their squares are
    summed in component order, and the root is scaled back by 2^e.  So 2^k x
    gives exactly 2^k times the magnitude of x while the inputs and the
    result are normal doubles, and a finite entry reads inf only when its
    magnitude exceeds the double range.  plain=True sums the unscaled
    squares, which gives the same bits where _plain_sums holds.
    """
    lead = (slice(None),) * (axis % x.ndim)
    comps = [x[lead + (i,)] for i in range(x.shape[axis])]
    if len(comps) == 1:
        return np.abs(comps[0])
    if plain:
        sq = comps[0] * comps[0]
        for c in comps[1:]:
            sq += c * c
        return np.sqrt(sq, out=sq)
    top = np.abs(comps[0])
    for c in comps[1:]:
        np.maximum(top, np.abs(c), out=top)
    e = np.frexp(top)[1]
    with np.errstate(over="ignore"):  # an inf component, or a root past the double range
        sq = np.square(np.ldexp(comps[0], -e))
        for c in comps[1:]:
            sq += np.square(np.ldexp(c, -e))
        return np.ldexp(np.sqrt(sq, out=sq), e, out=sq)


def _plain_sums(values: np.ndarray, d: int) -> bool:
    """Whether _magnitude(plain=True) gives the scaled bits on the d-component
    values and on every difference of two of them.

    With A the largest |entry| and mu the smallest nonzero one, a nonzero
    difference lies in [ulp(mu), 2A].  For A < 2^507 and mu >= 2^-458
    every square and sum of the plain path is then a normal double, so it
    rounds as in an unbounded exponent range.  For d < 20 the scaled sum
    does too: a square lost to underflow moves a sum by less than
    2^(54(d-1)-1022), below half an ulp of a sum of at least 1/4.  And
    scaling by 2^e changes no rounding of an unbounded exponent range.
    """
    if d == 1:
        return True  # |x| either way
    a = np.abs(values)
    mu = np.min(a, where=a > 0, initial=np.inf)
    return d < 20 and np.max(a, initial=0.0) < 2.0**507 and mu >= 2.0**-458


def _increment_magnitude(diff: np.ndarray, delta: float = 1.0, plain: bool = False) -> np.ndarray:
    """|increment|^delta of (rows, k) scalar or (rows, d, k) vector increments.

    Scalar increments are overwritten in place; vector increments reduce
    to their _magnitude over axis 1, summed plain when the caller's rows
    pass _plain_sums.
    """
    mag = np.abs(diff, out=diff) if diff.ndim == 2 else _magnitude(diff, 1, plain)
    if delta != 1.0:
        mag **= delta
    return mag


def _plain_rows(v: np.ndarray) -> bool:
    """_plain_sums of a block of rows in the _as_rows layout."""
    return _plain_sums(v, v.shape[1] if v.ndim == 3 else 1)


@_non_finite_rule
def backward_increment_integrals(
    values: np.ndarray,
    kappa: float,
    h: float,
    delta: float = 1.0,
    start: int = 0,
) -> np.ndarray:
    """I[..., j] = integral over s in [t_start, t_j] of |f(t_j)-f(s)|^delta (t_j-s)^-kappa ds.

    values has shape (..., n_nodes, d), a batch of paths on one grid; the
    increment magnitude is euclidean over components, and the result has
    shape (..., n_nodes).
    Entries with j <= start are zero.  The sweep runs lag by lag over
    cache-sized blocks of rows; each row's arithmetic is independent of
    its block, so a batch agrees with its rows' separate calls bit for bit.
    """
    rows, batch = _as_rows(values)
    n_nodes = rows.shape[-1]
    out = np.zeros((len(rows), n_nodes))
    n_lag = n_nodes - 1 - start
    if n_lag >= 1:
        P, Q = hat_weights(kappa, h, n_lag + 1)
        W = (Q[1:-1] + P[2:]).tolist()
        for blk in _row_blocks(len(rows), rows[:1].nbytes):
            v = rows[blk, ..., start:]
            acc, far = _lag_sums(v, W, P, n_lag, delta, _plain_rows(v))
            # where far overflowed, the same increment's lag term made acc inf
            np.subtract(acc[:, 1:], far, out=acc[:, 1:], where=far < np.inf)
            out[blk, start:] = acc
    return out.reshape(batch + (n_nodes,))


def _lag_sums(v, W, P, n_lag, delta, plain):
    """(acc, far) of the kernel's lag loop over the rows v, lags 1..n_lag.

    acc[:, j] adds W[l-1] |v_j - v_(j-l)|^delta (W[l-1] = Q[l] + P[l+1])
    lag by lag, the order _continued repeats; the farthest node carries
    only Q, so I[j] = acc[:, j] - far[:, j-1] for j <= n_lag.
    """
    acc = np.zeros((len(v), v.shape[-1]))
    for l in range(1, n_lag + 1):
        phi = _increment_magnitude(v[..., :-l] - v[..., l:], delta, plain)
        phi *= W[l - 1]
        acc[:, l:] += phi
    far = _increment_magnitude(v[..., 1:] - v[..., :1], delta, plain)
    far *= P[2:]
    return acc, far


@_non_finite_rule
def backward_increment_sups(
    values: np.ndarray,
    kappa: float,
    h: float,
    delta: float = 1.0,
    start: int = 0,
    level: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per path: max over nodes j >= start of w_j (a_j + I[j]).

    I is backward_increment_integrals(values, kappa, h, delta, start), a
    is `level` (shape (..., n_nodes - start), one entry per node from
    start on) or 0, and w is `weights` (shape (n_nodes - start,)) or 1; a
    node whose a + I is exactly 0 counts 0, also where w is inf.  The
    result has shape (...) and equals the max over the full profile bit
    for bit: every node that can reach the sup is summed in the kernel's
    order, and the others are left out on a certified upper bound (see
    _pruned_sups).  Rows with a non-finite entry, rows shorter than
    _PRUNE_MIN_NODES and rows whose head or bound is not finite (an
    overflow, or an inf weight) take the full sweep.
    """
    rows, batch = _as_rows(values)
    rows = rows[..., start:]
    m = rows.shape[-1]
    lev = np.zeros((len(rows), m)) if level is None else np.reshape(level, (len(rows), m))
    w = None if weights is None else np.asarray(weights, dtype=float)

    def swept(full):
        # through the public kernel, on the caller's layout
        sub = values if full.all() else np.reshape(values, (-1,) + np.shape(values)[-2:])[full]
        B = backward_increment_integrals(sub, kappa, h, delta, start)[..., start:]
        return np.max(_weighted(B.reshape(-1, m) + lev[full], w), axis=-1)

    def bounded(idx):
        return _pruned_sups(rows[idx], lev[idx], w, kappa, h, delta)

    return _certified_sups(rows, _PRUNE_MIN_NODES, bounded, swept).reshape(batch)


def _certified_sups(rows, min_nodes, bounded, swept):
    """Per row: its sup, reduced exactly only where a certified bound can reach it.

    bounded(idx) -> (best, bound, exact) for a block of finite rows: best
    is each row's max over its head, and bound the bounds on the rest that
    _raise_to_exact needs.  A pruned block keeps about a dozen arrays of its
    size alive, so it takes a quarter of the rows a kernel block takes.
    Rows with a non-finite entry, shorter than min_nodes or with a
    non-finite best or bound get swept(mask), the full sweep of rows[mask].
    """
    sups = np.empty(len(rows))
    full = ~np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
    if rows.shape[-1] < min_nodes:
        full[:] = True
    pruned = np.flatnonzero(~full)
    for blk in _row_blocks(len(pruned), 4 * rows[:1].nbytes):
        idx = pruned[blk]
        with np.errstate(over="ignore"):  # an overflowed best or bound sends its row to the sweep
            best, bound, exact = bounded(idx)
        overflow = ~(np.isfinite(bound).all(axis=1) & np.isfinite(best))
        bound[overflow] = -np.inf
        _raise_to_exact(best, bound, exact, rows[0].nbytes)
        sups[idx] = best
        full[idx[overflow]] = True
        del best, bound, exact  # this block's arrays, before the next block's are made
    if full.any():
        sups[full] = swept(full)
    return sups


def _weighted(B: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """w * B, with 0 where B is exactly 0 (a huge w stays out of 0 * inf)."""
    if w is None:
        return B
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(B == 0.0, 0.0, w * B)


def _piece_boxes(v: np.ndarray, H: int, m: int, reach: int = 0):
    """Yield (lag, width, hi, lo) for the pieces of the lags H+1..m-1 of rows v.

    The pieces come 2^_SPLIT to an octave [2^b, 2^(b+1)) of lags.  hi and
    lo are left-clipped sparse tables of running extrema, updated in place
    between pieces: hi[..., j] is the max of v over the nodes j - span + 1..j
    (from node 0 on), per component, with span >= width + reach.  So the
    box [lo, hi] at node j - lag holds every node that node j sees at the
    lags lag - reach..lag + width - 1.
    """
    lags = [H + 1]  # first lag of each piece
    while lags[-1] < m:
        lags.append(lags[-1] + (1 << max(0, lags[-1].bit_length() - 1 - _SPLIT)))
    hi, lo, span = v.copy(), v.copy(), 1
    for lag, width in zip(lags, np.diff(lags).tolist()):
        while span < width + reach:
            np.maximum(hi[..., span:], hi[..., :-span], out=hi[..., span:])
            np.minimum(lo[..., span:], lo[..., :-span], out=lo[..., span:])
            span *= 2
        yield lag, width, hi, lo


def _box_distance(v, hi, lo, lag: int, plain: bool, delta: float = 1.0) -> np.ndarray:
    """|dev|^delta at the nodes j >= lag: dev is the largest distance from v[j]
    to the box [lo, hi] at node j - lag, euclidean over components."""
    cur = v[..., lag:]
    dev = np.maximum(cur - lo[..., :-lag], hi[..., :-lag] - cur)
    return _increment_magnitude(dev, delta, plain)


def _margin(bound: np.ndarray, m: int) -> np.ndarray:
    """bound widened by 4 (m + 16) ulps and as many subnormals; exact 0 stays 0.

    A computed sum of O(m) nonnegative terms and this bound on it each
    round within that margin, and an exactly-0 bound belongs to an exactly-0
    value, so ties stay exact.
    """
    slack = 4 * (m + 16)
    return np.where(bound == 0.0, 0.0, bound * (1.0 + slack * _EPS) + slack * _TINY)


def _raise_to_exact(best, bound, exact, row_bytes):
    """Raise best[r] to the exact values of every item whose bound exceeds it.

    bound[r, k] (no NaN) dominates the value exact(r, k) of item k (a
    node, an anchor or a lag) of row r, for arrays of rows r and items k.
    Each round takes the k largest bounds left in every live row
    (_take_largest), reduces those that exceed the row's best, and retires
    the rows in which no bound left exceeds their best; k doubles up to the
    _BLOCK_BYTES cap.  A round sorts nothing: its k argmax passes cost
    O(k x live rows x items), the order of the round's exact sums.  best, a
    max, is updated in place and does not depend on the order of the visits.
    """
    n = bound.shape[1]
    live = np.flatnonzero(bound.max(axis=1, initial=-np.inf) > best)
    left, k = bound[live], 1  # the live rows' bounds, the spent ones -inf
    while len(live):
        top, top_bound = _take_largest(left, min(k, n))
        rl, c = np.nonzero(top_bound > best[live, None])
        vals = np.full(top.shape, -np.inf)
        vals[rl, c] = exact(live[rl], top[rl, c])
        best[live] = np.maximum(best[live], vals.max(axis=1))
        k = min(2 * k, max(1, _BLOCK_BYTES // (4 * row_bytes * len(live))))
        keep = left.max(axis=1) > best[live]
        if not keep.all():
            live, left = live[keep], left[keep]


def _take_largest(left, k):
    """(columns, values) of the k largest entries of each row of left, by k
    passes of argmax; spends them (-inf) in place."""
    rows = np.arange(len(left))
    top = np.empty((len(left), k), dtype=np.intp)
    top_bound = np.empty((len(left), k))
    for i in range(k):
        top[:, i] = j = left.argmax(axis=1)
        top_bound[:, i] = left[rows, j]
        left[rows, j] = -np.inf
    return top, top_bound


def _pruned_sups(v, lev, w, kappa, h, delta):
    """(best, bound, exact) of backward_increment_sups for a block of finite rows.

    1. The lags 1..H of every node are summed as the kernel sums them
       (_lag_sums), so the nodes j <= H are exact: best is their max.
    2. The later lags come in pieces (_piece_boxes).  At node j a piece is
       bounded by its weight summed over the lags up to j, times dev^delta:
       dev is the largest distance from f(t_j) to the piece's box.  The
       bound on I gets a rounding margin, so that a plus it dominates the
       computed a + I; bound holds it for the nodes j > H.
    3. exact sums those nodes from lag H + 1 on (_continued).
    """
    m = v.shape[-1]
    P, Q = hat_weights(kappa, h, m)
    W = Q[1:-1] + P[2:]  # W[l-1] weights lag l, as in backward_increment_integrals
    H = min(_HEAD_LAGS, m - 1)
    plain = _plain_rows(v)
    acc, far = _lag_sums(v, W, P, H, delta, plain)
    head = acc[:, : H + 1].copy()
    head[:, 1:] -= far[:, :H]
    head += lev[:, : H + 1]
    best = np.max(_weighted(head, None if w is None else w[: H + 1]), axis=1)

    bound = acc.copy()
    for lag, width, hi, lo in _piece_boxes(v, H, m):
        dev = _box_distance(v, hi, lo, lag, plain, delta)
        cw = np.cumsum(W[lag - 1 : lag - 1 + width])
        dev[:, : len(cw) - 1] *= cw[:-1]  # node lag + i sees only lags lag..lag + i
        dev[:, len(cw) - 1 :] *= cw[-1]
        bound[:, lag:] += dev
    bound = _margin(bound, m)
    bound += lev
    bound = _weighted(bound[:, H + 1 :], None if w is None else w[H + 1 :])

    # reversed rows, padded with their first value: the lags H+1.. of node j
    # read the contiguous window rev[..., m - j + H:]
    rev = np.concatenate([v[..., ::-1], np.repeat(v[..., :1], m, axis=-1)], axis=-1)
    return best, bound, lambda r, k: _continued(
        v, rev, acc, far, lev, w, W, plain, r, k + H + 1, H, delta
    )


def _continued(v, rev, acc, far, lev, w, W, plain, r, j, H, delta):
    """Exact w (a + I) at the nodes j of the rows r: the kernel's sums from lag H + 1 on.

    Each node's lags H+1..j are read as one window of the reversed row and
    added to its head sum by a sequential cumsum; the window runs on past
    lag j into the padding, and the sum is read off at lag j.
    """
    n_lag = j.max() - H
    phi = _increment_magnitude(_windows(rev, r, v.shape[-1] - 1 - j, H + 1, n_lag), delta, plain)
    terms = np.empty((len(j), n_lag + 1))
    terms[:, 0] = acc[r, j]
    with np.errstate(over="ignore"):  # only the lags past j can overflow
        np.multiply(phi, W[H : H + n_lag], out=terms[:, 1:])
        I = np.cumsum(terms, axis=1, out=terms)[np.arange(len(j)), j - H]
    I -= far[r, j - 1]
    I += lev[r, j]
    return _weighted(I, None if w is None else w[j])


def _windows(padded, r, anchor, ahead, width):
    """padded[r, ..., anchor + ahead + i] - padded[r, ..., anchor] for i < width.

    A fresh (len(r), width) array, or (len(r), d, width) for vector rows.
    """
    view = np.lib.stride_tricks.sliding_window_view(padded, width, axis=-1)
    out = view[r, ..., anchor + ahead, :]
    out -= padded[r, ..., anchor][..., None]
    return out


def _forward_lags(v: np.ndarray, kappa: float, h: float, signed: bool):
    """Yield (L, psi, K) for the lags L = 1..N of a block of rows v.

    At lag L, psi[:, i] = f(t_(i+L)) - f(t_i) over the anchors i <= N - L
    (its euclidean magnitude unless signed) and K[:, i] is the hat-rule
    integral over u in [t_i, t_(i+L)] of psi_i(u) (u - t_i)^-kappa.  K adds
    cell L to its lag L-1 value, the additions of a per-anchor cumsum in
    the same order, so it matches that cumsum bit for bit.  The next lag
    reads psi and updates K in place, so callers must not write to either.
    """
    N = v.shape[-1] - 1
    P, Q = hat_weights(kappa, h, N)
    plain = _plain_rows(v)
    for L in range(1, N + 1):
        psi = v[..., L:] - v[..., :-L]
        if not signed:
            psi = _increment_magnitude(psi, plain=plain)
        cell = Q[L] * psi
        if L == 1:
            K = cell
        else:
            cell += P[L] * prev[:, :-1]
            K = K[:, :-1]
            K += cell
        yield L, psi, K
        prev = psi


@_non_finite_rule
def anchored_sweep(
    values: np.ndarray, alpha: float, h: float, c: float, signed: bool = True
) -> np.ndarray:
    """Per path: max over node pairs s < t of |psi (t-s)^(alpha-1) + c K|.

    psi = f(t) - f(s) when signed (scalar paths only), else the euclidean
    magnitude |f(t) - f(s)|; K is the hat-rule integral over u in [s, t]
    of psi_s(u) (u-s)^(alpha-2), and c >= 0.  values has the layout of
    backward_increment_integrals and the result has shape (...); a path
    with fewer than two nodes gives 0, a NaN node gives NaN, and a finite
    path whose increments overflow reads inf, as in
    backward_increment_integrals.  The result equals the lag-by-lag sweep
    over every pair bit for bit: rows
    of at least _ANCHORED_MIN_NODES finite nodes sum exactly only the
    anchors whose certified bound can reach the max (_pruned_anchored),
    and the others sweep every anchor of every row of a cache-sized block
    at once, each row's arithmetic independent of its block.
    """
    rows, batch = _as_rows(values)
    if signed and rows.ndim == 3:
        raise ValueError("signed sweeps are scalar-only")
    inv_denom = (np.arange(1, rows.shape[-1]) * h) ** (alpha - 1.0)

    def swept(full):
        v = rows[full]
        blocks = _row_blocks(len(v), v[:1].nbytes)
        return np.concatenate([_swept_max(v[b], inv_denom, alpha, h, c, signed)[0] for b in blocks])

    def bounded(idx):
        return _pruned_anchored(rows[idx], inv_denom, alpha, h, c, signed)

    return _certified_sups(rows, _ANCHORED_MIN_NODES, bounded, swept).reshape(batch)


def _swept_max(v, inv_denom, alpha, h, c, signed, last=None):
    """(max of |psi (t-s)^(alpha-1) + c K| over the lags 1..last of every anchor, K at lag last).

    Per row of the block v; last None sweeps every lag.
    """
    best, K = np.zeros(len(v)), None
    for L, psi, K in _forward_lags(v, 2.0 - alpha, h, signed):
        val = K * c
        val += psi * inv_denom[L - 1]
        np.maximum(best, np.abs(val, out=val).max(axis=1), out=best)
        if L == last:
            break
    return best, K


def _pruned_anchored(v, inv_denom, alpha, h, c, signed):
    """(best, bound, exact) of anchored_sweep for a block of finite rows.

    1. The lags 1..H of every anchor run through _forward_lags as the
       sweep runs them: best is their max, and each anchor keeps K at lag H.
    2. The later lags come in pieces (_piece_boxes, on the reversed rows,
       where anchor s reads its lags backwards).  Over a piece's lags
       |psi| <= dev, the largest distance from f(s) to the piece's box,
       taken one node further so that the psi of lag L_first - 1, which
       P[L_first] weights, is in it too; and |K| grows by at most
       dev times the piece's mass sum(P + Q).  So each piece bounds its
       values by dev (t - s)^(alpha-1) at its first lag plus
       c (|K_H| + the running sum of mass dev), and the anchor's bound is
       the largest of these, with a rounding margin.
    3. exact takes the anchors' maxima past lag H (_anchored_tails).
    """
    m = v.shape[-1]
    N = m - 1
    P, Q = hat_weights(2.0 - alpha, h, N)
    H = min(_HEAD_LAGS, N)
    best, K_head = _swept_max(v, inv_denom, alpha, h, c, signed, last=H)  # K of the anchors 0..N-H
    bound = _anchored_bounds(v, K_head, inv_denom, P, Q, c, H)

    # rows padded with their last value: the lags H.. of anchor s read the
    # contiguous window pad[..., s + H:]
    pad = np.concatenate([v, np.repeat(v[..., -1:], m, axis=-1)], axis=-1)
    plain = _plain_rows(v)
    return best, bound, lambda r, s: _anchored_tails(
        v, pad, K_head, inv_denom, P, Q, c, signed, plain, r, s, H
    )


def _anchored_bounds(v, K_head, inv_denom, P, Q, c, H):
    """Bounds, with the rounding margin, on each anchor's values past lag H (step 2 of _pruned_anchored).

    Entry [r, s] covers the lags H+1..N - s of anchor s < N - H of row r.
    """
    m = v.shape[-1]
    # anchor s = N - j of the reversed rows: bounds accumulate at node j
    rev = np.ascontiguousarray(v[..., ::-1])
    plain = _plain_rows(v)
    mass_dev = np.zeros((len(v), m))
    mass_dev[:, H:] = np.abs(K_head[:, ::-1])
    bound = np.zeros((len(v), m))
    for lag, width, hi, lo in _piece_boxes(rev, H, m, reach=1):
        dev = _box_distance(rev, hi, lo, lag - 1, plain)[:, 1:]
        mass = np.sum(P[lag : lag + width] + Q[lag : lag + width])
        mass_dev[:, lag:] += mass * dev
        dev *= np.max(inv_denom[lag - 1 : lag - 1 + width])
        dev += c * mass_dev[:, lag:]
        np.maximum(bound[:, lag:], dev, out=bound[:, lag:])
    return _margin(bound[:, ::-1], m)[:, : m - 1 - H]


def _anchored_tails(v, pad, K_head, inv_denom, P, Q, c, signed, plain, r, s, H):
    """Exact max over the lags H+1..N - s of |psi (t-s)^(alpha-1) + c K| at the anchors s of the rows r.

    The cells of each anchor's lags are added to its K at lag H by a
    sequential cumsum, which repeats the sweep's additions; the window
    runs on into the padding, whose lags are masked out.
    """
    N = v.shape[-1] - 1
    n_lag = N - H - s.min()
    psi = _windows(pad, r, s, H, n_lag + 1)
    if not signed:
        psi = _increment_magnitude(psi, plain=plain)
    K = np.empty((len(s), n_lag + 1))
    K[:, 0] = K_head[r, s]
    lags = slice(H + 1, H + 1 + n_lag)
    with np.errstate(over="ignore", invalid="ignore"):  # the padding's lags are masked out
        np.multiply(psi[:, 1:], Q[lags], out=K[:, 1:])
        K[:, 1:] += P[lags] * psi[:, :-1]
        np.cumsum(K, axis=1, out=K)
        val = K[:, 1:] * c
        val += psi[:, 1:] * inv_denom[H:N - s.min()]
        np.abs(val, out=val)
    val[np.arange(n_lag) >= (N - H - s)[:, None]] = 0.0
    return val.max(axis=1)


@_non_finite_rule
def lag_sups(values: np.ndarray, lags) -> np.ndarray:
    """Per path: the largest increment magnitude |f(t + l h) - f(t)| over t, for each lag l.

    values has the layout of backward_increment_integrals and the result
    has shape (..., len(lags)); the magnitude is _magnitude's.
    """
    rows, batch = _as_rows(values)
    out = np.empty((len(rows), len(lags)))
    for blk in _row_blocks(len(rows), rows[:1].nbytes):
        out[blk] = _lag_maxima(rows[blk], lags, _plain_rows(rows[blk]))
    return out.reshape(batch + (len(lags),))


def _lag_maxima(v: np.ndarray, lags, plain: bool) -> np.ndarray:
    """(rows, len(lags)): lag_sups of the block of rows v."""
    out = np.empty((len(v), len(lags)))
    for i, l in enumerate(lags):
        out[:, i] = _increment_magnitude(v[..., l:] - v[..., :-l], plain=plain).max(axis=-1)
    return out


@_non_finite_rule
def holder_seminorm(values: np.ndarray, mu: float, h: float) -> np.ndarray:
    """Per path: the largest |f(t+lh) - f(t)| / (lh)^mu over the lags l.

    values has the layout of backward_increment_integrals and the result
    has shape (...).  The lags 1.._HEAD_LAGS are reduced exactly.  A
    later lag is bounded by the largest distance from f(t) to its piece's
    box over t, over its own (lh)^mu, with a rounding margin.  Each path
    equals its every-lag max over lag_sups bit for bit (_certified_sups).
    """
    rows, batch = _as_rows(values)
    n = rows.shape[-1]
    lags = np.arange(1, n)
    denom = (lags * h) ** mu
    H = min(_HEAD_LAGS, n - 1)

    def swept(full):
        paths = np.reshape(values, (-1,) + values.shape[-2:])[full]
        return np.max(lag_sups(paths, lags) / denom, axis=-1, initial=0.0)

    def bounded(idx):
        v = rows[idx]
        plain = _plain_rows(v)
        best = np.max(_lag_maxima(v, lags[:H], plain) / denom[:H], axis=1, initial=0.0)
        bound = np.empty((len(v), n - 1 - H))
        for lag, width, hi, lo in _piece_boxes(v, H, n):
            dev = _box_distance(v, hi, lo, lag, plain).max(axis=1)
            bound[:, lag - 1 - H : lag - 1 - H + width] = dev[:, None] / denom[lag - 1 : lag - 1 + width]

        def exact(r, k):
            maxima = [_lag_maxima(v[i : i + 1], [l], plain)[0, 0] for i, l in zip(r, lags[k + H])]
            return np.array(maxima) / denom[k + H]

        return best, _margin(bound, values.shape[-1]), exact

    return _certified_sups(rows, 0, bounded, swept).reshape(batch)


@_non_finite_rule
def backward_profile_integrals(profile: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """I[..., j] = integral over s in [t_0, t_j] of p(s) (t_j - s)^-kappa ds.

    profile and the result have shape (..., n_nodes).  The profile does
    not vanish at the anchor, so this requires kappa < 1.
    """
    if kappa >= 1.0:
        raise ValueError("profile integrals need kappa < 1 (no anchor zero)")
    rows, batch = _as_rows(np.expand_dims(profile, -1))
    n_nodes = rows.shape[-1]
    P, Q = hat_weights(kappa, h, n_nodes)
    # W[l] weights lag l; the farthest node carries only Q, so its P comes off below
    W = np.concatenate((P[1:2], Q[1:-1] + P[2:]))
    out = np.zeros(rows.shape)
    for blk in _row_blocks(len(rows), rows[:1].nbytes):
        p, acc = rows[blk], out[blk]
        for l in range(n_nodes):
            acc[:, l:] += W[l] * p[:, : n_nodes - l]
        acc[:, 1:] -= P[2:] * p[:, :1]
        acc[:, 0] = 0.0
    return out.reshape(batch + (n_nodes,))


@_non_finite_rule
def iterated_increment_integrals(values: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """I[..., j] = integral over s in [t_0, t_j] of Psi(s, t_j) (t_j - s)^-alpha ds.

    Psi(s, t) integrates |f(u) - f(s)| (u - s)^(-alpha-1) over u in [s, t],
    with the euclidean magnitude.  values and the result have the layouts
    of backward_increment_integrals; the sweep runs by lag in O(n_nodes)
    memory per row.
    """
    rows, batch = _as_rows(values)
    n_nodes = rows.shape[-1]
    P, Q = hat_weights(alpha, h, n_nodes)
    out = np.zeros((len(rows), n_nodes))
    for blk in _row_blocks(len(rows), rows[:1].nbytes):
        acc = out[blk]
        psi0 = np.zeros(acc.shape)  # psi0[:, j] = Psi(t_0, t_j)
        for L, _, K in _forward_lags(rows[blk], alpha + 1.0, h, signed=False):
            acc[:, L:] += (Q[L] + P[L + 1]) * K
            psi0[:, L] = K[:, 0]
        acc -= P[1:] * psi0
    return out.reshape(batch + (n_nodes,))


@_non_finite_rule
def cumulative_from_zero(profile: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """J[..., j] = integral over s in [t_0, t_j] of p(s) (s - t_0)^-kappa ds.

    profile and the result have shape (..., n_nodes).  The kernel is
    anchored at the segment start; requires kappa < 1.
    """
    if kappa >= 1.0:
        raise ValueError("start-anchored integrals need kappa < 1")
    rows, batch = _as_rows(np.expand_dims(profile, -1))
    n_nodes = rows.shape[-1]
    P, Q = hat_weights(kappa, h, n_nodes - 1)
    out = np.zeros(rows.shape)
    for blk in _row_blocks(len(rows), rows[:1].nbytes):
        p = rows[blk]
        np.cumsum(P[1:] * p[:, :-1] + Q[1:] * p[:, 1:], axis=1, out=out[blk, 1:])
    return out.reshape(batch + (n_nodes,))
