"""Product-linear quadrature for weakly singular kernels on uniform grids.

All norm functionals and bound checks integrate quantities of the form
phi(s) * v^(-kappa) where v is the distance to an anchor node and phi is
known at grid nodes.  The rule used everywhere: interpolate phi piecewise
linearly between nodes and integrate the kernel moments analytically per
cell.  For kappa >= 1 the anchor cell is integrable because phi vanishes
at the anchor (phi is an increment of the path there), which the product
rule preserves exactly.

Cell weights are expressed through the two hat functions on each cell, so
every discrete integral is a nonnegative combination of nodal phi values.
That makes nodewise inequalities between integrands carry over to the
discrete integrals exactly, which the bound-checking modules rely on, and
it lets backward_increment_sups bound whole bands of lags by the path's
range over them: a sup over nodes sums exactly only the nodes whose bound
can reach it, and equals the full sweep's sup bit for bit.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "hat_weights",
    "backward_increment_integrals",
    "backward_increment_sups",
    "anchored_sweep",
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

#: pruned sups (backward_increment_sups): lags 1.._HEAD_LAGS are summed at
#: every node, each later octave of lags is bounded in 2**_SPLIT pieces,
#: and rows of fewer nodes than _PRUNE_MIN_NODES take the full sweep, which
#: is faster there
_HEAD_LAGS = 15
_SPLIT = 2
_PRUNE_MIN_NODES = 160
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


def _as_rows(values: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """(rows, batch) of values shaped (n_nodes,) or (..., n_nodes, d).

    rows is C-contiguous, (B, n_nodes) for one component and
    (B, d, n_nodes) otherwise, with B the product of the batch shape.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        return np.ascontiguousarray(vals[None, :]), ()
    batch, (n_nodes, d) = vals.shape[:-2], vals.shape[-2:]
    rows = np.moveaxis(vals, -1, -2).reshape((-1, d, n_nodes))
    return np.ascontiguousarray(rows[:, 0] if d == 1 else rows), batch


def _row_blocks(count: int, row_bytes: int) -> list[slice]:
    """Slices of count rows holding at most _BLOCK_BYTES of data each (at least one row)."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _increment_magnitude(diff: np.ndarray, delta: float = 1.0) -> np.ndarray:
    """|increment|^delta of (rows, k) scalar or (rows, d, k) vector increments.

    Scalar increments are overwritten in place; vector increments reduce
    to their euclidean magnitude over axis 1.
    """
    if diff.ndim == 2:
        mag = np.abs(diff, out=diff)
    else:
        mag = np.sqrt(np.sum(diff * diff, axis=1))
    if delta != 1.0:
        mag **= delta
    return mag


def backward_increment_integrals(
    values: np.ndarray,
    kappa: float,
    h: float,
    delta: float = 1.0,
    start: int = 0,
) -> np.ndarray:
    """I[..., j] = integral over s in [t_start, t_j] of |f(t_j)-f(s)|^delta (t_j-s)^-kappa ds.

    values has shape (n_nodes,) for one scalar path, or (..., n_nodes, d)
    for a batch of paths on one grid; the increment magnitude is
    euclidean over components, and the result has shape (..., n_nodes).
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
        # collapsed per-lag weight W[l-1] = Q[l] + P[l+1]; the farthest node
        # of each row only carries Q, corrected after the sweep.
        W = (Q[1:-1] + P[2:]).tolist()
        for blk in _row_blocks(len(rows), rows[:1].nbytes):
            v = rows[blk, ..., start:]
            acc = out[blk, start:]
            for l in range(1, n_lag + 1):
                phi = _increment_magnitude(v[..., :-l] - v[..., l:], delta)
                phi *= W[l - 1]
                acc[:, l:] += phi
            far = _increment_magnitude(v[..., 1:] - v[..., :1], delta)
            far *= P[2:]
            acc[:, 1:] -= far
    return out.reshape(batch + (n_nodes,))


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
    _PRUNE_MIN_NODES and rows whose bound overflows take the full sweep.
    """
    rows, batch = _as_rows(values)
    rows = rows[..., start:]
    m = rows.shape[-1]
    lev = np.zeros((len(rows), m)) if level is None else np.reshape(level, (len(rows), m))
    w = None if weights is None else np.asarray(weights, dtype=float)
    sups = np.empty(len(rows))
    full = ~np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
    if m < _PRUNE_MIN_NODES:
        full[:] = True
    pruned = np.flatnonzero(~full)
    # a pruned block keeps about a dozen arrays of its size alive, so it takes
    # a quarter of the rows a kernel block takes
    for blk in _row_blocks(len(pruned), 4 * rows[:1].nbytes):
        idx = pruned[blk]
        sups[idx], overflow = _pruned_sups(rows[idx], lev[idx], w, kappa, h, delta)
        full[idx[overflow]] = True
    if full.any():
        # through the public kernel, on the caller's layout
        sub = values if full.all() else np.reshape(values, (-1,) + np.shape(values)[-2:])[full]
        B = backward_increment_integrals(sub, kappa, h, delta, start)[..., start:]
        B = B.reshape(-1, m) + lev[full]
        sups[full] = np.max(_weighted(B, w), axis=-1)
    return sups.reshape(batch)


def _weighted(B: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """w * B, with 0 where B is exactly 0 (a huge w stays out of 0 * inf)."""
    if w is None:
        return B
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(B == 0.0, 0.0, w * B)


def _pruned_sups(v, lev, w, kappa, h, delta):
    """(sups, overflow) of backward_increment_sups for a block of finite rows.

    1. The lags 1..H of every node are summed as the kernel sums them, so
       the nodes j <= H are exact.
    2. The later lags come in pieces, 2^_SPLIT to an octave [2^b, 2^(b+1)).
       At node j a piece is bounded by its weight summed over the lags up
       to j, times dev^delta: dev is the largest distance from f(t_j) to
       the piece's component-wise box [min f, max f] (euclidean over
       components).  The boxes come from left-clipped sparse tables of
       running extrema, level k spanning 2^k nodes.  The bound on I gets a
       rounding margin, so that a plus it dominates the computed a + I.
    3. The other nodes are visited in decreasing bound order, in rounds
       of doubling size (_continued), until no bound left in a row
       exceeds its best exact value.

    overflow flags rows whose bound is not finite.
    """
    n_rows, m = len(v), v.shape[-1]
    P, Q = hat_weights(kappa, h, m)
    W = Q[1:-1] + P[2:]  # W[l-1] weights lag l, as in backward_increment_integrals
    H = min(_HEAD_LAGS, m - 1)
    acc = np.zeros((n_rows, m))
    for l in range(1, H + 1):
        phi = _increment_magnitude(v[..., :-l] - v[..., l:], delta)
        phi *= W[l - 1]
        acc[:, l:] += phi
    far = _increment_magnitude(v[..., 1:] - v[..., :1], delta)
    far *= P[2:]
    head = acc[:, : H + 1].copy()
    head[:, 1:] -= far[:, :H]
    head += lev[:, : H + 1]
    best = np.max(_weighted(head, None if w is None else w[: H + 1]), axis=1)

    bound = acc.copy()
    lags = [H + 1]  # first lag of each piece
    while lags[-1] < m:
        lags.append(lags[-1] + (1 << max(0, lags[-1].bit_length() - 1 - _SPLIT)))
    hi, lo, span = v.copy(), v.copy(), 1
    for lag, width in zip(lags, np.diff(lags)):
        while span < width:
            np.maximum(hi[..., span:], hi[..., :-span], out=hi[..., span:])
            np.minimum(lo[..., span:], lo[..., :-span], out=lo[..., span:])
            span *= 2
        cur = v[..., lag:]
        dev = np.maximum(cur - lo[..., :-lag], hi[..., :-lag] - cur)
        dev = _increment_magnitude(dev, delta)
        cw = np.cumsum(W[lag - 1 : lag - 1 + width])
        dev[:, : len(cw) - 1] *= cw[:-1]  # node lag + i sees only lags lag..lag + i
        dev[:, len(cw) - 1 :] *= cw[-1]
        bound[:, lag:] += dev
    # the kernel's sum and this bound each round O(m) nonnegative terms, so
    # a margin of 4 (m + 16) ulps (and as many subnormals) covers both; an
    # exactly-0 bound means I is exactly 0, so a + I is a and ties stay exact
    slack = 4 * (m + 16)
    bound = np.where(bound == 0.0, 0.0, bound * (1.0 + slack * _EPS) + slack * _TINY)
    bound += lev
    overflow = ~np.isfinite(bound).all(axis=1)
    bound = _weighted(bound[:, H + 1 :], None if w is None else w[H + 1 :])

    del hi, lo
    # candidates: nodes whose bound beats the head, by row, then by decreasing bound
    cr, cj = np.nonzero((bound > best[:, None]) & ~overflow[:, None])
    cb = bound[cr, cj]
    by = np.lexsort((-cb, cr))
    cr, cj, cb = cr[by], cj[by] + H + 1, cb[by]
    first = np.searchsorted(cr, np.arange(n_rows))
    end = np.searchsorted(cr, np.arange(n_rows), side="right")
    # reversed rows, padded with their first value: the lags H+1.. of node j
    # read the contiguous window rev[..., m - j + H:]
    rev = np.concatenate([v[..., ::-1], np.repeat(v[..., :1], m, axis=-1)], axis=-1)
    pos, k = 0, 1
    while True:
        live = np.flatnonzero(first + pos < end)
        live = live[cb[first[live] + pos] > best[live]]
        if len(live) == 0:
            break
        at = first[live, None] + pos + np.arange(k)
        inside = at < end[live, None]
        at = np.where(inside, at, first[live, None] + pos)
        rl, c = np.nonzero(inside & (cb[at] > best[live, None]))
        vals = np.full(at.shape, -np.inf)
        vals[rl, c] = _continued(v, rev, acc, far, lev, w, W, live[rl], cj[at[rl, c]], H, delta)
        best[live] = np.maximum(best[live], vals.max(axis=1))
        pos += k
        k = min(2 * k, max(1, _BLOCK_BYTES // (4 * v[0].nbytes * len(live))))
    return best, overflow


def _continued(v, rev, acc, far, lev, w, W, r, j, H, delta):
    """Exact w (a + I) at the nodes j of the rows r: the kernel's sums from lag H + 1 on.

    Each node's lags H+1..j are read as one window of the reversed row and
    added to its head sum by a sequential cumsum; the window runs on past
    lag j into the padding, and the sum is read off at lag j.
    """
    n_lag = j.max() - H
    windows = np.lib.stride_tricks.sliding_window_view(rev, n_lag, axis=-1)
    if v.ndim == 2:
        diff = windows[r, v.shape[-1] - j + H]
        diff -= v[r, j][:, None]
    else:
        diff = windows[r, :, v.shape[-1] - j + H]
        diff -= v[r, :, j][:, :, None]
    phi = _increment_magnitude(diff, delta)
    terms = np.empty((len(j), n_lag + 1))
    terms[:, 0] = acc[r, j]
    with np.errstate(over="ignore"):  # only the lags past j can overflow
        np.multiply(phi, W[H : H + n_lag], out=terms[:, 1:])
        I = np.cumsum(terms, axis=1, out=terms)[np.arange(len(j)), j - H]
    I -= far[r, j - 1]
    I += lev[r, j]
    return _weighted(I, None if w is None else w[j])


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
    for L in range(1, N + 1):
        psi = v[..., L:] - v[..., :-L]
        if not signed:
            psi = _increment_magnitude(psi)
        cell = Q[L] * psi
        if L == 1:
            K = cell
        else:
            cell += P[L] * prev[:, :-1]
            K = K[:, :-1]
            K += cell
        yield L, psi, K
        prev = psi


def anchored_sweep(
    values: np.ndarray, alpha: float, h: float, c: float, signed: bool = True
) -> np.ndarray:
    """Per path: max over node pairs s < t of |psi (t-s)^(alpha-1) + c K|.

    psi = f(t) - f(s) when signed (scalar paths only), else the euclidean
    magnitude |f(t) - f(s)|; K is the hat-rule integral over u in [s, t]
    of psi_s(u) (u-s)^(alpha-2).  values has the layout of
    backward_increment_integrals and the result has shape (...); a path
    with fewer than two nodes gives 0, and a NaN node gives NaN.  Each
    lag sweeps every anchor of every row of a cache-sized block at once;
    each row's arithmetic is independent of its block.
    """
    rows, batch = _as_rows(values)
    if signed and rows.ndim == 3:
        raise ValueError("signed sweeps are scalar-only")
    N = rows.shape[-1] - 1
    sups = np.zeros(len(rows))
    inv_denom = (np.arange(1, N + 1) * h) ** (alpha - 1.0)
    for blk in _row_blocks(len(rows), rows[:1].nbytes):
        best = sups[blk]
        for L, psi, K in _forward_lags(rows[blk], 2.0 - alpha, h, signed):
            val = K * c
            val += psi * inv_denom[L - 1]
            np.maximum(best, np.abs(val, out=val).max(axis=1), out=best)
    return sups.reshape(batch)


def backward_profile_integrals(profile: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """I[j] = integral over s in [t_0, t_j] of p(s) (t_j - s)^-kappa ds.

    The profile does not vanish at the anchor, so this requires kappa < 1.
    """
    if kappa >= 1.0:
        raise ValueError("profile integrals need kappa < 1 (no anchor zero)")
    p = np.asarray(profile, dtype=float)
    N = len(p) - 1
    out = np.zeros(N + 1)
    if N >= 1:
        P, Q = hat_weights(kappa, h, N + 1)
        W = np.concatenate(([P[1]], Q[1:-1] + P[2:]))
        out[1:] = np.convolve(p, W)[1 : N + 1] - P[2:] * p[0]
    return out


def iterated_increment_integrals(values: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """I[j] = integral over s in [t_0, t_j] of Psi(s, t_j) (t_j - s)^-alpha ds.

    Psi(s, t) integrates |f(u) - f(s)| (u - s)^(-alpha-1) over u in [s, t]
    for a scalar path f; the sweep runs by lag in O(n_nodes) memory.
    """
    v = np.asarray(values, dtype=float)
    P, Q = hat_weights(alpha, h, len(v))
    out, psi0 = np.zeros(len(v)), np.zeros(len(v))  # psi0[j] = Psi(t_0, t_j)
    for L, _, K in _forward_lags(v[None], alpha + 1.0, h, signed=False):
        out[L:] += (Q[L] + P[L + 1]) * K[0]
        psi0[L] = K[0, 0]
    out -= P[1:] * psi0
    return out


def cumulative_from_zero(profile: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """J[j] = integral over s in [t_0, t_j] of p(s) (s - t_0)^-kappa ds.

    Kernel anchored at the segment start; requires kappa < 1.
    """
    if kappa >= 1.0:
        raise ValueError("start-anchored integrals need kappa < 1")
    p = np.asarray(profile, dtype=float)
    N = len(p) - 1
    if N < 1:
        return np.zeros(max(N + 1, 1))
    P, Q = hat_weights(kappa, h, N)
    cells = P[1:] * p[:-1] + Q[1:] * p[1:]
    return np.concatenate(([0.0], np.cumsum(cells)))
