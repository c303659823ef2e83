"""The batched singular-kernel sweeps against dense references and per-path calls."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddelab import FbmConfig, SamplePath, generate_fbm, lambda_alpha, make_grid, norm_alpha_infty
from sddelab import _singular
from sddelab._singular import (
    anchored_sweep,
    backward_increment_integrals,
    backward_increment_sups,
    backward_profile_integrals,
    cumulative_from_zero,
    hat_weights,
    holder_seminorm,
    iterated_increment_integrals,
    lag_sups,
)
from sddelab.norms import alpha_infty_rows, lambda_alpha_rows, norm_1ma_infty_T

ALPHA = 0.3


def dense_increment_integrals(values, kappa, h, delta, start):
    """O(N^2) product-linear rule, cell by cell from the hat weights."""
    vals = values.reshape(len(values), -1)
    N = len(vals) - 1
    P, Q = hat_weights(kappa, h, max(N - start, 1))
    out = np.zeros(N + 1)
    for j in range(start + 1, N + 1):
        phi = np.linalg.norm(vals[j] - vals, axis=1) ** delta
        # cell l spans lags [(l-1)h, lh]: near node j-l+1, far node j-l
        out[j] = sum(P[l] * phi[j - l + 1] + Q[l] * phi[j - l] for l in range(1, j - start + 1))
    return out


def per_anchor_maxima(vals, alpha, h, c, signed, skip=0):
    """One path, one anchor at a time: each anchor's max over its lags past skip."""
    vals = vals.reshape(len(vals), -1)
    N = len(vals) - 1
    inv_denom = (np.arange(1, N + 1) * h) ** (alpha - 1.0)
    P, Q = hat_weights(2.0 - alpha, h, N)
    sups = np.empty(max(N - skip, 0))
    for i in range(N - skip):
        L = N - i
        diff = vals[i + 1 :] - vals[i]
        psi = diff[:, 0] if signed else np.sqrt(np.sum(diff * diff, axis=1))
        cells = Q[1 : L + 1] * psi
        cells[1:] += P[2 : L + 1] * psi[:-1]
        K = np.cumsum(cells)
        np.multiply(psi, inv_denom[:L], out=psi)
        psi += c * K
        sups[i] = np.max(np.abs(psi[skip:]))
    return sups


def per_anchor_sweep(vals, alpha, h, c, signed):
    """The loop the batched sweep replaced."""
    return np.max(per_anchor_maxima(vals, alpha, h, c, signed), initial=0.0)


def dense_forward_matrix(values, kappa, h):
    """Psi[i, j] = forward hat-rule integral of |f(u)-f(t_i)| (u-t_i)^-kappa over [t_i, t_j]."""
    N = len(values) - 1
    P, Q = hat_weights(kappa, h, N)
    Psi = np.zeros((N + 1, N + 1))
    for i in range(N):
        psi = np.abs(values[i:] - values[i])
        L = N - i
        Psi[i, i + 1 :] = np.cumsum(P[1 : L + 1] * psi[:-1] + Q[1 : L + 1] * psi[1:])
    return Psi


def dense_backward_matrix_sum(phi, kappa, h):
    """I[j] = backward hat-rule integral of phi[j, .] (t_j - s)^-kappa over [t_0, t_j]."""
    N = phi.shape[0] - 1
    P, Q = hat_weights(kappa, h, N + 1)
    W = np.concatenate(([P[1]], Q[1:-1] + P[2:]))
    out = np.zeros(N + 1)
    for j in range(1, N + 1):
        seg = phi[j, : j + 1]
        out[j] = np.dot(W[: j + 1][::-1], seg) - P[j + 1] * seg[0]
    return out


def fbm_rows(n_rows, n=64, dim=1):
    grid = make_grid(1.0, n)
    cfg = FbmConfig(hurst=0.75, dim=dim, seed=11)
    return grid, np.stack([generate_fbm(grid, cfg, index=i).values for i in range(n_rows)])


@pytest.mark.parametrize(
    "dim,delta,start,squeeze",
    [(1, 1.0, 0, True), (1, 1.0, 0, False), (2, 1.0, 0, False),
     (1, 0.5, 0, True), (2, 0.5, 7, False), (1, 1.0, 9, True)],
)
def test_lag_kernel_matches_the_dense_rule(dim, delta, start, squeeze):
    grid, rows = fbm_rows(1, n=48, dim=dim)
    # squeeze: the path as a column of its scalar values
    values = rows[0, :, 0][:, None] if squeeze else rows[0]
    got = backward_increment_integrals(values, ALPHA + 1.0, grid.h, delta=delta, start=start)
    ref = dense_increment_integrals(values, ALPHA + 1.0, grid.h, delta, start)
    assert got.shape == (grid.n_nodes,)
    assert np.all(got[: start + 1] == 0.0)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_norms_equal_per_path_calls_across_row_blocks(monkeypatch, dim):
    grid, rows = fbm_rows(7, dim=dim)
    # three rows per block: blocks of 3, 3 and 1 rows
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 3 * 8 * rows[0].size)
    batch = rows.reshape(7, 1, grid.n_nodes, dim)
    paths = [SamplePath(grid, r) for r in rows]
    dist = alpha_infty_rows(batch, ALPHA, grid.h)
    lams = lambda_alpha_rows(batch, ALPHA, grid.h)
    assert dist.shape == lams.shape == (7, 1)
    assert np.array_equal(dist[:, 0], [norm_alpha_infty(p, ALPHA) for p in paths])
    assert np.array_equal(lams[:, 0], [lambda_alpha(p, ALPHA) for p in paths])
    sweep = anchored_sweep(rows, ALPHA, grid.h, 1.0, signed=False)
    assert np.array_equal(sweep, [norm_1ma_infty_T(p, ALPHA) for p in paths])


def test_a_nan_row_leaves_the_other_rows_bit_identical(monkeypatch):
    grid, rows = fbm_rows(5)
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 2 * 8 * rows[0].size)
    bad = rows.copy()
    bad[2, 30, 0] = np.nan
    for functional in (
        lambda v: alpha_infty_rows(v, ALPHA, grid.h),
        lambda v: lambda_alpha_rows(v, ALPHA, grid.h),
        lambda v: anchored_sweep(v, ALPHA, grid.h, 1.0, signed=False),
        lambda v: iterated_increment_integrals(v, ALPHA, grid.h),
        lambda v: backward_profile_integrals(np.abs(v[..., 0]), 2.0 * ALPHA, grid.h),
        lambda v: cumulative_from_zero(np.abs(v[..., 0]), ALPHA, grid.h),
    ):
        clean, poisoned = functional(rows), functional(bad)
        assert np.isnan(poisoned[2]).any()
        keep = np.arange(5) != 2
        assert np.array_equal(poisoned[keep], clean[keep])
        assert np.isfinite(clean).all()
        assert np.array_equal(poisoned, [functional(v) for v in bad], equal_nan=True)


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_holder_sups_equal_per_path_calls_and_the_every_lag_max(monkeypatch, dim):
    grid, rows = fbm_rows(6, n=200, dim=dim)
    rows[3, 50, 0] = np.nan
    # a pruned block takes a quarter of a kernel block's rows: one row each,
    # so the five finite rows take five blocks
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 2 * rows[0].nbytes)
    lags = np.arange(1, grid.n_nodes)
    sups = lag_sups(rows, lags)
    got = holder_seminorm(rows, 0.7, grid.h)
    assert sups.shape == (6, grid.n_main) and got.shape == (6,)
    assert np.array_equal(got, np.max(sups / (lags * grid.h) ** 0.7, axis=-1, initial=0.0), equal_nan=True)
    assert np.array_equal(got, [holder_seminorm(v, 0.7, grid.h) for v in rows], equal_nan=True)
    assert np.array_equal(sups, [lag_sups(v, lags) for v in rows], equal_nan=True)
    assert np.isnan(got[3]) and np.isfinite(np.delete(got, 3)).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2])
def test_non_finite_rows_read_nan_or_inf_and_leave_the_finite_rows_bit_identical(monkeypatch, dim):
    # rows 1-4 hold one inf node, two, an inf pair and a NaN node: a value
    # that a NaN node enters reads NaN, one that only inf nodes enter reads
    # inf, and nothing warns; rows 0 and 5 keep their bits
    grid, rows = fbm_rows(6, n=200, dim=dim)
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 2 * rows[0].nbytes)
    bad = rows.copy()
    cases = [{20: np.inf}, {20: np.inf, 30: np.inf}, {20: np.inf, 30: -np.inf}, {20: np.nan}]
    for row, nodes in enumerate(cases, start=1):
        bad[row, list(nodes), 0] = list(nodes.values())
    fill = np.array([np.inf, np.inf, np.inf, np.nan])
    lags = np.arange(1, grid.n_nodes)
    N = grid.n_main
    sups = {
        "backward_increment_sups": lambda v: backward_increment_sups(v, ALPHA + 1.0, grid.h, 0.8),
        "alpha_infty_rows": lambda v: alpha_infty_rows(v, ALPHA, grid.h),
        "lambda_alpha_rows": lambda v: lambda_alpha_rows(v, ALPHA, grid.h),
        "unsigned anchored_sweep": lambda v: anchored_sweep(v, ALPHA, grid.h, 1.0, signed=False),
        "holder_seminorm": lambda v: holder_seminorm(v, 0.7, grid.h),
    }
    for name, functional in sups.items():
        clean, got = functional(rows), functional(bad)
        assert np.array_equal(got, np.concatenate([clean[:1], fill, clean[5:]]), equal_nan=True), name
    # node j of a profile reads the nodes up to j: from node 20 on they hold a non-finite one
    profiles = {
        "backward_increment_integrals": lambda v: backward_increment_integrals(v, ALPHA + 1.0, grid.h, 0.8),
        "iterated_increment_integrals": lambda v: iterated_increment_integrals(v, ALPHA, grid.h),
        "backward_profile_integrals": lambda v: backward_profile_integrals(
            _singular._magnitude(v, -1), 2.0 * ALPHA, grid.h),
        "cumulative_from_zero": lambda v: cumulative_from_zero(_singular._magnitude(v, -1), ALPHA, grid.h),
    }
    for name, functional in profiles.items():
        want = functional(rows)
        want[1:5, 20:] = fill[:, None]
        assert np.array_equal(functional(bad), want, equal_nan=True), name
    # lag l of lag_sups reads the pairs (t, t + l): node k is in one for l <= max(k, N - k)
    want = lag_sups(rows, lags)
    for row, nodes in enumerate(cases, start=1):
        reached = (lags[:, None] <= np.maximum(list(nodes), N - np.array(list(nodes)))).any(axis=1)
        want[row, reached] = fill[row - 1]
    assert np.array_equal(lag_sups(bad, lags), want, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 5), st.integers(2, 20), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_sweeps_equal_per_row_calls_with_a_nan_row(shape, seed, data):
    n_rows, n_nodes, d = shape
    rows = np.random.default_rng(seed).standard_normal(shape).cumsum(axis=1)
    rows[data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, n_nodes - 1))] = np.nan
    h = 1.0 / (n_nodes - 1)
    functionals = {
        "backward_increment_integrals": (
            lambda v: backward_increment_integrals(v, ALPHA + 1.0, h), rows),
        "signed scalar anchored_sweep": (
            lambda v: anchored_sweep(v, ALPHA, h, 1.0 - ALPHA), rows[..., :1]),
        "unsigned vector anchored_sweep": (
            lambda v: anchored_sweep(v, ALPHA, h, 1.0, signed=False), rows),
        "alpha_infty_rows": (lambda v: alpha_infty_rows(v, ALPHA, h), rows),
        "lambda_alpha_rows": (lambda v: lambda_alpha_rows(v, ALPHA, h), rows),
        "iterated_increment_integrals": (
            lambda v: iterated_increment_integrals(v, ALPHA, h), rows),
        "backward_profile_integrals": (
            lambda v: backward_profile_integrals(v, 2.0 * ALPHA, h), np.abs(rows[..., 0])),
        "cumulative_from_zero": (
            lambda v: cumulative_from_zero(v, ALPHA, h), np.abs(rows[..., 0])),
    }
    rows_per_block = data.draw(st.integers(1, n_rows))
    with mock.patch.object(_singular, "_BLOCK_BYTES", rows_per_block * rows[0].nbytes):
        for name, (functional, values) in functionals.items():
            per_row = np.array([functional(v) for v in values])
            assert np.array_equal(functional(values), per_row, equal_nan=True), name


def nan_free_rows_read_inf(sups, values):
    """The kernels' rule for a sweep's sups: a NaN of a row without a NaN node reads inf."""
    return np.where(np.isnan(sups) & ~np.isnan(values).any(axis=(-2, -1)), np.inf, sups)


def full_sweep_sups(values, kappa, h, delta, start, level, weights):
    """np.max over the full kernel's profile w (a + I): what the pruned sups must equal."""
    B = backward_increment_integrals(values, kappa, h, delta, start)[..., start:]
    if level is not None:
        B = B + level
    if weights is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            B = np.where(B == 0.0, 0.0, weights * B)
    return nan_free_rows_read_inf(np.max(B, axis=-1), values[..., start:, :])


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(2, 90), st.sampled_from([1, 2, 3])),
    kind=st.sampled_from(["walk", "constant", "alternating", "spike-first", "spike-last"]),
    poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    delta=st.sampled_from([1.0, 0.6]),
    lam=st.sampled_from([None, 0.0, 2.0, 3000.0]),
    with_level=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pruned_sups_equal_the_full_sweep(shape, kind, poison, delta, lam, with_level, seed, data):
    n_rows, n_nodes, d = shape
    rows = np.random.default_rng(seed).standard_normal(shape).cumsum(axis=1)
    if kind == "constant":  # every node ties with the sup
        rows[:] = rows[:, :1]
    elif kind == "alternating":  # loose bounds everywhere: nothing prunes
        rows *= np.where(np.arange(n_nodes) % 2, 1.0, -1.0)[:, None] / np.abs(rows)
    elif kind == "spike-first":
        rows[:, 0] += 50.0
    elif kind == "spike-last":
        rows[:, -1] += 50.0
    if poison is not None:
        rows[data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, n_nodes - 1))] = poison
    start = data.draw(st.integers(0, n_nodes - 1))
    h = 1.0 / n_nodes
    level = np.linalg.norm(rows[:, start:], axis=-1) if with_level else None
    weights = None
    if lam is not None:  # at lambda = 3000 the history weights overflow to inf
        with np.errstate(over="ignore"):
            weights = np.exp(-lam * (np.arange(start, n_nodes) - n_nodes // 2) * h)
    # short rows prune too, and blocks hold from one row to all of them
    with mock.patch.object(_singular, "_PRUNE_MIN_NODES", data.draw(st.integers(2, 40))), \
            mock.patch.object(_singular, "_BLOCK_BYTES", data.draw(st.integers(1, 4 * rows.nbytes))):
        want = full_sweep_sups(rows, ALPHA + 1.0, h, delta, start, level, weights)
        got = backward_increment_sups(rows, ALPHA + 1.0, h, delta, start, level, weights)
    assert got.shape == (n_rows,)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("dim,delta,start", [(1, 1.0, 0), (2, 0.6, 300), (3, 1.0, 17)])
def test_pruned_sups_of_long_paths_sum_few_nodes(monkeypatch, dim, delta, start):
    grid, rows = fbm_rows(3, n=2048, dim=dim)
    level = np.linalg.norm(rows[:, start:], axis=-1)
    summed = []

    def counted(*args):
        summed.append(len(args[-3]))  # the nodes j of one round
        return continued(*args)

    continued = _singular._continued
    monkeypatch.setattr(_singular, "_continued", counted)
    got = backward_increment_sups(rows, ALPHA + 1.0, grid.h, delta, start, level)
    want = full_sweep_sups(rows, ALPHA + 1.0, grid.h, delta, start, level, None)
    assert np.array_equal(got, want)
    assert sum(summed) < 0.05 * rows.shape[0] * (grid.n_nodes - start)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 40)),
    row_bytes=st.sampled_from([1, 64, _singular._BLOCK_BYTES]),
    data=st.data(),
)
def test_raise_to_exact_sums_once_each_node_that_can_beat_the_best(shape, row_bytes, data):
    # few levels, so bounds tie each other and the best; row_bytes 1 lets k
    # outgrow a row at once, _BLOCK_BYTES holds it at 1 node a round
    n_rows, n = shape

    def table(elements):
        return np.array(data.draw(st.lists(
            st.lists(elements, min_size=n, max_size=n), min_size=n_rows, max_size=n_rows
        )), dtype=float)

    exact = table(st.integers(0, 4))
    bound = exact + table(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 3.0, 5.5]))
    overflow = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    bound[overflow] = -np.inf  # exact values there may be anything
    best0 = np.array(data.draw(st.lists(
        st.sampled_from([-np.inf, 0.0, 2.0, 3.5, 9.0]), min_size=n_rows, max_size=n_rows
    )))
    best, visits = best0.copy(), []

    def evaluate(r, k):
        # best holds the round's starting values until the round's exact sums return
        assert np.all(bound[r, k] > best[r])
        nodes = list(zip(r.tolist(), k.tolist()))
        assert len(set(nodes)) == len(nodes) and not set(nodes) & set(visits)
        visits.extend(nodes)
        for row in set(r.tolist()):  # a row's largest bounds go first
            rest = np.ones(n, bool)
            rest[[j for i, j in visits if i == row]] = False
            assert bound[row, k[r == row]].min() >= bound[row, rest].max(initial=-np.inf)
        return exact[r, k]

    _singular._raise_to_exact(best, bound.copy(), evaluate, row_bytes)
    want = np.where(overflow, best0, np.maximum(best0, exact.max(axis=1)))
    assert np.array_equal(best, want)
    idle = overflow | (bound.max(axis=1) <= best0)
    assert not any(idle[r] for r, _ in visits)
    assert set(zip(*np.nonzero(bound > best[:, None]))) <= set(visits)


@pytest.mark.parametrize("dim,signed", [(1, True), (1, False), (2, False)])
def test_anchored_sweep_equals_the_per_anchor_loop(monkeypatch, dim, signed):
    c = 1.0 - ALPHA if signed else 1.0
    # n = 1 and 2 steps, then 40 steps in one block and in blocks of two rows
    for n, rows_per_block in [(1, None), (2, None), (40, None), (40, 2)]:
        rows = np.random.default_rng(n).standard_normal((5, n + 1, dim)).cumsum(axis=1)
        if rows_per_block is not None:
            monkeypatch.setattr(_singular, "_BLOCK_BYTES", rows_per_block * rows[0].nbytes)
        got = anchored_sweep(rows, ALPHA, 1.0 / n, c, signed=signed)
        ref = [per_anchor_sweep(r, ALPHA, 1.0 / n, c, signed) for r in rows]
        assert np.array_equal(got, ref), (n, rows_per_block)


def lag_sweep(values, alpha, h, c, signed):
    """Every lag over every anchor: the sweep the pruned anchored sups must equal."""
    rows, batch = _singular._as_rows(values)
    N = rows.shape[-1] - 1
    inv_denom = (np.arange(1, N + 1) * h) ** (alpha - 1.0)
    best = np.zeros(len(rows))
    for L, psi, K in _singular._forward_lags(rows, 2.0 - alpha, h, signed):
        val = K * c
        val += psi * inv_denom[L - 1]
        np.maximum(best, np.abs(val, out=val).max(axis=1), out=best)
    return nan_free_rows_read_inf(best.reshape(batch), values)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(2, 90), st.sampled_from([1, 2, 3])),
    kind=st.sampled_from(["walk", "constant", "alternating", "spike-first", "spike-last"]),
    poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pruned_anchored_sweep_equals_the_lag_sweep(shape, kind, poison, signed, seed, data):
    n_rows, n_nodes, d = shape
    if signed:
        d = 1
    rows = np.random.default_rng(seed).standard_normal((n_rows, n_nodes, d)).cumsum(axis=1)
    if kind == "constant":
        rows[:] = rows[:, :1]
    elif kind == "alternating":  # loose bounds everywhere: nothing prunes
        rows *= np.where(np.arange(n_nodes) % 2, 1.0, -1.0)[:, None] / np.abs(rows)
    elif kind == "spike-first":  # the sup sits at the first anchor
        rows[:, 0] += 50.0
    elif kind == "spike-last":  # ... or at the last pair
        rows[:, -1] += 50.0
    if poison is not None:
        rows[data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, n_nodes - 1))] = poison
    h = 1.0 / n_nodes
    c = (1.0 - ALPHA) if signed else data.draw(st.sampled_from([0.0, 1.0]))
    # short rows prune too, and blocks hold from one row to all of them; an
    # inf row makes inf - inf in the lag sweep
    with mock.patch.object(_singular, "_ANCHORED_MIN_NODES", 2), \
            mock.patch.object(_singular, "_BLOCK_BYTES", data.draw(st.integers(1, 4 * rows.nbytes))):
        with np.errstate(invalid="ignore"):
            want = lag_sweep(rows, ALPHA, h, c, signed)
        got = anchored_sweep(rows, ALPHA, h, c, signed)
    assert got.shape == (n_rows,)
    assert np.array_equal(got, want, equal_nan=True)


@settings(max_examples=80, deadline=None)
@given(
    n_nodes=st.integers(2, 120),
    d=st.sampled_from([1, 2, 3]),
    kind=st.sampled_from(["walk", "spike", "knee", "alternating"]),
    c=st.sampled_from([0.0, 1.0 - ALPHA, 1.0, 1000.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_anchored_bounds_dominate_every_anchor(n_nodes, d, kind, c, seed, data):
    # each anchor's own tail must stay under its bound, not only the row's max:
    # a spike at lag 15 is weighted by P at lag 16 (the box's extra node), and
    # a ramp whose knee is a piece's first lag puts the max there (the piece's
    # largest (t-s)^(alpha-1))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_nodes, d)).cumsum(axis=0)
    at = data.draw(st.integers(0, n_nodes - 1))
    if kind == "spike":
        rows = np.zeros((n_nodes, d))
        rows[at] = 50.0
    elif kind == "knee":
        rows = np.minimum(np.arange(n_nodes), at)[:, None] * rng.standard_normal(d)
    elif kind == "alternating":
        rows = np.where(np.arange(n_nodes) % 2, 1.0, -1.0)[:, None] * np.ones(d)
    signed = d == 1 and data.draw(st.booleans())
    v = rows[None, :, 0] if d == 1 else np.ascontiguousarray(rows.T)[None]
    h, N = 1.0 / n_nodes, n_nodes - 1
    H = min(_singular._HEAD_LAGS, N)
    inv_denom = (np.arange(1, N + 1) * h) ** (ALPHA - 1.0)
    P, Q = hat_weights(2.0 - ALPHA, h, N)
    _best, K_head = _singular._swept_max(v, inv_denom, ALPHA, h, c, signed, last=H)
    bound = _singular._anchored_bounds(v, K_head, inv_denom, P, Q, c, H)
    assert np.all(bound[0] >= per_anchor_maxima(rows, ALPHA, h, c, signed, skip=H))


@pytest.mark.parametrize("dim", [1, 2])
def test_pruned_anchored_sweeps_of_long_paths_sum_few_anchors(monkeypatch, dim):
    grid, rows = fbm_rows(3, n=2048, dim=dim)
    summed = []

    def counted(*args):
        summed.append(len(args[-2]))  # the anchors s of one round
        return tails(*args)

    tails = _singular._anchored_tails
    monkeypatch.setattr(_singular, "_anchored_tails", counted)
    comps = np.moveaxis(rows, -1, -2)[..., None]  # lambda_alpha's signed scalar rows
    for values, c, signed in [(comps, 1.0 - ALPHA, True), (rows, 1.0, False)]:
        summed.clear()
        got = anchored_sweep(values, ALPHA, grid.h, c, signed)
        assert np.array_equal(got, lag_sweep(values, ALPHA, grid.h, c, signed))
        assert sum(summed) < 0.01 * got.size * grid.n_main


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(2, 19),
    lo=st.integers(-560, 520),
    width=st.integers(0, 1000),
    seed=st.integers(0, 2**32 - 1),
)
def test_plain_sums_give_the_scaled_bits_where_plain_sums_holds(d, lo, width, seed):
    # components spread over up to 1000 binades, some zero, near both ends of
    # the plain range: where _plain_sums admits the values, the unscaled sum of
    # squares must give the scaled rule's bits on them and on every difference
    rng = np.random.default_rng(seed)
    values = np.ldexp(rng.uniform(-1.0, 1.0, (24, d)), rng.integers(lo, min(lo + width, 520) + 1, (24, d)))
    values[rng.random((24, d)) < 0.1] = 0.0
    if _singular._plain_sums(values, d):
        for x in [values] + [values[l:] - values[:-l] for l in range(1, 24)]:
            assert np.array_equal(_singular._magnitude(x, -1, plain=True), _singular._magnitude(x, -1))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scale", [1e300, 1e306, 1e307, 1.5e308])
def test_finite_rows_whose_bounds_overflow_equal_the_full_sweep(monkeypatch, dim, scale):
    # rows 0 and 2 are finite but so large that a bound, a head sum or a
    # square can overflow; those rows leave their pruned block for the full
    # sweep, and row 1 in the same block stays pruned
    grid, rows = fbm_rows(3, n=255, dim=dim)
    rows /= np.abs(rows).max(axis=(1, 2), keepdims=True)
    rows[::2] *= scale
    assert np.isfinite(rows).all()
    lags = np.arange(1, grid.n_nodes)
    swept = []

    def counted_kernel(values, *args):
        swept.extend(["nodes"] * len(np.reshape(values, (-1,) + np.shape(values)[-2:])))
        return kernel(values, *args)

    def counted_sweep(v, *args, last=None):
        if last is None:
            swept.extend(["anchors"] * len(v))
        return sweep(v, *args, last=last)

    def counted_lags(values, some):
        if len(some) == len(lags):
            swept.append("lags")
        return lag_sups(values, some)

    kernel, sweep, lag_sups = backward_increment_integrals, _singular._swept_max, _singular.lag_sups
    monkeypatch.setattr(_singular, "backward_increment_integrals", counted_kernel)
    monkeypatch.setattr(_singular, "_swept_max", counted_sweep)
    monkeypatch.setattr(_singular, "lag_sups", counted_lags)
    comps = np.moveaxis(rows, -1, -2)[..., None]
    sups = []
    with np.errstate(over="ignore", invalid="ignore"):
        got = backward_increment_sups(rows, ALPHA + 1.0, grid.h)
        want = full_sweep_sups(rows, ALPHA + 1.0, grid.h, 1.0, 0, None, None)
        assert np.array_equal(got, want, equal_nan=True)
        sups.append(got)
        for values, c, signed in [(comps, 1.0 - ALPHA, True), (rows, 1.0, False)]:
            got = anchored_sweep(values, ALPHA, grid.h, c, signed)
            want = lag_sweep(values, ALPHA, grid.h, c, signed)
            assert np.array_equal(got, want)
            sups.append(got.ravel())
        for v in rows:
            every_lag = np.max(lag_sups(v, lags) / (lags * grid.h) ** 0.7, initial=0.0)
            got = _singular.holder_seminorm(v, 0.7, grid.h)
            assert got == every_lag
            sups.append([got])
    assert not np.isnan(np.concatenate(sups)).any()  # a finite row reads finite or inf
    if scale == 1.5e308:  # every sup of each scaled row overflows, of row 1 none
        assert sorted(swept) == ["anchors"] * (2 + 2 * dim) + ["lags"] * 2 + ["nodes"] * 2


@pytest.mark.parametrize("n", [2, 3, 48])
def test_lag_swept_iterated_integrals_match_the_dense_matrix(n):
    grid, rows = fbm_rows(1, n=n)
    fv = rows[0, :, 0]
    Psi = dense_forward_matrix(fv, ALPHA + 1.0, grid.h)
    # the running K of every lag is the forward matrix's L-th diagonal, bit for bit
    lags = _singular._forward_lags(fv[None], ALPHA + 1.0, grid.h, signed=False)
    for L, _psi, K in lags:
        assert np.array_equal(K[0], np.diagonal(Psi, L))
    ref = dense_backward_matrix_sum(Psi.T, ALPHA, grid.h)
    got = iterated_increment_integrals(fv[:, None], ALPHA, grid.h)
    assert got[0] == ref[0] == 0.0
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
    # a batch of three paths, each row against its own dense matrix
    grid, rows = fbm_rows(3, n=n)
    batch = iterated_increment_integrals(rows, ALPHA, grid.h)
    assert batch.shape == (3, n + 1)
    assert np.array_equal(batch[0], got)
    for v, row in zip(rows[..., 0], batch):
        Psi = dense_forward_matrix(v, ALPHA + 1.0, grid.h)
        ref = dense_backward_matrix_sum(Psi.T, ALPHA, grid.h)
        np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 48])
def test_profile_integrals_match_the_dense_rule(n):
    grid, rows = fbm_rows(3, n=n)
    profiles = np.abs(rows[..., 0])
    got = backward_profile_integrals(profiles, 2.0 * ALPHA, grid.h)
    assert got.shape == (3, n + 1)
    for p, row in zip(profiles, got):
        ref = dense_backward_matrix_sum(np.tile(p, (n + 1, 1)), 2.0 * ALPHA, grid.h)
        assert row[0] == ref[0] == 0.0
        np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0.0)


def test_a_batch_of_no_paths_gives_empty_results():
    for shape in [(0, 5, 1), (2, 0, 5, 3)]:
        rows = np.zeros(shape)
        batch = shape[:-2]
        assert backward_increment_integrals(rows, ALPHA + 1.0, 0.25).shape == batch + (5,)
        assert anchored_sweep(rows, ALPHA, 0.25, 1.0, signed=False).shape == batch
        assert alpha_infty_rows(rows, ALPHA, 0.25).shape == batch
        assert lambda_alpha_rows(rows, ALPHA, 0.25).shape == batch


def test_signed_sweeps_reject_vector_rows():
    _grid, rows = fbm_rows(1, dim=2)
    with pytest.raises(ValueError, match="scalar-only"):
        anchored_sweep(rows, ALPHA, 0.1, 1.0)
