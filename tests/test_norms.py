"""Closed-form oracles and structural properties of the norm family.

Reference values below are hand-derived for simple paths on [0, 1]:

* f(t) = t, alpha = 0.3:
    - sup-type norm:      1 + 1/(1 - a)              = 17/7
    - Hoelder (mu = 0.7): 1 + 1                      = 2
    - driver functional:  1 / (Gamma(0.7) Gamma(1.3))
    - (1 - a)-type norm:  1 + 1/a                    = 13/3
    - integral norm:      1/(1 - a)                  = 10/7
    - increment func.:    1/(1 - a)                  = 10/7
* f(t) = t^2, alpha = 0.3: sup-type norm = 1 + 2/(1-a) - 1/(2-a).
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as Gamma

import sddelab
from sddelab import _singular, norms
from sddelab.grids import TimeGrid
from sddelab.norms import NormReport
from sddelab import (
    FbmConfig,
    SamplePath,
    compute_norm_report,
    delta_r,
    generate_fbm,
    lambda_alpha,
    make_grid,
    norm_1ma_infty_T,
    norm_alpha_1,
    norm_alpha_infty,
    norm_alpha_lambda,
    norm_holder,
    weyl_derivative,
)

ALPHA = 0.3


def ramp(n=4096, T=1.0, r=0.0):
    return SamplePath.from_function(make_grid(T, n, r), lambda t: t)


def test_sup_norm_of_ramp_matches_closed_form():
    value = norm_alpha_infty(ramp(), ALPHA)
    assert value == pytest.approx(1.0 + 1.0 / 0.7, rel=1e-12)


def test_sup_norm_of_square_matches_closed_form():
    f = SamplePath.from_function(make_grid(1.0, 4096), lambda t: t * t)
    truth = 1.0 + 2.0 / 0.7 - 1.0 / 1.7
    assert norm_alpha_infty(f, ALPHA) == pytest.approx(truth, rel=1e-5)


def test_sup_norm_error_decays_at_first_order():
    truth = 1.0 + 2.0 / 0.7 - 1.0 / 1.7
    errs = []
    for n in (256, 512, 1024):
        f = SamplePath.from_function(make_grid(1.0, n), lambda t: t * t)
        errs.append(abs(norm_alpha_infty(f, ALPHA) - truth))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.0)


def test_holder_norm_of_ramp():
    assert norm_holder(ramp(), 0.7) == pytest.approx(2.0, rel=1e-12)
    # exponent 1 recovers sup + Lipschitz seminorm
    assert norm_holder(ramp(), 1.0) == pytest.approx(2.0, rel=1e-12)


def test_constant_path_norms():
    grid = make_grid(1.0, 512)
    c = SamplePath.from_function(grid, lambda t: -2.0)
    assert norm_alpha_infty(c, ALPHA) == pytest.approx(2.0)
    assert norm_holder(c, 0.7) == pytest.approx(2.0)
    assert norm_1ma_infty_T(c, ALPHA) == 0.0
    assert lambda_alpha(c, ALPHA) == 0.0
    assert delta_r(c, ALPHA, 1.0) == 0.0
    assert norm_alpha_1(c, ALPHA) == pytest.approx(2.0 / 0.7, rel=1e-3)


def test_driver_functional_of_ramp_matches_closed_form():
    truth = 1.0 / (Gamma(0.7) * Gamma(1.3))
    assert lambda_alpha(ramp(), ALPHA) == pytest.approx(truth, rel=1e-12)


def test_one_minus_alpha_norm_of_ramp():
    assert norm_1ma_infty_T(ramp(), ALPHA) == pytest.approx(1.0 + 1.0 / ALPHA, rel=1e-12)


def test_integral_norm_of_ramp():
    # the two terms telescope: 1/(2-a) + 1/((1-a)(2-a)) = 1/(1-a)
    assert norm_alpha_1(ramp(), ALPHA) == pytest.approx(1.0 / 0.7, rel=1e-5)


def test_increment_functional_of_ramp():
    assert delta_r(ramp(), ALPHA, 1.0) == pytest.approx(1.0 / 0.7, rel=1e-12)


def test_increment_functional_rejects_bad_exponents():
    f = ramp(64)
    with pytest.raises(ValueError):
        delta_r(f, ALPHA, delta=1.5)
    with pytest.raises(ValueError):
        delta_r(f, 0.45, delta=0.8)  # needs alpha < delta / (1 + delta)


def test_weyl_derivative_of_ramp_is_signed_closed_form():
    g = ramp(1024)
    for s, t in [(0.0, 1.0), (0.25, 0.75), (0.5, 1.0)]:
        truth = -((t - s) ** ALPHA) / Gamma(1.0 + ALPHA)
        assert weyl_derivative(g, ALPHA, s, t) == pytest.approx(truth, rel=1e-10)


def test_weighted_norm_with_zero_weight_equals_sup_norm():
    f = ramp(512)
    assert norm_alpha_lambda(f, ALPHA, 0.0) == pytest.approx(
        norm_alpha_infty(f, ALPHA), rel=1e-14
    )


@pytest.mark.parametrize("lam", [-1.0, np.inf, np.nan])
def test_weighted_norm_rejects_a_negative_or_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda"):
        norm_alpha_lambda(ramp(64), ALPHA, lam)


def test_weighted_norm_of_ramp_matches_continuum_maximum():
    # independent oracle: maximize the closed-form profile e^{-lam t}(t + t^0.7/0.7)
    lam = 3.0
    ts = np.linspace(1e-9, 1.0, 2_000_001)
    truth = np.max(np.exp(-lam * ts) * (ts + ts ** 0.7 / 0.7))
    assert norm_alpha_lambda(ramp(), ALPHA, lam) == pytest.approx(truth, rel=1e-4)


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 25.0])
def test_weighted_norm_two_sided_equivalence(lam, rough_driver):
    f = rough_driver
    T = f.grid.t_end
    plain = norm_alpha_infty(f, ALPHA)
    weighted = norm_alpha_lambda(f, ALPHA, lam)
    assert weighted <= plain * (1.0 + 1e-12)
    assert weighted >= math.exp(-lam * T) * plain * (1.0 - 1e-12)


def test_weighted_norm_decreases_in_the_weight(rough_driver):
    lams = [0.0, 1.0, 2.0, 8.0, 32.0]
    vals = [norm_alpha_lambda(rough_driver, ALPHA, lam) for lam in lams]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_history_start_enters_the_sup_norm():
    # with history, the time integral reaches back to -r and the sup covers it
    f_hist = SamplePath.from_function(make_grid(1.0, 64, 0.25), lambda t: t)
    f_main = SamplePath.from_function(make_grid(1.0, 64), lambda t: t)
    assert norm_alpha_infty(f_hist, ALPHA) > norm_alpha_infty(f_main, ALPHA)
    # restricting the window to r = 0 recovers the main-grid value
    assert norm_alpha_infty(f_hist, ALPHA, r=0.0) == pytest.approx(
        norm_alpha_infty(f_main, ALPHA), rel=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    c=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
)
def test_norms_are_absolutely_homogeneous(seed, c):
    grid = make_grid(1.0, 128)
    g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=seed))
    scaled = SamplePath(grid, g.values * c)
    for functional in (
        lambda p: norm_alpha_infty(p, ALPHA),
        lambda p: norm_holder(p, 0.7),
        lambda p: norm_alpha_lambda(p, ALPHA, 2.0),
        lambda p: lambda_alpha(p, ALPHA),
        lambda p: norm_1ma_infty_T(p, ALPHA),
        lambda p: norm_alpha_1(p, ALPHA),
        lambda p: delta_r(p, ALPHA, 1.0),
    ):
        assert functional(scaled) == pytest.approx(
            abs(c) * functional(g), rel=1e-10, abs=1e-12
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_norms_satisfy_the_triangle_inequality(seed):
    grid = make_grid(1.0, 128)
    f = generate_fbm(grid, FbmConfig(hurst=0.75, seed=seed))
    g = generate_fbm(grid, FbmConfig(hurst=0.6, seed=seed + 1))
    both = SamplePath(grid, f.values + g.values)
    for functional in (
        lambda p: norm_alpha_infty(p, ALPHA),
        lambda p: norm_holder(p, 0.7),
        lambda p: norm_alpha_lambda(p, ALPHA, 2.0),
        lambda p: lambda_alpha(p, ALPHA),
        lambda p: norm_1ma_infty_T(p, ALPHA),
        lambda p: norm_alpha_1(p, ALPHA),
        lambda p: delta_r(p, ALPHA, 1.0),
    ):
        lhs = functional(both)
        rhs = functional(f) + functional(g)
        assert lhs <= rhs * (1.0 + 1e-10) + 1e-12


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_driver_functional_dominates_sampled_derivatives(seed, data):
    grid = make_grid(1.0, 256)
    g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=seed))
    bound = lambda_alpha(g, ALPHA)
    times = grid.times()
    i = data.draw(st.integers(min_value=0, max_value=254))
    j = data.draw(st.integers(min_value=i + 1, max_value=255))
    sample = abs(weyl_derivative(g, ALPHA, times[i], times[j])) / Gamma(1.0 - ALPHA)
    assert sample <= bound * (1.0 + 1e-10)


def test_norm_report_collects_every_functional():
    # every field equals its standalone functional exactly, for each start and delta
    grid = make_grid(1.0, 256, 0.25)
    walk = np.random.default_rng(3).standard_normal(grid.n_nodes).cumsum()
    f = SamplePath(grid, walk * grid.h ** 0.75)
    for r, delta in itertools.product((None, 0.0, 0.25), (1.0, 0.8)):
        rep = compute_norm_report(f, ALPHA, lam=2.0, delta=delta, r=r)
        assert rep == NormReport(
            alpha=ALPHA,
            lam=2.0,
            delta=delta,
            r=0.25 if r is None else r,
            norm_alpha_infty=norm_alpha_infty(f, ALPHA, r),
            norm_holder=norm_holder(f, 1.0 - ALPHA, r),
            norm_alpha_lambda=norm_alpha_lambda(f, ALPHA, 2.0, r),
            lambda_alpha=lambda_alpha(f, ALPHA),
            delta_r=delta_r(f, ALPHA, delta, r),
            norm_1ma=norm_1ma_infty_T(f, ALPHA),
            norm_alpha_1=norm_alpha_1(f, ALPHA),
        ), (r, delta)
        assert np.isfinite(dataclasses.astuple(rep)).all()


def test_norm_report_takes_driver_functionals_from_the_driver(rough_driver):
    f = ramp(512)
    rep = compute_norm_report(f, ALPHA, driver=rough_driver)
    assert rep.lambda_alpha == pytest.approx(lambda_alpha(rough_driver, ALPHA))
    assert rep.norm_1ma == pytest.approx(norm_1ma_infty_T(rough_driver, ALPHA))


def test_a_nan_node_poisons_the_driver_functionals():
    g = generate_fbm(make_grid(1.0, 64), FbmConfig(hurst=0.75, seed=0))
    vals = g.values.copy()
    vals[17, 0] = np.nan
    bad = SamplePath(g.grid, vals)
    assert math.isnan(lambda_alpha(bad, ALPHA))
    assert math.isnan(norm_1ma_infty_T(bad, ALPHA))
    assert math.isnan(norm_alpha_infty(bad, ALPHA))


def test_gamma_port_equals_scipy_bit_for_bit():
    x = np.concatenate([
        np.linspace(0.0, 1.0, 200_001)[1:-1],
        [5e-324, 1e-12, 1e-9, 2e-9, np.nextafter(1.0, 0.0), 1.0, 1.5, 2.0, 2.5, 3.0, 7.25, 32.5],
    ])
    assert np.array_equal([norms._gamma(v) for v in x], Gamma(x))


def test_importing_the_package_loads_no_scipy():
    # scipy is a test dependency only: neither the package nor its CLI may load it
    src = str(Path(sddelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, sddelab, sddelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def every_lag_holder(values, mu, h):
    """Every lag reduced: the seminorm the pruned one must equal."""
    lags = np.arange(1, values.shape[0])
    return float(np.max(_singular.lag_sups(values, lags) / (lags * h) ** mu, initial=0.0))


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 200), st.sampled_from([1, 2, 3])),
    kind=st.sampled_from(["walk", "constant", "alternating", "ramp", "spike-first", "spike-last"]),
    poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    mu=st.sampled_from([0.3, 0.7, 1.0]),
    h=st.sampled_from([None, 1e-3, 2.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pruned_holder_seminorm_equals_the_every_lag_max(shape, kind, poison, mu, h, seed, data):
    n_rows, n_nodes, d = shape
    values = np.random.default_rng(seed).standard_normal(shape).cumsum(axis=1)
    if kind == "constant":
        values[:] = values[:, :1]
    elif kind == "alternating":  # the sup sits at lag 1
        values = np.where(np.arange(n_nodes) % 2, 1.0, -1.0)[:, None] * np.ones(shape)
    elif kind == "ramp":  # for mu < 1 the sup sits at the last lag, for mu = 1 every lag ties
        values = np.arange(n_nodes)[:, None] * values[:, :1]
    elif kind == "spike-first":
        values[:, 0] += 50.0
    elif kind == "spike-last":
        values[:, -1] += 50.0
    if poison is not None:
        values[tuple(data.draw(st.integers(0, k - 1)) for k in shape)] = poison
    h = 1.0 / n_nodes if h is None else h
    # a batch of paths, in pruned blocks of one row up to all of them
    with mock.patch.object(_singular, "_BLOCK_BYTES", data.draw(st.integers(1, 4 * values.nbytes))):
        got = _singular.holder_seminorm(values, mu, h)
    assert got.shape == (n_rows,)
    assert np.array_equal(got, [every_lag_holder(v, mu, h) for v in values], equal_nan=True)


@pytest.mark.parametrize("dim", [1, 2])
def test_pruned_holder_seminorm_of_long_paths_reduces_few_lags(monkeypatch, dim):
    grid = make_grid(1.0, 2048)
    paths = [generate_fbm(grid, FbmConfig(hurst=0.75, dim=dim, seed=11), index=i).values for i in range(3)]
    want = [every_lag_holder(v, 0.7, grid.h) for v in paths]
    reduced = []

    def counted(v, lags, plain):
        reduced.append(len(v) * len(lags))  # (row, lag) pairs
        return lag_maxima(v, lags, plain)

    lag_maxima = _singular._lag_maxima
    monkeypatch.setattr(_singular, "_lag_maxima", counted)
    assert [_singular.holder_seminorm(v, 0.7, grid.h) for v in paths] == want
    assert sum(reduced) < 0.5 * len(paths) * grid.n_main
    assert _singular.holder_seminorm(np.stack(paths), 0.7, grid.h).tolist() == want


#: every positively homogeneous functional of the family, at delta = 1 and lambda = 0
HOMOGENEOUS = {
    "norm_alpha_infty": lambda f: norm_alpha_infty(f, ALPHA),
    "norm_alpha_lambda": lambda f: norm_alpha_lambda(f, ALPHA, 0.0),
    "norm_holder": lambda f: norm_holder(f, 1.0 - ALPHA),
    "norm_alpha_1": lambda f: norm_alpha_1(f, ALPHA),
    "lambda_alpha": lambda f: lambda_alpha(f, ALPHA),
    "norm_1ma": lambda f: norm_1ma_infty_T(f, ALPHA),
    "delta_r": lambda f: delta_r(f, ALPHA, 1.0),
    "sup_norm": lambda f: f.sup_norm(),
}


def normal_exponents(values, results):
    """(lo, hi): the k for which the nodes, the nonzero increments and the
    results of 2^k values are all normal doubles."""
    gaps = np.diff(np.sort(values, axis=0), axis=0)  # the smallest nonzero increments
    small = np.concatenate([np.abs(values[values != 0]), gaps[gaps > 0], results[results > 0]])
    large = np.concatenate([np.abs(values).ravel(), np.ptp(values, axis=0), results])
    lo = -1022 - (int(np.frexp(small.min())[1]) - 1)  # 2^lo small.min() >= 2^-1022
    hi = 1023 - (int(np.frexp(large.max())[1]) - 1)  # 2^hi large.max() < 2^1024
    return lo, hi


@settings(max_examples=40, deadline=None)
@given(
    n_main=st.integers(1, 60).map(lambda m: 4 * m),  # node sups prune from 160 nodes, anchored ones from 64
    d=st.sampled_from([1, 2, 3]),
    r=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_scaling_a_path_by_a_power_of_two_scales_every_functional_exactly(n_main, d, r, seed, data):
    # scaling by 2^k is exact in binary64, so a homogeneous functional must
    # return exactly 2^k times its value wherever the inputs and result are normal
    grid = make_grid(1.0, n_main, r)
    values = np.random.default_rng(seed).standard_normal((grid.n_nodes, d)).cumsum(axis=0) / np.sqrt(n_main)
    f = SamplePath(grid, values)
    want = {name: fn(f) for name, fn in HOMOGENEOUS.items()}
    lo, hi = normal_exponents(values, np.array(list(want.values())))
    k = data.draw(st.integers(lo, hi), label="k")
    scaled = SamplePath(grid, np.ldexp(values, k))
    got = {name: fn(scaled) for name, fn in HOMOGENEOUS.items()}
    assert got == {name: float(np.ldexp(v, k)) for name, v in want.items()}


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    n=st.sampled_from([64, 300]),
    history=st.sampled_from([0, 16]),
    dim=st.sampled_from([1, 2]),
)
def test_norms_are_invariant_under_a_time_shift(seed, shift, n, history, dim):
    # 300 steps prune every sup; the e^(-lambda t) weight reads the clock, so
    # the weighted norm is shift-invariant only at lambda = 0
    grid = make_grid(1.0, n, history / n)
    walk = np.random.default_rng(seed).standard_normal((grid.n_nodes, dim)).cumsum(axis=0)
    f = SamplePath(grid, walk * grid.h ** 0.75)
    # the same nodes, h, T and r on a clock moved by shift
    moved_grid = TimeGrid(grid.t_start + shift, grid.t_end + shift, grid.n_history, grid.n_main, grid.h)
    moved = SamplePath(moved_grid, f.values)
    for functional in (
        lambda p: norm_alpha_infty(p, ALPHA),
        lambda p: norm_alpha_infty(p, ALPHA, p.grid.r),
        lambda p: norm_holder(p, 0.7),
        lambda p: norm_holder(p, 0.7, 0.0),
        lambda p: norm_alpha_lambda(p, ALPHA, 0.0),
        lambda p: lambda_alpha(p, ALPHA),
        lambda p: norm_1ma_infty_T(p, ALPHA),
        lambda p: norm_alpha_1(p, ALPHA),
        lambda p: delta_r(p, ALPHA, 0.8),
    ):
        assert functional(moved) == functional(f)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_nan_node_gives_nan_holder_and_integral_norms(n, dim, seed, data):
    # up to 16 nodes every Hoelder lag is in the exact head; longer finite
    # paths bound pieces of lags, which a NaN node must not do, and
    # norm_alpha_1 always takes the full sweep
    grid = make_grid(1.0, n)
    vals = np.random.default_rng(seed).standard_normal((grid.n_nodes, dim)).cumsum(axis=0)
    vals[data.draw(st.integers(0, n)), data.draw(st.integers(0, dim - 1))] = np.nan
    bad = SamplePath(grid, vals)
    assert math.isnan(norm_holder(bad, 0.7))
    assert math.isnan(norm_alpha_1(bad, ALPHA))


@pytest.mark.parametrize("n, scale", [(2, 1.0), (3, 1e-300), (257, 1.0), (4096, 1e300)])
def test_norm_alpha_1_sums_its_increment_term_as_numpy_trapezoid_does(n, scale):
    # norm_alpha_1 spells out numpy's trapezoid formula; numpy < 2 names the
    # reference trapz, which a numpy 1.x run checks here
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    grid = make_grid(1.0, n)
    f = SamplePath(grid, scale * np.random.default_rng(n).standard_normal((grid.n_nodes, 1)))
    term1 = _singular.cumulative_from_zero(np.abs(f.values[:, 0]), ALPHA, grid.h)[-1]
    E = _singular.backward_increment_integrals(f.values, ALPHA + 1.0, grid.h, start=0)
    want = float(term1) + float(trapezoid(E, dx=grid.h))
    assert math.isfinite(want)
    assert norm_alpha_1(f, ALPHA) == want


#: non-finite nodes of a 65-node ramp, by index
NON_FINITE = {
    "one-inf": {20: np.inf},
    "two-infs": {20: np.inf, 30: np.inf},
    "inf-pair": {20: np.inf, 30: -np.inf},
    "nan": {20: np.nan},
}


@pytest.mark.filterwarnings("error")
def test_a_non_finite_node_reads_nan_or_inf_without_a_warning():
    # a NaN node reads NaN, inf nodes without one read inf, also where two
    # infs meet as inf - inf, and nothing warns
    f = ramp(64)
    functionals = dict(
        HOMOGENEOUS,
        norm_alpha_lambda=lambda f: norm_alpha_lambda(f, ALPHA, 1.0),
        delta_r=lambda f: delta_r(f, ALPHA, 0.8),
    )
    for case, nodes in NON_FINITE.items():
        vals = f.values.copy()
        vals[list(nodes), 0] = list(nodes.values())
        bad = SamplePath(f.grid, vals)
        want = "nan" if case == "nan" else "inf"
        got = {name: str(fn(bad)) for name, fn in functionals.items()}
        assert got == dict.fromkeys(functionals, want), case
