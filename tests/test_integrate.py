"""Left-point pathwise integration and the two bound audits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddelab import (
    FbmConfig,
    GridMismatchError,
    PathWindow,
    SamplePath,
    generate_fbm,
    left_point_accumulate,
    lambda_alpha,
    make_grid,
    norm_alpha_1,
    nr_bounds_rows,
    shift_by_delay,
    sigma_increment_rows,
    young_integral,
)
from sddelab import _singular

ALPHA = 0.3


def test_integrating_one_reproduces_driver_increments(rough_driver):
    one = SamplePath.from_function(rough_driver.grid, lambda t: 1.0)
    res = young_integral(one, rough_driver)
    assert np.array_equal(res.path.values[:, 0], rough_driver.values[:, 0])


def test_a_scalar_integrand_integrates_each_driver_component_on_its_own():
    grid = make_grid(1.0, 256)
    f = generate_fbm(grid, FbmConfig(hurst=0.7, seed=5))
    g = generate_fbm(grid, FbmConfig(hurst=0.6, dim=2, seed=6))
    both = young_integral(f, g)
    assert both.certificate is None and both.path.values.shape == (257, 2)
    for c in range(2):
        alone = young_integral(f, SamplePath(grid, g.values[:, c]))
        assert np.array_equal(both.path.values[:, c], alone.path.values[:, 0])


def test_integral_is_linear_in_the_integrand(rough_driver):
    grid = rough_driver.grid
    f1 = SamplePath.from_function(grid, lambda t: np.sin(t))
    f2 = SamplePath.from_function(grid, lambda t: t * t)
    combo = SamplePath(grid, 2.0 * f1.values - 3.0 * f2.values)
    lhs = young_integral(combo, rough_driver).path.values
    rhs = (
        2.0 * young_integral(f1, rough_driver).path.values
        - 3.0 * young_integral(f2, rough_driver).path.values
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_integral_is_additive_in_the_driver(rough_driver):
    grid = rough_driver.grid
    g2 = generate_fbm(grid, FbmConfig(hurst=0.8, seed=21))
    f = SamplePath.from_function(grid, lambda t: 1.0 + t)
    lhs = young_integral(f, SamplePath(grid, rough_driver.values + g2.values)).path.values
    rhs = (
        young_integral(f, rough_driver).path.values
        + young_integral(f, g2).path.values
    )
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_chain_rule_for_smooth_driver():
    # d(g^2/2) = g dg holds exactly in the limit; for g in C^1 the
    # left-point sum converges at first order
    errs = []
    for n in (128, 256, 512):
        grid = make_grid(1.0, n)
        g = SamplePath.from_function(grid, lambda t: np.sin(3.0 * t))
        got = young_integral(g, g).path.values[-1, 0]
        truth = 0.5 * np.sin(3.0) ** 2
        errs.append(abs(got - truth))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 5e-3
    assert np.all(orders > 0.8)


def test_chain_rule_for_rough_driver(rough_driver):
    got = young_integral(rough_driver, rough_driver).path.values[-1, 0]
    truth = 0.5 * rough_driver.values[-1, 0] ** 2
    assert abs(got - truth) / max(1.0, abs(truth)) < 0.05


def test_certificate_bounds_the_endpoint(rough_driver):
    res = young_integral(rough_driver, rough_driver, alpha=ALPHA)
    cert = res.certificate
    assert cert is not None
    assert cert.satisfied
    assert cert.measured <= cert.bound * (1.0 + 1e-9)
    assert cert.lambda_alpha == pytest.approx(lambda_alpha(rough_driver, ALPHA))
    assert cert.norm_alpha_1 == pytest.approx(norm_alpha_1(rough_driver, ALPHA))


def test_certificate_skipped_without_alpha(rough_driver):
    assert young_integral(rough_driver, rough_driver).certificate is None


def test_left_point_accumulate_matrix_shapes():
    n, d, m = 8, 2, 3
    rng = np.random.default_rng(0)
    f = rng.standard_normal((n + 1, d, m))
    g = rng.standard_normal((n + 1, m))
    out = left_point_accumulate(f, g)
    assert out.shape == (n + 1, d)
    assert np.all(out[0] == 0.0)
    # node 1 is f(t_0) @ (g(t_1) - g(t_0))
    assert np.allclose(out[1], f[0] @ (g[1] - g[0]))


def test_incompatible_grids_are_rejected(rough_driver):
    other = SamplePath.from_function(make_grid(1.0, 256), lambda t: t)
    with pytest.raises(GridMismatchError):
        young_integral(other, rough_driver)


def test_path_window_views_the_past():
    grid = make_grid(1.0, 8, 0.25)
    x = SamplePath.from_function(grid, lambda t: t)
    k = grid.index_of_zero + 4  # t = 0.5
    w = PathWindow(x.values, k)
    assert np.allclose(w.current, [0.5])
    assert np.allclose(w.sup(), [0.5])
    # a drift cannot write into the path it is shown
    with pytest.raises(ValueError):
        w.current[0] = 1.0


_ENTRIES = st.one_of(
    st.floats(-4.0, 4.0), st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0])
)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 3)),
    data=st.data(),
)
def test_a_multi_front_window_equals_its_single_front_windows(shape, data):
    n_rows, n_nodes, d = shape
    size = n_rows * n_nodes * d
    values = np.array(data.draw(st.lists(_ENTRIES, min_size=size, max_size=size))).reshape(shape)
    fronts = np.array(sorted(data.draw(st.sets(st.integers(0, n_nodes - 1), min_size=1))))
    w = PathWindow(values, fronts)
    current, sup = w.current, w.sup()
    for j, k in enumerate(fronts):
        for i in range(n_rows):
            one = PathWindow(values[i], k)
            past = values[i, : k + 1]
            assert np.array_equal(current[i, j], one.current, equal_nan=True)
            assert np.array_equal(sup[i, j], one.sup(), equal_nan=True)
            assert np.array_equal(one.sup(), np.max(past, axis=0), equal_nan=True)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 3)),
    data=st.data(),
)
def test_an_advanced_window_equals_a_fresh_window_at_every_node(shape, data):
    n_rows, n_nodes, d = shape
    size = n_rows * n_nodes * d
    values = np.array(data.draw(st.lists(_ENTRIES, min_size=size, max_size=size))).reshape(shape)
    w = PathWindow(values, 0)
    for k in range(n_nodes):
        if k:
            w._advance()
        fresh = PathWindow(values, k)
        assert np.array_equal(w.current, fresh.current, equal_nan=True)
        assert np.array_equal(w.sup(), fresh.sup(), equal_nan=True)
        with pytest.raises(ValueError):
            w.current[0] = 1.0
        with pytest.raises(ValueError):
            w.sup()[0] = 1.0


def test_a_window_over_every_main_front_sees_the_history():
    grid = make_grid(1.0, 16, 0.5)
    x = SamplePath.from_function(grid, lambda t: -t)
    fronts = np.arange(grid.index_of_zero, grid.index_of_zero + grid.n_main)
    w = PathWindow(x.values, fronts)
    # sup over the whole past of a decreasing path sits at the history start
    assert np.array_equal(w.sup(), np.full((grid.n_main, 1), 0.5))
    assert np.array_equal(w.current, x.values[fronts])


def nr_audit(f, g):
    """The NR audit of one scalar path against its driver: a batch of one."""
    return nr_bounds_rows(f.main_values(), g.main_values(), ALPHA, f.grid.h)[0]


def sigma_audit(sigma, f, h, **constants):
    """The sigma-increment audit of one pair of scalar paths: a batch of one."""
    return sigma_increment_rows(sigma, f.main_values(), h.main_values(), f.grid.h, ALPHA,
                                **constants)[0]


def test_nr_bounds_hold_on_driver_pairs():
    grid = make_grid(1.0, 256)
    for seed in range(5):
        g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=seed))
        f = SamplePath(grid, np.sin(g.values))
        rep = nr_audit(f, g)
        assert rep.n_violations_sup == 0
        assert rep.worst_slack_sup <= 0.0 or rep.worst_slack_sup < 1e-8
        assert np.isfinite(rep.fitted_c_alpha)
        assert rep.fitted_c_alpha >= 0.0


def test_nr_bounds_require_scalar_paths(rough_driver):
    grid = rough_driver.grid
    two = generate_fbm(grid, FbmConfig(hurst=0.75, dim=2, seed=0))
    with pytest.raises(GridMismatchError, match="scalar paths"):
        nr_bounds_rows(two.values, rough_driver.values, ALPHA, grid.h)
    with pytest.raises(GridMismatchError, match="scalar paths"):
        nr_bounds_rows(two.values, two.values, ALPHA, grid.h)
    with pytest.raises(GridMismatchError, match="scalar paths"):
        nr_bounds_rows(rough_driver.values, rough_driver.values[1:], ALPHA, grid.h)


@pytest.mark.parametrize("where,bad", [("f", np.nan), ("f", np.inf), ("g", np.nan)])
def test_nr_bounds_flag_a_non_finite_node(where, bad):
    grid = make_grid(1.0, 64)
    g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=1))
    values = {"f": np.sin(g.values), "g": g.values.copy()}
    values[where][20, 0] = bad
    rep = nr_audit(SamplePath(grid, values["f"]), SamplePath(grid, values["g"]))
    assert rep.n_violations_sup > 0
    assert not rep.ok
    assert math.isnan(rep.worst_slack_sup)
    assert math.isnan(rep.fitted_c_alpha)


@pytest.mark.filterwarnings("error")
def test_audits_flag_non_finite_nodes_without_a_warning():
    # one inf node, two, an inf pair and a NaN node, in the path and in the
    # driver: a non-finite slack counts as a violation, and nothing warns; a
    # bounded sigma (tanh) meets an inf bound with a finite side: slack -inf
    grid = make_grid(1.0, 64)
    g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=1)).values
    clean = {"f": np.sin(g), "g": g}
    for nodes in [{20: np.inf}, {20: np.inf, 30: np.inf}, {20: np.inf, 30: -np.inf}, {20: np.nan}]:
        for where in clean:
            values = {k: v.copy() for k, v in clean.items()}
            values[where][list(nodes), 0] = list(nodes.values())
            f, h = SamplePath(grid, values["f"]), SamplePath(grid, values["g"])
            nr = nr_audit(f, h)
            assert nr.n_violations_sup > 0 and math.isnan(nr.fitted_c_alpha), (nodes, where)
            for fn in (np.sin, np.tanh):
                sigma = sigma_audit(
                    lambda t, x: fn(x)[..., None], f, h, beta=1.0, delta=1.0, m0=1.0, mn=1.0
                )
                assert sigma.n_violations > 0, (nodes, where, fn)


def test_nr_bounds_of_a_zero_integrand_are_exactly_zero(rough_driver):
    zero = SamplePath(rough_driver.grid, np.zeros_like(rough_driver.values))
    rep = nr_audit(zero, rough_driver)
    assert rep.lambda_alpha == lambda_alpha(rough_driver, ALPHA)
    assert (rep.worst_slack_sup, rep.n_violations_sup, rep.fitted_c_alpha) == (0.0, 0, 0.0)


def test_sigma_increment_bound_flags_a_nan_node():
    grid = make_grid(1.0, 64)
    f = generate_fbm(grid, FbmConfig(hurst=0.75, seed=3))
    g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=4))
    bad = f.values.copy()
    bad[20, 0] = np.nan
    rep = sigma_audit(
        lambda t, x: np.sin(x)[..., None], SamplePath(grid, bad), g,
        beta=1.0, delta=1.0, m0=1.0, mn=1.0,
    )
    assert rep.n_violations > 0
    assert not rep.ok
    assert math.isnan(rep.worst_slack)


def test_batched_audits_equal_per_path_audits_across_row_blocks(monkeypatch):
    # each path of a batch audits bit-equal to the path alone, a batch of one
    grid = make_grid(1.0, 64)
    cfg = FbmConfig(hurst=0.75, seed=11)
    g = np.stack([generate_fbm(grid, cfg, index=i).values for i in range(7)])
    f = np.sin(2.0 * g)
    bad = f.copy()
    bad[2, 30, 0] = np.nan
    # three rows per kernel block: the audits' 14-row kernel calls take blocks of 3
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 3 * 8 * grid.n_nodes)

    def sigma(t, x):
        return np.sin(x)[..., None]

    def audits(rows, drivers):
        return (
            nr_bounds_rows(rows, drivers, ALPHA, grid.h),
            sigma_increment_rows(sigma, rows, drivers, grid.h, ALPHA, 1.0, 0.5, 1.0, 1.0),
        )

    clean, poisoned = audits(f, g), audits(bad, g)
    for k in range(7):
        alone = [reports[0] for reports in audits(bad[k], g[k])]
        for batch, one, whole in zip(poisoned, alone, clean):
            if k == 2:
                assert not batch[k].ok and not one.ok
                assert repr(batch[k]) == repr(one)  # NaN fields compare by their text
            else:
                assert batch[k] == one == whole[k]
                assert batch[k].ok


def test_sigma_increment_bound_linear_case_is_tight(rough_driver):
    # sigma(t, x) = x makes the increment equal the first term exactly
    f = rough_driver
    hpath = shift_by_delay(
        SamplePath.from_function(make_grid(1.0, 512, 0.25), lambda t: np.cos(t)), 0.25
    )
    rep = sigma_audit(lambda t, x: x[..., None], f, hpath, beta=1.0, delta=1.0, m0=1.0, mn=0.0)
    assert rep.n_violations == 0


def test_sigma_increment_bound_smooth_nonlinear_case():
    grid = make_grid(1.0, 256)
    f = generate_fbm(grid, FbmConfig(hurst=0.75, seed=3))
    g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=4))
    rep = sigma_audit(lambda t, x: np.sin(x)[..., None], f, g, beta=1.0, delta=1.0, m0=1.0, mn=1.0)
    assert rep.n_violations == 0
    assert rep.alpha == ALPHA
    assert rep.ok
