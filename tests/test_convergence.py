"""Delay-to-zero study: distances, rate fits, gates, driver statistics."""

from dataclasses import replace

import numpy as np
import pytest

from sddelab import (
    CoefficientSet,
    ConvergenceReport,
    FbmConfig,
    InitialSegment,
    SamplePath,
    SolverConfig,
    coefficient_preset,
    default_delays,
    eta_preset,
    evaluate_convergence_gates,
    fernique_statistics,
    lambda_alpha,
    lp_convergence_study,
    make_grid,
    generate_fbm,
    norm_alpha_infty,
    pathwise_convergence_study,
    rate_fit,
    solve_euler,
)
from sddelab import _singular, convergence
from sddelab.convergence import _SEED_CHUNK
from sddelab.norms import alpha_infty_rows

ALPHA = 0.3
DELAYS = (0.25, 0.125, 0.0625, 0.03125)


def synthetic_report(rate, n_seeds=8, c0=1.0):
    rng = np.random.default_rng(0)
    amps = c0 * (1.0 + 0.2 * rng.random(n_seeds))
    r = np.asarray(DELAYS)
    dist = np.outer(amps, r ** rate)
    means, errs = np.zeros((2, len(r))), np.zeros((2, len(r)))
    means[0] = dist.mean(axis=0)
    means[1] = (dist ** 2).mean(axis=0)
    return ConvergenceReport(
        delays=DELAYS,
        alpha=ALPHA,
        p_list=(1.0, 2.0),
        seeds=tuple(range(n_seeds)),
        dist_alpha=dist,
        dist_sup=dist * 0.5,
        lambda_alpha_samples=np.ones(n_seeds),
        lp_means=means,
        lp_stderr=errs,
        dominating=dist.max(axis=1),
    )


def test_default_delay_ladder():
    delays = default_delays(1.0)
    assert delays == tuple(2.0 ** -k for k in range(2, 9))
    assert all(a > b for a, b in zip(delays, delays[1:]))


def test_report_rejects_nondecreasing_delays():
    rep = synthetic_report(1.0)
    with pytest.raises(ValueError):
        ConvergenceReport(
            delays=(0.1, 0.2, 0.3, 0.4),
            alpha=rep.alpha,
            p_list=rep.p_list,
            seeds=rep.seeds,
            dist_alpha=rep.dist_alpha,
            dist_sup=rep.dist_sup,
            lambda_alpha_samples=rep.lambda_alpha_samples,
            lp_means=rep.lp_means,
            lp_stderr=rep.lp_stderr,
            dominating=rep.dominating,
        )


@pytest.mark.parametrize("rate", [1.0, 0.4])
def test_rate_fit_recovers_synthetic_slopes(rate):
    fit = rate_fit(synthetic_report(rate))
    assert fit.median_alpha == pytest.approx(rate, abs=1e-10)
    assert fit.median_sup == pytest.approx(rate, abs=1e-10)
    assert fit.slopes_alpha.shape == (8,)


def test_rate_fit_needs_enough_positive_points():
    rep = synthetic_report(1.0)
    broken = ConvergenceReport(
        delays=rep.delays,
        alpha=rep.alpha,
        p_list=rep.p_list,
        seeds=rep.seeds,
        dist_alpha=np.where(rep.dist_alpha < 0.1, 0.0, rep.dist_alpha),
        dist_sup=rep.dist_sup,
        lambda_alpha_samples=rep.lambda_alpha_samples,
        lp_means=rep.lp_means,
        lp_stderr=rep.lp_stderr,
        dominating=rep.dominating,
    )
    with pytest.raises(ValueError):
        rate_fit(broken)


def test_gates_pass_on_a_clean_first_order_report():
    gates = evaluate_convergence_gates(synthetic_report(1.0))
    assert gates.ok
    assert gates.endpoint_fraction == 1.0
    assert gates.slope_floor == pytest.approx(1.0 - 2.0 * ALPHA - 0.15)
    assert set(gates.lp_ratios) == {1.0, 2.0}
    assert "ok" in gates.describe()


@pytest.mark.parametrize("row,p", [(0, 1.0), (1, 2.0)])
def test_lp_gate_passes_a_4x_shrink_and_fails_just_below(row, p):
    rep = synthetic_report(1.0)  # otherwise clean: every seed decreases, slope 1
    for shrink, ok in ((4.0, True), (np.nextafter(4.0, 0.0), False)):
        means = rep.lp_means.copy()
        means[row] = np.linspace(shrink, 1.0, len(DELAYS))
        gates = evaluate_convergence_gates(replace(rep, lp_means=means))
        assert gates.lp_ratios[p] == shrink
        assert gates.lp_ok is ok
        assert gates.ok is ok


def test_endpoint_gate_passes_95_percent_of_seeds_and_fails_94():
    rep = synthetic_report(1.0, n_seeds=100)
    for n_down, ok in ((95, True), (94, False)):
        dist = rep.dist_alpha.copy()
        dist[n_down:] = dist[n_down:, ::-1]  # these seeds grow as the delay shrinks
        gates = evaluate_convergence_gates(replace(rep, dist_alpha=dist))
        assert gates.endpoint_fraction == n_down / 100
        assert gates.endpoint_ok is ok
        assert gates.ok is ok


@pytest.mark.parametrize("alpha,floor", [(0.3, 0.25), (0.45, -0.05)])
def test_slope_gate_floor_is_one_minus_two_alpha_minus_0_15(alpha, floor):
    for rate, ok in ((floor + 1e-9, True), (floor - 1e-9, False)):
        gates = evaluate_convergence_gates(replace(synthetic_report(rate), alpha=alpha))
        assert gates.slope_floor == pytest.approx(floor, abs=1e-12)
        assert gates.median_slope == pytest.approx(rate, abs=1e-12)
        assert gates.slope_ok is ok


def test_gates_fail_on_a_flat_report():
    gates = evaluate_convergence_gates(synthetic_report(0.05))
    assert not gates.slope_ok
    assert not gates.lp_ok
    assert not gates.ok


def test_additive_equation_has_zero_delay_distance():
    # sigma is constant, so the delayed argument never matters
    grid = make_grid(1.0, 256)
    g = generate_fbm(grid, FbmConfig(hurst=0.75, seed=5))
    report = pathwise_convergence_study(
        coefficient_preset("additive"), eta_preset("constant"), g, ALPHA, DELAYS
    )
    assert np.all(report.dist_alpha == 0.0)
    assert np.all(report.dist_sup == 0.0)


def test_pathwise_study_shapes_and_monotone_trend(rough_driver):
    report = pathwise_convergence_study(
        coefficient_preset("sine"), eta_preset("constant"), rough_driver,
        ALPHA, DELAYS,
    )
    assert report.dist_alpha.shape == (1, len(DELAYS))
    assert report.dist_sup.shape == (1, len(DELAYS))
    # the ladder endpoint beats the start on this driver
    assert report.dist_alpha[0, -1] < report.dist_alpha[0, 0]
    assert np.all(report.dist_sup <= report.dist_alpha + 1e-12)


def test_hereditary_study_equals_per_path_solves(monkeypatch):
    # two chunks, so seeds 0, 15 | 16, 29 sit at both ends of each; every
    # row's padding repeats its first history value, which sup() cannot see
    monkeypatch.setattr(convergence, "_SEED_CHUNK", 16)
    n_main, fbm_cfg = 256, FbmConfig(hurst=0.75, seed=4)
    coeffs, eta_fn = coefficient_preset("hereditary-sup"), eta_preset("ramp")
    report = lp_convergence_study(
        coeffs, eta_fn, fbm_cfg, ALPHA, DELAYS, n_seeds=30, n_main=n_main,
    )
    grid0 = make_grid(1.0, n_main)
    for i in (0, 15, 16, 29):
        g = generate_fbm(grid0, fbm_cfg, index=i)
        paths = []
        for r in (0.0,) + DELAYS:
            grid = make_grid(1.0, n_main, r)
            eta = InitialSegment.from_function(eta_fn, grid.r, grid.h)
            cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
            paths.append(solve_euler(coeffs, eta, g, cfg).path.main_values())
        ref = paths[0]
        dist_alpha = [norm_alpha_infty(SamplePath(grid0, ref - x), ALPHA) for x in paths[1:]]
        dist_sup = [np.max(np.abs(ref - x)) for x in paths[1:]]
        assert np.array_equal(report.dist_alpha[i], dist_alpha)
        assert np.array_equal(report.dist_sup[i], dist_sup)


def test_vector_study_sup_distance_is_the_euclidean_sup_norm():
    # two components, so the largest single-component deviation reads less
    coeffs = CoefficientSet(
        sigma=lambda t, x: np.sin(x)[..., None] * np.eye(2),
        drift=lambda t, window: -window.current,
        d=2,
        m=2,
    )
    eta_fn = lambda t: np.ones(2)  # noqa: E731
    grid0 = make_grid(1.0, 256)
    g = generate_fbm(grid0, FbmConfig(hurst=0.75, dim=2, seed=1))
    report = pathwise_convergence_study(coeffs, eta_fn, g, ALPHA, DELAYS)
    paths = []
    for r in (0.0,) + DELAYS:
        grid = make_grid(1.0, 256, r)
        eta = InitialSegment.from_function(eta_fn, grid.r, grid.h)
        cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
        paths.append(solve_euler(coeffs, eta, g, cfg).path.main_values())
    dist_sup = [SamplePath(grid0, paths[0] - x).sup_norm() for x in paths[1:]]
    assert np.array_equal(report.dist_sup[0], dist_sup)
    assert np.max(np.abs(paths[0] - paths[1])) < dist_sup[0]


def test_pruned_study_distances_sum_few_nodes(monkeypatch):
    # one seed chunk of converge --n-main 512 --n-seeds 30: 30 seeds x 7 delays of 513 nodes
    batches = []

    def captured(diff, *args):
        batches.append(diff)
        return np.zeros(diff.shape[:2])

    monkeypatch.setattr(convergence, "alpha_infty_rows", captured)
    lp_convergence_study(
        coefficient_preset("sine"), eta_preset("constant"), FbmConfig(hurst=0.75, seed=0),
        ALPHA, default_delays(), n_seeds=30, n_main=512,
    )
    (diff,) = batches
    assert diff.shape == (30, 7, 513, 1)
    summed = []

    def counted(*args):
        summed.append(len(args[-3]))  # the nodes j of one round
        return continued(*args)

    continued = _singular._continued
    monkeypatch.setattr(_singular, "_continued", counted)
    got = alpha_infty_rows(diff, ALPHA, 1.0 / 512)
    monkeypatch.setattr(_singular, "_PRUNE_MIN_NODES", 10**9)
    assert np.array_equal(got, alpha_infty_rows(diff, ALPHA, 1.0 / 512))
    assert 0 < sum(summed) < 0.01 * diff[..., 0].size


def test_monte_carlo_study_needs_enough_seeds():
    with pytest.raises(ValueError):
        lp_convergence_study(
            coefficient_preset("sine"), eta_preset("constant"),
            FbmConfig(hurst=0.75, seed=0), ALPHA, DELAYS,
            n_seeds=10, n_main=128,
        )


def test_monte_carlo_study_refuses_alpha_outside_the_window_before_any_draw(monkeypatch):
    # H = 0.75 admits alpha in (0.25, 1/2); alpha = 0.2 lies in (0, 1/2) but not there
    def no_draw(*args, **kwargs):
        raise AssertionError("a driver was drawn")

    monkeypatch.setattr(convergence, "generate_fbm", no_draw)
    with pytest.raises(ValueError, match="not admissible"):
        lp_convergence_study(
            coefficient_preset("sine"), eta_preset("constant"),
            FbmConfig(hurst=0.75, seed=0), 0.2, DELAYS,
            n_seeds=30, n_main=128,
        )


def test_initial_segments_are_sampled_once_per_study(monkeypatch):
    # two seed chunks share the segments of X and of every X^r
    monkeypatch.setattr(convergence, "_SEED_CHUNK", 16)
    sampled, from_function = [], InitialSegment.from_function

    def counted(eta, r, h):
        sampled.append(r)
        return from_function(eta, r, h)

    monkeypatch.setattr(InitialSegment, "from_function", staticmethod(counted))
    lp_convergence_study(
        coefficient_preset("sine"), eta_preset("constant"),
        FbmConfig(hurst=0.75, seed=0), ALPHA, DELAYS, n_seeds=30, n_main=64,
    )
    assert sampled == [0.0, *DELAYS]


def test_monte_carlo_study_moments_and_gates():
    report = lp_convergence_study(
        coefficient_preset("sine"), eta_preset("constant"),
        FbmConfig(hurst=0.75, seed=0), ALPHA, DELAYS,
        n_seeds=30, n_main=256,
    )
    assert report.dist_alpha.shape == (30, len(DELAYS))
    assert report.seeds == tuple(range(30))
    # second moment dominates the squared first moment at every delay
    assert np.all(report.lp_means[1] >= report.lp_means[0] ** 2 - 1e-15)
    assert np.all(report.lp_stderr >= 0.0)
    assert np.all(report.dominating >= report.dist_alpha.max(axis=1) - 1e-15)
    gates = evaluate_convergence_gates(report)
    assert gates.ok, gates.describe()


def test_monte_carlo_study_is_deterministic():
    kwargs = dict(
        alpha=ALPHA, delays=DELAYS[-4:], n_seeds=30, n_main=128,
    )
    a = lp_convergence_study(
        coefficient_preset("linear"), eta_preset("constant"),
        FbmConfig(hurst=0.75, seed=3), **kwargs,
    )
    b = lp_convergence_study(
        coefficient_preset("linear"), eta_preset("constant"),
        FbmConfig(hurst=0.75, seed=3), **kwargs,
    )
    assert np.array_equal(a.dist_alpha, b.dist_alpha)
    assert np.array_equal(a.lambda_alpha_samples, b.lambda_alpha_samples)


@pytest.mark.parametrize("preset", ["additive", "linear", "sine"])
def test_batched_study_equals_per_path_solves(preset):
    # one chunk boundary inside the seed range
    n_seeds, n_main, fbm_cfg = _SEED_CHUNK + 1, 64, FbmConfig(hurst=0.75, seed=4)
    coeffs, eta_fn = coefficient_preset(preset), eta_preset("ramp")
    report = lp_convergence_study(
        coeffs, eta_fn, fbm_cfg, ALPHA, DELAYS, n_seeds=n_seeds, n_main=n_main,
    )
    grid0 = make_grid(1.0, n_main)
    for i in range(n_seeds):
        g = generate_fbm(grid0, fbm_cfg, index=i)
        paths = []
        for r in (0.0,) + DELAYS:
            grid = make_grid(1.0, n_main, r)
            eta = InitialSegment.from_function(eta_fn, grid.r, grid.h)
            cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
            paths.append(solve_euler(coeffs, eta, g, cfg).path.main_values())
        ref = paths[0]
        dist_alpha = [norm_alpha_infty(SamplePath(grid0, ref - x), ALPHA) for x in paths[1:]]
        dist_sup = [np.max(np.abs(ref - x)) for x in paths[1:]]
        assert np.array_equal(report.dist_alpha[i], dist_alpha)
        assert np.array_equal(report.dist_sup[i], dist_sup)
        assert report.lambda_alpha_samples[i] == lambda_alpha(g, ALPHA)


def test_driver_statistics_summary():
    record = fernique_statistics(
        FbmConfig(hurst=0.75, seed=1), ALPHA, n_seeds=100, n_main=256
    )
    assert record.samples.shape == (100,)
    assert record.all_finite
    assert set(record.moments) == {1.0, 2.0, 4.0}
    assert set(record.exp_moments) == {0.5, 1.0, 1.5}
    assert set(record.quantiles) == {0.5, 0.9, 0.99}
    # moments of a nonnegative sample are ordered by power
    assert record.moments[1.0] ** 2 <= record.moments[2.0]
    assert record.moments[2.0] ** 2 <= record.moments[4.0]
    assert record.quantiles[0.5] <= record.quantiles[0.9] <= record.quantiles[0.99]


def test_driver_statistics_guard_rails():
    with pytest.raises(ValueError):
        fernique_statistics(FbmConfig(hurst=0.75, seed=0), ALPHA, n_seeds=50)
    with pytest.raises(ValueError):
        fernique_statistics(FbmConfig(hurst=0.75, seed=0), 0.2, n_seeds=100)
