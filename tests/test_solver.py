"""Solver exactness oracles, fixed-point behavior, and structural reports."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from sddelab import solver
from sddelab import (
    CoefficientSet,
    DivergenceError,
    FbmConfig,
    GridError,
    InitialSegment,
    PathWindow,
    SamplePath,
    SolverConfig,
    TimeGrid,
    a_priori_bound_report,
    a_priori_record,
    coefficient_preset,
    contraction_lambda,
    eta_norm_alpha,
    eta_preset,
    euler_paths,
    generate_fbm,
    lambda_alpha,
    make_grid,
    norm_alpha_infty,
    norm_alpha_lambda,
    phi_gamma_alpha,
    regime_report,
    solve,
    solve_euler,
    solve_picard,
    stopping_lambda,
    validate_hypotheses,
)

ALPHA = 0.3
HURST = 0.75


def driver_on(grid, seed=0, hurst=HURST):
    return generate_fbm(grid.main_only(), FbmConfig(hurst=hurst, seed=seed))


def parts(grid, eta_name="constant"):
    eta = InitialSegment.from_function(eta_preset(eta_name), grid.r, grid.h)
    return eta


def test_additive_equation_is_exact():
    # sigma = 1, b = 0: X(t) = eta(0) + g(t) with no quadrature error
    grid = make_grid(1.0, 512, 0.25)
    g = driver_on(grid, seed=7)
    eta = parts(grid)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_euler(coefficient_preset("additive"), eta, g, cfg)
    truth = 1.0 + g.values[:, 0]
    err = np.max(np.abs(bundle.path.main_values()[:, 0] - truth))
    assert err < 1e-12


def test_history_is_the_initial_segment_bit_for_bit():
    grid = make_grid(1.0, 128, 0.5)
    g = driver_on(grid)
    eta = InitialSegment.from_function(eta_preset("ramp"), grid.r, grid.h)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_euler(coefficient_preset("sine"), eta, g, cfg)
    assert np.array_equal(
        bundle.path.values[: grid.index_of_zero + 1], eta.values
    )


def test_delay_beyond_horizon_freezes_the_diffusion_argument():
    # r >= T: sigma only ever sees eta, so the path is a known recursion
    grid = make_grid(1.0, 64, 1.0)
    g = driver_on(grid, seed=3)
    eta = InitialSegment.from_function(lambda t: 1.0 + t, grid.r, grid.h)
    coeffs = coefficient_preset("linear")
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_euler(coeffs, eta, g, cfg)

    h = grid.h
    i0 = grid.index_of_zero
    dg = np.diff(g.values[:, 0])
    x = np.empty(grid.n_main + 1)
    x[0] = 1.0
    for k in range(grid.n_main):
        t_k = k * h
        delayed = 1.0 + (t_k - 1.0)  # eta(t_k - r)
        x[k + 1] = x[k] + (-x[k]) * h + delayed * dg[k]
    assert np.array_equal(bundle.path.values[i0:, 0], x)


def test_euler_matches_a_handwritten_loop_with_interior_delay():
    grid = make_grid(1.0, 64, 0.25)
    g = driver_on(grid, seed=5)
    eta = InitialSegment.from_function(lambda t: 1.0 + t, grid.r, grid.h)
    coeffs = coefficient_preset("sine")
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_euler(coeffs, eta, g, cfg)

    h, i0, nh = grid.h, grid.index_of_zero, grid.n_history
    dg = np.diff(g.values[:, 0])
    full = np.empty(grid.n_nodes)
    full[: i0 + 1] = eta.values[:, 0]
    for k in range(grid.n_main):
        j = i0 + k
        full[j + 1] = full[j] - full[j] * h + math.sin(full[j - nh]) * dg[k]
    assert np.array_equal(bundle.path.values[:, 0], full)


def test_solution_is_causal_in_the_driver():
    grid = make_grid(1.0, 64, 0.25)
    g1 = driver_on(grid, seed=1)
    half = grid.n_main // 2
    bumped = g1.values.copy()
    bumped[half + 1:] += 0.5  # perturb strictly after t*
    g2 = SamplePath(g1.grid, bumped)
    eta = parts(grid)
    coeffs = coefficient_preset("sine")
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    x1 = solve_euler(coeffs, eta, g1, cfg).path.values
    x2 = solve_euler(coeffs, eta, g2, cfg).path.values
    i0 = grid.index_of_zero
    assert np.array_equal(x1[: i0 + half + 1], x2[: i0 + half + 1])
    assert not np.array_equal(x1, x2)


def test_zero_delay_uses_the_same_code_path():
    grid = make_grid(1.0, 128, 0.0)
    g = driver_on(grid, seed=2)
    eta = parts(grid)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_euler(coefficient_preset("sine"), eta, g, cfg)
    h = grid.h
    dg = np.diff(g.values[:, 0])
    x = np.empty(grid.n_main + 1)
    x[0] = 1.0
    for k in range(grid.n_main):
        x[k + 1] = x[k] - x[k] * h + math.sin(x[k]) * dg[k]
    assert np.array_equal(bundle.path.values[:, 0], x)


def test_hereditary_drift_solves_and_respects_the_running_sup():
    grid = make_grid(1.0, 128, 0.25)
    g = driver_on(grid, seed=6)
    eta = parts(grid)
    coeffs = coefficient_preset("hereditary-sup")
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_euler(coeffs, eta, g, cfg)
    assert np.all(np.isfinite(bundle.path.values))


def test_hereditary_rows_step_together_as_their_own_solves():
    # each row holds its own history from node 0, so one window serves all
    grid = make_grid(1.0, 128, 0.25)
    coeffs = coefficient_preset("hereditary-sup")
    eta = parts(grid, "ramp")
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    drivers = [driver_on(grid, seed=s) for s in range(3)]
    X = euler_paths(coeffs, [eta], drivers)
    assert X.shape == (3, 1, grid.n_nodes, 1)
    for row, g in zip(X[:, 0], drivers):
        assert np.array_equal(row, solve_euler(coeffs, eta, g, cfg).path.values)


def test_euler_paths_refuses_a_driver_or_segment_off_the_main_grid():
    grid = make_grid(1.0, 128, 0.25)
    coeffs = coefficient_preset("sine")
    eta, g = parts(grid), driver_on(grid)
    other_grid = driver_on(make_grid(1.0, 64, 0.25))
    two_dim = generate_fbm(grid.main_only(), FbmConfig(hurst=HURST, dim=2, seed=0))
    other_step = InitialSegment(2 * grid.h, eta.values)
    for etas, drivers, match in (
        ([eta], [g, other_grid], "main-segment grid"),
        ([eta], [g, two_dim], "driver dim"),
        ([eta, other_step], [g], "initial segment step"),
    ):
        with pytest.raises(GridError, match=match):
            euler_paths(coeffs, etas, drivers)


def test_history_step_must_match_the_grid_step_to_rounding():
    grid = make_grid(1.0, 2048, 8 / 2048)
    g = driver_on(grid)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    values = parts(grid).values
    with pytest.raises(GridError, match="initial segment step"):
        solve_euler(coefficient_preset("sine"), InitialSegment(grid.h * (1 + 1e-9), values), g, cfg)
    one_ulp = InitialSegment(np.nextafter(grid.h, 1.0), values)
    assert one_ulp.h != grid.h
    assert np.isfinite(solve_euler(coefficient_preset("sine"), one_ulp, g, cfg).path.values).all()


def test_picard_reaches_the_euler_fixed_point():
    grid = make_grid(1.0, 512, 0.25)
    g = driver_on(grid, seed=9)
    eta = parts(grid)
    coeffs = coefficient_preset("sine")
    cfg = SolverConfig(alpha=ALPHA, grid=grid, scheme="picard", hurst=HURST)
    bundle = solve_picard(coeffs, eta, g, cfg)
    assert bundle.converged
    assert bundle.scheme_used == "picard"
    euler = solve_euler(
        coeffs, eta, g, SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    )
    gap = np.max(np.abs(bundle.path.values - euler.path.values))
    # the discrete operator is triangular, so the fixed point IS the
    # Euler path; the gap only carries the stopping tolerance
    assert gap < 1e-5
    assert bundle.iterations <= 15
    assert bundle.residuals[-1] <= cfg.picard_tol


def test_picard_on_additive_equation_stops_immediately():
    grid = make_grid(1.0, 128, 0.25)
    g = driver_on(grid, seed=4)
    eta = parts(grid)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, scheme="picard", compute_report=False)
    bundle = solve_picard(coefficient_preset("additive"), eta, g, cfg)
    assert bundle.converged
    assert bundle.iterations <= 2


# iterations and residuals at n_main = 256, r = 0.25, driver seed 3, as the
# full O(n^2) sweep gave them; the 321-node residual sups now run pruned
PICARD_PINS = {
    "additive": (2, (0.5393330066108759, 0.0)),
    "linear": (8, (0.5003397995012359, 0.0124331251724316, 0.0008084598602891046,
                   6.825717743448615e-05, 5.46704395166394e-06, 5.966942825277681e-07,
                   5.9380952995578616e-08, 5.136985185592653e-09)),
    "sine": (8, (0.4480926739750537, 0.010227361343402224, 0.0005424067234958129,
                 3.693824421470605e-05, 2.973501274588218e-06, 2.469583548504665e-07,
                 2.295699999970935e-08, 2.1830146685104014e-09)),
    "hereditary-sup": (9, (0.7069603993079558, 0.037818181812662284, 0.003555391744001355,
                           0.0003188600067346877, 2.475043332488796e-05,
                           1.5907293986445866e-06, 1.5838840923045496e-07,
                           1.4513784186040382e-08, 1.2351053862261212e-09)),
}


@pytest.mark.parametrize("preset", sorted(PICARD_PINS))
def test_picard_iterations_and_residuals_are_pinned(preset):
    grid = make_grid(1.0, 256, 0.25)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_picard(coefficient_preset(preset), parts(grid), driver_on(grid, seed=3), cfg)
    assert (bundle.iterations, bundle.residuals) == PICARD_PINS[preset]


# the same runs from the Euler start: iterations, residuals and the sha256 of
# the path's bytes, which the causal operator fixes after one iteration
EULER_START_PINS = {
    "additive": (1, (2.6375829966015474e-15,),
                 "36a3e98882741cbee000ab326638505178ddc032d00ac401bd94d5d5cdc2e0d5"),
    "hereditary-sup": (1, (4.411484749371927e-15,),
                       "e979b7509477ffb23f686f3379791aa8321a8e2f7dd93d81f576de31eb0f25f1"),
    "linear": (1, (3.4538416813705845e-15,),
               "8991b0d70a66c4c48a9fcbedeb517799b1091a11e87a9356e5d2999463c630fc"),
    "sine": (1, (2.84301419134156e-15,),
             "a83d106b51d9ab31f80833ec7f0152f9d0612ecc4c3eafd3c8a0b26fe6902593"),
}


@pytest.mark.parametrize("preset", sorted(PICARD_PINS))
def test_picard_from_the_euler_start_is_pinned(preset):
    grid = make_grid(1.0, 256, 0.25)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, picard_init="euler", compute_report=False)
    bundle = solve_picard(coefficient_preset(preset), parts(grid), driver_on(grid, seed=3), cfg)
    digest = hashlib.sha256(bundle.path.values.tobytes()).hexdigest()
    assert (bundle.iterations, bundle.residuals, digest) == EULER_START_PINS[preset]


def picard_one_residual_at_a_time(coeffs, eta, g, cfg):
    """solve_picard's loop measuring each residual as its iterate arrives:
    (iterations, residuals, converged, path values)."""
    grid = cfg.grid
    times = grid.times()
    dg = np.diff(g.values, axis=0)
    lam = cfg.lam
    if lam is None:
        lam_formula = contraction_lambda(lambda_alpha(g, cfg.alpha), cfg.alpha)
        lam = stopping_lambda(lam_formula, cfg.picard_tol, grid.t_end)
    if cfg.picard_init == "euler":
        y = euler_paths(coeffs, [eta], [g])[0, 0]
    else:
        y = np.pad(eta.values, ((0, grid.n_main), (0, 0)), "edge")
    residuals = []
    for iterations in range(1, cfg.picard_max_iter + 1):
        y_next = solver._apply_operator(coeffs, y, grid, times, dg)
        assert np.isfinite(y_next).all()
        residuals.append(norm_alpha_lambda(SamplePath(grid, y_next - y), cfg.alpha, lam, r=grid.r))
        y = y_next
        if residuals[-1] < cfg.picard_tol:
            return iterations, residuals, True, y
    return iterations, residuals, False, y


TWO_COMPONENTS = CoefficientSet(
    sigma=lambda t, x: np.sin(x)[..., None] * np.array([[1.0, 0.5], [-0.25, 1.0]]),
    drift=lambda t, w: -w.current,
    d=2, m=2,
)


@pytest.mark.parametrize("coeffs,options", [
    *[pytest.param(coefficient_preset(name), {}, id=name) for name in sorted(PICARD_PINS)],
    pytest.param(coefficient_preset("sine"), {"picard_max_iter": 3}, id="sine-unconverged"),
    pytest.param(coefficient_preset("linear"), {"picard_init": "euler"}, id="linear-euler-start"),
    # the history weights e^(lam r) overflow to inf
    pytest.param(coefficient_preset("sine"), {"lam": 3000.0}, id="sine-lam-3000"),
    pytest.param(TWO_COMPONENTS, {}, id="two-components"),
])
def test_deferred_picard_residuals_equal_the_one_at_a_time_loop(coeffs, options):
    grid = make_grid(1.0, 512, 0.25)
    g = generate_fbm(grid.main_only(), FbmConfig(hurst=HURST, dim=coeffs.m, seed=6))
    eta = InitialSegment.from_function(lambda t: np.full(coeffs.d, 1.0 + t), grid.r, grid.h)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, scheme="picard", compute_report=False, **options)
    with np.errstate(over="ignore"):  # lam = 3000 overflows e^(lam r) in the reference loop
        iterations, residuals, converged, path = picard_one_residual_at_a_time(coeffs, eta, g, cfg)
    bundle = solve_picard(coeffs, eta, g, cfg)
    assert (bundle.iterations, bundle.residuals, bundle.converged) == (
        iterations, tuple(residuals), converged)
    assert np.array_equal(bundle.path.values, path)
    assert converged == ("picard_max_iter" not in options)


def test_two_starting_points_land_on_the_same_fixed_point():
    grid = make_grid(1.0, 256, 0.25)
    g = driver_on(grid, seed=12)
    eta = parts(grid)
    coeffs = coefficient_preset("sine")
    base = dict(alpha=ALPHA, grid=grid, scheme="picard", compute_report=False)
    from_const = solve_picard(
        coeffs, eta, g, SolverConfig(picard_init="constant", **base)
    )
    from_euler = solve_picard(
        coeffs, eta, g, SolverConfig(picard_init="euler", **base)
    )
    # each run stops within picard_tol of the fixed point in the weighted
    # norm it contracts in, so the two ends are within 2 tol of each other
    diff = SamplePath(grid, from_const.path.values - from_euler.path.values)
    gap = norm_alpha_lambda(diff, ALPHA, from_const.lam, r=grid.r)
    assert from_const.lam == from_euler.lam
    assert gap <= 2.0 * 1e-8
    assert from_euler.iterations <= 2


def test_non_convergence_is_flagged_not_raised():
    grid = make_grid(1.0, 256, 0.25)
    g = driver_on(grid, seed=8)
    eta = parts(grid)
    cfg = SolverConfig(
        alpha=ALPHA, grid=grid, scheme="picard", picard_max_iter=1,
        compute_report=False,
    )
    bundle = solve_picard(coefficient_preset("sine"), eta, g, cfg)
    assert not bundle.converged
    assert bundle.iterations == 1
    assert len(bundle.residuals) == 1


def test_euler_refinements_are_cauchy():
    # driver consistency across resolutions via subsampling one fine path
    fine = make_grid(1.0, 4096, 0.25)
    g_fine = driver_on(fine, seed=10)
    eta_fn = eta_preset("constant")
    coeffs = coefficient_preset("sine")
    sols = {}
    for n in (512, 1024, 2048, 4096):
        step = 4096 // n
        grid = make_grid(1.0, n, 0.25)
        g = SamplePath(grid.main_only(), g_fine.values[::step])
        eta = InitialSegment.from_function(eta_fn, 0.25, grid.h)
        cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
        sols[n] = solve_euler(coeffs, eta, g, cfg).path.main_values()[:, 0]
    gaps = []
    for n in (512, 1024, 2048):
        coarse, fine_vals = sols[n], sols[2 * n]
        gaps.append(np.max(np.abs(fine_vals[::2] - coarse)))
    assert gaps[1] / gaps[0] <= 0.75
    assert gaps[2] / gaps[1] <= 0.75


def test_divergent_dynamics_raise_with_location():
    grid = make_grid(1.0, 64, 0.0)
    g = SamplePath.from_function(grid, lambda t: 0.0)
    eta = InitialSegment.from_function(lambda t: 1e3, 0.0, grid.h)
    blowup = CoefficientSet(
        sigma=lambda t, x: np.zeros((1, 1)),
        drift=lambda t, w: w.current * w.current,
        m0=0.0, mn=0.0, l0=1.0, ln=1.0, k0=1.0, gamma=0.0,
        name="quadratic-blowup",
    )
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
        solve_euler(blowup, eta, g, cfg)
    assert err.value.node > 0


# b = x^2 from a large start overflows within a few dozen steps
QUADRATIC_BLOWUP = CoefficientSet(
    sigma=lambda t, x: np.zeros(np.shape(x) + (1,)),
    drift=lambda t, w: w.current * w.current,
    m0=0.0, mn=0.0, l0=1.0, ln=1.0, k0=1.0, gamma=0.0,
    name="quadratic-blowup",
)


def test_picard_divergence_reports_node_and_time():
    grid = make_grid(1.0, 64, 0.0)
    g = SamplePath.from_function(grid, lambda t: 0.0)
    eta = InitialSegment.from_function(lambda t: 1e3, 0.0, grid.h)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, scheme="picard", compute_report=False)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        solve_picard(QUADRATIC_BLOWUP, eta, g, cfg)
    assert err.value.node > 0
    assert math.isfinite(err.value.time)
    assert err.value.time == grid.times()[err.value.node]


def test_batched_divergence_names_the_exploding_row():
    # three rows stepped together; only the middle one (2 history steps)
    # explodes, and it fails where its own one-path solve fails
    n, lag = 64, 2
    grid = make_grid(1.0, n, lag / n)
    g = SamplePath.from_function(grid.main_only(), lambda t: 0.0)
    eta = InitialSegment.from_function(lambda t: 1e3, grid.r, grid.h)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as single:
        solve_euler(QUADRATIC_BLOWUP, eta, g, cfg)

    ones = InitialSegment.from_function(lambda t: 1.0, 0.0, grid.h)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as batch:
        euler_paths(QUADRATIC_BLOWUP, [ones, eta, ones], [g])
    assert math.isfinite(batch.value.time)
    assert (batch.value.node, batch.value.time) == (single.value.node, single.value.time)


def stepwise_euler(coeffs, eta, g):
    """One path of the Euler recursion, sigma and the drift evaluated at every step."""
    n, h, lag = g.grid.n_main, g.grid.h, eta.n_steps
    times = TimeGrid(-lag * h, g.grid.t_end, lag, n, h).times()
    X = np.concatenate([eta.values, np.empty((n, coeffs.d))])
    dg = np.diff(g.values, axis=0)
    window = PathWindow(X, lag)
    for k in range(lag, lag + n):
        bv = np.asarray(coeffs.drift(times[k], window), dtype=float).reshape(coeffs.d)
        sv = np.asarray(coeffs.sigma(times[k], X[k - lag]), dtype=float).reshape(coeffs.d, coeffs.m)
        X[k + 1] = X[k] + bv * h + (sv @ dg[k - lag][:, None])[:, 0]
        if not np.isfinite(X[k + 1]).all():
            raise DivergenceError(k + 1, float(times[k + 1]))
        window._advance()
    return X


@pytest.mark.parametrize("preset", ["sine", "hereditary-sup"])
def test_euler_blocks_equal_the_stepwise_recursion_row_by_row(preset):
    # with the r = 0 row every block is one step; without it a block is
    # two (r = h), and the rows' own solves run blocks of 2, 4 and 65
    n = 256
    grid = make_grid(1.0, n)
    coeffs = coefficient_preset(preset)
    drivers = [driver_on(grid, seed=s) for s in range(3)]
    for delays in ((0.0, grid.h, 3 * grid.h, 0.25), (grid.h, 3 * grid.h, 0.25)):
        etas = [InitialSegment.from_function(eta_preset("ramp"), r, grid.h) for r in delays]
        X = euler_paths(coeffs, etas, drivers)
        for b, g in enumerate(drivers):
            for e, eta in enumerate(etas):
                one = euler_paths(coeffs, [eta], [g])[0, 0]
                assert np.array_equal(X[b, e, -len(one):], one), (delays, b, e)
                assert np.array_equal(one, stepwise_euler(coeffs, eta, g)), (delays, b, e)


def test_euler_blocks_of_a_two_component_driver_equal_the_stepwise_recursion():
    coeffs = CoefficientSet(
        sigma=lambda t, x: np.sin(x)[..., None] * np.array([[1.0, 0.5], [-0.25, 1.0]]),
        drift=lambda t, w: -w.sup(),
        d=2, m=2,
    )
    grid = make_grid(1.0, 128)
    g = generate_fbm(grid.main_only(), FbmConfig(hurst=HURST, dim=2, seed=3))
    for r in (0.0, 5 * grid.h):
        eta = InitialSegment.from_function(lambda t: np.array([1.0, -t]), r, grid.h)
        assert np.array_equal(euler_paths(coeffs, [eta], [g])[0, 0], stepwise_euler(coeffs, eta, g))


def test_a_row_diverging_mid_block_fails_where_the_stepwise_recursion_fails():
    # lags 12 and 8 make blocks of 9 steps; b = x^2 blows the second row up
    # at a step that does not start a block, while sigma still reads its past
    n = 64
    grid = make_grid(1.0, n)
    g = driver_on(grid, seed=5)
    quadratic = dataclasses.replace(QUADRATIC_BLOWUP, sigma=coefficient_preset("sine").sigma)
    calm = InitialSegment.from_function(lambda t: 0.0, 12 * grid.h, grid.h)
    wild = InitialSegment.from_function(lambda t: 40.0, 8 * grid.h, grid.h)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as step:
        stepwise_euler(quadratic, wild, g)
    assert (step.value.node - wild.n_steps - 1) % (wild.n_steps + 1) != 0
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as batch:
        euler_paths(quadratic, [calm, wild], [g])
    assert (batch.value.node, batch.value.time) == (step.value.node, step.value.time)


def test_solve_dispatches_on_scheme():
    grid = make_grid(1.0, 128, 0.25)
    g = driver_on(grid)
    eta = parts(grid)
    coeffs = coefficient_preset("sine")
    a = solve(coeffs, eta, g, SolverConfig(alpha=ALPHA, grid=grid, compute_report=False))
    b = solve(
        coeffs, eta, g,
        SolverConfig(alpha=ALPHA, grid=grid, scheme="picard", compute_report=False),
    )
    assert a.scheme_used == "euler"
    assert b.scheme_used == "picard"


def test_solution_bundle_carries_reports():
    grid = make_grid(1.0, 256, 0.25)
    g = driver_on(grid, seed=13)
    eta = parts(grid)
    bundle = solve(
        coefficient_preset("sine"), eta, g,
        SolverConfig(alpha=ALPHA, grid=grid, scheme="picard", hurst=HURST),
    )
    assert bundle.norm_report is not None
    assert bundle.norm_report.alpha == ALPHA
    assert bundle.a_priori is not None
    assert bundle.a_priori.measured > 0
    assert bundle.regime is not None
    assert bundle.regime.pathwise
    assert bundle.lam_formula >= bundle.lam


# --- scalar helpers -------------------------------------------------------


def test_growth_exponent_values():
    # gamma = 1 gives 2 alpha; small gamma gives alpha; in between, the
    # midpoint of the admissible interval
    assert phi_gamma_alpha(1.0, 0.3) == pytest.approx(0.6)
    assert phi_gamma_alpha(0.0, 0.3) == pytest.approx(0.3)
    assert phi_gamma_alpha(0.5, 0.3) == pytest.approx(0.3)  # below the threshold
    assert phi_gamma_alpha(0.8, 0.3) == pytest.approx(0.55)
    for gamma in (0.0, 0.3, 0.6, 0.8, 1.0):
        phi = phi_gamma_alpha(gamma, 0.3)
        assert 0.3 - 1e-12 <= phi <= 0.6 + 1e-12


def test_contraction_weight_grows_with_the_driver():
    vals = [contraction_lambda(lam, 0.3) for lam in (0.5, 1.0, 2.0, 4.0)]
    assert all(v > 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # closed form at Lambda = 2: (4 (1 + 2))^(1 / (1 - 0.6))
    assert contraction_lambda(2.0, 0.3) == pytest.approx(12.0 ** 2.5)


def test_contraction_weight_overflowing_a_float_reads_inf():
    # (4 * 4)^(1/0.002) = 16^500 is past the largest float
    assert contraction_lambda(3.0, 0.499) == math.inf
    assert stopping_lambda(math.inf, 1e-8, 1.0) == math.log(1e8) / 2.0


def test_stopping_weight_caps_the_formula():
    # the formula value is kept when moderate, capped when astronomical
    assert stopping_lambda(5.0, 1e-8, 1.0) == pytest.approx(5.0)
    cap = math.log(1e8) / 2.0
    assert stopping_lambda(900.0, 1e-8, 1.0) == pytest.approx(cap)
    assert stopping_lambda(0.2, 1e-2, 10.0) == 1.0  # floored at 1


def test_eta_norm_of_constant_segment_is_its_magnitude():
    eta = InitialSegment.from_function(lambda t: -3.0, 0.5, 0.125)
    assert eta_norm_alpha(eta, ALPHA) == pytest.approx(3.0)
    point = InitialSegment.from_function(lambda t: 2.0, 0.0, 0.125)
    assert eta_norm_alpha(point, ALPHA) == pytest.approx(2.0)
    ramp = InitialSegment.from_function(lambda t: 1.0 + t, 0.5, 0.0625)
    assert eta_norm_alpha(ramp, ALPHA) >= 1.0


def test_eta_norm_is_the_alpha_norm_of_the_segment_read_as_a_path_on_0_r():
    eta = InitialSegment.from_function(lambda t: np.array([np.sin(7.0 * t), t * t]), 0.5, 1 / 64)
    grid = TimeGrid(0.0, eta.n_steps * eta.h, 0, eta.n_steps, eta.h)
    assert eta_norm_alpha(eta, ALPHA) == norm_alpha_infty(SamplePath(grid, eta.values), ALPHA)


# --- declared-constant audits and regimes ---------------------------------


@pytest.mark.parametrize("name", ["additive", "linear", "sine", "hereditary-sup"])
def test_preset_constants_survive_the_audit(name):
    report = validate_hypotheses(coefficient_preset(name))
    assert report.ok, [c.clause for c in report.violations()]


def test_audit_catches_an_understated_constant():
    lying = CoefficientSet(
        sigma=lambda t, x: x * x,  # not globally Lipschitz on the box
        drift=lambda t, w: -w.current,
        m0=1.0, mn=0.0, l0=1.0, ln=1.0, k0=1.0, gamma=1.0,
        name="understated",
    )
    report = validate_hypotheses(lying)
    assert not report.ok
    bad = {c.clause for c in report.violations()}
    assert "sigma-space-lipschitz" in bad


@pytest.mark.parametrize("drift", [lambda t, w: -2.0 * w.current, lambda t, w: 2.0 * w.sup()],
                         ids=["pointwise", "hereditary"])
def test_audit_catches_an_understated_drift_constant(drift):
    # both drifts are 2-Lipschitz and grow like 2 sup|x|, against ln = l0 = 1
    lying = dataclasses.replace(coefficient_preset("sine"), drift=drift, name="understated")
    for seed in (0, 1, 7):
        bad = {c.clause for c in validate_hypotheses(lying, seed=seed).violations()}
        assert {"drift-lipschitz", "drift-growth"} <= bad


def test_audit_measures_a_vector_drift_in_one_norm():
    # b = -x in d = 2 obeys |b| <= sup |x| in the Euclidean norm on both sides
    contraction = CoefficientSet(
        sigma=lambda t, x: np.zeros(np.shape(x) + (1,)),
        drift=lambda t, w: -w.current,
        l0=1.0, ln=1.0, k0=1.0, d=2, m=1,
    )
    for seed in (0, 1, 7):
        report = validate_hypotheses(contraction, seed=seed)
        assert report.ok, [(c.clause, c.worst_quotient) for c in report.violations()]


def test_coefficient_set_rejects_bad_constants():
    with pytest.raises(ValueError):
        CoefficientSet(
            sigma=lambda t, x: x, drift=lambda t, w: w.current,
            m0=-1.0, mn=0.0, l0=0.0, ln=0.0, k0=1.0, gamma=0.0,
        )


def test_regime_report_flags():
    rep = regime_report(coefficient_preset("sine"), ALPHA, hurst=HURST)
    assert rep.alpha0 == pytest.approx(0.5)
    assert rep.pathwise and rep.moment and rep.rho_ok
    # alpha too small for the driver regularity switches both regimes off
    rep_low = regime_report(coefficient_preset("sine"), 0.2, hurst=HURST)
    assert not rep_low.pathwise and not rep_low.moment
    # gamma = 1 tightens the moment cap but 0.3 still clears it
    rep_lin = regime_report(coefficient_preset("linear"), ALPHA, hurst=HURST)
    assert rep_lin.moment_cap == pytest.approx(0.5)


def test_a_priori_bound_covers_a_batch():
    eta_fn = eta_preset("constant")
    coeffs = coefficient_preset("sine")
    records = []
    for seed in range(12):
        grid = make_grid(1.0, 256, 0.25)
        g = driver_on(grid, seed=seed)
        eta = InitialSegment.from_function(eta_fn, 0.25, grid.h)
        cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
        bundle = solve_euler(coeffs, eta, g, cfg)
        records.append(a_priori_record(bundle.path, eta, g, coeffs, ALPHA))
    fit = a_priori_bound_report(records)
    assert fit.n_records == 12
    assert fit.rate >= 0.0
    assert fit.max_log_slack <= 1e-12
    assert all(fit.admits(rec) for rec in records)


@pytest.mark.parametrize("scheme", ["picard", "euler"])
def test_a_reported_solve_sweeps_the_driver_once(monkeypatch, scheme):
    import sddelab.norms
    import sddelab.solver

    calls = []
    real = sddelab.norms.lambda_alpha

    def counted(g, alpha):
        calls.append(alpha)
        return real(g, alpha)

    monkeypatch.setattr(sddelab.norms, "lambda_alpha", counted)
    monkeypatch.setattr(sddelab.solver, "lambda_alpha", counted)
    grid = make_grid(1.0, 128, 0.25)
    g = driver_on(grid, seed=4)
    eta = parts(grid)
    coeffs = coefficient_preset("sine")
    cfg = SolverConfig(alpha=ALPHA, grid=grid, scheme=scheme)
    bundle = solve(coeffs, eta, g, cfg)
    assert len(calls) == 1
    monkeypatch.undo()
    assert bundle.norm_report.lambda_alpha == real(g, ALPHA)
    assert bundle.a_priori == a_priori_record(bundle.path, eta, g, coeffs, ALPHA)


def test_solver_config_validation():
    grid = make_grid(1.0, 64)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.6, grid=grid)
    with pytest.raises(ValueError):
        SolverConfig(alpha=ALPHA, grid=grid, lam=0.5)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.2, grid=grid, hurst=0.75)
    with pytest.raises(ValueError):
        SolverConfig(alpha=ALPHA, grid=grid, scheme="runge-kutta")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("key", ["lam", "picard_tol"])
def test_solver_config_refuses_a_non_finite_weight_or_tolerance(key, bad):
    # NaN and inf pass an ordering check such as lam < 1, so finiteness is its own rule
    with pytest.raises(ValueError, match="must be finite"):
        SolverConfig(alpha=ALPHA, grid=make_grid(1.0, 64), **{key: bad})
