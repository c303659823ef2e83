"""End-to-end acceptance gates, one test per criterion.

Each test is self-contained and deterministic; `pytest -v` prints one
pass/fail line per criterion.  The slow entries are criterion 1 (three
100k-path driver batches, ~5 s) and criterion 7 (two full Monte Carlo
delay studies, ~2 min).
"""

import json

import numpy as np
from scipy.special import gamma as Gamma

from sddelab import (
    FbmConfig,
    InitialSegment,
    SamplePath,
    SolverConfig,
    coefficient_preset,
    default_delays,
    delta_r,
    eta_preset,
    euler_paths,
    evaluate_convergence_gates,
    fbm_covariance,
    fernique_statistics,
    generate_fbm,
    lambda_alpha,
    lp_convergence_study,
    main_segment,
    make_grid,
    norm_1ma_infty_T,
    norm_alpha_1,
    norm_alpha_infty,
    norm_alpha_lambda,
    norm_holder,
    nr_bounds_rows,
    rate_fit,
    sample_fbm_batch,
    shift_by_delay,
    sigma_increment_rows,
    solve_euler,
    solve_picard,
    young_integral,
)
from sddelab.cli import main as cli_main

ALPHA = 0.3
HURST = 0.75


def test_criterion_1_driver_covariance_matches_the_law():
    # empirical second moments of 100k paths vs the closed-form covariance,
    # on a 5x5 time lattice, within 3 standard errors entrywise; the two
    # paths of each circulant draw (rows 2i and 2i+1) must be uncorrelated
    N = 100_000
    idx = np.array([32, 64, 128, 192, 256])
    times = idx / 256.0
    grid = make_grid(1.0, 256)
    for hurst in (0.6, 0.75, 0.9):
        batch = sample_fbm_batch(grid, FbmConfig(hurst=hurst, seed=0), N)
        V = batch[:, idx].copy()
        del batch
        C = fbm_covariance(times[:, None], times[None, :], hurst)
        C_hat = V.T @ V / N
        # Var(X_s X_t) = C_ss C_tt + C_st^2 for a centered Gaussian pair
        se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / N)
        z = np.abs(C_hat - C) / se
        assert np.max(z) <= 3.0, f"H={hurst}: covariance off by {np.max(z):.2f} SE"
        # Var(X_s Y_t) = C_ss C_tt for independent X, Y
        cross = V[0::2].T @ V[1::2] / (N // 2)
        z = np.abs(cross) / np.sqrt(np.outer(np.diag(C), np.diag(C)) / (N // 2))
        assert np.max(z) <= 3.0, f"H={hurst}: paired paths correlated at {np.max(z):.2f} SE"


def test_criterion_2_norm_functionals_hit_their_oracles():
    # linear path on [0, 1]: every functional has a hand-derived value;
    # relative error <= 1e-2 at n = 4096 and first-order refinement
    # (exact-quadrature cases sit at machine floor instead)
    lam = 3.0
    ts = np.linspace(1e-9, 1.0, 2_000_001)
    dense_max = float(np.max(np.exp(-lam * ts) * (ts + ts**0.7 / 0.7)))
    cases = {
        "sup-type": (lambda f: norm_alpha_infty(f, ALPHA), 1.0 + 1.0 / 0.7),
        "hoelder": (lambda f: norm_holder(f, 0.7), 2.0),
        "driver": (lambda f: lambda_alpha(f, ALPHA), 1.0 / (Gamma(0.7) * Gamma(1.3))),
        "one-minus-a": (lambda f: norm_1ma_infty_T(f, ALPHA), 1.0 + 1.0 / ALPHA),
        "integral": (lambda f: norm_alpha_1(f, ALPHA), 1.0 / 0.7),
        "increment": (lambda f: delta_r(f, ALPHA, 1.0), 1.0 / 0.7),
        "weighted": (lambda f: norm_alpha_lambda(f, ALPHA, lam), dense_max),
    }
    for name, (functional, truth) in cases.items():
        errs = []
        for n in (2048, 4096):
            f = SamplePath.from_function(make_grid(1.0, n), lambda t: t)
            errs.append(abs(functional(f) - truth))
        rel = errs[1] / abs(truth)
        assert rel <= 1e-2, f"{name}: relative error {rel:.3e}"
        at_floor = errs[1] < 1e-10
        order = np.log2(errs[0] / errs[1]) if errs[1] > 0 else np.inf
        assert at_floor or order >= 1.0, f"{name}: order {order:.2f}, err {errs[1]:.3e}"


def test_criterion_3_driver_functional_and_integral_certificates():
    # closed form on the linear path, then the a-priori bound
    # |I(T)| <= Lambda_alpha(g) |f|_{alpha,1} on 100 simulated drivers
    ramp = SamplePath.from_function(make_grid(1.0, 4096), lambda t: t)
    truth = 1.0 / (Gamma(0.7) * Gamma(1.3))
    assert abs(lambda_alpha(ramp, ALPHA) - truth) <= 1e-12 * truth
    grid = make_grid(1.0, 256)
    violations = 0
    for seed in range(100):
        g = generate_fbm(grid, FbmConfig(hurst=HURST, seed=seed))
        cert = young_integral(g, g, alpha=ALPHA).certificate
        violations += not cert.satisfied
    assert violations == 0, f"{violations} of 100 certificates violated"


def test_criterion_4_rough_chain_rule_converges():
    # int_0^T g dg vs g(T)^2 / 2 across 100 drivers, comparing the same
    # path at n = 2048 and 4096; the left-point defect decays like the
    # summed squared increments (rate 2H - 1 = 0.5)
    rels = {2048: [], 4096: []}
    fine = make_grid(1.0, 4096)
    for seed in range(100):
        g_fine = generate_fbm(fine, FbmConfig(hurst=HURST, seed=seed))
        truth = 0.5 * g_fine.values[-1, 0] ** 2
        for n in (2048, 4096):
            g = SamplePath(make_grid(1.0, n), g_fine.values[:: 4096 // n])
            I = young_integral(g, g).path.values[-1, 0]
            rels[n].append(abs(I - truth) / max(1.0, abs(truth)))
    rels = {n: np.asarray(v) for n, v in rels.items()}
    median = float(np.median(rels[4096]))
    order = float(np.median(np.log2(rels[2048] / rels[4096])))
    assert median < 1e-2, f"median relative error {median:.3e}"
    assert order >= 0.4, f"median refinement order {order:.2f}"


def test_criterion_5_solution_paths_satisfy_the_stated_bounds():
    # for every preset and 100 drivers: the integral-operator bounds and
    # the composed sigma-increment inequality hold at every node; each
    # preset steps the 100 drivers as one Euler batch and audits the batch
    # in one call per audit
    grid = make_grid(1.0, 256, 0.25)
    eta = InitialSegment.from_function(eta_preset("constant"), grid.r, grid.h)
    drivers = [
        generate_fbm(grid.main_only(), FbmConfig(hurst=HURST, seed=seed)) for seed in range(100)
    ]
    driver_rows = np.stack([g.values for g in drivers])
    total_nr = total_sigma = 0
    for name in ("additive", "linear", "sine", "hereditary-sup"):
        coeffs = coefficient_preset(name)
        sols = [SamplePath(grid, values) for values in euler_paths(coeffs, [eta], drivers)[:, 0]]
        main = np.stack([main_segment(sol).values for sol in sols])
        delayed = np.stack([shift_by_delay(sol, grid.r).values for sol in sols])
        nr_reports = nr_bounds_rows(main, driver_rows, ALPHA, grid.h)
        total_nr += sum(rep.n_violations_sup for rep in nr_reports)
        total_sigma += sum(rep.n_violations for rep in sigma_increment_rows(
            coeffs.sigma, main, delayed, grid.h, ALPHA,
            beta=coeffs.beta, delta=coeffs.delta, m0=coeffs.m0, mn=coeffs.mn,
        ))
    assert total_nr == 0, f"{total_nr} integral-bound violations"
    assert total_sigma == 0, f"{total_sigma} sigma-increment violations"


def test_criterion_6_solver_exactness_refinement_and_uniqueness():
    # (a) additive dynamics integrate exactly
    grid = make_grid(1.0, 512, 0.25)
    g = generate_fbm(grid.main_only(), FbmConfig(hurst=HURST, seed=7))
    eta = InitialSegment.from_function(eta_preset("constant"), grid.r, grid.h)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, compute_report=False)
    bundle = solve_euler(coefficient_preset("additive"), eta, g, cfg)
    err = np.max(np.abs(bundle.path.main_values()[:, 0] - (1.0 + g.values[:, 0])))
    assert err < 1e-12, f"additive defect {err:.3e}"

    # (b) r >= T freezes the diffusion argument: a handwritten recursion
    grid_b = make_grid(1.0, 64, 1.0)
    g_b = generate_fbm(grid_b.main_only(), FbmConfig(hurst=HURST, seed=3))
    eta_b = InitialSegment.from_function(lambda t: 1.0 + t, grid_b.r, grid_b.h)
    path_b = solve_euler(
        coefficient_preset("linear"), eta_b, g_b,
        SolverConfig(alpha=ALPHA, grid=grid_b, compute_report=False),
    ).path.main_values()[:, 0]
    h = grid_b.h
    dg = np.diff(g_b.values[:, 0])
    x = np.empty(65)
    x[0] = 1.0
    for k in range(64):
        x[k + 1] = x[k] - x[k] * h + (1.0 + (k * h - 1.0)) * dg[k]
    assert np.array_equal(path_b, x)

    # (c) fixed-point solve vs an 8x finer explicit run on the same driver
    fine = make_grid(1.0, 8192, 0.25)
    g_fine = generate_fbm(fine.main_only(), FbmConfig(hurst=HURST, seed=10))
    eta_fn = eta_preset("constant")
    coeffs = coefficient_preset("sine")
    ref = solve_euler(
        coeffs, InitialSegment.from_function(eta_fn, 0.25, fine.h), g_fine,
        SolverConfig(alpha=ALPHA, grid=fine, compute_report=False),
    ).path.main_values()[::8, 0]
    coarse = make_grid(1.0, 1024, 0.25)
    g_coarse = SamplePath(coarse.main_only(), g_fine.values[::8])
    picard = solve_picard(
        coeffs, InitialSegment.from_function(eta_fn, 0.25, coarse.h), g_coarse,
        SolverConfig(alpha=ALPHA, grid=coarse, scheme="picard", compute_report=False),
    )
    assert picard.converged
    gap = np.max(np.abs(picard.path.main_values()[:, 0] - ref))
    assert gap <= 5e-3, f"coarse-vs-fine gap {gap:.3e}"

    # (d) two starting points land within 2 tol of each other in the
    # weighted norm the iteration contracts in
    grid_d = make_grid(1.0, 256, 0.25)
    g_d = generate_fbm(grid_d.main_only(), FbmConfig(hurst=HURST, seed=12))
    eta_d = InitialSegment.from_function(eta_fn, grid_d.r, grid_d.h)
    base = dict(alpha=ALPHA, grid=grid_d, scheme="picard", compute_report=False)
    from_const = solve_picard(coeffs, eta_d, g_d, SolverConfig(picard_init="constant", **base))
    from_euler = solve_picard(coeffs, eta_d, g_d, SolverConfig(picard_init="euler", **base))
    assert from_const.lam == from_euler.lam
    diff = from_const.path - from_euler.path
    assert norm_alpha_lambda(diff, ALPHA, from_const.lam, r=grid_d.r) <= 2e-8


def test_criterion_7_delay_to_zero_study_passes_its_gates():
    # full Monte Carlo study for both pointwise-drift presets: 100 drivers,
    # delays T 2^-k for k = 2..8, n = 4096; the report must clear the
    # endpoint, rate, and L^p shrinkage gates
    eta_fn = eta_preset("constant")
    for name in ("sine", "linear"):
        report = lp_convergence_study(
            coefficient_preset(name),
            eta_fn,
            FbmConfig(hurst=HURST, seed=0),
            ALPHA,
            default_delays(),
            n_seeds=100,
            T=1.0,
            n_main=4096,
        )
        gates = evaluate_convergence_gates(report, rate_fit(report))
        assert gates.endpoint_fraction >= 0.95, f"{name}: {gates.describe()}"
        assert gates.median_slope >= 0.25, f"{name}: {gates.describe()}"
        assert all(v >= 4.0 for v in gates.lp_ratios.values()), f"{name}: {gates.describe()}"
        assert gates.ok, f"{name}: {gates.describe()}"


def test_criterion_8_driver_functional_is_integrable_in_sample():
    # 200 independent draws of the driver functional: finite throughout,
    # and the two halves of the sample agree to within 5 standard errors
    rec = fernique_statistics(
        FbmConfig(hurst=HURST, seed=0), ALPHA, n_seeds=200, n_main=512
    )
    assert rec.all_finite
    assert rec.n_seeds == 200
    s = rec.samples
    first, second = s[:100], s[100:]
    se = np.sqrt(first.var(ddof=1) / 100 + second.var(ddof=1) / 100)
    gap = abs(first.mean() - second.mean())
    assert gap <= 5.0 * se, f"half-sample gap {gap:.3e} vs SE {se:.3e}"


def test_criterion_9_manifest_rerun_is_byte_identical(tmp_path):
    # a recorded run replayed from its manifest reproduces every output
    first = tmp_path / "first"
    assert cli_main([
        "solve", "--outdir", str(first), "--n-main", "256", "--seed", "4",
    ]) == 0
    again = tmp_path / "again"
    assert cli_main([
        "rerun", "--manifest", str(first), "--outdir", str(again),
    ]) == 0
    record = json.loads((first / "record.json").read_text())
    assert record["converged"] is True
    for name in ("solution.csv", "record.json"):
        assert (first / name).read_bytes() == (again / name).read_bytes()
