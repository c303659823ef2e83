"""The rows of the ROADMAP baseline layer table, timed with fixed seeds.

Each row is the best of REPEATS calls of one library function on inputs
built from seed 0.  The numbers are informational per-layer figures,
not gated metrics.
"""
from __future__ import annotations

import time

from sddelab import (
    FbmConfig,
    InitialSegment,
    SolverConfig,
    coefficient_preset,
    eta_preset,
    generate_fbm,
    lambda_alpha,
    make_grid,
    norm_1ma_infty_T,
    norm_alpha_infty,
    solve_euler,
    solve_picard,
)
from sddelab._singular import backward_increment_integrals

REPEATS = 3
ALPHA, HURST, R = 0.3, 0.75, 0.25


def best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def _solver_inputs(n: int, report: bool):
    grid = make_grid(1.0, n, R)
    g = generate_fbm(grid.main_only(), FbmConfig(hurst=HURST, seed=0))
    eta = InitialSegment.from_function(eta_preset("constant"), R, grid.h)
    cfg = SolverConfig(alpha=ALPHA, grid=grid, hurst=HURST, compute_report=report)
    return coefficient_preset("sine"), eta, g, cfg


def measure() -> dict[str, float]:
    main4096 = make_grid(1.0, 4096)
    cfg = FbmConfig(hurst=HURST, seed=0)
    path = generate_fbm(main4096, cfg)
    path2 = generate_fbm(main4096, FbmConfig(hurst=HURST, dim=2, seed=0))
    kappa, h = ALPHA + 1.0, main4096.h
    euler = _solver_inputs(4096, report=False)
    picard = _solver_inputs(1024, report=False)
    picard_report = _solver_inputs(1024, report=True)
    rows = {
        "baseline.solve_euler.n4096_s": lambda: solve_euler(*euler),
        "baseline.solve_picard.n1024_s": lambda: solve_picard(*picard),
        "baseline.solve_picard_report.n1024_s": lambda: solve_picard(*picard_report),
        "baseline.bii_scalar.n4096_s": lambda: backward_increment_integrals(
            path.values, kappa, h),
        "baseline.bii_2col.n4096_s": lambda: backward_increment_integrals(
            path2.values, kappa, h),
        "baseline.norm_alpha_infty.n4096_s": lambda: norm_alpha_infty(path, ALPHA),
        "baseline.lambda_alpha.n4096_s": lambda: lambda_alpha(path, ALPHA),
        "baseline.norm_1ma.n4096_s": lambda: norm_1ma_infty_T(path, ALPHA),
        "baseline.generate_fbm.n4096_s": lambda: generate_fbm(main4096, cfg),
    }
    return {name: best_of(fn) for name, fn in rows.items()}
