"""Delay-to-zero convergence experiments and driver-roughness statistics.

For a fixed driver path the solution X^r of the delay equation converges
to the no-delay solution X as r -> 0, in the alpha-norm on [0, T] and
almost surely / in L^p over the driver law.  This module runs that
experiment for every drift, hereditary ones included: one driver per
seed shared across every delay (so distances reflect the delay only),
alpha-norm and sup distances per (seed, r), log-log rate fits, Monte
Carlo L^p means, and Fernique-style moments of the roughness functional
Lambda_alpha(W).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._singular import _magnitude
from .fbm import FbmConfig, generate_fbm
from .grids import InitialSegment, SamplePath, main_segment, make_grid
from .norms import _check_alpha, alpha_infty_rows, check_alpha_window, lambda_alpha_rows
from .solver import CoefficientSet, euler_paths

__all__ = [
    "ConvergenceReport",
    "RateFit",
    "FerniqueRecord",
    "GateReport",
    "pathwise_convergence_study",
    "lp_convergence_study",
    "rate_fit",
    "fernique_statistics",
    "evaluate_convergence_gates",
    "default_delays",
]

# drivers stepped together by lp_convergence_study; bounds the batch array
# to about 10 MB at the default n_main = 4096 with the 1/4 largest delay
_SEED_CHUNK = 32


def default_delays(T: float = 1.0, k_range: Sequence[int] = range(2, 9)) -> tuple[float, ...]:
    """The study's delay ladder T 2^-k, largest first."""
    return tuple(T * 2.0 ** (-k) for k in k_range)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-seed, per-delay distances between X and X^r, plus L^p summaries.

    dist_alpha and dist_sup have shape (n_seeds, n_delays); dist_sup is the
    sup over nodes of the euclidean distance, so SamplePath.sup_norm of
    X - X^r bit for bit.  lp_means and lp_stderr have shape
    (len(p_list), n_delays).  dominating is the per-seed max over delays
    of the alpha-norm distance (the finiteness proxy for the
    dominated-convergence argument).
    """

    delays: tuple[float, ...]
    alpha: float
    p_list: tuple[float, ...]
    seeds: tuple[int, ...]
    dist_alpha: np.ndarray
    dist_sup: np.ndarray
    lambda_alpha_samples: np.ndarray
    lp_means: np.ndarray
    lp_stderr: np.ndarray
    dominating: np.ndarray
    preset: str = ""

    def __post_init__(self):
        d = np.asarray(self.delays, float)
        if d.size and np.any(np.diff(d) >= 0):
            raise ValueError("delays must be strictly decreasing")
        if np.any(self.dist_alpha < 0) or np.any(self.dist_sup < 0):
            raise ValueError("distances must be nonnegative")


def _delay_distances(
    coeffs: CoefficientSet,
    eta_fn: Callable[[float], float],
    drivers: Sequence[SamplePath],
    alpha: float,
    delays: Sequence[float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alpha-norm and sup distances of X vs each X^r, plus Lambda_alpha, per driver.

    X and every X^r of every driver are stepped together by euler_paths,
    one (driver, delay) batch; the distances of the whole batch come from
    one kernel call and the Lambda_alpha values from one sweep.
    """
    h, n_main = drivers[0].grid.h, drivers[0].grid.n_main
    etas = [InitialSegment.from_function(eta_fn, r, h) for r in (0.0,) + tuple(delays)]
    X = euler_paths(coeffs, etas, drivers)
    diff = X[:, :1, -n_main - 1 :] - X[:, 1:, -n_main - 1 :]
    del X  # the distance sweep below sets the study's memory peak
    da = alpha_infty_rows(diff, alpha, h)
    ds = _magnitude(diff, -1).max(axis=-1)
    lams = lambda_alpha_rows(np.stack([g.values for g in drivers]), alpha, h)
    return da, ds, lams


def _study_report(
    coeffs: CoefficientSet,
    eta_fn: Callable[[float], float],
    chunks: Iterable[Sequence[SamplePath]],
    alpha: float,
    delays: Sequence[float],
    p_list: Sequence[float],
    seeds: Sequence[int],
) -> ConvergenceReport:
    """Solve each chunk of drivers as one batch and summarize every row."""
    _check_alpha(alpha)  # before any solve, not after the first chunk
    delays = tuple(float(r) for r in delays)
    parts = [_delay_distances(coeffs, eta_fn, drivers, alpha, delays) for drivers in chunks]
    da, ds, lams = (np.concatenate(part) for part in zip(*parts))
    n_seeds = da.shape[0]
    means = np.empty((len(p_list), len(delays)))
    errs = np.empty_like(means)
    for i, p in enumerate(p_list):
        powered = da ** p
        means[i] = powered.mean(axis=0)
        errs[i] = powered.std(axis=0, ddof=1) / np.sqrt(n_seeds) if n_seeds > 1 else 0.0
    return ConvergenceReport(
        delays=delays,
        alpha=alpha,
        p_list=tuple(float(p) for p in p_list),
        seeds=tuple(seeds),
        dist_alpha=da,
        dist_sup=ds,
        lambda_alpha_samples=lams,
        lp_means=means,
        lp_stderr=errs,
        dominating=da.max(axis=1, initial=0.0),
        preset=coeffs.name,
    )


def pathwise_convergence_study(
    coeffs: CoefficientSet,
    eta_fn: Callable[[float], float],
    g: SamplePath,
    alpha: float,
    delays: Sequence[float],
    p_list: Sequence[float] = (1.0, 2.0),
) -> ConvergenceReport:
    """Single-driver slice of the study: solve X and every X^r on one path.

    The driver must live on the main [0, T] grid; every delay must be a
    whole number of its steps.
    """
    seed = int((g.meta or {}).get("seed", -1))
    return _study_report(coeffs, eta_fn, [[main_segment(g)]], alpha, delays, p_list, (seed,))


def lp_convergence_study(
    coeffs: CoefficientSet,
    eta_fn: Callable[[float], float],
    fbm_cfg: FbmConfig,
    alpha: float,
    delays: Sequence[float],
    p_list: Sequence[float] = (1.0, 2.0),
    n_seeds: int = 100,
    T: float = 1.0,
    n_main: int = 4096,
) -> ConvergenceReport:
    """Monte Carlo delay-to-zero study over independent driver paths.

    Driver i is derived from the master seed with path index i, and the
    same path serves every delay.  Drivers are solved in chunks of seeds,
    one batch per chunk; every row equals its own per-path solve, so the
    result does not depend on the chunking.
    """
    if n_seeds < 30:
        raise ValueError(f"n_seeds must be >= 30 for the Monte Carlo study, got {n_seeds}")
    grid0 = make_grid(float(T), int(n_main), 0.0)
    chunks = (
        [generate_fbm(grid0, fbm_cfg, index=i) for i in range(lo, min(lo + _SEED_CHUNK, n_seeds))]
        for lo in range(0, n_seeds, _SEED_CHUNK)
    )
    return _study_report(coeffs, eta_fn, chunks, alpha, delays, p_list, range(n_seeds))


@dataclass(frozen=True)
class RateFit:
    """Per-seed log-log slopes of distance against delay, plus medians."""

    slopes_alpha: np.ndarray
    slopes_sup: np.ndarray
    median_alpha: float
    median_sup: float


def _slopes(delays: np.ndarray, dist: np.ndarray) -> np.ndarray:
    out = np.empty(dist.shape[0])
    log_r_full = np.log(delays)
    for i in range(dist.shape[0]):
        usable = dist[i] > 0
        if usable.sum() < 4:
            raise ValueError(
                f"rate fit needs >= 4 delay points with positive distance; "
                f"seed row {i} has {int(usable.sum())}"
            )
        out[i] = np.polyfit(log_r_full[usable], np.log(dist[i][usable]), 1)[0]
    return out


def rate_fit(report: ConvergenceReport) -> RateFit:
    delays = np.asarray(report.delays, float)
    positive = delays > 0
    if positive.sum() < 4:
        raise ValueError("rate fit needs >= 4 positive delays")
    sa = _slopes(delays[positive], report.dist_alpha[:, positive])
    ss = _slopes(delays[positive], report.dist_sup[:, positive])
    return RateFit(sa, ss, float(np.median(sa)), float(np.median(ss)))


@dataclass(frozen=True)
class FerniqueRecord:
    """Sample statistics of Lambda_alpha(W) over independent driver paths."""

    alpha: float
    hurst: float
    n_seeds: int
    samples: np.ndarray
    moments: dict  # p -> sample mean of Lambda^p
    exp_moments: dict  # delta -> sample mean of exp(Lambda^delta)
    quantiles: dict  # q -> empirical quantile

    @property
    def all_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.samples))
            and all(np.isfinite(v) for v in self.moments.values())
            and all(np.isfinite(v) for v in self.exp_moments.values())
        )


def fernique_statistics(
    fbm_cfg: FbmConfig,
    alpha: float,
    n_seeds: int = 200,
    T: float = 1.0,
    n_main: int = 1024,
    moment_orders: Sequence[float] = (1.0, 2.0, 4.0),
    exp_orders: Sequence[float] = (0.5, 1.0, 1.5),
) -> FerniqueRecord:
    """Sample Lambda_alpha(W) per seed and summarize its integrability.

    The exponential moments exist for exponents below 2 (Gaussian
    concentration of the driver); the samples here just witness that at
    desk scale.
    """
    if n_seeds < 100:
        raise ValueError(f"n_seeds must be >= 100, got {n_seeds}")
    check_alpha_window(alpha, fbm_cfg.hurst)
    grid = make_grid(T, n_main, 0.0)
    drivers = np.stack([generate_fbm(grid, fbm_cfg, index=i).values for i in range(n_seeds)])
    samples = lambda_alpha_rows(drivers, alpha, grid.h)
    moments = {p: float(np.mean(samples ** p)) for p in moment_orders}
    exp_moments = {d: float(np.mean(np.exp(samples ** d))) for d in exp_orders}
    quantiles = {q: float(np.quantile(samples, q)) for q in (0.5, 0.9, 0.99)}
    return FerniqueRecord(
        alpha=alpha,
        hurst=fbm_cfg.hurst,
        n_seeds=n_seeds,
        samples=samples,
        moments=moments,
        exp_moments=exp_moments,
        quantiles=quantiles,
    )


@dataclass(frozen=True)
class GateReport:
    """The three acceptance gates of the delay study.

    endpoint: fraction of seeds whose alpha-distance at the smallest
    delay beats the largest delay (>= 95% required).  slope: median
    per-seed alpha-norm slope >= 1 - 2 alpha - 0.15.  lp: mean L^p
    distances for p in {1, 2} shrink by at least 4x across the ladder.
    """

    endpoint_fraction: float
    endpoint_ok: bool
    median_slope: float
    slope_floor: float
    slope_ok: bool
    lp_ratios: dict
    lp_ok: bool

    @property
    def ok(self) -> bool:
        return self.endpoint_ok and self.slope_ok and self.lp_ok

    def describe(self) -> str:
        lp = ", ".join(f"p={p:g}: {v:.2f}x" for p, v in sorted(self.lp_ratios.items()))
        return (
            f"endpoint decrease {self.endpoint_fraction:.1%} of seeds "
            f"({'ok' if self.endpoint_ok else 'FAIL'}); "
            f"median slope {self.median_slope:.3f} vs floor {self.slope_floor:.3f} "
            f"({'ok' if self.slope_ok else 'FAIL'}); "
            f"L^p shrink {lp} ({'ok' if self.lp_ok else 'FAIL'})"
        )


def evaluate_convergence_gates(
    report: ConvergenceReport,
    fit: RateFit | None = None,
) -> GateReport:
    if fit is None:
        fit = rate_fit(report)
    decreased = report.dist_alpha[:, -1] < report.dist_alpha[:, 0]
    frac = float(np.mean(decreased))
    floor = 1.0 - 2.0 * report.alpha - 0.15
    ratios = {}
    for i, p in enumerate(report.p_list):
        if p in (1.0, 2.0):
            last = report.lp_means[i, -1]
            ratios[p] = float(report.lp_means[i, 0] / last) if last > 0 else float("inf")
    lp_ok = all(v >= 4.0 for v in ratios.values()) if ratios else False
    return GateReport(
        endpoint_fraction=frac,
        endpoint_ok=frac >= 1.0 - 0.05,
        median_slope=fit.median_alpha,
        slope_floor=floor,
        slope_ok=fit.median_alpha >= floor,
        lp_ratios=ratios,
        lp_ok=lp_ok,
    )
