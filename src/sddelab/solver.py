"""Delay-equation solvers: explicit Euler and Picard fixed-point iteration.

The equation on [0, T] with history eta on [-r, 0] reads

    X(t) = eta(0) + int_0^t b(s, X|_[-r,s]) ds + int_0^t sigma(s, X(s-r)) dg(s)

with the stochastic term a pathwise Young integral against the driver g.
Euler is the production scheme (explicit because the sigma argument lags
by r); Picard iterates the integral operator directly and serves as the
fidelity and uniqueness instrument.

Both schemes discretize the integrals with left-point sums on the same
grid, so the discrete Picard operator is causal: its unique fixed point
is exactly the Euler path, and iterate k matches it on the first k main
nodes.  Picard therefore converges super-geometrically once the drift
and diffusion are Lipschitz on the visited range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .grids import GridError, InitialSegment, SamplePath, TimeGrid, require_same_grid, same_step
from .integrate import PathWindow
from .norms import NormReport, _check_alpha, check_alpha_window, compute_norm_report, lambda_alpha
from .norms import norm_alpha_infty, norm_alpha_lambda

__all__ = [
    "CoefficientSet",
    "SolverConfig",
    "SolutionBundle",
    "DivergenceError",
    "phi_gamma_alpha",
    "contraction_lambda",
    "stopping_lambda",
    "solve_euler",
    "solve_picard",
    "solve",
    "validate_hypotheses",
    "HypothesisReport",
    "ClauseReport",
    "APrioriRecord",
    "a_priori_record",
    "FittedBound",
    "a_priori_bound_report",
    "RegimeReport",
    "regime_report",
]

SCHEMES = ("euler", "picard")

# hypothesis checks allow this much relative slack before flagging
HYP_REL_SLACK = 1e-6

PURPOSE_HYP = 2


class DivergenceError(RuntimeError):
    """A solver produced a non-finite value."""

    def __init__(self, node: int, time: float):
        self.node = node
        self.time = time
        super().__init__(
            f"solution became non-finite at node {node} (t = {time:.6g}); "
            "the scheme has diverged"
        )


@dataclass(frozen=True)
class CoefficientSet:
    """Diffusion sigma, drift b, and the constants they are declared to obey.

    sigma(t, x) maps states of shape (..., d) to (..., d, m), elementwise
    over the leading batch axes; t is a float or node times of shape
    (..., 1).  The drift b(t, window) reads the paths on [-r, t] through a
    PathWindow: window.current and the running max window.sup(), (..., d)
    per front and row; a pointwise drift b(t, X(t)) reads only current.
    It is called once per Picard iteration (all main fronts), once per
    drift_integral call and once per Euler step (one advancing window).
    The constants:

    m0    space-Lipschitz and time-Hoelder constant of sigma
    mn    Hoelder-delta constant of the spatial derivative (per box N)
    beta  time-Hoelder exponent of sigma
    delta derivative-Hoelder exponent
    l0    drift growth constant, |b(t, .)| <= l0 * sup + b0(t)
    ln    drift Lipschitz constant (per box N)
    b0    optional integrable time function in the growth bound
    k0    growth constant of sigma, |sigma(t, x)| <= k0 (1 + |x|^gamma)
    gamma growth exponent in [0, 1]
    rho   integrability order of b0 (>= 2)
    """

    sigma: Callable[[float, np.ndarray], np.ndarray]
    drift: Callable[[float, PathWindow], np.ndarray]
    sigma_dx: Callable[[float, np.ndarray], np.ndarray] | None = None
    m0: float = 0.0
    mn: float = 0.0
    beta: float = 1.0
    delta: float = 1.0
    l0: float = 0.0
    ln: float = 0.0
    b0: Callable[[float], float] | None = None
    k0: float = 0.0
    gamma: float = 0.0
    rho: float = 2.0
    d: int = 1
    m: int = 1
    name: str = ""

    def __post_init__(self):
        if not (0 < self.beta <= 1 and 0 < self.delta <= 1):
            raise ValueError("beta and delta must lie in (0, 1]")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.rho < 2:
            raise ValueError(f"rho must be >= 2, got {self.rho}")
        for label in ("m0", "mn", "l0", "ln", "k0"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} must be >= 0")

    def b0_at(self, t: float) -> float:
        return 0.0 if self.b0 is None else float(self.b0(t))

    def b0_norm(self, alpha: float, T: float) -> float:
        """L^(1/alpha) norm of b0 over [0, T], by adaptive quadrature."""
        if self.b0 is None:
            return 0.0
        from scipy.integrate import quad

        p = 1.0 / alpha
        val, _ = quad(lambda s: abs(self.b0(s)) ** p, 0.0, T, limit=200)
        return float(val ** alpha)


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    grid: TimeGrid
    scheme: str = "euler"
    lam: float | None = None
    picard_tol: float = 1e-8
    picard_max_iter: int = 50
    picard_init: str = "constant"
    hurst: float | None = None
    compute_report: bool = True

    def __post_init__(self):
        _check_alpha(self.alpha)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be euler or picard, got {self.scheme!r}")
        if self.lam is not None and self.lam < 1:
            raise ValueError(f"lambda must be >= 1, got {self.lam}")
        if self.picard_tol <= 0 or self.picard_max_iter < 1:
            raise ValueError("picard_tol must be > 0 and picard_max_iter >= 1")
        if self.picard_init not in ("constant", "euler"):
            raise ValueError(f"picard_init must be constant or euler, got {self.picard_init!r}")
        if self.hurst is not None:
            if not 0 < self.hurst < 1:
                raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
            check_alpha_window(self.alpha, self.hurst)


@dataclass(frozen=True)
class SolutionBundle:
    path: SamplePath
    scheme_used: str
    iterations: int = 0
    lam: float | None = None
    lam_formula: float | None = None
    converged: bool = True
    residuals: tuple[float, ...] = ()
    norm_report: NormReport | None = None
    a_priori: "APrioriRecord | None" = None
    regime: "RegimeReport | None" = None


def phi_gamma_alpha(gamma: float, alpha: float) -> float:
    """Exponent phi(gamma, alpha) in [alpha, 2 alpha] from the growth hypothesis.

    2 alpha when gamma = 1; alpha for small gamma; otherwise the midpoint
    of the admissible interval (1 + (2 alpha - 1)/gamma, 2 alpha].
    """
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    _check_alpha(alpha)
    if gamma == 1:
        return 2 * alpha
    if gamma < (1 - 2 * alpha) / (1 - alpha):
        return alpha
    lo = 1 + (2 * alpha - 1) / gamma
    return 0.5 * (lo + 2 * alpha)


def contraction_lambda(lambda_alpha_value: float, alpha: float) -> float:
    """Weight for the Picard contraction norm, scaled to the driver roughness.

    lambda = max(1, (4 (1 + Lambda_alpha))^(1/(1-2 alpha))).  The exact
    proof constants are unavailable; this is a documented heuristic.
    """
    if lambda_alpha_value < 0:
        raise ValueError("Lambda_alpha must be >= 0")
    return max(1.0, (4.0 * (1.0 + lambda_alpha_value)) ** (1.0 / (1.0 - 2 * alpha)))


def stopping_lambda(lam_formula: float, picard_tol: float, horizon: float) -> float:
    """Weight actually used in the stopping norm.

    The weighted and unweighted norms differ by up to e^(lambda T); a
    weighted residual below tol certifies nothing at the horizon once
    that factor swamps 1/tol.  Capping at ln(1/tol)/(2T) splits the
    tolerance budget evenly between the equivalence factor and the
    certified residual, so stopping still witnesses convergence of the
    whole path, not just its first few nodes.
    """
    cap = math.log(1.0 / picard_tol) / (2.0 * horizon)
    return max(1.0, min(lam_formula, cap))


def _check_inputs(
    coeffs: CoefficientSet, eta: InitialSegment, g: SamplePath, grid: TimeGrid
) -> None:
    if eta.n_steps != grid.n_history:
        raise GridError(
            f"initial segment has {eta.n_steps} steps but the grid history has {grid.n_history}"
        )
    if not same_step(grid.h, eta.h):
        raise GridError(f"initial segment step {eta.h} does not match grid step {grid.h}")
    if eta.dim != coeffs.d:
        raise GridError(f"initial segment dim {eta.dim} != coefficient dim {coeffs.d}")
    require_same_grid(grid.main_only(), g.grid)
    if g.dim != coeffs.m:
        raise GridError(f"driver dim {g.dim} != coefficient driver dim {coeffs.m}")


def _history_array(eta: InitialSegment, grid: TimeGrid) -> np.ndarray:
    X = np.empty((grid.n_nodes, eta.dim))
    X[: grid.n_history + 1] = eta.values
    return X


def _finish(
    coeffs: CoefficientSet,
    eta: InitialSegment,
    g: SamplePath,
    cfg: SolverConfig,
    path: SamplePath,
    scheme: str,
    iterations: int = 0,
    lam: float | None = None,
    lam_formula: float | None = None,
    converged: bool = True,
    residuals: tuple[float, ...] = (),
    lam_g: float | None = None,
) -> SolutionBundle:
    """Bundle a solved path; the report reuses lam_g = Lambda_alpha(g) when given."""
    report = a_pri = reg = None
    if cfg.compute_report:
        lam_used = lam if lam is not None else 1.0
        report = compute_norm_report(
            path, cfg.alpha, lam=lam_used, r=path.grid.r, driver=g, driver_lambda=lam_g
        )
        a_pri = a_priori_record(path, eta, g, coeffs, cfg.alpha, report=report)
        reg = regime_report(coeffs, cfg.alpha, cfg.hurst)
    return SolutionBundle(
        path=path,
        scheme_used=scheme,
        iterations=iterations,
        lam=lam,
        lam_formula=lam_formula,
        converged=converged,
        residuals=residuals,
        norm_report=report,
        a_priori=a_pri,
        regime=reg,
    )


def _euler_steps(
    coeffs: CoefficientSet,
    X: np.ndarray,
    lags: np.ndarray,
    times: np.ndarray,
    dg: np.ndarray,
    h: float,
) -> None:
    """Advance every row of X[..., nodes, d] through the Euler recursion, in place.

    Rows hold their histories right-aligned at the shared zero index
    i0 = nodes - 1 - n_main; a row with lag history steps reads its sigma
    argument at node k - lag.  dg[..., j, :], the driver increment of step
    j, broadcasts against the rows.  The one-path operation order is kept,
    so each row equals its own batch-of-one solve bit for bit.  The drift
    reads every row through one PathWindow from node 0, moved on per step,
    so a row with a shorter history must pad the nodes before it with its
    first history value; no window functional changes under that padding.
    """
    batch, (nodes, d) = X.shape[:-2], X.shape[-2:]
    n = dg.shape[-2]
    i0 = nodes - 1 - n
    lags = np.broadcast_to(lags, batch)
    # row-major node number of each row's sigma argument, less k
    lag_nodes = np.arange(X.size // (nodes * d)).reshape(batch) * nodes - lags
    steps = np.moveaxis(dg, -2, 0)[..., None]
    sigma_shape = batch + (d, coeffs.m)
    drift_fn, sigma_fn = coeffs.drift, coeffs.sigma
    window = PathWindow(X, i0)
    for j in range(n):
        k = i0 + j
        t_k = times[k]
        x = X[..., k, :]
        bv = np.asarray(drift_fn(t_k, window), dtype=float).reshape(x.shape)
        lagged = X.reshape(-1, d).take(lag_nodes + k, axis=0)
        sv = np.asarray(sigma_fn(t_k, lagged), dtype=float).reshape(sigma_shape)
        new = x + bv * h + (sv @ steps[j])[..., 0]
        X[..., k + 1, :] = new
        if not np.isfinite(new).all():
            row = tuple(np.argwhere(~np.isfinite(new).all(axis=-1))[0])
            raise DivergenceError(k + 1 - i0 + int(lags[row]), float(times[k + 1]))
        window._advance()


def solve_euler(
    coeffs: CoefficientSet, eta: InitialSegment, g: SamplePath, cfg: SolverConfig
) -> SolutionBundle:
    """Explicit Euler recursion; the sigma argument is read r behind the front.

    X(t_{k+1}) = X(t_k) + b(t_k, X|_[-r, t_k]) h + sigma(t_k, X(t_k - r)) dg_k.
    The history on [-r, 0] is copied from eta bit-exactly.
    """
    grid = cfg.grid
    _check_inputs(coeffs, eta, g, grid)
    X = _history_array(eta, grid)
    _euler_steps(
        coeffs, X[None], np.array([grid.n_history]), grid.times(),
        np.diff(g.values, axis=0), grid.h,
    )
    path = SamplePath(grid, X, meta={"scheme": "euler"})
    return _finish(coeffs, eta, g, cfg, path, "euler")


def _apply_operator(
    coeffs: CoefficientSet,
    y: np.ndarray,
    grid: TimeGrid,
    times: np.ndarray,
    dg: np.ndarray,
) -> np.ndarray:
    """One application of the discrete integral operator to the iterate y."""
    i0 = grid.index_of_zero
    nh = grid.n_history
    n = grid.n_main
    d, m = coeffs.d, coeffs.m
    front = times[i0 : i0 + n]
    window = PathWindow(y, np.arange(i0, i0 + n))
    bev = np.asarray(coeffs.drift(front[:, None], window), dtype=float).reshape(n, d)
    sev = np.asarray(coeffs.sigma(front[:, None], y[i0 - nh : i0 - nh + n]), dtype=float)
    terms = bev * grid.h + np.einsum("kdm,km->kd", sev.reshape(n, d, m), dg)
    out = y.copy()
    out[i0 + 1 :] = y[i0] + np.cumsum(terms, axis=0)
    return out


def solve_picard(
    coeffs: CoefficientSet, eta: InitialSegment, g: SamplePath, cfg: SolverConfig
) -> SolutionBundle:
    """Fixed-point iteration of the integral operator in the weighted norm.

    Starts from eta(0) extended constantly (or from the Euler path) and
    stops when the iterate difference drops below picard_tol in the
    lambda-weighted alpha-norm.  Non-convergence within max_iter is
    flagged on the bundle, not raised.
    """
    grid = cfg.grid
    _check_inputs(coeffs, eta, g, grid)
    times = grid.times()
    dg = np.diff(g.values, axis=0)
    lam = cfg.lam
    lam_g = lambda_alpha(g, cfg.alpha)
    lam_formula = contraction_lambda(lam_g, cfg.alpha)
    if lam is None:
        lam = stopping_lambda(lam_formula, cfg.picard_tol, grid.t_end)
    if cfg.picard_init == "euler":
        ecfg = replace(cfg, scheme="euler", compute_report=False)
        y = solve_euler(coeffs, eta, g, ecfg).path.values.copy()
    else:
        y = _history_array(eta, grid)
        y[grid.index_of_zero :] = eta.value_at_zero()
    residuals: list[float] = []
    converged = False
    for iterations in range(1, cfg.picard_max_iter + 1):
        y_next = _apply_operator(coeffs, y, grid, times, dg)
        finite = np.isfinite(y_next).all(axis=1)
        if not finite.all():
            node = int(np.argmin(finite))
            raise DivergenceError(node, float(times[node]))
        diff = SamplePath(grid, y_next - y)
        res = norm_alpha_lambda(diff, cfg.alpha, lam, r=grid.r)
        residuals.append(res)
        y = y_next
        if res < cfg.picard_tol:
            converged = True
            break
    path = SamplePath(grid, y, meta={"scheme": "picard", "iterations": iterations})
    return _finish(
        coeffs, eta, g, cfg, path, "picard",
        iterations=iterations, lam=lam, lam_formula=lam_formula,
        converged=converged, residuals=tuple(residuals), lam_g=lam_g,
    )


def solve(
    coeffs: CoefficientSet, eta: InitialSegment, g: SamplePath, cfg: SolverConfig
) -> SolutionBundle:
    if cfg.scheme == "picard":
        return solve_picard(coeffs, eta, g, cfg)
    return solve_euler(coeffs, eta, g, cfg)


# ---------------------------------------------------------------------------
# hypothesis validation


@dataclass(frozen=True)
class ClauseReport:
    clause: str
    worst_quotient: float
    bound: float
    n_samples: int
    skipped: bool = False
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.skipped or self.worst_quotient <= self.bound * (1 + HYP_REL_SLACK) + 1e-12


@dataclass(frozen=True)
class HypothesisReport:
    clauses: tuple[ClauseReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)

    def violations(self) -> tuple[ClauseReport, ...]:
        return tuple(c for c in self.clauses if not c.ok)


def _quotient(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Worst lhs/rhs over samples; exact 0/0 pairs do not count."""
    lhs = np.asarray(lhs, float)
    rhs = np.asarray(rhs, float)
    live = ~((lhs == 0.0) & (rhs == 0.0))
    if not np.any(live):
        return 0.0
    with np.errstate(divide="ignore"):
        q = lhs[live] / rhs[live]
    return float(np.max(q))


def validate_hypotheses(
    coeffs: CoefficientSet,
    sample_budget: int = 200,
    box: float = 5.0,
    t_max: float = 1.0,
    seed: int = 0,
) -> HypothesisReport:
    """Spot-check the declared constants on random (t, s, x, y) samples.

    Samples states uniformly from [-box, box]^d and times from [0, t_max].
    The drift is probed on 17-node windows, constant at the sampled states
    or of independent draws from the box.  Violations beyond a 1e-6
    relative slack mark the clause as failed; the report is informational
    and the solvers do not consult it.
    """
    from .fbm import keyed_generator

    rng = keyed_generator(seed, PURPOSE_HYP)
    n = int(sample_budget)
    if n < 10:
        raise ValueError("sample_budget must be >= 10")
    d = coeffs.d
    ts = rng.uniform(0.0, t_max, size=n)
    ss = rng.uniform(0.0, t_max, size=n)
    xs = rng.uniform(-box, box, size=(n, d))
    ys = rng.uniform(-box, box, size=(n, d))
    clauses: list[ClauseReport] = []

    tcol = ts[:, None]

    def rows(fn, t, x) -> np.ndarray:
        """One flattened coefficient value per sample; norms then run per row."""
        return np.asarray(fn(t, x), dtype=float).reshape(len(t), -1)

    def norm(a: np.ndarray) -> np.ndarray:
        return np.linalg.norm(a, axis=1)

    # (H1).1 space Lipschitz of sigma
    lhs = norm(rows(coeffs.sigma, tcol, xs) - rows(coeffs.sigma, tcol, ys))
    clauses.append(ClauseReport("sigma-space-lipschitz", _quotient(lhs, norm(xs - ys)), coeffs.m0, n))

    # (H1).2 derivative Hoelder (needs the derivative evaluator)
    if coeffs.sigma_dx is None:
        clauses.append(ClauseReport("sigma-derivative-hoelder", 0.0, coeffs.mn, 0,
                                    skipped=True, note="no sigma_dx supplied"))
    else:
        dx = norm(rows(coeffs.sigma_dx, tcol, xs) - rows(coeffs.sigma_dx, tcol, ys))
        rhs = norm(xs - ys) ** coeffs.delta
        clauses.append(ClauseReport("sigma-derivative-hoelder", _quotient(dx, rhs), coeffs.mn, n))

    # (H1).3 time Hoelder of sigma
    lhs = norm(rows(coeffs.sigma, tcol, xs) - rows(coeffs.sigma, ss[:, None], xs))
    rhs = np.abs(ts - ss) ** coeffs.beta
    clauses.append(ClauseReport("sigma-time-hoelder", _quotient(lhs, rhs), coeffs.m0, n))

    # (H3) growth of sigma
    lhs = norm(rows(coeffs.sigma, tcol, xs))
    rhs = 1.0 + norm(xs) ** coeffs.gamma
    clauses.append(ClauseReport("sigma-growth", _quotient(lhs, rhs), coeffs.k0, n))

    # drift clauses on 2n window pairs (f, h) of n_knots values up to t:
    # n constant at the states (x, y), then n of uniform draws from the box;
    # the drift at f and at h, their gap and the size of f, both sup norms
    # over the window in the Euclidean norm the drift is measured in
    n_knots = 17
    drawn = rng.uniform(-box, box, size=(n, 2, n_knots, d))
    flat = np.broadcast_to(np.stack((xs, ys), axis=1)[:, :, None], drawn.shape)
    f, hh = np.moveaxis(np.concatenate((flat, drawn)), 1, 0)
    t2 = np.concatenate((tcol, tcol))
    bx = rows(coeffs.drift, t2, PathWindow(f, n_knots - 1))
    by = rows(coeffs.drift, t2, PathWindow(hh, n_knots - 1))
    gap = np.max(np.linalg.norm(f - hh, axis=-1), axis=-1)
    size = np.max(np.linalg.norm(f, axis=-1), axis=-1)
    clauses.append(ClauseReport("drift-lipschitz", _quotient(norm(bx - by), gap), coeffs.ln, 2 * n))
    cap = coeffs.l0 * size + np.tile([coeffs.b0_at(t) for t in ts], 2)
    clauses.append(ClauseReport("drift-growth", _quotient(norm(bx), cap), 1.0, 2 * n))

    return HypothesisReport(tuple(clauses))


# ---------------------------------------------------------------------------
# a-priori bound instrumentation and admissibility regimes


def eta_norm_alpha(eta: InitialSegment, alpha: float) -> float:
    """Alpha-norm of the history segment over [-r, 0].

    The norm is shift-invariant, so the segment is re-read as a path on
    [0, r] and passed through the ordinary entry point.
    """
    grid = TimeGrid(0.0, eta.n_steps * eta.h, 0, eta.n_steps, eta.h)
    return norm_alpha_infty(SamplePath(grid, eta.values), alpha)


@dataclass(frozen=True)
class APrioriRecord:
    """Structural quantities of the growth bound for one solved path.

    The bound reads  measured <= A (eta_norm + Lambda + 1) exp(c z)
    with z = Lambda^(1/(1-phi)); A and c are fitted across a batch by
    a_priori_bound_report.
    """

    alpha: float
    phi: float
    exponent: float
    eta_norm: float
    lambda_alpha: float
    measured: float

    @property
    def base(self) -> float:
        return self.eta_norm + self.lambda_alpha + 1.0

    @property
    def z(self) -> float:
        return self.lambda_alpha ** self.exponent


def a_priori_record(
    path: SamplePath,
    eta: InitialSegment,
    g: SamplePath,
    coeffs: CoefficientSet,
    alpha: float,
    *,
    report: NormReport | None = None,
) -> APrioriRecord:
    """Growth-bound quantities of one solved path.

    Lambda_alpha(g) and the measured alpha-norm over [-r, T] are read from
    `report` when the caller already computed it for this path and driver.
    """
    phi = phi_gamma_alpha(coeffs.gamma, alpha)
    if report is None:
        lam_g = lambda_alpha(g, alpha)
        measured = norm_alpha_infty(path, alpha, r=path.grid.r)
    else:
        lam_g, measured = report.lambda_alpha, report.norm_alpha_infty
    return APrioriRecord(
        alpha=alpha,
        phi=phi,
        exponent=1.0 / (1.0 - phi),
        eta_norm=eta_norm_alpha(eta, alpha),
        lambda_alpha=lam_g,
        measured=measured,
    )


@dataclass(frozen=True)
class FittedBound:
    """Smallest constants making measured <= A base exp(c z) over a batch."""

    n_records: int
    amplitude: float
    rate: float
    max_log_slack: float

    def admits(self, rec: APrioriRecord, slack: float = 1e-9) -> bool:
        cap = self.amplitude * rec.base * math.exp(self.rate * rec.z)
        return rec.measured <= cap * (1 + slack)


def a_priori_bound_report(records: Sequence[APrioriRecord]) -> FittedBound:
    """Fit the two bound constants over a batch of solved paths.

    Least-squares slope of log(measured/base) against z, clamped to be
    nonnegative, then the amplitude is raised until every record is
    covered (so max_log_slack is 0 by construction).
    """
    recs = [rec for rec in records if rec.measured > 0]
    if not recs:
        return FittedBound(0, 1.0, 0.0, 0.0)
    z = np.array([rec.z for rec in recs])
    y = np.log([rec.measured / rec.base for rec in recs])
    var = float(np.var(z))
    rate = max(0.0, float(np.cov(z, y, bias=True)[0, 1] / var)) if var > 0 else 0.0
    log_a = float(np.max(y - rate * z))
    slack = float(np.max(y - (log_a + rate * z)))
    return FittedBound(len(recs), math.exp(log_a), rate, slack)


@dataclass(frozen=True)
class RegimeReport:
    """Which admissibility regime the pair (alpha, coefficients) sits in.

    alpha0 = min(1/2, beta, delta/(1+delta)) bounds the pathwise regime;
    the moment regime widens the cap to max(alpha0, (2-gamma)/4); both
    additionally need alpha > 1 - H when the Hurst index is known.
    """

    alpha: float
    hurst: float | None
    alpha0: float
    moment_cap: float
    pathwise: bool
    moment: bool
    rho_ok: bool

    def describe(self) -> str:
        h_part = "H unknown" if self.hurst is None else f"H = {self.hurst:g}"
        return (
            f"alpha = {self.alpha:g} ({h_part}): alpha0 = {self.alpha0:g}, "
            f"pathwise regime {'yes' if self.pathwise else 'no'}, "
            f"moment regime (cap {self.moment_cap:g}) {'yes' if self.moment else 'no'}, "
            f"rho admissible {'yes' if self.rho_ok else 'no'}"
        )


def regime_report(coeffs: CoefficientSet, alpha: float, hurst: float | None = None) -> RegimeReport:
    alpha0 = min(0.5, coeffs.beta, coeffs.delta / (1.0 + coeffs.delta))
    moment_cap = max(alpha0, (2.0 - coeffs.gamma) / 4.0)
    h_ok = True if hurst is None else alpha > 1.0 - hurst
    return RegimeReport(
        alpha=alpha,
        hurst=hurst,
        alpha0=alpha0,
        moment_cap=moment_cap,
        pathwise=h_ok and alpha < alpha0,
        moment=h_ok and alpha < moment_cap and coeffs.rho <= 1.0 / alpha,
        rho_ok=coeffs.rho <= 1.0 / alpha,
    )
