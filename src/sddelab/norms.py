"""Fractional norms and the derivative functional behind Young-type bounds.

The family, for a path f on [-r, T] and a driver g on [0, T]:

* norm_alpha_infty: sup over t of |f(t)| plus the backward singular
  integral of |f(t) - f(s)| (t - s)^(-alpha-1) from -r to t.
* norm_holder: sup norm plus the best Hoelder-mu ratio over node pairs.
* norm_alpha_lambda: the same node functional as norm_alpha_infty damped
  by exp(-lambda * t); equivalent to it with r- and T-dependent factors.
* weyl_derivative / lambda_alpha: the fractional derivative of g of order
  1 - alpha anchored at pairs s < t (phase dropped) and the scaled sup of
  its magnitude.
* norm_1ma_infty_T: the (1-alpha)-type driver seminorm whose ratio with
  Gamma factors dominates lambda_alpha.
* norm_alpha_1: the L1-type norm appearing in the integral bound
  certificate.
* delta_r: sup over u of the backward integral of delta-powered
  increments, the quantity controlling the sigma-increment estimates.

All integrals discretize by the product-linear rule in _singular, and
every magnitude, of a value |f(t)| or of an increment, comes from
_singular._magnitude (|x| for a scalar path).  So scaling a path by 2^k
scales each functional by exactly 2^k while its values stay normal
doubles, and a finite path never reads NaN.  A path with a NaN node
reads NaN, and one with inf nodes and no NaN reads inf, without a
warning.  The _singular kernels take batches (..., n_nodes, d): each
functional passes its path as a batch of one, and alpha_infty_rows and
lambda_alpha_rows pass whole batches.
Every sup is exact without the full sweep: the sups over nodes
(norm_alpha_infty, norm_alpha_lambda, delta_r), over anchored pairs
(lambda_alpha, norm_1ma_infty_T) and over lags (the Hoelder ratio of
norm_holder) run through _singular's certified sups, which reduce
exactly only what a certified bound lets reach the sup, and each equals
the full sweep's sup bit for bit.  Only norm_alpha_1 needs every node
and keeps the full sweep.  Gamma is a port of Cephes' (scipy's) Gamma,
so importing the package needs no scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._singular import (
    _magnitude,
    anchored_sweep,
    backward_increment_integrals,
    backward_increment_sups,
    cumulative_from_zero,
    hat_weights,
    holder_seminorm,
)
from .grids import SamplePath, main_segment

__all__ = [
    "norm_alpha_infty",
    "alpha_infty_rows",
    "norm_holder",
    "norm_alpha_lambda",
    "weyl_derivative",
    "lambda_alpha",
    "lambda_alpha_rows",
    "norm_1ma_infty_T",
    "norm_alpha_1",
    "delta_r",
    "NormReport",
    "compute_norm_report",
]

#: Cephes' rational approximation of Gamma on [2, 3]
_GAMMA_P = (
    1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
    4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
    1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
    7.14304917030273074085e-2, 1.00000000000000000320e0,
)


def _polevl(x: float, coef) -> float:
    """Horner evaluation of the polynomial with coefficients coef, highest first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _gamma(x: float) -> float:
    """Gamma(x) for 0 < x < 33, operation for operation as Cephes' Gamma.

    The argument is shifted into [2, 3] by the recurrence and the rational
    approximation taken there; it equals scipy.special.gamma bit for bit.
    """
    x, z = float(x), 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")


def check_alpha_window(alpha: float, hurst: float) -> None:
    """Require 1 - hurst < alpha < 1/2, where the driver functionals are finite."""
    if not 1.0 - hurst < alpha < 0.5:
        raise ValueError(
            f"alpha = {alpha:g} is not admissible for hurst = {hurst:g}: "
            f"alpha must lie in the open interval (1 - hurst, 1/2) = "
            f"({1.0 - hurst:g}, 0.5)"
        )


def check_delta_window(alpha: float, delta: float) -> None:
    """Require 0 < delta <= 1 and alpha < delta / (1 + delta), delta_r's window."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not alpha < delta / (1.0 + delta):
        raise ValueError(
            f"delta_r needs alpha < delta/(1+delta); got alpha={alpha}, delta={delta}"
        )


def _alpha_sups(values: np.ndarray, alpha: float, h: float, start: int, weights=None) -> np.ndarray:
    """Per path: sup over the nodes from start on of w(t) (|f(t)| + backward alpha-integral)."""
    level = _magnitude(values[..., start:, :], -1)
    return backward_increment_sups(values, alpha + 1.0, h, start=start, level=level, weights=weights)


def alpha_infty_rows(
    values: np.ndarray, alpha: float, h: float, start: int = 0
) -> np.ndarray:
    """norm_alpha_infty of every path of a (..., n_nodes, d) batch on one grid.

    The sup runs over the nodes from index start on; the result has shape
    (...), and each entry equals the path's own norm_alpha_infty bit for bit.
    """
    _check_alpha(alpha)
    return _alpha_sups(values, alpha, h, start)


def norm_alpha_infty(f: SamplePath, alpha: float, r: float | None = None) -> float:
    """sup_t ( |f(t)| + int_{-r}^t |f(t)-f(s)| (t-s)^(-alpha-1) ds )."""
    return float(alpha_infty_rows(f.values, alpha, f.grid.h, f.grid.history_start(r)))


def norm_holder(f: SamplePath, mu: float, r: float | None = None) -> float:
    """sup norm plus the Hoelder-mu increment ratio over [-r, T]."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"Hoelder exponent mu must lie in (0, 1], got {mu}")
    s0 = f.grid.history_start(r)
    vals = f.values[s0:]
    return float(np.max(_magnitude(vals, -1)) + holder_seminorm(vals, mu, f.grid.h))


def norm_alpha_lambda(
    f: SamplePath, alpha: float, lam: float, r: float | None = None
) -> float:
    """Weighted variant: sup_t e^(-lambda t) ( |f(t)| + backward integral ).

    The solver uses lambda >= 1; any finite lambda >= 0 is accepted
    (lambda = 0 recovers norm_alpha_infty).
    """
    _check_alpha(alpha)
    s0 = f.grid.history_start(r)
    return float(_alpha_sups(f.values, alpha, f.grid.h, s0, _damping(lam, f.grid.times()[s0:])))


def _damping(lam: float, times: np.ndarray) -> np.ndarray:
    """The weights e^(-lambda t) of norm_alpha_lambda at the node times."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    # large lambda overflows the history weight e^(lambda r); the sup counts a
    # node with an exactly zero profile as 0, not inf * 0 = nan
    with np.errstate(over="ignore"):
        return np.exp(-lam * times)


def weyl_derivative(g: SamplePath, alpha: float, s: float, t: float) -> float:
    """Order-(1-alpha) right-sided derivative of g between nodes s < t.

    Returns the real value with the complex phase dropped:
      (1/Gamma(alpha)) [ (g(s)-g(t))/(t-s)^(1-alpha)
                         + (1-alpha) int_s^t (g(s)-g(u)) (u-s)^(alpha-2) du ].
    """
    _check_alpha(alpha)
    if g.dim != 1:
        raise ValueError("weyl_derivative expects a scalar path")
    i, j = g.grid.index_of(s), g.grid.index_of(t)
    if not i < j:
        raise ValueError(f"need s < t on the grid, got s={s}, t={t}")
    h = g.grid.h
    m = j - i
    P, Q = hat_weights(2.0 - alpha, h, m)
    psi = g.values[i: j + 1, 0] - g.values[i, 0]
    K = float(np.dot(P[1:], psi[:-1]) + np.dot(Q[1:], psi[1:]))
    bracket = (g.values[i, 0] - g.values[j, 0]) / (m * h) ** (1.0 - alpha)
    bracket -= (1.0 - alpha) * K
    return bracket / _gamma(alpha)


def lambda_alpha_rows(values: np.ndarray, alpha: float, h: float) -> np.ndarray:
    """lambda_alpha of every path of a (..., n_nodes, d) batch on one [0, T] grid.

    Components enter the sweep as separate scalar rows and each path
    reports its largest; the result has shape (...), and each entry equals
    the path's own lambda_alpha bit for bit.
    """
    _check_alpha(alpha)
    comps = np.moveaxis(np.asarray(values, dtype=float), -1, -2)[..., None]
    sups = anchored_sweep(comps, alpha, h, 1.0 - alpha)
    return np.max(sups, axis=-1) / (_gamma(alpha) * _gamma(1.0 - alpha))


def lambda_alpha(g: SamplePath, alpha: float) -> float:
    """(1/Gamma(1-alpha)) sup_{s<t} |weyl_derivative(g, alpha, s, t)|.

    Evaluated on the main segment [0, T]; multi-component drivers report
    the largest component value.
    """
    gm = main_segment(g)
    return float(lambda_alpha_rows(gm.values, alpha, gm.grid.h))


def norm_1ma_infty_T(g: SamplePath, alpha: float) -> float:
    """sup_{s<t} ( |g(t)-g(s)|/(t-s)^(1-alpha)
                   + int_s^t |g(u)-g(s)| (u-s)^(alpha-2) du ) on [0, T]."""
    _check_alpha(alpha)
    gm = main_segment(g)
    return float(anchored_sweep(gm.values, alpha, gm.grid.h, 1.0, signed=False))


def norm_alpha_1(f: SamplePath, alpha: float) -> float:
    """int_0^T |f(s)| s^-alpha ds + the double increment integral on [0, T]."""
    _check_alpha(alpha)
    fm = main_segment(f)
    h = fm.grid.h
    p = _magnitude(fm.values, -1)
    term1 = float(cumulative_from_zero(p, alpha, h)[-1])
    E = backward_increment_integrals(fm.values, alpha + 1.0, h, start=0)
    term2 = float((h * (E[1:] + E[:-1]) / 2.0).sum())  # numpy's trapz/trapezoid formula
    return term1 + term2


def delta_r(
    f: SamplePath, alpha: float, delta: float, r: float | None = None
) -> float:
    """sup_u int_{-r}^u |f(u)-f(s)|^delta (u-s)^(-alpha-1) ds."""
    _check_alpha(alpha)
    check_delta_window(alpha, delta)
    s0 = f.grid.history_start(r)
    return float(backward_increment_sups(f.values, alpha + 1.0, f.grid.h, delta=delta, start=s0))


@dataclass(frozen=True)
class NormReport:
    """All norm functionals of one path (plus its driver, when distinct)."""

    alpha: float
    lam: float
    delta: float
    r: float
    norm_alpha_infty: float
    norm_holder: float
    norm_alpha_lambda: float
    lambda_alpha: float
    delta_r: float
    norm_1ma: float
    norm_alpha_1: float


def compute_norm_report(
    f: SamplePath,
    alpha: float,
    lam: float = 1.0,
    delta: float = 1.0,
    r: float | None = None,
    driver: SamplePath | None = None,
    *,
    driver_lambda: float | None = None,
) -> NormReport:
    """Evaluate the whole norm family on f.

    The driver functionals (lambda_alpha, norm_1ma) are taken from
    `driver` when given, else from f's own main segment; a caller that
    already holds lambda_alpha of that path passes it as driver_lambda.
    The Hoelder norm uses mu = 1 - alpha.
    """
    g = driver if driver is not None else f
    if driver_lambda is None:
        driver_lambda = lambda_alpha(g, alpha)
    r_eff = f.grid.r if r is None else float(r)
    return NormReport(
        alpha=alpha,
        lam=lam,
        delta=delta,
        r=r_eff,
        norm_alpha_infty=norm_alpha_infty(f, alpha, r),
        norm_holder=norm_holder(f, 1.0 - alpha, r),
        norm_alpha_lambda=norm_alpha_lambda(f, alpha, lam, r),
        lambda_alpha=driver_lambda,
        delta_r=delta_r(f, alpha, delta, r),
        norm_1ma=norm_1ma_infty_T(g, alpha),
        norm_alpha_1=norm_alpha_1(f, alpha),
    )
