"""Pathwise integrals against rough drivers, with certified bounds.

The Young integral is a left-point sum: no higher-order correction terms,
so the integral is causal and agrees with the explicit stepping scheme.
The drift integral evaluates a hereditary functional of the path
restricted to [-r, t], which is all a drift is ever shown.

check_nr_bounds and check_sigma_increment_bound verify the two
compensated-integral inequalities and the sigma-increment estimate that
drive the solvability theory, discretized with the same product-linear
quadrature on both sides so nodewise domination carries over exactly.
Each is the batch of one of its batch audit, nr_bounds_rows and
sigma_increment_rows, which audit a batch of scalar paths on one grid
and report per path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._singular import (
    backward_increment_integrals,
    backward_profile_integrals,
    cumulative_from_zero,
    iterated_increment_integrals,
    quadrature_slack,
)
from .grids import GridMismatchError, SamplePath, main_segment, require_same_grid
from .norms import lambda_alpha, lambda_alpha_rows, norm_alpha_1

__all__ = [
    "BoundCertificate",
    "IntegralResult",
    "PathWindow",
    "young_integral",
    "drift_integral",
    "NrBoundsReport",
    "nr_bounds_rows",
    "check_nr_bounds",
    "SigmaIncrementReport",
    "sigma_increment_rows",
    "check_sigma_increment_bound",
    "left_point_accumulate",
]


def left_point_accumulate(f_values: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """Cumulative left-point sums of f dg on a shared node set.

    f_values: (n+1, d, m), g_values: (n+1, m).  Returns (n+1, d) with a
    zero first row.
    """
    dg = np.diff(g_values, axis=0)
    terms = np.einsum("kdm,km->kd", f_values[:-1], dg)
    out = np.zeros((f_values.shape[0], f_values.shape[1]))
    np.cumsum(terms, axis=0, out=out[1:])
    return out


@dataclass(frozen=True)
class BoundCertificate:
    """|int_0^T f dg| against Lambda_alpha(g) * ||f||_{alpha,1}."""

    alpha: float
    lambda_alpha: float
    norm_alpha_1: float
    bound: float
    measured: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
class IntegralResult:
    path: SamplePath
    certificate: BoundCertificate | None = None


def young_integral(
    f: SamplePath, g: SamplePath, alpha: float | None = None
) -> IntegralResult:
    """Indefinite left-point integral of f against the driver g on [0, T].

    Either f or g must be scalar; a scalar f multiplies every driver
    component, a scalar g integrates every component of f.  For the
    general matrix-valued integrand use left_point_accumulate directly.
    The bound certificate is computed when alpha is given and both paths
    are scalar.  The bound is only meaningful when the Hoelder exponents
    of f and g sum above 1.
    """
    fm, gm = main_segment(f), main_segment(g)
    require_same_grid(fm.grid, gm.grid)
    if gm.dim == 1:
        fmat = fm.values[:, :, None]
    elif fm.dim == 1:
        fmat = np.zeros((fm.values.shape[0], gm.dim, gm.dim))
        idx = np.arange(gm.dim)
        fmat[:, idx, idx] = fm.values
    else:
        raise GridMismatchError(
            f"cannot pair integrand dim {fm.dim} with driver dim {gm.dim}; "
            "use left_point_accumulate for matrix integrands"
        )
    vals = left_point_accumulate(fmat, gm.values)
    path = SamplePath(gm.grid, vals)
    cert = None
    if alpha is not None and fm.dim == 1 and gm.dim == 1:
        lam = lambda_alpha(gm, alpha)
        na1 = norm_alpha_1(fm, alpha)
        bound = lam * na1
        measured = float(abs(vals[-1, 0]))
        cert = BoundCertificate(
            alpha=alpha,
            lambda_alpha=lam,
            norm_alpha_1=na1,
            bound=bound,
            measured=measured,
            satisfied=bool(measured <= bound + quadrature_slack(bound)),
        )
    return IntegralResult(path, cert)


class PathWindow:
    """Read-only view of paths on [-r, t], the one argument of every drift.

    values is (..., n_nodes, d); upto is one front node or an increasing
    array of them, which adds a front axis before d.  A drift reads the
    front value `current` and the componentwise running max `sup()`, both
    read-only and per front; sup() is reduced once, when the window is
    built, and Euler moves a one-front window on with one elementwise max
    per step.  The window starts at node 0 of every row; solver.euler_paths,
    the one batch that pads, fills the nodes before a shorter history with
    copies of its first value, which neither functional can see.
    """

    __slots__ = ("_values", "_upto", "_sup", "_sup_view")

    def __init__(self, values: np.ndarray, upto: int | np.ndarray):
        self._values = values.view()
        self._values.setflags(write=False)
        self._upto = upto
        past = values[..., : np.max(upto) + 1, :]
        self._sup = np.maximum.accumulate(past, axis=-2)[..., upto, :]
        self._sup_view = self._sup.view()
        self._sup_view.setflags(write=False)

    @property
    def current(self) -> np.ndarray:
        return self._values[..., self._upto, :]

    def sup(self) -> np.ndarray:
        """Componentwise maximum over the window, per front (updated in place)."""
        return self._sup_view

    def _advance(self) -> None:
        """Move a one-front window on by one node."""
        self._upto += 1
        np.maximum(self._sup, self.current, out=self._sup)


def drift_integral(
    b: Callable[[np.ndarray, PathWindow], np.ndarray],
    x: SamplePath,
) -> SamplePath:
    """F(t) = int_0^t b(s, x restricted to [-r, s]) ds by left-point sums.

    b is called once, with the (n_main, 1) front times and a PathWindow
    over every main front, and returns (n_main, d).  Returns the
    cumulative drift on the main [0, T] grid, starting at 0.
    """
    g = x.grid
    times = g.times()
    fronts = np.arange(g.index_of_zero, g.index_of_zero + g.n_main)
    window = PathWindow(x.values, fronts)
    evals = np.asarray(b(times[fronts, None], window), dtype=float)
    if evals.shape != (g.n_main, x.dim):
        raise GridMismatchError(f"drift returned {evals.shape}, expected ({g.n_main}, {x.dim})")
    out = np.zeros((g.n_main + 1, x.dim))
    np.cumsum(evals * g.h, axis=0, out=out[1:])
    return SamplePath(g.main_only(), out)


@dataclass(frozen=True)
class NrBoundsReport:
    """Nodewise audit of the two compensated-integral inequalities.

    The first (supremum) inequality is gated: violations beyond
    quadrature slack are counted.  The second only pins its unspecified
    constant, reported as the smallest value making it hold.
    """

    alpha: float
    lambda_alpha: float
    n_nodes: int
    worst_slack_sup: float
    n_violations_sup: int
    fitted_c_alpha: float

    @property
    def ok(self) -> bool:
        return self.n_violations_sup == 0


def _scalar_rows(f: np.ndarray, g: np.ndarray, audit: str) -> tuple[np.ndarray, np.ndarray]:
    """(n_paths, n_nodes) rows of two batches of scalar paths of one shape (..., n_nodes, 1)."""
    f, g = np.asarray(f, dtype=float), np.asarray(g, dtype=float)
    if f.shape != g.shape or f.ndim < 2 or f.shape[-1] != 1:
        raise GridMismatchError(f"{audit} expects scalar paths of one shape: {f.shape}, {g.shape}")
    return f.reshape(-1, f.shape[-2]), g.reshape(-1, g.shape[-2])


def nr_bounds_rows(f: np.ndarray, g: np.ndarray, alpha: float, h: float) -> list[NrBoundsReport]:
    """check_nr_bounds of every path of a batch against its own driver.

    f and g are scalar main-segment values of one shape (..., n_nodes, 1)
    on one [0, T] grid of step h.  Returns one report per path, in the
    batch's C order; each equals the path's own check_nr_bounds bit for
    bit.  A node whose slack is not finite and within quadrature_slack
    counts as a violation, and a path or driver with a non-finite node
    fits c_alpha = NaN.
    """
    fv, gv = _scalar_rows(f, g, "nr_bounds_rows")
    finite = np.isfinite(fv).all(axis=1) & np.isfinite(gv).all(axis=1)
    # a non-finite node meets another as inf - inf: its slack reads NaN, without a warning
    with np.errstate(invalid=None if finite.all() else "ignore"):
        lam = lambda_alpha_rows(gv[..., None], alpha, h)[:, None]
        G = np.zeros(fv.shape)  # the left-point Young integral of f against g
        np.cumsum(fv[:, :-1] * np.diff(gv, axis=1), axis=1, out=G[:, 1:])

        # sup inequality: |G(t)| <= Lambda ( int |f| s^-a + a * double increment )
        E, lhs2 = backward_increment_integrals(np.stack([fv, G])[..., None], alpha + 1.0, h)
        A = cumulative_from_zero(np.abs(fv), alpha, h)
        B = np.zeros(fv.shape)
        np.cumsum((E[:, 1:] + E[:, :-1]) * 0.5 * h, axis=1, out=B[:, 1:])
        rhs_sup = lam * (A + alpha * B)
        slack_sup = np.abs(G) - rhs_sup
        held = np.isfinite(slack_sup) & (slack_sup <= quadrature_slack(rhs_sup))
        nviol = np.count_nonzero(~held, axis=1)

        # alpha-integral inequality: fit its free constant
        t1 = backward_profile_integrals(np.abs(fv), 2.0 * alpha, h)
        t2 = iterated_increment_integrals(fv[..., None], alpha, h)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (lhs2 - lam * t2) / (lam * t1)
    fitted = np.max(c, axis=1, initial=0.0, where=np.isfinite(c))
    fitted[~finite] = np.nan
    cols = lam[:, 0].tolist(), np.max(slack_sup, axis=1).tolist(), nviol.tolist(), fitted.tolist()
    return [
        NrBoundsReport(alpha, lam_k, fv.shape[1], worst, n, c_k)
        for lam_k, worst, n, c_k in zip(*cols)
    ]


def check_nr_bounds(f: SamplePath, g: SamplePath, alpha: float) -> NrBoundsReport:
    """Audit |G(f)(t)| and its alpha-integral against the driver bounds.

    Scalar f and g on a shared [0, T] grid.  G(f) is the left-point
    Young integral of f against g.  The batch of one of nr_bounds_rows.
    """
    fm, gm = main_segment(f), main_segment(g)
    require_same_grid(fm.grid, gm.grid)
    if fm.dim != 1 or gm.dim != 1:
        raise GridMismatchError("check_nr_bounds expects scalar paths")
    return nr_bounds_rows(fm.values, gm.values, alpha, fm.grid.h)[0]


@dataclass(frozen=True)
class SigmaIncrementReport:
    """Audit of the three-term bound on sigma increments along two paths."""

    alpha: float
    beta: float
    delta: float
    worst_slack: float
    n_violations: int

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


def sigma_increment_rows(
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f: np.ndarray,
    h_path: np.ndarray,
    step: float,
    alpha: float,
    beta: float,
    delta: float,
    m0: float,
    mn: float,
) -> list[SigmaIncrementReport]:
    """check_sigma_increment_bound of every pair of paths of two batches.

    f and h_path are scalar main-segment values of one shape
    (..., n_nodes, 1) on one [0, T] grid of step `step`, and sigma is
    called once per batch, over the column of node times.  Returns one
    report per pair, in the batch's C order; each equals the pair's own
    check_sigma_increment_bound bit for bit.  A node whose slack is not
    finite and within quadrature_slack counts as a violation.
    """
    if not alpha < beta:
        raise ValueError(f"needs alpha < beta, got alpha={alpha}, beta={beta}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    fv, hv = _scalar_rows(f, h_path, "sigma_increment_rows")
    finite = np.isfinite(fv).all() and np.isfinite(hv).all()
    # a non-finite node meets another as inf - inf: its slack reads NaN, without a warning
    with np.errstate(invalid=None if finite else "ignore"):
        times = np.arange(fv.shape[1]) * step
        sig_f, sig_h = (np.asarray(sigma(times[:, None], v[..., None]), dtype=float) for v in (fv, hv))
        w = (sig_f - sig_h).reshape(fv.shape)
        # two batches of scalar rows, (2, n_paths, n_nodes, 1); each row equals its own call
        kappa = alpha + 1.0
        lhs, i_gap = backward_increment_integrals(np.stack([w, fv - hv])[..., None], kappa, step)
        i_f, i_h = backward_increment_integrals(np.stack([fv, hv])[..., None], kappa, step, delta=delta)
        gap = np.abs(fv - hv)
        term2 = (m0 / (beta - alpha)) * gap * times ** (beta - alpha)
        rhs = m0 * i_gap + term2 + mn * gap * (i_f + i_h)
        slack = lhs - rhs
        held = np.isfinite(slack) & (slack <= quadrature_slack(rhs))
        nviol = np.count_nonzero(~held, axis=1)
    return [
        SigmaIncrementReport(alpha, beta, delta, worst, n)
        for worst, n in zip(np.max(slack, axis=1).tolist(), nviol.tolist())
    ]


def check_sigma_increment_bound(
    sigma: Callable[[np.ndarray, np.ndarray], np.ndarray],
    f: SamplePath,
    h_path: SamplePath,
    alpha: float,
    beta: float,
    delta: float,
    m0: float,
    mn: float,
) -> SigmaIncrementReport:
    """Nodewise check of the composed-increment inequality.

    sigma has the CoefficientSet form (t, x[..., 1]) -> (..., 1, 1) and is
    called once per path, over the column of node times.  For scalar
    paths f, h and every node t:
      int_0^t |sig(t,f(t)) - sig(s,f(s)) - sig(t,h(t)) + sig(s,h(s))| (t-s)^(-a-1) ds
    against
      m0 * (same integral of f - h)
      + m0/(beta-alpha) * |f(t)-h(t)| * t^(beta-alpha)
      + mn * |f(t)-h(t)| * (delta-increment integrals of f and of h).
    The batch of one of sigma_increment_rows.
    """
    fm, hm = main_segment(f), main_segment(h_path)
    require_same_grid(fm.grid, hm.grid)
    if fm.dim != 1 or hm.dim != 1:
        raise GridMismatchError("check_sigma_increment_bound expects scalar paths")
    return sigma_increment_rows(
        sigma, fm.values, hm.values, fm.grid.h, alpha, beta, delta, m0, mn
    )[0]
