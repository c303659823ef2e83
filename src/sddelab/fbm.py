"""Exact Gaussian sampling of fractional Brownian drivers.

Two generators with the same law on the grid: a dense Cholesky factor of
the stationary increment covariance (gold standard, cost O(n^3) once per
(hurst, n)) and a circulant embedding of the increment autocovariance
(O(n log n) per draw).  One circulant draw yields two independent paths,
its real and imaginary parts (Wood & Chan 1994): a batch uses both, so
its cost is O(n log n) per pair of paths, while `generate_fbm` keeps the
real part of one draw per component.  Variates come from a
counter-based Philox stream keyed by (seed, purpose, path index,
component), so any path can be regenerated in isolation.

Paths are produced on the main segment [0, T] with W(0) = 0 and extended
by the constant 0 over the history segment [-r, 0].
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from ._singular import _row_blocks
from .grids import SamplePath, TimeGrid

__all__ = [
    "FbmConfig",
    "fbm_covariance",
    "fgn_autocovariance",
    "generate_fbm",
    "sample_fbm_batch",
    "keyed_generator",
]

#: purpose tag for driver sampling in the keyed RNG scheme.
PURPOSE_FBM = 1

FBM_METHODS = ("exact-cholesky", "circulant")

#: paths per exact-cholesky draw; the (n, take) draw order depends on it
_CHOLESKY_BLOCK = 16384


@dataclass(frozen=True)
class FbmConfig:
    """Sampling configuration: Hurst index, components, seed, generator."""

    hurst: float
    dim: int = 1
    seed: int = 0
    method: str = "circulant"

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.method not in FBM_METHODS:
            raise ValueError(
                f"method must be one of {FBM_METHODS}, got {self.method!r}"
            )


def fbm_covariance(s, t, hurst: float):
    """Cov(W(s), W(t)) = (s^2H + t^2H - |t-s|^2H) / 2 for one component."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * (np.abs(s) ** two_h + np.abs(t) ** two_h - np.abs(t - s) ** two_h)


def fgn_autocovariance(hurst: float, n_lags: int) -> np.ndarray:
    """Autocovariance of unit-step increments at lags 0..n_lags."""
    k = np.arange(n_lags + 1, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * (
        (k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h
    )


def keyed_generator(seed: int, *key: int) -> np.random.Generator:
    """Philox generator derived from (seed, purpose, index, ...)."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=8)
def _cholesky_factor(hurst: float, n: int) -> np.ndarray:
    """Dense factor of the increment covariance, cached per (hurst, n).

    Index, covariance and factor take 24 n^2 bytes; more than physical
    memory (where os.sysconf tells it) raises MemoryError up front.
    """
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        have = float("inf")
    if 24 * n * n > have:
        raise MemoryError(f"exact-cholesky at n = {n} needs {24 * n * n} bytes, "
                          f"more than the {have} bytes of physical memory")
    rho = fgn_autocovariance(hurst, n - 1)
    idx = np.arange(n)
    C = rho[np.abs(idx[:, None] - idx[None, :])]
    return np.linalg.cholesky(C)


@functools.lru_cache(maxsize=8)
def _circulant_eigenvalues(hurst: float, n: int) -> np.ndarray:
    """Eigenvalues of the length-2n circulant embedding of the increments.

    The embedding is nonnegative definite for every hurst in (0, 1)
    (Dietrich & Newsam 1997; Craigmile 2003); the clamp only removes
    roundoff below zero.
    """
    rho = fgn_autocovariance(hurst, n)
    row = np.concatenate((rho[:n], [rho[n]], rho[1:n][::-1]))
    return np.maximum(np.fft.fft(row).real, 0.0)


def _sample_paths(hurst: float, n: int, method: str, h: float,
                  rng: np.random.Generator, count: int) -> np.ndarray:
    """count paths of n steps of size h from rng, shape (count, n+1), W(0) = 0.

    Circulant paths come in pairs: draw i takes 2n real then 2n imaginary
    variates, and the real and imaginary parts of its transform are two
    independent exact paths, 2i and 2i+1 (the last imaginary part is
    dropped when count is odd).  A batch is the pairs' sequential
    draws, so its first k paths are the k-path batch, and its row blocks
    of whole pairs only bound memory.  Cholesky blocks draw (n, take)
    variates.
    """
    out = np.empty((count, n + 1))
    out[:, 0] = 0.0
    scale = h ** hurst
    if method == "exact-cholesky":
        L = _cholesky_factor(hurst, n)
        for lo in range(0, count, _CHOLESKY_BLOCK):
            dest = out[lo:lo + _CHOLESKY_BLOCK, 1:]
            np.cumsum((L @ rng.standard_normal((n, len(dest)))).T, axis=1, out=dest)
            dest *= scale
        return out
    m = 2 * n
    root = np.sqrt(_circulant_eigenvalues(hurst, n))
    pairs = (count + 1) // 2
    for blk in _row_blocks(pairs, 2 * m * 8):
        lo, hi = blk.start, min(blk.stop, pairs)
        g = rng.standard_normal((hi - lo, 2, m))
        z = np.empty((hi - lo, m), dtype=complex)
        z.real, z.imag = g[:, 0], g[:, 1]
        z *= root
        z = np.fft.ifft(z, axis=-1)
        z *= np.sqrt(m)
        even, odd = out[2 * lo:2 * hi:2, 1:], out[2 * lo + 1:2 * hi:2, 1:]
        np.cumsum(z.real[:, :n], axis=1, out=even)
        np.cumsum(z.imag[:len(odd), :n], axis=1, out=odd)
        out[2 * lo:2 * hi, 1:] *= scale
    return out


def generate_fbm(grid: TimeGrid, cfg: FbmConfig, index: int = 0) -> SamplePath:
    """One fBm sample on the grid: dim components, zero on [-r, 0].

    Increments on [0, T] carry the exact joint law of fbm_covariance
    under either method; `index` addresses independent paths under the
    same config, and component c draws from its own keyed stream.
    """
    values = np.zeros((grid.n_nodes, cfg.dim))
    for c in range(cfg.dim):
        rng = keyed_generator(cfg.seed, PURPOSE_FBM, index, c)
        path = _sample_paths(cfg.hurst, grid.n_main, cfg.method, grid.h, rng, 1)
        values[grid.index_of_zero:, c] = path[0]
    meta = {"hurst": cfg.hurst, "seed": cfg.seed, "index": index, "method": cfg.method}
    return SamplePath(grid, values, meta)


def sample_fbm_batch(
    grid: TimeGrid,
    cfg: FbmConfig,
    count: int,
    component: int = 0,
) -> np.ndarray:
    """Many independent single-component paths on [0, T], shape (count, n+1).

    Drawn from one keyed stream per (seed, component), without per-path
    addressability; meant for distributional tests.  Circulant paths are
    drawn a pair at a time: draw i's real part is row 2i and its
    imaginary part row 2i+1, two independent paths of the same law (an
    odd count drops the last imaginary part).  The draws follow one
    another, so the first k rows of a batch are the k-path batch; the
    work runs in blocks of whole pairs holding about half a megabyte of
    variates, each one batched FFT and two cumsums into the result.
    exact-cholesky draws blocks of 16,384 paths at a time.
    """
    rng = keyed_generator(cfg.seed, PURPOSE_FBM, component)
    return _sample_paths(cfg.hurst, grid.n_main, cfg.method, grid.h, rng, count)
