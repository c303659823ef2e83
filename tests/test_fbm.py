"""Driver sampling: covariance law, determinism, stream addressing."""

import numpy as np
import pytest

from sddelab import _singular
from sddelab import fbm as fbm_module
from sddelab import (
    FbmConfig,
    fbm_covariance,
    fgn_autocovariance,
    generate_fbm,
    keyed_generator,
    make_grid,
    sample_fbm_batch,
)


def test_covariance_closed_form():
    # 0.5 (s^2H + t^2H - |t-s|^2H)
    assert fbm_covariance(0.5, 1.0, 0.75) == pytest.approx(
        0.5 * (0.5 ** 1.5 + 1.0 - 0.5 ** 1.5)
    )
    # H = 1/2 reduces to min(s, t)
    assert fbm_covariance(0.3, 0.8, 0.5) == pytest.approx(0.3)
    assert fbm_covariance(0.8, 0.3, 0.5) == pytest.approx(0.3)
    assert fbm_covariance(0.0, 1.0, 0.9) == 0.0


def test_unit_increment_autocovariance():
    rho = fgn_autocovariance(0.5, 4)
    assert rho[0] == pytest.approx(1.0)
    assert np.allclose(rho[1:], 0.0)
    rho = fgn_autocovariance(0.75, 4)
    # positive correlation for H > 1/2, decaying in the lag
    assert rho[0] == pytest.approx(1.0)
    assert np.all(rho[1:] > 0.0)
    assert np.all(np.diff(rho) < 0.0)
    for k in (1, 2, 3):
        truth = 0.5 * ((k + 1) ** 1.5 - 2 * k ** 1.5 + (k - 1) ** 1.5)
        assert rho[k] == pytest.approx(truth)


def test_keyed_generator_is_deterministic_and_keyed():
    a = keyed_generator(3, 1, 0).standard_normal(4)
    b = keyed_generator(3, 1, 0).standard_normal(4)
    c = keyed_generator(3, 1, 1).standard_normal(4)
    d = keyed_generator(4, 1, 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_generate_fbm_layout_and_determinism():
    grid = make_grid(1.0, 64, 0.25)
    cfg = FbmConfig(hurst=0.75, seed=9)
    g1 = generate_fbm(grid, cfg)
    g2 = generate_fbm(grid, cfg)
    assert np.array_equal(g1.values, g2.values)
    # zero on the history segment including t = 0
    assert np.all(g1.values[: grid.index_of_zero + 1] == 0.0)
    assert g1.meta["method"] == "circulant"
    # distinct path indices give distinct paths
    g3 = generate_fbm(grid, cfg, index=1)
    assert not np.array_equal(g1.values, g3.values)


def test_generate_fbm_components_are_independent_streams():
    grid = make_grid(1.0, 64)
    g = generate_fbm(grid, FbmConfig(hurst=0.75, dim=2, seed=9))
    assert g.dim == 2
    assert not np.array_equal(g.values[:, 0], g.values[:, 1])
    # component 0 matches the scalar draw with the same keying
    scalar = generate_fbm(grid, FbmConfig(hurst=0.75, dim=1, seed=9))
    assert np.array_equal(g.values[:, 0], scalar.values[:, 0])


def test_methods_agree_in_law_through_second_moments():
    grid = make_grid(1.0, 32)
    n_paths = 4000
    t_idx = [8, 16, 32]
    for method in ("exact-cholesky", "circulant"):
        cfg = FbmConfig(hurst=0.75, seed=2, method=method)
        batch = sample_fbm_batch(grid, cfg, n_paths)
        for k in t_idx:
            t = grid.times()[k]
            var_true = t ** 1.5
            var_emp = float(np.mean(batch[:, k] ** 2))
            se = var_true * np.sqrt(2.0 / n_paths)
            assert abs(var_emp - var_true) < 4.0 * se


def test_brownian_increments_are_uncorrelated():
    grid = make_grid(1.0, 64)
    batch = sample_fbm_batch(grid, FbmConfig(hurst=0.5, seed=4), 6000)
    inc = np.diff(batch, axis=1)
    corr = np.corrcoef(inc[:, 10], inc[:, 11])[0, 1]
    assert abs(corr) < 0.05


def test_batch_is_deterministic_and_chunking_invariant():
    grid = make_grid(1.0, 32)
    cfg = FbmConfig(hurst=0.7, seed=5)
    a = sample_fbm_batch(grid, cfg, 40)
    b = sample_fbm_batch(grid, cfg, 40)
    assert np.array_equal(a, b)
    assert a.shape == (40, 33)
    assert np.all(a[:, 0] == 0.0)


def test_circulant_embedding_is_nonnegative_definite():
    # the embedding needs no fallback for any H in (0, 1); the sampler's
    # clamp only removes roundoff
    ns = [2 ** k for k in range(1, 13)] + [3, 5, 7, 100, 1000, 3000, 4095]
    for hurst in np.round(np.arange(0.01, 1.0, 0.01), 2):
        for n in ns:
            rho = fgn_autocovariance(hurst, n)
            row = np.concatenate((rho[:n], [rho[n]], rho[1:n][::-1]))
            eig = np.fft.fft(row).real
            assert eig.min() >= 0.0, (hurst, n)
            assert np.array_equal(fbm_module._circulant_eigenvalues(hurst, n), eig)


def per_pair_circulant(grid, cfg, count, component=0):
    """One ifft per pair, drawing u then v from the batch stream: Re is row 2i, Im row 2i+1."""
    n, m = grid.n_main, 2 * grid.n_main
    rng = keyed_generator(cfg.seed, fbm_module.PURPOSE_FBM, component)
    scale = np.sqrt(fbm_module._circulant_eigenvalues(cfg.hurst, n))
    out = np.zeros((count + 1, n + 1))
    for i in range((count + 1) // 2):
        u = rng.standard_normal(m)
        v = rng.standard_normal(m)
        z = np.fft.ifft(scale * (u + 1j * v)) * np.sqrt(m)
        out[2 * i, 1:] = np.cumsum(z.real[:n]) * grid.h ** cfg.hurst
        out[2 * i + 1, 1:] = np.cumsum(z.imag[:n]) * grid.h ** cfg.hurst
    return out[:count]


@pytest.mark.parametrize("hurst", [0.3, 0.75])
def test_circulant_batch_equals_per_pair_draws_across_row_blocks(monkeypatch, hurst):
    grid = make_grid(1.0, 48)
    cfg = FbmConfig(hurst=hurst, seed=6)
    # two pairs of 2 x 96 variates per block: 9 and 10 paths take blocks of
    # 2, 2 and 1 pairs, 11 paths 2, 2 and 2 pairs with the last Im dropped
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 2 * 2 * 96 * 8)
    for count in (1, 2, 9, 10, 11):
        batch = sample_fbm_batch(grid, cfg, count, component=1)
        assert np.array_equal(batch, per_pair_circulant(grid, cfg, count, component=1)), count


def test_generate_fbm_is_the_real_part_of_one_draw_per_component():
    grid = make_grid(1.0, 64, 0.25)
    cfg = FbmConfig(hurst=0.75, dim=2, seed=9)
    path = generate_fbm(grid, cfg, index=3)
    n, m, zero = grid.n_main, 2 * grid.n_main, grid.index_of_zero
    scale = np.sqrt(fbm_module._circulant_eigenvalues(cfg.hurst, n))
    assert np.array_equal(path.values[:zero + 1], np.zeros((zero + 1, 2)))
    for c in range(cfg.dim):
        rng = keyed_generator(cfg.seed, fbm_module.PURPOSE_FBM, 3, c)
        u = rng.standard_normal(m)
        v = rng.standard_normal(m)
        z = np.fft.ifft(scale * (u + 1j * v)) * np.sqrt(m)
        expect = np.cumsum(z.real[:n]) * grid.h ** cfg.hurst
        assert np.array_equal(path.values[zero + 1:, c], expect), c


def test_batch_rows_are_a_prefix_of_a_larger_batch(monkeypatch):
    grid = make_grid(1.0, 40)
    monkeypatch.setattr(_singular, "_BLOCK_BYTES", 4 * 2 * 80 * 8)
    cfg = FbmConfig(hurst=0.6, seed=8)
    big = sample_fbm_batch(grid, cfg, 11)
    for k in (1, 4, 5, 9):
        assert np.array_equal(sample_fbm_batch(grid, cfg, k), big[:k])


def test_sampler_keeps_to_the_numpy_1_ifft_signature(monkeypatch):
    # numpy < 2.0 (pyproject allows >= 1.24) has no out= on np.fft.ifft
    grid = make_grid(1.0, 32, 0.25)
    cfg = FbmConfig(hurst=0.7, dim=2, seed=4)
    batch, path = sample_fbm_batch(grid, cfg, 5), generate_fbm(grid, cfg).values
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, n=None, axis=-1, norm=None: ifft(a, n, axis, norm))
    assert np.array_equal(sample_fbm_batch(grid, cfg, 5), batch)
    assert np.array_equal(generate_fbm(grid, cfg).values, path)


def test_cholesky_batch_draws_in_blocks_of_16384_paths():
    grid = make_grid(1.0, 4)
    cfg = FbmConfig(hurst=0.7, seed=3, method="exact-cholesky")
    count = 16384 + 5
    batch = sample_fbm_batch(grid, cfg, count)
    rng = keyed_generator(cfg.seed, fbm_module.PURPOSE_FBM, 0)
    L = fbm_module._cholesky_factor(cfg.hurst, grid.n_main)
    incr = np.vstack([(L @ rng.standard_normal((grid.n_main, take))).T for take in (16384, 5)])
    assert np.array_equal(batch[:, 0], np.zeros(count))
    assert np.array_equal(batch[:, 1:], np.cumsum(incr, axis=1) * grid.h ** cfg.hurst)


def test_rejects_bad_configs():
    with pytest.raises(ValueError):
        FbmConfig(hurst=1.2)
    with pytest.raises(ValueError):
        FbmConfig(hurst=0.75, dim=0)
    with pytest.raises(ValueError):
        FbmConfig(hurst=0.75, method="spectral-exact")
