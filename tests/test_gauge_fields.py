import numpy as np
import pytest
from numpy.testing import assert_allclose

from monopole_lab.gauge_fields import (
    MonopoleConfig,
    covariant_derivative,
    curvature,
    gauge_transform,
    hodge_dual_covariant,
    lorenz_residual,
    monopole_residual,
    monopole_residual_via_dual,
    random_config,
    random_gauge_map,
    spatial_gradient,
    sup_norm,
)
from monopole_lab.grid_spectral import GridSpec
from monopole_lab.lie import conjugate, dagger, su_basis


def zero_derivatives(cfg):
    z = np.zeros_like(cfg.a0)
    return MonopoleConfig(cfg.grid, z, z, z, z)


def test_config_validation(grid):
    n = grid.n_points
    good = np.zeros((n, n, 2, 2))
    bad = np.zeros((n, n, 2, 3))
    with pytest.raises(ValueError):
        MonopoleConfig(grid=grid, a0=good, a1=good, a2=good, phi=bad)
    with pytest.raises(ValueError):
        MonopoleConfig(grid=grid, a0=np.zeros((n, n + 1, 2, 2)), a1=good, a2=good, phi=good)
    cfg = MonopoleConfig(grid=grid, a0=good, a1=good, a2=good, phi=good)
    assert cfg.a0.dtype == np.complex128


def test_spatial_gradient_single_mode(grid):
    n = grid.n_points
    x = np.arange(n) * grid.length / n
    e3 = su_basis(2)[2]
    f = np.sin(x)[:, None, None, None] * e3 + np.cos(2 * x)[None, :, None, None] * e3
    d1, d2 = spatial_gradient(f, grid)
    want1 = np.broadcast_to(np.cos(x)[:, None, None, None] * e3, f.shape)
    want2 = np.broadcast_to(-2 * np.sin(2 * x)[None, :, None, None] * e3, f.shape)
    assert_allclose(d1, want1, atol=1e-13)
    assert_allclose(d2, want2, atol=1e-13)


def test_sup_norm():
    f = np.zeros((4, 4, 2, 2))
    f[1, 2] = np.eye(2)
    assert sup_norm(f) == pytest.approx(np.sqrt(2.0))


def test_covariant_derivative_vacuum(rng, grid):
    cfg = random_config(rng, grid)
    vac = MonopoleConfig(
        grid=grid, a0=np.zeros_like(cfg.a0), a1=np.zeros_like(cfg.a0),
        a2=np.zeros_like(cfg.a0), phi=cfg.phi,
    )
    dts = random_config(rng, grid)
    dt, d1, d2 = covariant_derivative(vac, dts)
    g1, g2 = spatial_gradient(cfg.phi, grid)
    assert_allclose(dt, dts.phi, atol=0)
    assert_allclose(d1, g1, atol=1e-14)
    assert_allclose(d2, g2, atol=1e-14)


def test_curvature_single_generator_has_no_commutator_part(rng, grid):
    # all fields along one generator: brackets vanish, F is the linear part
    n = grid.n_points
    e3 = su_basis(2)[2]
    coeffs = rng.standard_normal((4, n, n))
    a0, a1, a2, phi = (c[..., None, None] * e3 for c in coeffs)
    cfg = MonopoleConfig(grid=grid, a0=a0, a1=a1, a2=a2, phi=phi)
    dts = zero_derivatives(cfg)
    f01, f02, f12 = curvature(cfg, dts)
    d1a0, d2a0 = spatial_gradient(a0, grid)
    d1a2, _ = spatial_gradient(a2, grid)
    _, d2a1 = spatial_gradient(a1, grid)
    assert_allclose(f01, -d1a0, atol=1e-13)
    assert_allclose(f02, -d2a0, atol=1e-13)
    assert_allclose(f12, d1a2 - d2a1, atol=1e-13)


def test_exact_traveling_wave_has_zero_residual(grid):
    # phi = a2 = cos(x1 - t) E solves the system with a0 = a1 = 0; at t = 0
    # the residual must vanish to rounding, pinning down every sign choice.
    n = grid.n_points
    x = (np.arange(n) * grid.length / n)[:, None, None, None]
    e3 = su_basis(2)[2]
    zero = np.zeros((n, n, 2, 2), dtype=complex)
    wave = np.broadcast_to(np.cos(x) * e3, (n, n, 2, 2))
    dwave = np.broadcast_to(np.sin(x) * e3, (n, n, 2, 2))
    cfg = MonopoleConfig(grid=grid, a0=zero, a1=zero, a2=wave, phi=wave)
    dts = MonopoleConfig(grid, zero, zero, dwave, dwave)
    for r in monopole_residual(cfg, dts):
        assert sup_norm(r) < 1e-13
    assert sup_norm(lorenz_residual(cfg, dts)) < 1e-13


def test_residual_two_paths_agree(rng, grid):
    cfg = random_config(rng, grid)
    dts = random_config(rng, grid)
    direct = monopole_residual(cfg, dts)
    dual = monopole_residual_via_dual(cfg, dts)
    for a, b in zip(direct, dual):
        assert_allclose(a, b, atol=1e-12)


def test_hodge_dual_components(rng, grid):
    cfg = random_config(rng, grid)
    dts = random_config(rng, grid)
    dt, d1, d2 = covariant_derivative(cfg, dts)
    h01, h02, h12 = hodge_dual_covariant(cfg, dts)
    assert_allclose(h01, d2, atol=0)
    assert_allclose(h02, -d1, atol=0)
    assert_allclose(h12, -dt, atol=0)


def test_lorenz_residual_single_mode(grid):
    n = grid.n_points
    x = (np.arange(n) * grid.length / n)[:, None, None, None]
    e3 = su_basis(2)[2]
    zero = np.zeros((n, n, 2, 2), dtype=complex)
    a1 = np.broadcast_to(np.sin(x) * e3, (n, n, 2, 2))
    cfg = MonopoleConfig(grid=grid, a0=zero, a1=a1, a2=zero, phi=zero)
    res = lorenz_residual(cfg, zero_derivatives(cfg))
    expected = -np.broadcast_to(np.cos(x) * e3, (n, n, 2, 2))
    assert_allclose(res, expected, atol=1e-13)


def test_residual_covariance_constant_gauge_map(rng, grid):
    cfg = random_config(rng, grid)
    dts = random_config(rng, grid)
    theta = 0.7
    o_single = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]],
                        dtype=complex)
    n = grid.n_points
    o = np.broadcast_to(o_single, (n, n, 2, 2))
    do = (np.zeros_like(cfg.a0), np.zeros_like(cfg.a0))
    new_cfg, new_dts = gauge_transform(o, do, cfg, dts)
    before = monopole_residual(cfg, dts)
    after = monopole_residual(new_cfg, new_dts)
    for b, a in zip(before, after):
        assert sup_norm(a - conjugate(o, b)) < 1e-12


def test_residual_covariance_varying_gauge_map(rng):
    grid = GridSpec(64, 2 * np.pi, 1e-3)
    cfg = random_config(rng, grid, kmax=5)
    dts = random_config(rng, grid, kmax=5)
    o, do = random_gauge_map(rng, grid)
    new_cfg, new_dts = gauge_transform(o, do, cfg, dts)
    before = monopole_residual(cfg, dts)
    after = monopole_residual(new_cfg, new_dts)
    for b, a in zip(before, after):
        assert sup_norm(a - conjugate(o, b)) < 1e-8


def test_gauge_transform_rejects_non_unitary(rng, grid):
    cfg = random_config(rng, grid)
    dts = random_config(rng, grid)
    o = np.broadcast_to(np.diag([2.0, 0.5]).astype(complex), cfg.a0.shape)
    do = (np.zeros_like(cfg.a0), np.zeros_like(cfg.a0))
    with pytest.raises(ValueError):
        gauge_transform(o, do, cfg, dts)


def test_random_gauge_map_is_unitary_with_consistent_derivative(rng):
    # the derivative check needs enough modes for the spectral tail of
    # exp(degree-3 trig polynomial) to fall below rounding
    grid = GridSpec(64, 2 * np.pi, 1e-3)
    o, (d1o, d2o) = random_gauge_map(rng, grid)
    eye = np.eye(2)
    assert np.max(np.abs(o @ dagger(o) - eye)) < 1e-12
    assert_allclose(np.linalg.det(o), np.ones(o.shape[:2]), atol=1e-12)
    # d(O O^H) = 0 forces (d1 O) O^H to be anti-Hermitian
    w = d1o @ dagger(o)
    assert np.max(np.abs(w + dagger(w))) < 1e-10
