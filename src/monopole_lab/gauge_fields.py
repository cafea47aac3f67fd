"""Gauge potential plus Higgs field on the periodic plane.

A configuration holds the temporal potential a0, the spatial potentials
a1, a2, and the Higgs field phi, all su(n)-valued on the grid.  Time
derivatives are carried separately: they come either from the evolution
right-hand side or from finite differencing a trajectory, and the residual
operators below treat them as independent inputs.

Sign conventions.  The curvature components are
    F_01 = dt a1 - d1 a0 + [a0, a1]
    F_02 = dt a2 - d2 a0 + [a0, a2]
    F_12 = d1 a2 - d2 a1 + [a1, a2]
and the dual of the covariant derivative of phi has components
    (*D phi)_01 = D2 phi,   (*D phi)_02 = -D1 phi,   (*D phi)_12 = -Dt phi
where Dt phi = dt phi + [a0, phi] and Dj phi = dj phi + [aj, phi].
Setting F = *D phi componentwise reproduces the three evolution rows in
monopole_residual, which are implemented independently as a cross-check.
"""

from dataclasses import dataclass

import numpy as np

from .grid_spectral import (
    GridSpec,
    _check_field,
    band_mask,
    fft_forward,
    fft_inverse,
    random_band_limited,
)
from .lie import bracket, conjugate, dagger, random_lie, lie_expm, su_basis


@dataclass
class MonopoleConfig:
    """Snapshot of the four su(n)-valued fields at one instant."""

    grid: GridSpec
    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "phi"):
            f = np.asarray(getattr(self, name), dtype=np.complex128)
            _check_field(f, self.grid)
            if f.ndim != 4 or f.shape[-1] != f.shape[-2]:
                raise ValueError(f"{name} must have shape (N, N, n, n), got {f.shape}")
            setattr(self, name, f)
        shapes = {getattr(self, k).shape for k in ("a0", "a1", "a2", "phi")}
        if len(shapes) != 1:
            raise ValueError(f"field shapes disagree: {shapes}")

    def fields(self):
        return (self.a0, self.a1, self.a2, self.phi)


@dataclass
class TimeDerivatives:
    """Time derivatives of the four fields, same layout as MonopoleConfig."""

    dt_a0: np.ndarray
    dt_a1: np.ndarray
    dt_a2: np.ndarray
    dt_phi: np.ndarray

    def fields(self):
        return (self.dt_a0, self.dt_a1, self.dt_a2, self.dt_phi)


def spatial_gradient(field, grid):
    """Spectral (d1 f, d2 f) of a physical field (..., N, N, n, n)."""
    spec = fft_forward(field, grid)
    d1 = fft_inverse((1j * grid.kx)[..., None, None] * spec, grid)
    d2 = fft_inverse((1j * grid.ky)[..., None, None] * spec, grid)
    return d1, d2


def sup_norm(field):
    """Largest pointwise Frobenius norm over the grid."""
    f = np.asarray(field)
    return float(np.max(np.sqrt(np.sum(np.abs(f) ** 2, axis=(-2, -1)))))


def covariant_derivative(cfg, dts):
    """(Dt phi, D1 phi, D2 phi) with Dt from dts and Dj spectral."""
    d1, d2 = spatial_gradient(cfg.phi, cfg.grid)
    dt = dts.dt_phi + bracket(cfg.a0, cfg.phi)
    return dt, d1 + bracket(cfg.a1, cfg.phi), d2 + bracket(cfg.a2, cfg.phi)


def curvature(cfg, dts):
    """Curvature components (F_01, F_02, F_12)."""
    d1a0, d2a0 = spatial_gradient(cfg.a0, cfg.grid)
    d1a2, _ = spatial_gradient(cfg.a2, cfg.grid)
    _, d2a1 = spatial_gradient(cfg.a1, cfg.grid)
    f01 = dts.dt_a1 - d1a0 + bracket(cfg.a0, cfg.a1)
    f02 = dts.dt_a2 - d2a0 + bracket(cfg.a0, cfg.a2)
    f12 = d1a2 - d2a1 + bracket(cfg.a1, cfg.a2)
    return f01, f02, f12


def hodge_dual_covariant(cfg, dts):
    """Components (h_01, h_02, h_12) of the dual of D phi."""
    dt, d1, d2 = covariant_derivative(cfg, dts)
    return d2, -d1, -dt


def monopole_residual(cfg, dts):
    """Rowwise residual (left side minus right side) of the first-order system:

        dt phi + d1 a2 - d2 a1 = [a2, a1] + [phi, a0]
        dt a1 - d1 a0 - d2 phi = [a1, a0] + [a2, phi]
        dt a2 - d2 a0 + d1 phi = [a2, a0] + [phi, a1]
    """
    a0, a1, a2, phi = cfg.fields()
    # one transform of the stacked fields; d1[k], d2[k] follow (a0, a1, a2, phi)
    d1, d2 = spatial_gradient(np.stack(cfg.fields()), cfg.grid)
    r1 = dts.dt_phi + d1[2] - d2[1] - bracket(a2, a1) - bracket(phi, a0)
    r2 = dts.dt_a1 - d1[0] - d2[3] - bracket(a1, a0) - bracket(a2, phi)
    r3 = dts.dt_a2 - d2[0] + d1[3] - bracket(a2, a0) - bracket(phi, a1)
    return r1, r2, r3


def monopole_residual_via_dual(cfg, dts):
    """Residual from F - *D phi, ordered to match monopole_residual rows."""
    f01, f02, f12 = curvature(cfg, dts)
    h01, h02, h12 = hodge_dual_covariant(cfg, dts)
    return f12 - h12, f01 - h01, f02 - h02


def lorenz_residual(cfg, dts):
    """dt a0 - d1 a1 - d2 a2, the gauge constraint residual."""
    d1a1, _ = spatial_gradient(cfg.a1, cfg.grid)
    _, d2a2 = spatial_gradient(cfg.a2, cfg.grid)
    return dts.dt_a0 - d1a1 - d2a2


def gauge_transform(o, do, cfg, dts):
    """Apply a time-independent gauge map O(x).

    do holds the spatial derivatives (d1 O, d2 O).  The potentials pick up
    the inhomogeneous term -(dj O) O^{-1}; a0, phi, and all time derivatives
    conjugate, which is exact because dt O = 0.
    """
    o = np.asarray(o, dtype=np.complex128)
    d1o, d2o = (np.asarray(d, dtype=np.complex128) for d in do)
    _check_field(o, cfg.grid)
    eye = np.eye(o.shape[-1], dtype=np.complex128)
    if np.max(np.abs(o @ dagger(o) - eye)) > 1e-8:
        raise ValueError("gauge map is not unitary")
    oh = dagger(o)
    new_cfg = MonopoleConfig(
        grid=cfg.grid,
        a0=conjugate(o, cfg.a0),
        a1=conjugate(o, cfg.a1) - d1o @ oh,
        a2=conjugate(o, cfg.a2) - d2o @ oh,
        phi=conjugate(o, cfg.phi),
    )
    new_dts = TimeDerivatives(
        dt_a0=conjugate(o, dts.dt_a0),
        dt_a1=conjugate(o, dts.dt_a1),
        dt_a2=conjugate(o, dts.dt_a2),
        dt_phi=conjugate(o, dts.dt_phi),
    )
    return new_cfg, new_dts


def random_config(rng, grid, n=2, amplitude=0.25, kmax=None):
    """Random smooth configuration, band-limited to |k_index| <= kmax."""
    if kmax is None:
        kmax = max(1, grid.n_points // 6)
    basis = su_basis(n)
    dim = n * n - 1
    coeffs = random_band_limited(rng, grid, kmax, shape=(4, dim), scale=amplitude)
    fields = np.einsum("faxy,aij->fxyij", coeffs, basis)
    return MonopoleConfig(grid=grid, a0=fields[0], a1=fields[1], a2=fields[2], phi=fields[3])


def random_derivatives(rng, grid, kmax=None):
    """Random band-limited su(2) TimeDerivatives, independent of any configuration."""
    cfg = random_config(rng, grid, kmax=kmax)
    return TimeDerivatives(dt_a0=cfg.a0, dt_a1=cfg.a1, dt_a2=cfg.a2, dt_phi=cfg.phi)


def random_gauge_map(rng, grid):
    """Smooth periodic SU(2) gauge map O(x) = exp(X(x)) and its spatial derivatives.

    X has amplitude 0.4 and is band-limited to |k_index| <= 3.  O is
    analytic in x, so its spectral derivatives converge superalgebraically
    even though O itself is not band-limited.
    """
    x = 0.4 * random_lie(rng, n=2, shape=(grid.n_points, grid.n_points))
    x = np.asarray(x, dtype=np.complex128)
    x = fft_inverse(fft_forward(x, grid) * band_mask(grid, 3)[..., None, None], grid)
    x = 0.5 * (x - dagger(x))  # restore exact anti-Hermiticity after masking
    x = x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] * np.eye(2) / 2
    o = lie_expm(x)
    d1o, d2o = spatial_gradient(o, grid)
    return o, (d1o, d2o)

