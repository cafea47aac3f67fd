"""Periodic 2D grid, unitary FFT conventions, and half-wave projections.

Matrix-valued fields live on arrays of shape (..., N, N, n, n): the two grid
axes sit at positions -4 and -3, the Lie matrix axes at -2 and -1.  Fourier
representations use the unitary normalization (norm="ortho") so that the
transform preserves the entrywise l2 norm.

The symbol of the spatial operator is alpha . xi with the constant matrices
ALPHA1, ALPHA2 below; BETA intertwines the two wave projections.  The
projections P(+-, xi) = (1/2)(I +- alpha . xi/|xi|) diagonalize alpha . xi
into |xi| P(+) - |xi| P(-).  At xi = 0 both projections are defined as I/2.
projection_matrices is their one table; apply_projection applies it on the
grid, for DiagonalState, whose half waves are the package's only split.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as _fft

from .errors import require_count, require_real

ALPHA1 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
ALPHA2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
BETA = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=np.complex128)


@dataclass(frozen=True)
class GridSpec:
    """Square periodic grid: n_points per side, period length, time step; length and dt positive real numbers."""

    n_points: int
    length: float
    dt: float

    def __post_init__(self):
        require_count("n_points", self.n_points, 1)
        if self.n_points < 8 or self.n_points & (self.n_points - 1):
            raise ValueError(f"n_points must be a power of two >= 8, got {self.n_points}")
        require_real("length", self.length, positive=True)
        require_real("dt", self.dt, positive=True)

    @property
    def dx(self):
        return self.length / self.n_points

    @cached_property
    def wavenumbers(self):
        """1D angular frequencies 2 pi k / L in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    @cached_property
    def kx(self):
        return np.meshgrid(self.wavenumbers, self.wavenumbers, indexing="ij")[0]

    @cached_property
    def ky(self):
        return np.meshgrid(self.wavenumbers, self.wavenumbers, indexing="ij")[1]

    @cached_property
    def kabs(self):
        return np.hypot(self.kx, self.ky)

    @cached_property
    def kabs_levels(self):
        """Distinct values of kabs, ascending, and the (N, N) index of each point's own."""
        levels, index = np.unique(self.kabs, return_inverse=True)
        return levels, index.reshape(self.kabs.shape)

    @cached_property
    def mode_index(self):
        """Signed integer mode index along one axis, FFT ordering."""
        return np.rint(np.fft.fftfreq(self.n_points) * self.n_points).astype(int)

    @cached_property
    def dealias_mask(self):
        """Two-thirds rule: keep modes with |k_index| <= N/3 in each axis."""
        return band_mask(self, self.n_points // 3)


def _check_field(field, grid):
    field = np.asarray(field)
    n = grid.n_points
    if field.ndim < 4 or field.shape[-4] != n or field.shape[-3] != n:
        raise ValueError(
            f"field shape {field.shape} does not match grid axes (..., {n}, {n}, n, n)"
        )
    return field


def fft_forward(field, grid):
    """Physical to Fourier, unitary normalization, over the grid axes."""
    field = _check_field(field, grid)
    return _fft.fft2(field, axes=(-4, -3), norm="ortho")


def fft_inverse(field, grid):
    """Fourier to physical, unitary normalization, over the grid axes."""
    field = _check_field(field, grid)
    return _fft.ifft2(field, axes=(-4, -3), norm="ortho")


def alpha_dot(xi):
    """The 2x2 symbol alpha . xi for a single frequency pair."""
    xi = np.asarray(xi, dtype=float)
    return xi[..., 0, None, None] * ALPHA1 + xi[..., 1, None, None] * ALPHA2


def projection_matrices(sign, xi):
    """Wave projections P(sign, xi) = (I + sign * alpha . xi/|xi|) / 2.

    xi has shape (..., 2); the result has shape (..., 2, 2).  Zero
    frequencies get P = I/2, the mean of the two one-sided limits.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != 2:
        raise ValueError(f"xi must have trailing length 2, got shape {xi.shape}")
    # divide out the largest component first so even subnormal vectors
    # keep an accurate direction; hypot alone would round them to junk
    peak = np.max(np.abs(xi), axis=-1)
    unit = xi / np.where(peak == 0.0, 1.0, peak)[..., None]
    mag = np.hypot(unit[..., 0], unit[..., 1])
    safe = np.where(mag == 0.0, 1.0, mag)
    hat = unit / safe[..., None]
    out = 0.5 * (np.eye(2, dtype=np.complex128) + sign * alpha_dot(hat))
    return np.where(mag[..., None, None] == 0.0, 0.5 * np.eye(2, dtype=np.complex128), out)


def apply_projection(sign, pair, grid):
    """Apply the wave projection modewise to a Fourier pair (2, N, N, n, n)."""
    pair = np.asarray(pair)
    if pair.ndim != 5 or pair.shape[0] != 2:
        raise ValueError(f"pair must have shape (2, N, N, n, n), got {pair.shape}")
    _check_field(pair[0], grid)
    xi = np.stack([grid.kx, grid.ky], axis=-1)
    w = np.moveaxis(projection_matrices(sign, xi), (-2, -1), (0, 1))[..., None, None]
    out = np.empty_like(pair)
    out[0] = w[0, 0] * pair[0] + w[0, 1] * pair[1]
    out[1] = w[1, 0] * pair[0] + w[1, 1] * pair[1]
    return out


def band_mask(grid, kmax):
    """Boolean (N, N) mask keeping |k_index| <= kmax along both axes."""
    keep = np.abs(grid.mode_index) <= kmax
    return np.logical_and.outer(keep, keep)


def random_band_limited(rng, grid, kmax, shape=(), scale=1.0):
    """Real random scalar fields, band-limited to |k_index| <= kmax.

    Returns an array of shape (*shape, N, N) with roughly unit variance
    before scaling.
    """
    n = grid.n_points
    white = rng.standard_normal((*shape, n, n))
    spec = _fft.fft2(white, axes=(-2, -1), norm="ortho") * band_mask(grid, kmax)
    out = _fft.ifft2(spec, axes=(-2, -1), norm="ortho").real
    rms = np.sqrt(np.mean(out**2, axis=(-2, -1), keepdims=True))
    rms = np.where(rms == 0.0, 1.0, rms)
    return scale * out / rms


def dilate(field, grid, lam):
    """Rescaling x -> lam * x, for any positive real lam, realized by shrinking the period.

    The samples of f(lam x) on the grid of period L/lam coincide with the
    samples of f on the original grid, so the returned field is just a
    scaled copy living on GridSpec(N, L/lam, dt/lam).  Mode index k then
    carries frequency lam * (2 pi k / L): amplitudes scale by lam and
    wavevectors dilate by lam, exactly.
    """
    field = np.asarray(field)
    require_real("lam", lam, positive=True)
    new_grid = GridSpec(grid.n_points, grid.length / lam, grid.dt / lam)
    return lam * field, new_grid
