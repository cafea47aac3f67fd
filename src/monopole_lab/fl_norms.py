"""Discrete Fourier-Lebesgue and wave-adapted space-time norms.

Spatial fields on a GridSpec are measured through their Fourier series
coefficients c(xi) = DFT / N^2.  The weighted norm is the Riemann sum

    hsp_norm(f)^q = sum_xi (<xi>^s |c(xi)|)^q (2 pi / L)^2,    q = p',

so a single mode of amplitude a has norm |a| (2 pi / L)^{2/p'} and the
p = 2, s = 0 case collapses to an exact Parseval identity with the
mean-square of the samples.

Space-time samples occupy a window [-T_w, T_w) sampled at n_t points.
The time transform approximates the line integral over the real line,

    u_tilde(tau, xi) = dt * sum_j c(t_j, xi) exp(-i tau t_j),

on a tau lattice, and the space-time norms weight with
<xi>^s <-tau + sign |xi|>^b and carry the cell dtau (2 pi / L)^2.
With these conventions a windowed half-wave rho(t) exp(i t sign |D|) f
has transform c(xi) rho_hat(tau - sign |xi|) up to a unimodular phase,
which is what makes the factorization check an identity up to Riemann
sums of one function over lattices offset by |xi| mod dtau.

The weight <sigma>^b is analytic only in the strip |Im sigma| < 1, so
those offset sums agree like exp(-2 pi / dtau): the native spacing
pi / T_w of the window leaves a defect near 1e-5.  Since the samples
are compactly supported in time, the transform zero-pads the window by
the factor _TAU_PAD before the time FFT, refining dtau to
pi / (_TAU_PAD T_w) and restoring spectral agreement.  Both sides of
every comparison use the same padded lattice.

The bilinear probe evaluates the angle-weighted convolution

    Q(tau, xi) = sum_{lambda, eta} theta(eta, sign (xi - eta))
                 phi(lambda, eta) psi(tau - lambda, xi - eta) dcell

by direct summation over the active lattice modes of nonnegative
Fourier data, then compares the output norm at modulation exponent zero
against the product of the input norms.  Mode arithmetic is periodic;
callers who want the flat interaction keep supports inside a quarter
band so no frequency wraps.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .errors import DegenerateInputError
from .grid_spectral import GridSpec, dilate

MAX_ACTIVE_MODES = 4096
_TAU_PAD = 4


def conjugate_exponent(p):
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormParams:
    """Exponent bundle (p, s, b)."""

    p: float
    s: float
    b: float

    def __post_init__(self):
        conjugate_exponent(self.p)

    @property
    def pprime(self):
        return conjugate_exponent(self.p)

    @classmethod
    def from_eps(cls, eps):
        # estimate regime: 1/p = 1 - 2 eps, s = 1/p, b = 1/p + eps
        if not 0.0 < eps <= 0.25:
            raise ValueError(f"eps must lie in (0, 1/4], got {eps}")
        p = 1.0 / (1.0 - 2.0 * eps)
        return cls(p=p, s=1.0 - 2.0 * eps, b=1.0 - eps)


def tau_lattice(n_t, t_window):
    return 2.0 * np.pi * np.fft.fftfreq(n_t, d=2.0 * t_window / n_t)


@dataclass(frozen=True)
class SpaceTimeSample:
    """Windowed space-time field, axes (time, x, y, extra...)."""

    values: np.ndarray
    t_window: float
    window: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim < 3 or values.shape[1] != values.shape[2]:
            raise ValueError(f"expected (n_t, N, N, ...) values, got {values.shape}")
        object.__setattr__(self, "values", values)

    @property
    def n_t(self):
        return self.values.shape[0]

    @property
    def dt(self):
        return 2.0 * self.t_window / self.n_t

    @property
    def dtau(self):
        return np.pi / (_TAU_PAD * self.t_window)

    def times(self):
        return -self.t_window + self.dt * np.arange(self.n_t)

    def taus(self):
        return tau_lattice(_TAU_PAD * self.n_t, _TAU_PAD * self.t_window)

    def transform(self):
        """Space-time Fourier data on the zero-padded (tau, xi) lattice."""
        coeffs = _fft.fft2(self.values, axes=(1, 2), norm="forward")
        pad = [(0, (_TAU_PAD - 1) * self.n_t)] + [(0, 0)] * (coeffs.ndim - 1)
        tilde = self.dt * _fft.fft(np.pad(coeffs, pad), axis=0)
        phase = np.exp(1j * self.taus() * self.t_window)
        return tilde * phase.reshape((phase.size,) + (1,) * (self.values.ndim - 1))


def _magnitude(data, lattice_ndim):
    mag = np.abs(data)
    if mag.ndim > lattice_ndim:
        extra = tuple(range(lattice_ndim, mag.ndim))
        mag = np.sqrt(np.sum(mag**2, axis=extra))
    return mag


def _spatial_weight(grid, s, homogeneous):
    if not homogeneous:
        return (1.0 + grid.kabs**2) ** (0.5 * s)
    # |0|^s: zero for s > 0 by continuity, one for s = 0; negative s would
    # put infinite weight on the mean mode, which the continuum integral
    # never sees, so the mode is dropped
    safe = np.where(grid.kabs > 0.0, grid.kabs, 1.0)
    return np.where(grid.kabs > 0.0, safe**s, 1.0 if s == 0.0 else 0.0)


def hsp_norm(field, grid, s, p, homogeneous=False):
    """Weighted l^{p'} norm of the Fourier coefficients of a spatial field."""
    pprime = conjugate_exponent(p)
    field = np.asarray(field)
    n = grid.n_points
    if field.shape[:2] != (n, n):
        raise ValueError(f"field shape {field.shape} does not match grid n={n}")
    coeffs = _fft.fft2(field, axes=(0, 1), norm="forward")
    mag = _magnitude(coeffs, 2)
    weight = _spatial_weight(grid, s, homogeneous)
    cell = (2.0 * np.pi / grid.length) ** 2
    return float(np.sum((weight * mag) ** pprime * cell) ** (1.0 / pprime))


def hbp_norm_1d(profile, t_window, b, p):
    """One-dimensional <tau>^b weighted norm of a windowed time profile."""
    pprime = conjugate_exponent(p)
    profile = np.asarray(profile, dtype=complex)
    n_t = profile.shape[0]
    dt = 2.0 * t_window / n_t
    taus = tau_lattice(_TAU_PAD * n_t, _TAU_PAD * t_window)
    padded = np.pad(profile, (0, (_TAU_PAD - 1) * n_t))
    hat = dt * _fft.fft(padded) * np.exp(1j * taus * t_window)
    weight = (1.0 + taus**2) ** (0.5 * b)
    dtau = np.pi / (_TAU_PAD * t_window)
    return float(np.sum((weight * np.abs(hat)) ** pprime * dtau) ** (1.0 / pprime))


def _xsb_of_transform(tilde, grid, taus, dtau, s, b, p, sign):
    pprime = conjugate_exponent(p)
    mag = _magnitude(np.asarray(tilde), 3)
    kabs = grid.kabs[np.newaxis, :, :]
    weight = (1.0 + kabs**2) ** (0.5 * s)
    modulation = -taus[:, np.newaxis, np.newaxis] + sign * kabs
    weight = weight * (1.0 + modulation**2) ** (0.5 * b)
    cell = dtau * (2.0 * np.pi / grid.length) ** 2
    return float(np.sum((weight * mag) ** pprime * cell) ** (1.0 / pprime))


def xsb_norm(sample, grid, s, b, p, sign):
    """Wave-adapted space-time norm with weight <xi>^s <-tau + sign |xi|>^b."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return _xsb_of_transform(
        sample.transform(), grid, sample.taus(), sample.dtau, s, b, p, sign
    )


def gaussian_window(times, width):
    times = np.asarray(times, dtype=float)
    return np.exp(-(times**2) / (2.0 * width**2))


def free_wave_sample(grid, field, sign, window, t_window=2.0, n_t=256):
    """Half-wave evolution exp(i t sign |D|) of a spatial field times window(t)."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    field = np.asarray(field, dtype=complex)
    n = grid.n_points
    if field.shape[:2] != (n, n):
        raise ValueError(f"field shape {field.shape} does not match grid n={n}")
    dt = 2.0 * t_window / n_t
    times = -t_window + dt * np.arange(n_t)
    profile = np.asarray(window(times), dtype=float)
    hat = _fft.fft2(field, axes=(0, 1))
    extra = (1,) * (field.ndim - 2)
    phases = np.exp(1j * sign * times[:, np.newaxis, np.newaxis] * grid.kabs)
    waves = _fft.ifft2(phases.reshape((n_t, n, n) + extra) * hat, axes=(1, 2))
    values = profile.reshape((n_t,) + (1, 1) + extra) * waves
    return SpaceTimeSample(values=values, t_window=t_window, window=profile)


def scaling_check(field, grid, lam, s, p):
    """Measured dilation exponent of the homogeneous norm.

    The samples of lam f(lam x) on the period-L/lam grid are lam times
    the original samples, so the rescaled field is exact; the reported
    exponent compares continuum-normalized norms, which costs the log of
    the squared period ratio on top of the coefficient bookkeeping.  It
    should land on s + 1 - 2/p.
    """
    scaled, small_grid = dilate(np.asarray(field), grid, lam)
    base = hsp_norm(field, grid, s, p, homogeneous=True)
    moved = hsp_norm(scaled, small_grid, s, p, homogeneous=True)
    if base == 0.0:
        raise DegenerateInputError("scaling exponent of the zero field")
    return float(np.log(moved / base) / np.log(lam) - 2.0)


def embedding_constant(b, p):
    """Closed form of (integral <sigma>^{-pb} dsigma)^{1/p} for pb > 1."""
    q = p * b
    if q <= 1.0:
        raise ValueError(f"need p*b > 1, got {q}")
    value = math.sqrt(math.pi) * math.gamma(0.5 * (q - 1.0)) / math.gamma(0.5 * q)
    return value ** (1.0 / p)


def embedding_check(sample, grid, params, xsb):
    """sup_t fixed-time norm over xsb, the sample's space-time norm.

    Bounded by embedding_constant; xsb is the lhs that
    homogeneous_factorization_check returns with the sample.
    """
    if params.p * params.b <= 1.0:
        raise ValueError(f"embedding needs p*b > 1, got {params.p * params.b}")
    if xsb == 0.0:
        return 0.0
    sup = max(
        hsp_norm(sample.values[j], grid, params.s, params.p)
        for j in range(sample.n_t)
    )
    return sup / xsb


def homogeneous_factorization_check(field, window, grid, params, sign, t_window=2.0, n_t=256):
    """Both sides of |rho W(t) f|_{X^{s,b}_p} = |rho|_{H^b_p} |f|_{H^s_p}, and the sample.

    Exact in the continuum; discretely the two sides are Riemann sums of
    one function over lattices offset by |xi| mod the tau spacing, so
    they agree to spectral accuracy for smooth decaying windows.  The
    returned sample is the windowed wave rho W(t) f whose norm is lhs.
    """
    sample = free_wave_sample(grid, field, sign, window, t_window=t_window, n_t=n_t)
    lhs = xsb_norm(sample, grid, params.s, params.b, params.p, sign)
    rhs = hbp_norm_1d(sample.window, t_window, params.b, params.p) * hsp_norm(
        field, grid, params.s, params.p
    )
    return lhs, rhs, sample


@dataclass(frozen=True)
class BilinearProbeResult:
    lhs: float
    rhs_phi: float
    rhs_psi: float
    transform: np.ndarray

    @property
    def ratio(self):
        return self.lhs / (self.rhs_phi * self.rhs_psi)


def _active_modes(name, tilde, n_t, n):
    tilde = np.asarray(tilde)
    if tilde.shape != (n_t, n, n):
        raise ValueError(f"{name} must have shape {(n_t, n, n)}, got {tilde.shape}")
    if np.iscomplexobj(tilde) or np.any(tilde < 0.0):
        raise ValueError(f"{name} must be nonnegative real Fourier data")
    count = np.count_nonzero(tilde)
    if count > MAX_ACTIVE_MODES:
        raise ValueError(
            f"{name} has {count} active modes, cap is {MAX_ACTIVE_MODES}"
        )
    return np.nonzero(tilde)


def _pair_angles(eta, zeta):
    # angle between eta and zeta with zero vectors carrying zero weight,
    # matching the continuum kernel where they are a null set
    dots = np.sum(eta * zeta, axis=0)
    norms = np.hypot(eta[0], eta[1]) * np.hypot(zeta[0], zeta[1])
    cos = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0.0)
    angles = np.arccos(np.clip(cos, -1.0, 1.0))
    return np.where(norms > 0.0, angles, 0.0)


def key_bilinear_probe(phi_tilde, psi_tilde, grid, params, sign, t_window=2.0):
    """Angle-weighted mode convolution against the product of input norms.

    phi_tilde and psi_tilde are nonnegative space-time Fourier data on the
    (tau, xi) lattice.  The output norm uses exponents (s, 0); the input
    norms use (s, b) with modulation signs (+, sign).
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    n = grid.n_points
    n_t = np.asarray(phi_tilde).shape[0]
    phi_idx = _active_modes("phi_tilde", phi_tilde, n_t, n)
    psi_idx = _active_modes("psi_tilde", psi_tilde, n_t, n)
    phi_tilde = np.asarray(phi_tilde, dtype=float)
    psi_tilde = np.asarray(psi_tilde, dtype=float)

    taus = tau_lattice(n_t, t_window)
    cell = (np.pi / t_window) * (2.0 * np.pi / grid.length) ** 2
    out = np.zeros((n_t, n, n))
    if phi_idx[0].size and psi_idx[0].size:
        eta = np.stack([grid.kx[phi_idx[1], phi_idx[2]], grid.ky[phi_idx[1], phi_idx[2]]])
        zeta = np.stack([grid.kx[psi_idx[1], psi_idx[2]], grid.ky[psi_idx[1], psi_idx[2]]])
        kernel = _pair_angles(eta[:, :, np.newaxis], sign * zeta[:, np.newaxis, :])
        vals = kernel * np.multiply.outer(
            phi_tilde[phi_idx], psi_tilde[psi_idx]
        ) * cell
        flat = np.ravel_multi_index(
            (
                (phi_idx[0][:, None] + psi_idx[0][None, :]) % n_t,
                (phi_idx[1][:, None] + psi_idx[1][None, :]) % n,
                (phi_idx[2][:, None] + psi_idx[2][None, :]) % n,
            ),
            (n_t, n, n),
        )
        np.add.at(out.reshape(-1), flat.ravel(), vals.ravel())

    dtau = np.pi / t_window
    lhs = _xsb_of_transform(out, grid, taus, dtau, params.s, 0.0, params.p, 1)
    rhs_phi = _xsb_of_transform(
        phi_tilde, grid, taus, dtau, params.s, params.b, params.p, 1
    )
    rhs_psi = _xsb_of_transform(
        psi_tilde, grid, taus, dtau, params.s, params.b, params.p, sign
    )
    return BilinearProbeResult(lhs=lhs, rhs_phi=rhs_phi, rhs_psi=rhs_psi, transform=out)


def check_active_modes(grid, n_t, n_active):
    """Raise ValueError unless n_active probe modes fit the quarter band and the cap.

    random_positive_coeffs places modes by rejection, so more modes than
    the band's distinct slots would never be placed; key_bilinear_probe
    refuses more than MAX_ACTIVE_MODES.
    """
    n = grid.n_points
    slots = min(2 * max(n_t // 4, 1) + 1, n_t) * min(2 * (n // 4) + 1, n) ** 2
    if n_active > slots:
        raise ValueError(f"n_active={n_active} exceeds the {slots} slots of the quarter band")
    if n_active > MAX_ACTIVE_MODES:
        raise ValueError(
            f"n_active={n_active} exceeds the mode cap of the probe (cap is {MAX_ACTIVE_MODES})"
        )


def random_positive_coeffs(rng, grid, n_t, n_active):
    """Sparse nonnegative Fourier data inside a quarter band (no wrap).

    check_active_modes refuses an n_active that cannot be placed before
    any draw.
    """
    check_active_modes(grid, n_t, n_active)
    n = grid.n_points
    index_cap = n // 4
    t_cap = max(n_t // 4, 1)
    data = np.zeros((n_t, n, n))
    placed = 0
    while placed < n_active:
        m = int(rng.integers(-t_cap, t_cap + 1)) % n_t
        a = int(rng.integers(-index_cap, index_cap + 1)) % n
        c = int(rng.integers(-index_cap, index_cap + 1)) % n
        if data[m, a, c] == 0.0:
            data[m, a, c] = float(rng.uniform(0.1, 1.0))
            placed += 1
    return data


def bilinear_sweep(rng, grid, eps_values, n_samples=25, n_active=96, n_t=16, t_window=2.0):
    """Ratio records for random probes; the max is the regression baseline."""
    rows = []
    for eps in eps_values:
        params = NormParams.from_eps(eps)
        for sign in (1, -1):
            for k in range(n_samples):
                phi = random_positive_coeffs(rng, grid, n_t, n_active)
                psi = random_positive_coeffs(rng, grid, n_t, n_active)
                result = key_bilinear_probe(
                    phi, psi, grid, params, sign, t_window=t_window
                )
                rows.append(
                    {
                        "eps": eps,
                        "p": params.p,
                        "sign": sign,
                        "sample": k,
                        "lhs": result.lhs,
                        "rhs": result.rhs_phi * result.rhs_psi,
                        "ratio": result.ratio,
                    }
                )
    return rows
