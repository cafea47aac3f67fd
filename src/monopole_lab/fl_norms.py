"""Discrete Fourier-Lebesgue and wave-adapted space-time norms.

Spatial fields on a GridSpec are measured through their Fourier series
coefficients c(xi) = DFT / N^2.  The weighted norm is the Riemann sum

    hsp_norm(f)^q = sum_xi (<xi>^s |c(xi)|)^q (2 pi / L)^2,    q = p',

so a single mode of amplitude a has norm |a| (2 pi / L)^{2/p'} and the
p = 2, s = 0 case collapses to an exact Parseval identity with the
mean-square of the samples.

Space-time samples hold these coefficients at n_t times of a window
[-T_w, T_w), on axes (time, xi_1, xi_2, extra...).  One time transform
approximates the line integral over the real line,

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
are compactly supported in time, the time FFT takes _TAU_PAD n_t points
along the last axis of a time-last view, so scipy zero-pads each time
line, refining dtau to pi / (_TAU_PAD T_w) and restoring spectral
agreement.  Both sides of every comparison use the same padded lattice.
free_wave_sample stores its values time-last behind the (time, xi...)
axes, so that view is contiguous.  The weight <-tau + sign |xi|>^b, the
spatial weight and the free-wave phases depend on xi only through |xi|:
they are tabulated once per call on the grid's distinct |xi| levels
(GridSpec.kabs_levels) and gathered, so each point still gets the value
of its own |xi|.

The padded lattice is never held whole.  xsb_norm and embedding_check
run slab by slab over xi_1: each slab of rows is transformed, weighted
and raised to p', and only its partial sum is kept, so the memory a norm
holds beyond its sample is one slab of about _SLAB_BYTES and the weight
table, whatever n_t and the extra axes.  Every lattice point sees the
same arithmetic as in one whole-lattice pass; only the order of the sum
changes, which moves the last bits.

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

from .errors import DegenerateInputError, require_count, require_real
from .grid_spectral import dilate

MAX_ACTIVE_MODES = 4096
_TAU_PAD = 4
# bytes of one xi_1 slab of a lattice: 2 MiB, at least one row
_SLAB_BYTES = 2**21


def conjugate_exponent(p):
    """p' = p / (p - 1) of an exponent p in (1, 2], which it refuses outside."""
    require_real("p", p, positive=False)
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

    @classmethod
    def from_eps(cls, eps):
        # estimate regime: 1/p = 1 - 2 eps, s = 1/p, b = 1/p + eps
        require_real("eps", eps, positive=False)
        if not 0.0 < eps <= 0.25:
            raise ValueError(f"eps must lie in (0, 1/4], got {eps}")
        p = 1.0 / (1.0 - 2.0 * eps)
        return cls(p=p, s=1.0 - 2.0 * eps, b=1.0 - eps)


def tau_lattice(n_t, t_window):
    return 2.0 * np.pi * np.fft.fftfreq(n_t, d=2.0 * t_window / n_t)


@dataclass(frozen=True)
class SpaceTimeSample:
    """Windowed space-time field as Fourier coefficients, axes (time, xi_1, xi_2, extra...)."""

    values: np.ndarray
    t_window: float
    window: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim < 3 or values.shape[1] != values.shape[2]:
            raise ValueError(f"expected (n_t, N, N, ...) values, got {values.shape}")
        if values.shape[0] == 0:
            raise ValueError(f"values need at least one time sample, got {values.shape}")
        require_real("t_window", self.t_window, positive=True)
        object.__setattr__(self, "values", values)


def _sample_values(sample, grid):
    """The sample's values, after checking that their xi axes are the grid's."""
    values = sample.values
    if values.shape[1] != grid.n_points:
        raise ValueError(f"sample shape {values.shape} does not match grid n={grid.n_points}")
    return values


def _padded_taus(n_t, t_window):
    """The padded tau lattice of n_t samples on [-T_w, T_w) and its spacing dtau."""
    return tau_lattice(_TAU_PAD * n_t, _TAU_PAD * t_window), np.pi / (_TAU_PAD * t_window)


def _time_transform(values, t_window, taus):
    """Zero-padded time transform along axis 0 on the padded lattice taus.

    scipy pads each time line of a time-last view; the transform it
    returns is a time-first view of a time-last array.
    """
    n_t = values.shape[0]
    tilde = _fft.fft(np.moveaxis(values, 0, -1), n=_TAU_PAD * n_t, axis=-1)
    tilde *= 2.0 * t_window / n_t
    tilde *= np.exp(1j * taus * t_window)
    return np.moveaxis(tilde, -1, 0)


def _slabs(n_rows, row_bytes):
    """Slices of n_rows xi_1 rows of row_bytes each: _SLAB_BYTES apiece, at least one row."""
    rows = max(1, _SLAB_BYTES // row_bytes)
    return [slice(r0, r0 + rows) for r0 in range(0, n_rows, rows)]


def _lp_sum(weighted, cell, pprime, axis):
    """Sum of weighted^p' times the cell volume; overwrites weighted."""
    weighted **= pprime
    weighted *= cell
    return np.sum(weighted, axis=axis)


def _magnitude(data, lattice_ndim):
    mag = np.abs(data)
    if mag.ndim > lattice_ndim:
        extra = tuple(range(lattice_ndim, mag.ndim))
        mag = np.sqrt(np.sum(mag**2, axis=extra))
    return mag


def _spatial_weight(kabs, s, homogeneous):
    if not homogeneous:
        return (1.0 + kabs**2) ** (0.5 * s)
    # |0|^s: zero for s > 0 by continuity, one for s = 0; negative s would
    # put infinite weight on the mean mode, which the continuum integral
    # never sees, so the mode is dropped
    safe = np.where(kabs > 0.0, kabs, 1.0)
    return np.where(kabs > 0.0, safe**s, 1.0 if s == 0.0 else 0.0)


def hsp_norm(field, grid, s, p, homogeneous=False):
    """Weighted l^{p'} norm of the Fourier coefficients of a spatial field."""
    field = np.asarray(field)
    n = grid.n_points
    if field.shape[:2] != (n, n):
        raise ValueError(f"field shape {field.shape} does not match grid n={n}")
    pprime = conjugate_exponent(p)
    coeffs = _fft.fft2(field, axes=(0, 1), norm="forward")
    weighted = _spatial_weight(grid.kabs, s, homogeneous) * _magnitude(coeffs, 2)
    total = _lp_sum(weighted, (2.0 * np.pi / grid.length) ** 2, pprime, None)
    return float(total ** (1.0 / pprime))


def hbp_norm_1d(profile, t_window, b, p):
    """One-dimensional <tau>^b weighted norm of a windowed time profile."""
    require_real("t_window", t_window, positive=True)
    pprime = conjugate_exponent(p)
    profile = np.asarray(profile, dtype=complex)
    if profile.size == 0:
        raise ValueError(f"profile needs at least one time sample, got shape {profile.shape}")
    taus, dtau = _padded_taus(profile.shape[0], t_window)
    hat = _time_transform(profile, t_window, taus)
    weighted = (1.0 + taus**2) ** (0.5 * b) * np.abs(hat)
    return float(_lp_sum(weighted, dtau, pprime, None) ** (1.0 / pprime))


def _weight_table(grid, taus, s, b, sign):
    """<xi>^s <-tau + sign |xi|>^b on the |xi| levels, axes (level, tau), and each point's level."""
    levels, index = grid.kabs_levels
    table = np.subtract.outer(sign * levels, taus)
    table **= 2
    table += 1.0
    table **= 0.5 * b
    table *= _spatial_weight(levels, s, False)[:, np.newaxis]
    return table, index


def _xsb_slab(mag, table, index, cell, pprime):
    """Sum of (weight |u~|)^p' dcell over one (tau, rows, xi_2) magnitude slab, which it overwrites.

    table is _weight_table's, and index holds the |xi| level of each of
    the slab's (rows, xi_2) points.
    """
    mag *= np.moveaxis(table[index], -1, 0)
    return _lp_sum(mag, cell, pprime, None)


def xsb_norm(sample, grid, s, b, p, sign):
    """Wave-adapted space-time norm with weight <xi>^s <-tau + sign |xi|>^b."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    values = _sample_values(sample, grid)
    pprime = conjugate_exponent(p)
    taus, dtau = _padded_taus(values.shape[0], sample.t_window)
    table, index = _weight_table(grid, taus, s, b, sign)
    cell = dtau * (2.0 * np.pi / grid.length) ** 2
    row_bytes = values[0, 0].nbytes * _TAU_PAD * values.shape[0]
    total = 0.0
    for rows in _slabs(values.shape[1], row_bytes):
        # no name holds a slab's arrays while the next slab is built
        mag = _magnitude(_time_transform(values[:, rows], sample.t_window, taus), 3)
        total += _xsb_slab(mag, table, index[rows], cell, pprime)
        del mag
    return float(total ** (1.0 / pprime))


def gaussian_window(times, width):
    require_real("width", width, positive=True)
    times = np.asarray(times, dtype=float)
    return np.exp(-(times**2) / (2.0 * width**2))


def free_wave_sample(grid, field, sign, width, t_window=2.0, n_t=256):
    """Fourier coefficients of gaussian_window(t, width) exp(i t sign |D|) field.

    Axes are (time, xi_1, xi_2, extra...), and the sample's window holds
    the time profile.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    field = np.asarray(field, dtype=complex)
    n = grid.n_points
    if field.shape[:2] != (n, n):
        raise ValueError(f"field shape {field.shape} does not match grid n={n}")
    require_count("n_t", n_t, 1)
    require_real("t_window", t_window, positive=True)
    dt = 2.0 * t_window / n_t
    times = -t_window + dt * np.arange(n_t)
    profile = gaussian_window(times, width)
    levels, index = grid.kabs_levels
    waves = profile * np.exp(1j * sign * levels[:, np.newaxis] * times)
    # one gather into the full (xi_1, xi_2, extra..., time) sample, then the coefficients
    index = np.broadcast_to(index.reshape(index.shape + (1,) * (field.ndim - 2)), field.shape)
    values = waves[index]
    values *= _fft.fft2(field, axes=(0, 1), norm="forward")[..., np.newaxis]
    return SpaceTimeSample(values=np.moveaxis(values, -1, 0), t_window=t_window, window=profile)


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
    """Closed form of (integral <sigma>^{-pb} dsigma)^{1/p} for p > 0 and pb > 1."""
    require_real("b", b, positive=False)
    require_real("p", p, positive=True)
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
    values = _sample_values(sample, grid)
    if xsb == 0.0:
        return 0.0
    pprime = conjugate_exponent(params.p)
    weight = _spatial_weight(grid.kabs, params.s, False)
    cell = (2.0 * np.pi / grid.length) ** 2
    # the per-time sums gather slab by slab over xi_1, like xsb_norm's
    sums = 0.0
    for rows in _slabs(values.shape[1], values[:, 0].nbytes):
        sums += _lp_sum(weight[rows] * _magnitude(values[:, rows], 3), cell, pprime, (1, 2))
    return float(np.max(sums ** (1.0 / pprime))) / xsb


def homogeneous_factorization_check(field, width, grid, params, sign, t_window=2.0, n_t=256):
    """Both sides of |rho W(t) f|_{X^{s,b}_p} = |rho|_{H^b_p} |f|_{H^s_p}, and the sample.

    rho is the gaussian window of the given width.  Exact in the
    continuum; discretely the two sides are Riemann sums of one function
    over lattices offset by |xi| mod the tau spacing, so they agree to
    spectral accuracy.  The returned sample is the windowed wave
    rho W(t) f whose norm is lhs.
    """
    sample = free_wave_sample(grid, field, sign, width, t_window=t_window, n_t=n_t)
    lhs = xsb_norm(sample, grid, params.s, params.b, params.p, sign)
    rhs = hbp_norm_1d(sample.window, t_window, params.b, params.p) * hsp_norm(
        field, grid, params.s, params.p
    )
    return lhs, rhs, sample


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
    # angle between eta and zeta by arctan2, exactly 0 on collinear pairs;
    # np.sum starts from +0.0, so a zero vector gets arctan2(0, +0) = 0,
    # matching the continuum kernel where zero vectors are a null set
    cross = eta[0] * zeta[1] - eta[1] * zeta[0]
    return np.arctan2(np.abs(cross), np.sum(eta * zeta, axis=0))


def _convolve(phi_tilde, psi_tilde, grid, sign, t_window):
    """Angle-weighted mode convolution Q of two nonnegative (tau, xi) lattices."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    n = grid.n_points
    n_t = np.asarray(phi_tilde).shape[0]
    phi_idx = _active_modes("phi_tilde", phi_tilde, n_t, n)
    psi_idx = _active_modes("psi_tilde", psi_tilde, n_t, n)
    phi_tilde = np.asarray(phi_tilde, dtype=float)
    psi_tilde = np.asarray(psi_tilde, dtype=float)
    out = np.zeros((n_t, n, n))
    if phi_idx[0].size and psi_idx[0].size:
        eta = np.stack([grid.kx[phi_idx[1], phi_idx[2]], grid.ky[phi_idx[1], phi_idx[2]]])
        zeta = np.stack([grid.kx[psi_idx[1], psi_idx[2]], grid.ky[psi_idx[1], psi_idx[2]]])
        kernel = _pair_angles(eta[:, :, np.newaxis], sign * zeta[:, np.newaxis, :])
        cell = (np.pi / t_window) * (2.0 * np.pi / grid.length) ** 2
        vals = kernel * np.multiply.outer(phi_tilde[phi_idx], psi_tilde[psi_idx]) * cell
        flat = np.ravel_multi_index(
            (
                (phi_idx[0][:, None] + psi_idx[0][None, :]) % n_t,
                (phi_idx[1][:, None] + psi_idx[1][None, :]) % n,
                (phi_idx[2][:, None] + psi_idx[2][None, :]) % n,
            ),
            (n_t, n, n),
        )
        np.add.at(out.reshape(-1), flat.ravel(), vals.ravel())
    return out


def key_bilinear_probe(phi_tilde, psi_tilde, grid, params, sign, t_window=2.0):
    """The probe.csv columns lhs, rhs and ratio of one pair of inputs.

    phi_tilde and psi_tilde are nonnegative space-time Fourier data on the
    (tau, xi) lattice.  lhs is the norm of their angle-weighted convolution
    with exponents (s, 0); rhs is the product of the input norms with
    exponents (s, b) and modulation signs (+, sign).
    """
    require_real("t_window", t_window, positive=True)
    out = _convolve(phi_tilde, psi_tilde, grid, sign, t_window)
    taus = tau_lattice(out.shape[0], t_window)
    cell = (np.pi / t_window) * (2.0 * np.pi / grid.length) ** 2
    pprime = conjugate_exponent(params.p)

    def norm(tilde, b, wave_sign):
        # the whole (tau, xi) lattice is one slab: probe data are small
        table, index = _weight_table(grid, taus, params.s, b, wave_sign)
        mag = _magnitude(np.asarray(tilde), 3)
        return _xsb_slab(mag, table, index, cell, pprime) ** (1.0 / pprime)

    lhs = norm(out, 0.0, 1)
    rhs = norm(phi_tilde, params.b, 1) * norm(psi_tilde, params.b, sign)
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}


def check_active_modes(grid, n_t, n_active):
    """Raise ValueError unless n_active probe modes fit the quarter band and the cap.

    random_positive_coeffs places modes by rejection, so more modes than
    the band's distinct slots would never be placed; key_bilinear_probe
    refuses more than MAX_ACTIVE_MODES.
    """
    require_count("n_t", n_t, 1)
    require_count("n_active", n_active, 0)
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
    placed = {}
    while len(placed) < n_active:
        m = int(rng.integers(-t_cap, t_cap + 1)) % n_t
        a = int(rng.integers(-index_cap, index_cap + 1)) % n
        c = int(rng.integers(-index_cap, index_cap + 1)) % n
        if (m, a, c) not in placed:
            placed[m, a, c] = float(rng.uniform(0.1, 1.0))
    data = np.zeros((n_t, n, n))
    slots = np.array(list(placed), dtype=int).reshape(-1, 3)
    data[tuple(slots.T)] = list(placed.values())
    return data


def bilinear_sweep(rng, grid, eps_values, n_samples=25, n_active=96, n_t=16, t_window=2.0):
    """Ratio records for random probes; the max is the regression baseline."""
    require_count("n_samples", n_samples, 0)
    require_real("t_window", t_window, positive=True)
    rows = []
    for eps in eps_values:
        params = NormParams.from_eps(eps)
        for sign in (1, -1):
            for k in range(n_samples):
                phi = random_positive_coeffs(rng, grid, n_t, n_active)
                psi = random_positive_coeffs(rng, grid, n_t, n_active)
                probe = key_bilinear_probe(phi, psi, grid, params, sign, t_window=t_window)
                rows.append({"eps": eps, "p": params.p, "sign": sign, "sample": k, **probe})
    return rows
