"""Quadrature on the interaction surfaces of two half waves.

A product of wave packets at frequencies eta and xi - eta contributes to
the output frequency (tau, xi) only on the surface where tau equals
|eta| + |xi - eta| (both factors forward) or |eta| - |xi - eta| (one
factor backward).  Integrals against those delta constraints live on an
ellipse, respectively a hyperbola branch, with foci 0 and xi:

  plus:  |eta| + |xi - eta| = tau, tau > |xi|; polar about the origin
         focus, the ray at angle psi from xi crosses the ellipse at
         rho* = (tau^2 - |xi|^2) / (2 (tau - |xi| cos psi)), and the
         coarea weight is rho* (tau - rho*) / (tau - |xi| cos psi).
  minus: |eta| - |xi - eta| = tau, |tau| < |xi|; with c = |xi|/2 and
         a = tau/2, b = sqrt(c^2 - a^2), the branch is
         (c + a cosh u, b sinh u) in the frame of xi, the focal radii
         are r1 = c cosh u + a and r2 = c cosh u - a, and the coarea
         weight is (c^2 cosh^2 u - a^2) / (2 b) du.

Composite Gauss-Legendre panels are doubled until the value settles;
the minus branch also doubles its truncation in u, so the caller owns
integrand decay.  On top of the raw integrals sit the two normalized
interaction kernels whose uniform boundedness the estimates need, each
compared against its closed-form rate, plus a mollified-delta oracle
that replaces the constraint by a narrow Gaussian and Richardson
extrapolates the width to zero: an independent check of the whole
change of variables.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateInputError

_GL_NODES = 16
_GL_CACHE = np.polynomial.legendre.leggauss(_GL_NODES)
# the doubling runs from _N_START points to at most _N_MAX; an unbounded
# minus branch is cut at u = _U_START, doubled each round up to _U_MAX
_N_START = 2048
_N_MAX = 1 << 18
_U_START = 8.0
_U_MAX = 64.0
# Gaussian widths of the mollified oracles, halved for Richardson
_ORACLE_WIDTHS = (0.1, 0.05, 0.025)


@dataclass(frozen=True)
class ConeProbe:
    """One evaluation point (tau, xi, p) of an interaction kernel."""

    tau: float
    xi: tuple
    p: float

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (2,):
            raise ValueError(f"xi must be a 2-vector, got shape {xi.shape}")
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p must lie in (1, 2], got {self.p}")
        object.__setattr__(self, "xi", (float(xi[0]), float(xi[1])))

    @property
    def xi_vec(self):
        return np.asarray(self.xi, dtype=float)

    @property
    def xi_mag(self):
        return float(np.hypot(*self.xi))


@dataclass
class DeltaIntegralResult:
    """Value of a delta-restricted integral with its refinement residue."""

    value: float
    quadrature_points: int
    est_error: float


def _panel_nodes(lo, hi, n_panels):
    x, w = _GL_CACHE
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * x).ravel()
    wts = (half[:, None] * w).ravel()
    return pts, wts


def _doubled(evaluate, rtol):
    """Double the points of evaluate(n_points, round) until the value settles.

    evaluate returns (value, points used); round counts the doublings.
    """
    value, used = evaluate(_N_START, 0)
    err = np.inf
    rounds = 0
    while used * 2 <= _N_MAX:
        rounds += 1
        refined, used = evaluate(used * 2, rounds)
        err = abs(refined - value)
        value = refined
        if err <= rtol * max(abs(value), 1e-300):
            break
    return DeltaIntegralResult(value=value, quadrature_points=used, est_error=err)


def delta_integral_plus(f, tau, xi, rtol=1e-6):
    """Integral of f(eta) against delta(tau - |eta| - |xi - eta|).

    f must accept points of shape (..., 2).  tau > |xi| is required;
    at tau = |xi| the ellipse collapses onto the focal segment.
    """
    xi = np.asarray(xi, dtype=float)
    mag = float(np.hypot(*xi))
    tau = float(tau)
    if tau <= mag:
        raise DegenerateInputError(f"plus surface needs tau > |xi|, got tau={tau}, |xi|={mag}")
    beta = np.arctan2(xi[1], xi[0]) if mag > 0.0 else 0.0

    def evaluate(n_points, _):
        phi, wts = _panel_nodes(0.0, 2.0 * np.pi, max(n_points // _GL_NODES, 1))
        cosp = np.cos(phi - beta)
        denom = tau - mag * cosp
        rho = (tau**2 - mag**2) / (2.0 * denom)
        pts = rho[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        return float(np.sum(f(pts) * rho * (tau - rho) / denom * wts)), phi.size

    return _doubled(evaluate, rtol)


def delta_integral_minus(f, tau, xi, rtol=1e-6, interaction_band=None):
    """Integral of f(eta) against delta(tau - |eta| + |xi - eta|).

    Requires |tau| < |xi|.  interaction_band=(lo, hi) restricts to
    lo <= |eta| + |xi - eta| <= hi, the natural truncation variable on
    this branch (it equals |xi| cosh u); hi may be inf.  The curve is
    unbounded, so f has to decay; truncation is doubled together with
    the panel count until the value settles.
    """
    xi = np.asarray(xi, dtype=float)
    mag = float(np.hypot(*xi))
    tau = float(tau)
    if abs(tau) >= mag:
        raise DegenerateInputError(
            f"minus surface needs |tau| < |xi|, got tau={tau}, |xi|={mag}"
        )
    c, a = 0.5 * mag, 0.5 * tau
    b = np.sqrt(c**2 - a**2)
    beta = np.arctan2(xi[1], xi[0])
    rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])

    u_lo, u_hi = 0.0, np.inf
    if interaction_band is not None:
        lo, hi = interaction_band
        if lo > mag:
            u_lo = float(np.arccosh(lo / mag))
        if np.isfinite(hi):
            if hi < mag:
                raise DegenerateInputError("interaction band lies below |xi|")
            u_hi = float(np.arccosh(hi / mag))

    def evaluate(n_points, rounds):
        hi = u_hi if np.isfinite(u_hi) else min(_U_START * 2.0**rounds, _U_MAX)
        if hi <= u_lo:
            return 0.0, 0
        u, wts = _panel_nodes(u_lo, hi, max(n_points // (2 * _GL_NODES), 1))
        # both halves of the branch: u and -u
        u = np.concatenate([u, -u])
        wts = np.concatenate([wts, wts])
        ch = np.cosh(u)
        pts = np.stack([c + a * ch, b * np.sinh(u)], axis=-1) @ rot.T
        weight = (c**2 * ch**2 - a**2) / (2.0 * b)
        return float(np.sum(f(pts) * weight * wts)), u.size

    return _doubled(evaluate, rtol)


# -- normalized interaction kernels -------------------------------------------


@dataclass
class PlusKernelResult:
    """Forward-forward kernel |xi| (tau - |xi|)^{p/2} times the surface integral."""

    value: float
    quadrature: DeltaIntegralResult
    closed_form_ratio: float


@dataclass
class MinusKernelResult:
    """Forward-backward kernel with its near/far interaction split."""

    value: float
    near: float
    far: float
    total: DeltaIntegralResult
    near_closed_form_ratio: float
    far_bound_ratio: float
    split_defect: float


def plus_kernel(probe, rtol=1e-6):
    """Bounded kernel of the forward-forward interaction at a probe.

    The raw surface integral of 1 / (|eta| |xi - eta|^{1 + p/2}) decays
    like 1 / (tau (tau - |xi|)^{p/2}); the normalized value multiplies
    that rate back in, and closed_form_ratio records how tightly the
    rate matches (it is scale invariant along rays).
    """
    xi = probe.xi_vec
    mag, tau, p = probe.xi_mag, probe.tau, probe.p
    if mag == 0.0:
        raise DegenerateInputError("plus kernel needs xi != 0")

    def f(pts):
        r1 = np.hypot(pts[..., 0], pts[..., 1])
        d = pts - xi
        r2 = np.hypot(d[..., 0], d[..., 1])
        return 1.0 / (r1 * r2 ** (1.0 + 0.5 * p))

    integral = delta_integral_plus(f, tau, xi, rtol=rtol)
    gap = tau - mag
    return PlusKernelResult(
        value=mag * gap ** (0.5 * p) * integral.value,
        quadrature=integral,
        closed_form_ratio=integral.value * tau * gap ** (0.5 * p),
    )


def minus_kernel(probe, rtol=1e-6):
    """Bounded kernel of the forward-backward interaction at a probe.

    The surface integral of (|eta| |xi - eta|)^{-1 - p/2} splits at
    total interaction size |eta| + |xi - eta| = 2 |xi|.  The near part
    carries the closed-form rate 1 / (|xi|^{1+p/2} ||xi| - |tau||^{p/2});
    the far part obeys the tail bound whose normalized form is
    far_bound_ratio.  An unrestricted quadrature cross-checks the split.
    """
    xi = probe.xi_vec
    mag, tau, p = probe.xi_mag, probe.tau, probe.p

    def f(pts):
        r1 = np.hypot(pts[..., 0], pts[..., 1])
        d = pts - xi
        r2 = np.hypot(d[..., 0], d[..., 1])
        return (r1 * r2) ** (-1.0 - 0.5 * p)

    near = delta_integral_minus(f, tau, xi, rtol=rtol, interaction_band=(0.0, 2.0 * mag))
    far = delta_integral_minus(f, tau, xi, rtol=rtol, interaction_band=(2.0 * mag, np.inf))
    total = delta_integral_minus(f, tau, xi, rtol=rtol)
    prefactor = mag ** (1.0 + 0.5 * p) * abs(mag - abs(tau)) ** (0.5 * p)
    bracket = abs(mag - abs(tau)) / mag
    return MinusKernelResult(
        value=prefactor * (near.value + far.value),
        near=near.value,
        far=far.value,
        total=total,
        near_closed_form_ratio=near.value * prefactor,
        far_bound_ratio=prefactor * far.value / bracket ** (0.5 * (p - 1.0)),
        split_defect=abs(near.value + far.value - total.value) / total.value,
    )


def minus_far_kernel_1d(probe):
    """Far interaction integral reduced to one dimension, second code path.

    In the frame variable x = (|eta| + |xi - eta|) / |xi| the far part
    becomes a single integral from x = 2 with an (x^2 - 1)^{-1/2} factor;
    the substitution x = cosh(sigma) absorbs it and adaptive quadrature
    does the rest.  Up to the absolute constant of the reduction, this
    equals the far part of minus_kernel's surface integral.
    """
    mag, tau, p = probe.xi_mag, probe.tau, probe.p
    if abs(tau) >= mag:
        raise DegenerateInputError("minus branch needs |tau| < |xi|")
    if p <= 1.0:
        raise DegenerateInputError("far integral diverges for p <= 1")
    sigma0 = float(np.arccosh(2.0))

    def integrand(sigma):
        # decays like exp(-p sigma); past here cosh overflows and the
        # contribution is far below quadrature tolerance anyway
        if sigma > 200.0:
            return 0.0
        ch = np.cosh(sigma)
        r1 = 0.5 * (mag * ch + tau)
        r2 = 0.5 * (mag * ch - tau)
        return (r1 * r2) ** (-1.0 - 0.5 * p) * (mag**2 * ch**2 - tau**2)

    integral, _ = quad(integrand, sigma0, np.inf)
    return integral / np.sqrt(abs(mag**2 - tau**2))


# -- mollified-delta oracle ----------------------------------------------------


def _richardson(values):
    # Gaussian mollification converges at width^2; halve widths pairwise
    return (4.0 * values[-1] - values[-2]) / 3.0


def mollified_oracle_plus(f, tau, xi):
    """Forward-surface integral with the delta replaced by a Gaussian.

    For each width the constraint g = |eta| + |xi - eta| - tau is fed
    through a normalized Gaussian and the plane integral is taken in
    polar windows around the surface; the width sequence is Richardson
    extrapolated.  Independent of the coarea weight used by the direct
    quadrature, so agreement validates that change of variables.
    """
    xi = np.asarray(xi, dtype=float)
    mag = float(np.hypot(*xi))
    tau = float(tau)
    if tau <= mag:
        raise DegenerateInputError(f"plus surface needs tau > |xi|, got tau={tau}, |xi|={mag}")
    beta = np.arctan2(xi[1], xi[0]) if mag > 0.0 else 0.0
    phi, wphi = _panel_nodes(0.0, 2.0 * np.pi, 512 // _GL_NODES)
    cosp = np.cos(phi - beta)
    rho_star = (tau**2 - mag**2) / (2.0 * (tau - mag * cosp))
    # local slope of g along the ray, used only to size the window
    slope = (tau - mag * cosp) / (tau - rho_star)
    t, wt = _panel_nodes(-1.0, 1.0, 96 // _GL_NODES)
    e = np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    values = []
    for eps in _ORACLE_WIDTHS:
        half_window = 10.0 * eps / slope
        lo = np.maximum(rho_star - half_window, 1e-12)
        hi = rho_star + half_window
        rho = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * t
        wr = 0.5 * (hi - lo)[:, None] * wt
        pts = rho[..., None] * e[:, None, :]
        d = pts - xi
        g = rho + np.hypot(d[..., 0], d[..., 1]) - tau
        gauss = np.exp(-0.5 * (g / eps) ** 2) / (np.sqrt(2.0 * np.pi) * eps)
        values.append(float(np.sum(wphi[:, None] * wr * f(pts) * gauss * rho)))
    return _richardson(values)


def mollified_oracle_minus(f, tau, xi):
    """Backward-surface integral with a Gaussian in place of the delta.

    Works in the frame of xi, sweeping the coordinate along the branch
    and integrating a Gaussian window across it; the sweep stops at
    |y| = 12, so f must be negligible beyond it.
    """
    xi = np.asarray(xi, dtype=float)
    mag = float(np.hypot(*xi))
    tau = float(tau)
    if abs(tau) >= mag:
        raise DegenerateInputError(
            f"minus surface needs |tau| < |xi|, got tau={tau}, |xi|={mag}"
        )
    c, a = 0.5 * mag, 0.5 * tau
    b = np.sqrt(c**2 - a**2)
    beta = np.arctan2(xi[1], xi[0])
    rot = np.array([[np.cos(beta), -np.sin(beta)], [np.sin(beta), np.cos(beta)]])
    y, wy = _panel_nodes(-12.0, 12.0, 768 // _GL_NODES)
    x_star = c + a * np.sqrt(1.0 + (y / b) ** 2)
    r1 = np.hypot(x_star, y)
    r2 = np.hypot(x_star - mag, y)
    # transversal slope of g = |eta| - |xi - eta| - tau across the branch
    slope = np.abs(x_star / r1 - (x_star - mag) / r2)
    t, wt = _panel_nodes(-1.0, 1.0, 96 // _GL_NODES)

    values = []
    for eps in _ORACLE_WIDTHS:
        half_window = 10.0 * eps / slope
        x = x_star[:, None] + half_window[:, None] * t
        wx = half_window[:, None] * wt
        g = np.hypot(x, y[:, None]) - np.hypot(x - mag, y[:, None]) - tau
        gauss = np.exp(-0.5 * (g / eps) ** 2) / (np.sqrt(2.0 * np.pi) * eps)
        pts = np.stack([x, np.broadcast_to(y[:, None], x.shape)], axis=-1) @ rot.T
        values.append(float(np.sum(wy[:, None] * wx * f(pts) * gauss)))
    return _richardson(values)


# -- sweeps --------------------------------------------------------------------

PLUS_SWEEP_RATIOS = (1.01, 1.1, 2.0, 10.0, 100.0)
MINUS_SWEEP_FRACTIONS = (-0.99, -0.9, -0.5, 0.0, 0.5, 0.9, 0.99)
SWEEP_MAGNITUDES = (0.1, 1.0, 10.0)
SWEEP_EXPONENTS = (1.05, 1.1, 4.0 / 3.0, 1.5, 2.0)


def plus_kernel_sweep(rtol=1e-6):
    """Kernel values over the forward probe lattice; rows for the CSV."""
    rows = []
    for ratio in PLUS_SWEEP_RATIOS:
        for mag in SWEEP_MAGNITUDES:
            for p in SWEEP_EXPONENTS:
                probe = ConeProbe(tau=ratio * mag, xi=(mag, 0.0), p=p)
                result = plus_kernel(probe, rtol=rtol)
                rows.append(
                    {
                        "tau_over_mag": ratio,
                        "mag": mag,
                        "p": p,
                        "value": result.value,
                        "closed_form_ratio": result.closed_form_ratio,
                        "quadrature_points": result.quadrature.quadrature_points,
                        "est_error": result.quadrature.est_error,
                    }
                )
    return rows


def minus_kernel_sweep(rtol=1e-6):
    """Kernel values over the backward probe lattice; rows for the CSV."""
    rows = []
    for fraction in MINUS_SWEEP_FRACTIONS:
        for mag in SWEEP_MAGNITUDES:
            for p in SWEEP_EXPONENTS:
                probe = ConeProbe(tau=fraction * mag, xi=(mag, 0.0), p=p)
                result = minus_kernel(probe, rtol=rtol)
                rows.append(
                    {
                        "tau_over_mag": fraction,
                        "mag": mag,
                        "p": p,
                        "value": result.value,
                        "near": result.near,
                        "far": result.far,
                        "near_closed_form_ratio": result.near_closed_form_ratio,
                        "far_bound_ratio": result.far_bound_ratio,
                        "split_defect": result.split_defect,
                    }
                )
    return rows


def sweep_max(rows):
    return max(row["value"] for row in rows)
