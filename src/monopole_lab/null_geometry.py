"""Angle functionals and interaction weights of the bilinear wave symbol.

For an interaction eta + (xi - eta) -> xi between half waves, the
operator norm of the projection product P_s(xi - eta) P_+(eta) is
controlled by the angle between eta and -s (xi - eta); the angle itself
is comparable to an algebraic expression in the weights

    r_plus  = |eta| + |xi - eta| - |xi|,
    r_minus = |xi| - ||eta| - |xi - eta||,

which measure how far the interaction sits from the parallel and
antiparallel degeneracies.  Those comparisons carry unspecified absolute
constants, so this module evaluates both sides pointwise and over seeded
random sweeps; the measured envelopes are frozen in the tests as
regression baselines rather than asserted as universal truths.

Conventions: frequencies are real 2-vectors on the trailing axis and
every operation broadcasts over leading axes.  Angles live in [0, pi]
and come from arctan2 of the cross and dot products, which keeps full
relative accuracy near 0 and pi (an arccos of the cosine loses half the
digits there); exactly parallel pairs hit the endpoints.  Ratios raise
on the degenerate sets where both sides vanish.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .grid_spectral import projection_matrices


def _magnitude(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError(f"expected trailing axis of length 2, got shape {x.shape}")
    return np.hypot(x[..., 0], x[..., 1])


def angle(a, b):
    """Angle in [0, pi] between nonzero 2-vectors, broadcast elementwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ma = _magnitude(a)
    mb = _magnitude(b)
    if np.any(ma == 0.0) or np.any(mb == 0.0):
        raise DegenerateInputError("angle needs nonzero vectors")
    cross = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return np.arctan2(np.abs(cross), np.sum(a * b, axis=-1))


def r_plus(xi, eta):
    """Distance |eta| + |xi - eta| - |xi| to the parallel interaction."""
    val = _magnitude(eta) + _magnitude(np.asarray(xi, dtype=float) - eta) - _magnitude(xi)
    # nonnegative by the triangle inequality; clamp rounding residue
    return np.maximum(val, 0.0)


def r_minus(xi, eta):
    """Distance |xi| - ||eta| - |xi - eta|| to the antiparallel interaction."""
    val = _magnitude(xi) - np.abs(
        _magnitude(eta) - _magnitude(np.asarray(xi, dtype=float) - eta)
    )
    return np.maximum(val, 0.0)


def angle_ratio_plus(xi, eta):
    """theta(eta, xi-eta) over r_plus^(1/2) / min(|eta|, |xi-eta|)^(1/2).

    Bounded above and below over nondegenerate interactions; the parallel
    set, where numerator and denominator vanish together, raises.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = xi - eta
    theta = angle(eta, zeta)
    rp = r_plus(xi, eta)
    if np.any(rp == 0.0):
        raise DegenerateInputError("parallel interaction: both sides of the plus comparison vanish")
    rhs = np.sqrt(rp / np.minimum(_magnitude(eta), _magnitude(zeta)))
    return theta / rhs


def angle_ratio_minus(xi, eta):
    """theta(eta, -(xi-eta)) over |xi|^(1/2) r_minus^(1/2) / (|eta| |xi-eta|)^(1/2).

    The antiparallel set, where both sides vanish, raises.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = xi - eta
    theta = angle(eta, -zeta)
    rm = r_minus(xi, eta)
    if np.any(rm == 0.0):
        raise DegenerateInputError("antiparallel interaction: both sides of the minus comparison vanish")
    rhs = np.sqrt(_magnitude(xi) * rm / (_magnitude(eta) * _magnitude(zeta)))
    return theta / rhs


def symbol_norm(sign, x, y):
    """Operator 2-norm of P(sign, x) P(+, y), broadcast over leading axes."""
    m = np.einsum(
        "...ij,...jk->...ik",
        projection_matrices(sign, x),
        projection_matrices(+1, y),
    )
    # closed-form largest singular value of a 2 x 2 block
    frob2 = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    det = np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
    gap = np.sqrt(np.maximum(frob2**2 - 4.0 * det**2, 0.0))
    return np.sqrt(0.5 * (frob2 + gap))


def symbol_bound_ratio(sign, xi, eta):
    """||P(sign, xi-eta) P(+, eta)|| divided by theta(eta, -sign (xi-eta)).

    The angle is the advertised bound for the product norm; the ratio
    measures the constant it hides.  Zero angle raises: there the norm
    vanishes as well and the joint limit is covered by approach tests.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    zeta = xi - eta
    theta = angle(eta, -sign * zeta)
    if np.any(theta == 0.0):
        raise DegenerateInputError("zero interaction angle: norm and bound vanish together")
    return symbol_norm(sign, zeta, eta) / theta


def random_frequency_pairs(rng, n_samples):
    """Seeded (xi, eta) samples: magnitudes log-uniform in [1e-2, 1e2], uniform angles.

    Both factors eta and xi - eta are drawn directly so the sweep covers
    the comparable and the strongly unequal magnitude regimes.
    """

    def draw(n):
        mag = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), n))
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        return mag[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    eta = draw(n_samples)
    zeta = draw(n_samples)
    return eta + zeta, eta


@dataclass
class NullSweep:
    """Pointwise comparison ratios over a seeded frequency sample."""

    xi: np.ndarray
    eta: np.ndarray
    ratio_plus: np.ndarray
    ratio_minus: np.ndarray
    symbol_ratio_plus: np.ndarray
    symbol_ratio_minus: np.ndarray

    def envelopes(self):
        """Measured extremes; the regression constants the tests freeze."""
        return {
            "ratio_plus_min": float(np.min(self.ratio_plus)),
            "ratio_plus_max": float(np.max(self.ratio_plus)),
            "ratio_minus_min": float(np.min(self.ratio_minus)),
            "ratio_minus_max": float(np.max(self.ratio_minus)),
            "c_sym": float(
                max(np.max(self.symbol_ratio_plus), np.max(self.symbol_ratio_minus))
            ),
        }


def null_sweep(rng, n_samples):
    """Evaluate every comparison ratio on one random frequency sample."""
    xi, eta = random_frequency_pairs(rng, n_samples)
    return NullSweep(
        xi=xi,
        eta=eta,
        ratio_plus=angle_ratio_plus(xi, eta),
        ratio_minus=angle_ratio_minus(xi, eta),
        symbol_ratio_plus=symbol_bound_ratio(+1, xi, eta),
        symbol_ratio_minus=symbol_bound_ratio(-1, xi, eta),
    )


def approach_defects(base_angle, thetas):
    """||P(-1, zeta) P(+1, eta)|| as zeta closes on the eta direction.

    eta points along base_angle and zeta at base_angle + theta; the norm
    must vanish with theta, staying below the symbol-bound envelope.
    Magnitudes drop out of both projections, so only directions enter.
    """
    thetas = np.asarray(thetas, dtype=float)
    eta = np.stack([np.cos(base_angle), np.sin(base_angle)]) * np.ones(
        (*thetas.shape, 2)
    )
    zeta = np.stack(
        [np.cos(base_angle + thetas), np.sin(base_angle + thetas)], axis=-1
    )
    return symbol_norm(-1, zeta, eta)
