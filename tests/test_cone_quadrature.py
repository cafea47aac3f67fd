import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, simpson

from monopole_lab.cone_quadrature import (
    FROZEN_C_MINUS,
    FROZEN_C_PLUS,
    ConeProbe,
    DeltaIntegralResult,
    delta_integral_minus,
    delta_integral_plus,
    minus_far_kernel_1d,
    minus_kernel,
    minus_kernel_sweep,
    mollified_oracle_minus,
    mollified_oracle_plus,
    plus_kernel,
    plus_kernel_sweep,
    sweep_max,
)
from monopole_lab.errors import DegenerateInputError

# ranges over the default probe lattices at rtol 1e-6; regression
# baselines beside the frozen kernel bounds
FROZEN_PLUS_RATIO_RANGE = (6.314444935573959, 12.441951103325918)
FROZEN_MINUS_NEAR_RATIO_RANGE = (3.823268539629879, 7.745349934981068)
FROZEN_FAR_BOUND_RATIO_RANGE = (0.8712069568103874, 1.9976866224070022)


def gaussian_bump(center, width):
    c = np.asarray(center, dtype=float)
    return lambda pts: np.exp(-np.sum((pts - c) ** 2, axis=-1) / width)


def rotation(angle):
    return np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )


def test_probe_validation():
    ConeProbe(tau=2.0, xi=(1.0, 0.0), p=4 / 3)
    with pytest.raises(ValueError):
        ConeProbe(tau=2.0, xi=(1.0, 0.0), p=1.0)
    with pytest.raises(ValueError):
        ConeProbe(tau=2.0, xi=(1.0, 0.0), p=2.5)
    with pytest.raises(ValueError):
        ConeProbe(tau=2.0, xi=(1.0, 0.0, 0.0), p=1.5)
    # a complex or bool exponent is no exponent; a complex one raised TypeError
    for p, shown in ((1.5 + 0j, r"\(1.5\+0j\)"), (True, "True"), (np.True_, "np.True_")):
        with pytest.raises(ValueError, match=f"p must be a real number, got {shown}"):
            ConeProbe(tau=2.0, xi=(1.0, 0.0), p=p)


def test_surfaces_reject_degenerate_probes():
    one = lambda pts: np.ones(pts.shape[:-1])
    with pytest.raises(DegenerateInputError):
        delta_integral_plus(one, 1.0, (1.0, 0.0))
    with pytest.raises(DegenerateInputError):
        delta_integral_plus(one, 0.5, (1.0, 0.0))
    with pytest.raises(DegenerateInputError):
        delta_integral_minus(one, 1.0, (1.0, 0.0))
    with pytest.raises(DegenerateInputError):
        delta_integral_minus(one, -2.0, (1.0, 0.0))


@pytest.mark.parametrize(
    "tau, xi, message",
    [
        (np.nan, (1.0, 0.0), "tau must be finite"),
        (np.inf, (1.0, 0.0), "tau must be finite"),
        (0.5, (np.nan, 0.0), "xi must be finite"),
        (0.5, (1.0, -np.inf), "xi must be finite"),
        # a bool was taken as tau = 1, and a complex raised TypeError from float()
        (True, (0.5, 0.0), "tau must be a real number, got True"),
        (np.True_, (0.5, 0.0), "tau must be a real number, got np.True_"),
        (1j, (1.0, 0.0), r"tau must be a real number, got 1j"),
    ],
    ids=["nan-tau", "infinite-tau", "nan-xi", "infinite-xi", "bool-tau", "numpy-bool-tau", "complex-tau"],
)
def test_probes_and_surfaces_refuse_non_finite_tau_and_xi(tau, xi, message):
    # no quadrature settles on such a point (it would double up to its cap
    # and return nan), so each refusal names the argument at the call
    one = lambda pts: np.ones(pts.shape[:-1])
    with pytest.raises(ValueError, match=message):
        ConeProbe(tau=tau, xi=xi, p=1.5)
    for surface in (delta_integral_plus, delta_integral_minus):
        with pytest.raises(ValueError, match=message):
            surface(one, tau, xi)


@pytest.mark.parametrize(
    "rtol, message",
    [
        (np.nan, "rtol must be finite, got nan"),
        (-1.0, "rtol must be positive, got -1.0"),
        (0.0, "rtol must be positive, got 0.0"),
        (np.inf, "rtol must be finite, got inf"),
        (True, "rtol must be a real number, got True"),
        (1e-6 + 0j, r"rtol must be a real number, got \(1e-06\+0j\)"),
        (np.True_, "rtol must be a real number, got np.True_"),
    ],
    ids=["nan", "-1.0", "0.0", "inf", "True", "(1e-06+0j)", "np.True_"],
)
def test_integrals_and_kernels_refuse_an_unusable_rtol(rtol, message):
    # a nan or nonpositive tolerance can never be met: the doubling would
    # run to its point cap and report est_error 0
    one = lambda pts: np.ones(pts.shape[:-1])
    probe = ConeProbe(tau=2.0, xi=(1.0, 0.0), p=1.5)
    calls = [
        lambda: delta_integral_plus(one, 2.0, (1.0, 0.0), rtol=rtol),
        lambda: delta_integral_minus(one, 0.5, (1.0, 0.0), rtol=rtol),
        lambda: plus_kernel(probe, rtol=rtol),
        lambda: minus_kernel(ConeProbe(tau=0.5, xi=(1.0, 0.0), p=1.5), rtol=rtol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert delta_integral_plus(one, 2.0, (1.0, 0.0)).quadrature_points <= 4096


def test_plus_constant_integrand_closed_form():
    # at xi = 0 the surface is the circle |eta| = tau/2 with weight tau/4,
    # so a unit integrand gives pi tau / 2
    one = lambda pts: np.ones(pts.shape[:-1])
    result = delta_integral_plus(one, 2.0, (0.0, 0.0))
    assert_allclose(result.value, np.pi, atol=1e-12)
    assert result.est_error < 1e-12
    assert_allclose(delta_integral_plus(one, 3.0, (0.0, 0.0)).value, 1.5 * np.pi, atol=1e-12)


def test_plus_rotational_covariance():
    center = np.array([0.4, 0.9])
    xi = np.array([1.0, 0.0])
    base = delta_integral_plus(gaussian_bump(center, 0.5), 2.3, xi).value
    rot = rotation(0.7)
    turned = delta_integral_plus(gaussian_bump(rot @ center, 0.5), 2.3, rot @ xi).value
    assert abs(base - turned) < 1e-10


def test_minus_rotational_covariance():
    center = np.array([0.9, 0.4])
    xi = np.array([1.4, 0.0])
    base = delta_integral_minus(gaussian_bump(center, 0.3), 0.6, xi).value
    rot = rotation(-1.2)
    turned = delta_integral_minus(gaussian_bump(rot @ center, 0.3), 0.6, rot @ xi).value
    assert abs(base - turned) < 1e-10 * base


def test_minus_tau_zero_matches_line_integral_oracle():
    # at tau = 0 the surface is the perpendicular bisector x = |xi|/2; the
    # oracle integrates f / |grad g| along it with the gradient taken
    # directly from the two unit vectors
    mag = 1.4
    f = gaussian_bump((0.7, 0.5), 0.3)
    direct = delta_integral_minus(f, 0.0, (mag, 0.0)).value

    def line_integrand(y):
        eta = np.array([0.5 * mag, y])
        grad = -eta / np.hypot(*eta) + (eta - np.array([mag, 0.0])) / np.hypot(
            *(eta - np.array([mag, 0.0]))
        )
        return float(f(eta)) / np.hypot(*grad)

    oracle, _ = quad(line_integrand, -12.0, 12.0, limit=200)
    assert_allclose(direct, oracle, rtol=1e-8)


def test_minus_relabeling_swaps_tau_sign():
    # eta <-> xi - eta exchanges the focal radii, so the integral of the
    # relabeled integrand at -tau matches
    xi = np.array([1.0, 0.0])
    f = gaussian_bump((0.8, 0.9), 0.4)
    swapped = lambda pts: f(xi - pts)
    a = delta_integral_minus(f, 0.45, xi).value
    b = delta_integral_minus(swapped, -0.45, xi).value
    assert_allclose(a, b, rtol=1e-9)


def test_tau_normalization_recovers_plane_integral():
    # integrating the surface values over tau undoes the delta; the bump
    # stays clear of the focal segment so no endpoint singularity forms
    f = gaussian_bump((0.6, 1.6), 0.15)
    xi = np.array([1.0, 0.0])
    plain = np.pi * 0.15

    taus = np.linspace(1.01, 8.0, 151)
    vals = [delta_integral_plus(f, t, xi, rtol=1e-7).value for t in taus]
    assert_allclose(simpson(vals, x=taus), plain, rtol=1e-4)

    taus_m = np.linspace(-0.995, 0.995, 151)
    vals_m = [delta_integral_minus(f, t, xi, rtol=1e-7).value for t in taus_m]
    assert_allclose(simpson(vals_m, x=taus_m), plain, rtol=1e-4)


def test_mollified_oracle_agreement():
    xi = np.array([1.0, 0.0])
    f = gaussian_bump((0.4, 0.9), 0.5)
    direct = delta_integral_plus(f, 2.3, xi).value
    assert_allclose(mollified_oracle_plus(f, 2.3, xi), direct, rtol=1e-4)

    g = gaussian_bump((0.9, 0.4), 0.3)
    direct_m = delta_integral_minus(g, 0.6, np.array([1.4, 0.0])).value
    assert_allclose(mollified_oracle_minus(g, 0.6, np.array([1.4, 0.0])), direct_m, rtol=1e-4)


def test_plus_kernel_scale_invariant():
    base = plus_kernel(ConeProbe(tau=2.0, xi=(1.0, 0.0), p=4 / 3))["value"]
    for lam in (0.1, 10.0):
        scaled = plus_kernel(ConeProbe(tau=2.0 * lam, xi=(lam, 0.0), p=4 / 3))["value"]
        assert_allclose(scaled, base, rtol=1e-9)


def test_minus_kernel_scale_invariant():
    base = minus_kernel(ConeProbe(tau=0.5, xi=(1.0, 0.0), p=1.5))["value"]
    for lam in (0.1, 10.0):
        scaled = minus_kernel(ConeProbe(tau=0.5 * lam, xi=(lam, 0.0), p=1.5))["value"]
        assert_allclose(scaled, base, rtol=1e-9)


def test_plus_closed_form_ratio_constant_along_rays():
    for p in (1.1, 4 / 3, 2.0):
        ratios = [
            plus_kernel(ConeProbe(tau=2.0 * mag, xi=(mag, 0.0), p=p))["closed_form_ratio"]
            for mag in (0.1, 1.0, 10.0)
        ]
        assert np.max(ratios) / np.min(ratios) - 1.0 < 1e-9


def test_minus_kernel_split_is_consistent():
    for tau, p in ((0.0, 1.05), (0.5, 4 / 3), (-0.7, 1.5), (0.9, 2.0)):
        result = minus_kernel(ConeProbe(tau=tau, xi=(1.0, 0.0), p=p))
        assert result["split_defect"] < 1e-10


def test_far_part_matches_one_dimensional_reduction():
    # same integral through two code paths; the reduction constant is 1/2
    for tau, mag, p in ((0.5, 1.0, 4 / 3), (0.0, 1.0, 1.05), (-0.7, 2.0, 1.5), (0.3, 0.1, 2.0)):
        probe = ConeProbe(tau=tau * mag, xi=(mag, 0.0), p=p)
        ratio = minus_kernel(probe)["far"] / minus_far_kernel_1d(probe)
        assert_allclose(ratio, 0.5, rtol=1e-6)


def test_far_tail_closed_form():
    for p in (1.05, 4 / 3, 2.0):
        tail, _ = quad(lambda x: x ** (-p - 1.0), 2.0, np.inf)
        assert_allclose(tail, 2.0 ** (-p) / p, rtol=1e-10)


def test_far_part_blowup_rate_at_degenerate_boundary():
    # both code paths blow up like ||xi| - tau|^{-1/2} as tau -> |xi|
    gaps = 2.0 ** -np.arange(2, 7)
    probes = [ConeProbe(tau=1.0 - g, xi=(1.0, 0.0), p=4 / 3) for g in gaps]
    two_d = [minus_kernel(pr)["far"] for pr in probes]
    one_d = [minus_far_kernel_1d(pr) for pr in probes]
    slope_2d = np.polyfit(np.log(gaps), np.log(two_d), 1)[0]
    slope_1d = np.polyfit(np.log(gaps), np.log(one_d), 1)[0]
    assert abs(slope_2d + 0.5) < 0.05
    assert abs(slope_1d + 0.5) < 0.05


def test_sweep_maxima_match_frozen_baseline():
    plus_rows = plus_kernel_sweep()
    minus_rows = minus_kernel_sweep()
    assert_allclose(sweep_max(plus_rows), FROZEN_C_PLUS, rtol=1e-9)
    assert_allclose(sweep_max(minus_rows), FROZEN_C_MINUS, rtol=1e-9)

    plus_ratios = [r["closed_form_ratio"] for r in plus_rows]
    assert_allclose(
        (np.min(plus_ratios), np.max(plus_ratios)), FROZEN_PLUS_RATIO_RANGE, rtol=1e-9
    )
    near_ratios = [r["near_closed_form_ratio"] for r in minus_rows]
    assert_allclose(
        (np.min(near_ratios), np.max(near_ratios)), FROZEN_MINUS_NEAR_RATIO_RANGE, rtol=1e-9
    )
    far_ratios = [r["far_bound_ratio"] for r in minus_rows]
    assert_allclose(
        (np.min(far_ratios), np.max(far_ratios)), FROZEN_FAR_BOUND_RATIO_RANGE, rtol=1e-9
    )
    assert np.max([r["split_defect"] for r in minus_rows]) < 1e-10


def test_sweep_maxima_stable_under_quadrature_refinement():
    assert_allclose(sweep_max(plus_kernel_sweep(rtol=1e-8)), FROZEN_C_PLUS, rtol=2e-2)
    assert_allclose(sweep_max(minus_kernel_sweep(rtol=1e-8)), FROZEN_C_MINUS, rtol=2e-2)


def test_result_metadata_is_sane():
    result = delta_integral_plus(gaussian_bump((0.3, 0.2), 0.4), 1.7, (1.0, 0.0))
    assert isinstance(result, DeltaIntegralResult)
    assert np.isfinite(result.est_error)
    assert result.value >= 0.0
    assert result.quadrature_points >= 2048
