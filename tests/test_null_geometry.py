import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from monopole_lab import null_geometry
from monopole_lab.errors import DegenerateInputError
from monopole_lab.null_geometry import (
    angle,
    angle_ratio_minus,
    angle_ratio_plus,
    approach_defects,
    null_sweep,
    r_minus,
    r_plus,
    random_frequency_pairs,
    symbol_bound_ratio,
    symbol_norm,
)

# measured over 10^5 samples with seed 2024; regression baselines
FROZEN_ENVELOPES = {
    "ratio_plus_min": 1.4142978449654988,
    "ratio_plus_max": 2.2214312534378835,
    "ratio_minus_min": 1.0019337173717306,
    "ratio_minus_max": 2.220958133124813,
    "c_sym": 0.49999999999601946,
}


def unit(a):
    return np.array([np.cos(a), np.sin(a)])


def test_angle_axis_values():
    assert angle((1.0, 0.0), (1.0, 0.0)) == 0.0
    assert angle((1.0, 0.0), (0.0, 1.0)) == pytest.approx(np.pi / 2, abs=1e-15)
    assert angle((1.0, 0.0), (-1.0, 0.0)) == pytest.approx(np.pi, abs=1e-15)


def test_angle_rejects_zero_vectors():
    with pytest.raises(DegenerateInputError):
        angle((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(DegenerateInputError):
        angle((1.0, 0.0), (0.0, 0.0))


@seed(7)
@settings(deadline=None, max_examples=200)
@given(
    a=st.floats(0, 2 * np.pi),
    b=st.floats(0, 2 * np.pi),
    ma=st.floats(1e-3, 1e3),
    mb=st.floats(1e-3, 1e3),
)
def test_angle_is_symmetric(a, b, ma, mb):
    x = ma * unit(a)
    y = mb * unit(b)
    assert angle(x, y) == angle(y, x)


def test_weight_spot_values():
    assert r_plus(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert r_minus(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
        np.sqrt(2), rel=1e-15
    )


def test_weights_nonnegative_on_random_samples():
    xi, eta = random_frequency_pairs(np.random.default_rng(11), 100_000)
    assert np.min(r_plus(xi, eta)) >= 0.0
    assert np.min(r_minus(xi, eta)) >= 0.0


def test_angle_ratio_plus_spot_value():
    # eta = (1,0), xi-eta = (0,1): theta = pi/2, r_plus = 2 - sqrt2
    ratio = angle_ratio_plus(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert_allclose(ratio, (np.pi / 2) / np.sqrt(2 - np.sqrt(2)), rtol=1e-14)
    assert_allclose(ratio, 2.052344305954062, rtol=1e-13)


def test_angle_ratio_plus_small_angle_limits():
    # comparable magnitudes drive the ratio to 2, strongly unequal to sqrt2
    thetas = np.array([1e-1, 1e-2, 1e-3])
    eta = np.broadcast_to(unit(0.0), (3, 2))
    zeta_equal = np.stack([unit(t) for t in thetas])
    equal = angle_ratio_plus(eta + zeta_equal, eta)
    assert np.all(np.diff(np.abs(equal - 2.0)) < 0.0)
    assert abs(equal[-1] - 2.0) < 1e-7
    zeta_wide = 1e4 * zeta_equal
    wide = angle_ratio_plus(eta + zeta_wide, eta)
    assert abs(wide[-1] - np.sqrt(2)) < 1e-4


def test_angle_ratio_minus_spot_value():
    ratio = angle_ratio_minus(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert_allclose(ratio, (np.pi / 2) / np.sqrt(2), rtol=1e-14)
    assert_allclose(ratio, 1.1107207345395915, rtol=1e-13)


def test_degenerate_interactions_raise():
    # parallel factors: plus comparison is 0/0
    with pytest.raises(DegenerateInputError):
        angle_ratio_plus(np.array([3.0, 0.0]), np.array([1.0, 0.0]))
    # antiparallel factors: minus comparison is 0/0
    with pytest.raises(DegenerateInputError):
        angle_ratio_minus(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))


def test_antiparallel_weights_vanish_jointly():
    xi = np.array([-1.0, 0.0])
    eta = np.array([1.0, 0.0])
    assert angle(eta, -(xi - eta)) == 0.0
    assert r_minus(xi, eta) == 0.0


@seed(11)
@settings(deadline=None, max_examples=100)
@given(
    lam=st.floats(1e-3, 1e3),
    a=st.floats(0, 2 * np.pi),
    b=st.floats(0.1, np.pi - 0.1),
    ma=st.floats(0.1, 10.0),
    mb=st.floats(0.1, 10.0),
)
def test_ratios_are_scale_invariant(lam, a, b, ma, mb):
    eta = ma * unit(a)
    zeta = mb * unit(a + b)
    xi = eta + zeta
    # the r_plus difference cancels catastrophically near collinear pairs,
    # so exact invariance frays in the last couple of bits
    for op in (angle_ratio_plus, angle_ratio_minus):
        assert_allclose(op(lam * xi, lam * eta), op(xi, eta), rtol=1e-9)
    for sign in (+1, -1):
        assert_allclose(
            symbol_bound_ratio(sign, lam * xi, lam * eta),
            symbol_bound_ratio(sign, xi, eta),
            rtol=1e-9,
        )


def test_symbol_norm_matches_svd(rng):
    dirs = rng.uniform(0, 2 * np.pi, (40, 2))
    x = np.stack([np.cos(dirs[:, 0]), np.sin(dirs[:, 0])], axis=-1)
    y = np.stack([np.cos(dirs[:, 1]), np.sin(dirs[:, 1])], axis=-1)
    for sign in (+1, -1):
        fast = symbol_norm(sign, x, y)
        from monopole_lab.grid_spectral import projection_matrices

        m = np.einsum(
            "...ij,...jk->...ik",
            projection_matrices(sign, x),
            projection_matrices(+1, y),
        )
        slow = np.linalg.norm(m, ord=2, axis=(-2, -1))
        assert_allclose(fast, slow, atol=1e-13)


def test_symbol_norm_follows_half_angle_law(rng):
    # ||P+(x)P+(y)|| = cos(theta/2) and ||P-(x)P+(y)|| = sin(theta/2)
    angles = rng.uniform(0, 2 * np.pi, (50, 2))
    x = np.stack([np.cos(angles[:, 0]), np.sin(angles[:, 0])], axis=-1)
    y = np.stack([np.cos(angles[:, 1]), np.sin(angles[:, 1])], axis=-1)
    theta = angle(x, y)
    assert_allclose(symbol_norm(+1, x, y), np.cos(theta / 2), atol=1e-12)
    assert_allclose(symbol_norm(-1, x, y), np.sin(theta / 2), atol=1e-12)


def test_symbol_bound_ratio_at_equal_directions():
    # P+(e)P+(e) = P+ has norm 1; the opposing angle is pi
    xi = np.array([2.0, 0.0])
    eta = np.array([1.0, 0.0])
    assert_allclose(symbol_bound_ratio(+1, xi, eta), 1 / np.pi, rtol=1e-14)
    # the minus product vanishes together with its angle
    assert symbol_norm(-1, np.array([1.0, 0.0]), np.array([1.0, 0.0])) < 1e-15
    with pytest.raises(DegenerateInputError):
        symbol_bound_ratio(-1, xi, eta)


def test_sweep_envelopes_match_frozen_baseline():
    env = null_sweep(np.random.default_rng(2024), 100_000)
    for key, frozen in FROZEN_ENVELOPES.items():
        assert_allclose(env[key], frozen, rtol=1e-9), key
    # the symbol constant never exceeds its analytic ceiling by more
    # than angle rounding
    assert env["c_sym"] <= 0.5 + 1e-9


def test_sweep_holds_its_pairs_and_one_chunk():
    # the pairs themselves are 3.2 MB; one pass over all of them held
    # their (100000, 2, 2) projection matrices and products, 30.8 MiB
    null_sweep(np.random.default_rng(2024), 1000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        null_sweep(np.random.default_rng(2024), 100_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "n_samples, message",
    [
        (0, "n_samples must be at least 1, got 0"),
        (-1, "n_samples must be at least 1, got -1"),
        (2.5, "n_samples must be a whole number, got 2.5"),
        (True, "n_samples must be a whole number, got True"),
        (np.True_, "n_samples must be a whole number, got np.True_"),
        (10 + 0j, r"n_samples must be a whole number, got \(10\+0j\)"),
        (np.nan, "n_samples must be a whole number, got nan"),
        (np.inf, "n_samples must be a whole number, got inf"),
    ],
    ids=["zero", "negative", "fractional", "bool", "numpy-bool", "complex", "nan", "infinite"],
)
def test_sweep_refuses_an_unusable_sample_count(n_samples, message):
    # 0 failed in numpy's empty reduction and 2.5 with a TypeError
    with pytest.raises(ValueError, match=message):
        null_sweep(np.random.default_rng(2024), n_samples)


@pytest.mark.parametrize("n_samples", [1, 20_000, 100_000])
def test_sweep_envelopes_do_not_depend_on_the_chunk(monkeypatch, n_samples):
    # minima and maxima are exact, so chunks change no bit; all pairs are
    # drawn before the first chunk, so the stream moves as one draw does
    rng, reference = np.random.default_rng(2024), np.random.default_rng(2024)
    chunked = null_sweep(rng, n_samples)
    random_frequency_pairs(reference, n_samples)
    assert rng.bit_generator.state == reference.bit_generator.state
    monkeypatch.setattr(null_geometry, "_CHUNK", n_samples + 1)
    assert null_sweep(np.random.default_rng(2024), n_samples) == chunked
def test_joint_vanishing_along_approach_paths(rng):
    thetas = 2.0 ** -np.arange(1, 12)
    c_sym = FROZEN_ENVELOPES["c_sym"]
    for base in rng.uniform(0, 2 * np.pi, 10):
        norms = approach_defects(base, thetas)
        assert np.all(norms <= c_sym * thetas)
        assert np.all(np.diff(norms) < 0.0)
        assert norms[-1] < 1e-3
