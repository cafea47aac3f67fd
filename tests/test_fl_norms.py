import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from monopole_lab.errors import DegenerateInputError
from monopole_lab.fl_norms import (
    MAX_ACTIVE_MODES,
    NormParams,
    SpaceTimeSample,
    bilinear_sweep,
    conjugate_exponent,
    embedding_check,
    embedding_constant,
    free_wave_sample,
    gaussian_window,
    hbp_norm_1d,
    homogeneous_factorization_check,
    hsp_norm,
    key_bilinear_probe,
    random_positive_coeffs,
    scaling_check,
    xsb_norm,
)
from monopole_lab.grid_spectral import GridSpec, random_band_limited

# seed-2024 sweep maxima, frozen as regression baselines
FROZEN_EMBEDDING_SWEEP_FRACTION = 0.1188609740225451
FROZEN_C_PROBE = 0.267311127656685

GRID = GridSpec(16, 2.0 * np.pi, 1e-3)


def test_exponent_validation():
    assert conjugate_exponent(2.0) == 2.0
    assert_allclose(conjugate_exponent(4 / 3), 4.0)
    for bad in (1.0, 0.5, 2.5):
        with pytest.raises(ValueError):
            conjugate_exponent(bad)
    with pytest.raises(ValueError):
        NormParams(p=3.0, s=0.5, b=0.5)
    with pytest.raises(ValueError):
        NormParams.from_eps(0.3)
    params = NormParams.from_eps(0.25)
    assert_allclose((params.p, params.s, params.b), (2.0, 0.5, 0.75))
    assert_allclose(1.0 / params.p + 1.0 / params.pprime, 1.0)


def test_parseval_anchor_at_p_two():
    rng = np.random.default_rng(11)
    f = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    direct = (2.0 * np.pi / GRID.length) * np.sqrt(np.mean(np.abs(f) ** 2))
    assert_allclose(hsp_norm(f, GRID, 0.0, 2.0), direct, rtol=1e-12)


def test_single_mode_norm():
    x = 2.0 * np.pi / 16 * np.arange(16)
    field = 0.37 * np.exp(1j * 2 * x)[:, None] * np.exp(1j * 5 * x)[None, :]
    for p in (8 / 7, 4 / 3, 2.0):
        pp = conjugate_exponent(p)
        want = 0.37 * (2.0 * np.pi / GRID.length) ** (2.0 / pp)
        assert_allclose(hsp_norm(field, GRID, 0.0, p), want, rtol=1e-12)
    want = (1.0 + 29.0) ** 0.25 * 0.37 * (2.0 * np.pi / GRID.length)
    assert_allclose(hsp_norm(field, GRID, 0.5, 2.0), want, rtol=1e-12)


def test_zero_field_norms():
    zero = np.zeros((16, 16))
    assert hsp_norm(zero, GRID, 0.7, 1.5) == 0.0
    sample = SpaceTimeSample(np.zeros((8, 16, 16)), t_window=2.0)
    assert xsb_norm(sample, GRID, 0.5, 0.5, 1.5, 1) == 0.0
    assert embedding_check(sample, GRID, NormParams.from_eps(0.25), 0.0) == 0.0


@seed(7)
@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(1.05, 2.0),
    st.floats(-1.0, 2.0),
    st.floats(0.01, 3.0),
)
def test_hsp_norm_axioms(data_seed, p, s, scale):
    rng = np.random.default_rng(data_seed)
    f = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    g = rng.standard_normal((16, 16))
    norm_f = hsp_norm(f, GRID, s, p)
    for signed in (scale, -scale):
        assert_allclose(
            hsp_norm(signed * f, GRID, s, p), abs(signed) * norm_f, rtol=1e-12
        )
    lhs = hsp_norm(f + g, GRID, s, p)
    assert lhs <= norm_f + hsp_norm(g, GRID, s, p) + 1e-12 * (1.0 + lhs)


def test_sample_validation():
    with pytest.raises(ValueError):
        SpaceTimeSample(np.zeros((8, 16, 12)), t_window=2.0)
    with pytest.raises(ValueError):
        SpaceTimeSample(np.zeros((16, 16)), t_window=2.0)
    with pytest.raises(ValueError):
        xsb_norm(SpaceTimeSample(np.zeros((8, 16, 16)), 2.0), GRID, 0.0, 0.0, 1.5, 2)


def test_hbp_norm_matches_continuum_gaussian():
    # the continuum transform of the gaussian window is known in closed
    # form, so the lattice sum is checked against an independent quad
    times = -2.0 + (4.0 / 256) * np.arange(256)
    for width, b, p in ((0.2, 0.75, 2.0), (0.15, 15 / 16, 8 / 7), (0.25, 0.5, 1.5)):
        disc = hbp_norm_1d(gaussian_window(times, width), 2.0, b, p)
        pp = conjugate_exponent(p)
        amp = width * np.sqrt(2.0 * np.pi)
        val, _ = quad(
            lambda t: (1 + t * t) ** (pp * b / 2) * (amp * np.exp(-(width**2) * t * t / 2)) ** pp,
            -np.inf,
            np.inf,
        )
        assert_allclose(disc, val ** (1.0 / pp), rtol=1e-8)


def test_single_mode_wave_concentrates_on_characteristic():
    x = 2.0 * np.pi / 16 * np.arange(16)
    field = 0.83 * np.exp(1j * 3 * x)[:, None] * np.exp(1j * x)[None, :]
    params = NormParams.from_eps(0.125)
    sample = free_wave_sample(GRID, field, 1, window=lambda t: gaussian_window(t, 0.2))
    left = xsb_norm(sample, GRID, params.s, params.b, params.p, 1)
    mag_sq = 3.0**2 + 1.0**2
    right = (
        (1.0 + mag_sq) ** (params.s / 2)
        * hbp_norm_1d(sample.window, 2.0, params.b, params.p)
        * 0.83
        * (2.0 * np.pi / GRID.length) ** (2.0 / params.pprime)
    )
    assert_allclose(left, right, rtol=1e-10)


def test_xsb_norm_monotone_in_modulation_exponent():
    rng = np.random.default_rng(3)
    field = random_band_limited(rng, GRID, 5.0, shape=())
    sample = free_wave_sample(GRID, field, -1, window=lambda t: gaussian_window(t, 0.2))
    values = [xsb_norm(sample, GRID, 0.5, b, 1.5, -1) for b in (0.0, 0.3, 0.6, 0.9)]
    assert np.all(np.diff(values) >= 0.0)


def test_factorization_identity():
    rng = np.random.default_rng(2024)
    checked = 0
    for eps in (1 / 16, 1 / 8, 0.1875, 1 / 4):
        params = NormParams.from_eps(eps)
        for width in (0.10, 0.15, 0.20, 0.25):
            sign = 1 if checked % 2 == 0 else -1
            field = random_band_limited(rng, GRID, 5.0, shape=())
            lhs, rhs, _ = homogeneous_factorization_check(
                field, lambda t, w=width: gaussian_window(t, w), GRID, params, sign
            )
            assert lhs > 0.0
            assert abs(lhs - rhs) <= 1e-6 * rhs
            checked += 1
    # matrix-valued samples go through the same magnitude reduction
    for eps in (0.2, 0.1):
        params = NormParams.from_eps(eps)
        for sign in (1, -1):
            field = np.moveaxis(
                random_band_limited(rng, GRID, 4.0, shape=(2, 2, 2)), (-2, -1), (0, 1)
            )
            lhs, rhs, _ = homogeneous_factorization_check(
                field, lambda t: gaussian_window(t, 0.15), GRID, params, sign
            )
            assert abs(lhs - rhs) <= 1e-6 * rhs
            checked += 1
    assert checked >= 20


def test_factorization_zero_field():
    params = NormParams.from_eps(0.125)
    lhs, rhs, _ = homogeneous_factorization_check(
        np.zeros((16, 16)), lambda t: gaussian_window(t, 0.2), GRID, params, 1
    )
    assert (lhs, rhs) == (0.0, 0.0)


def test_halving_the_window_changes_only_the_time_factor():
    rng = np.random.default_rng(5)
    field = random_band_limited(rng, GRID, 5.0, shape=())
    params = NormParams.from_eps(0.125)
    lhs = {}
    hbp = {}
    for width in (0.2, 0.1):
        sample = free_wave_sample(
            GRID, field, 1, window=lambda t, w=width: gaussian_window(t, w)
        )
        lhs[width] = xsb_norm(sample, GRID, params.s, params.b, params.p, 1)
        hbp[width] = hbp_norm_1d(sample.window, 2.0, params.b, params.p)
    assert_allclose(lhs[0.1] / lhs[0.2], hbp[0.1] / hbp[0.2], rtol=1e-6)


def test_scaling_exponent_is_exact():
    rng = np.random.default_rng(9)
    for p, s in ((2.0, 1.0), (4 / 3, 3 / 4), (8 / 7, 7 / 8)):
        field = random_band_limited(rng, GRID, 4.0, shape=())
        for lam in (2.0, 4.0):
            measured = scaling_check(field, GRID, lam, s, p)
            assert abs(measured - (s + 1.0 - 2.0 / p)) < 1e-12


def test_scaling_check_rejects_zero_field():
    with pytest.raises(DegenerateInputError):
        scaling_check(np.zeros((16, 16)), GRID, 2.0, 1.0, 2.0)


def test_embedding_constant_closed_form():
    for b, p in ((0.75, 2.0), (15 / 16, 8 / 7), (0.9, 4 / 3), (1.0, 1.5)):
        val, _ = quad(lambda t, q=p * b: (1 + t * t) ** (-q / 2), -np.inf, np.inf)
        assert_allclose(embedding_constant(b, p), val ** (1.0 / p), rtol=1e-12)
    with pytest.raises(ValueError):
        embedding_constant(0.5, 2.0)
    with pytest.raises(ValueError):
        embedding_check(
            SpaceTimeSample(np.zeros((8, 16, 16)), 2.0),
            GRID,
            NormParams(p=1.5, s=0.5, b=0.5),
            1.0,
        )


def test_embedding_ratio_sweep_stays_below_constant():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        params = NormParams.from_eps(rng.uniform(0.02, 0.25))
        width = rng.uniform(0.1, 0.25)
        sign = 1 if rng.uniform() < 0.5 else -1
        field = random_band_limited(rng, GRID, 5.0, shape=())
        lhs, _, sample = homogeneous_factorization_check(
            field, lambda t: gaussian_window(t, width), GRID, params, sign
        )
        ratio = embedding_check(sample, GRID, params, lhs)
        worst = max(worst, ratio / embedding_constant(params.b, params.p))
    assert worst < 1.0
    assert_allclose(worst, FROZEN_EMBEDDING_SWEEP_FRACTION, rtol=1e-9)


def test_bilinear_point_mass_collapses_to_weighted_translate():
    rng = np.random.default_rng(12)
    params = NormParams.from_eps(0.125)
    phi = random_positive_coeffs(rng, GRID, 16, 40)
    psi = np.zeros((16, 16, 16))
    psi[3, 2, 15] = 0.7
    result = key_bilinear_probe(phi, psi, GRID, params, 1)
    zeta = np.array([GRID.kx[2, 15], GRID.ky[2, 15]])
    expect = np.zeros_like(phi)
    for m, a, c in zip(*np.nonzero(phi)):
        eta = np.array([GRID.kx[a, c], GRID.ky[a, c]])
        theta = np.arccos(
            np.clip(eta @ zeta / (np.hypot(*eta) * np.hypot(*zeta)), -1.0, 1.0)
        )
        expect[m, a, c] = theta * phi[m, a, c] * 0.7
    cell = (np.pi / 2.0) * (2.0 * np.pi / GRID.length) ** 2
    shifted = np.roll(expect, (3, 2, 15), axis=(0, 1, 2)) * cell
    assert_allclose(result.transform, shifted, atol=1e-14)


def test_bilinear_collinear_support_vanishes():
    phi = np.zeros((16, 16, 16))
    psi = np.zeros((16, 16, 16))
    phi[0, 1, 0] = 0.5
    phi[2, 2, 0] = 0.3
    psi[1, 3, 0] = 0.9
    psi[5, 1, 0] = 0.2
    params = NormParams.from_eps(0.125)
    assert key_bilinear_probe(phi, psi, GRID, params, 1).lhs == 0.0
    assert key_bilinear_probe(phi, psi, GRID, params, -1).lhs > 0.0


def test_bilinear_probe_validation():
    params = NormParams.from_eps(0.125)
    good = np.zeros((16, 16, 16))
    good[1, 2, 3] = 1.0
    bad_negative = good.copy()
    bad_negative[0, 0, 1] = -0.5
    with pytest.raises(ValueError):
        key_bilinear_probe(bad_negative, good, GRID, params, 1)
    with pytest.raises(ValueError):
        key_bilinear_probe(good.astype(complex), good, GRID, params, 1)
    with pytest.raises(ValueError):
        key_bilinear_probe(good[:, :, :12], good, GRID, params, 1)
    with pytest.raises(ValueError):
        key_bilinear_probe(good, good, GRID, params, 2)
    over_cap = np.ones((32, 16, 16))
    assert over_cap.size > MAX_ACTIVE_MODES
    with pytest.raises(ValueError):
        key_bilinear_probe(over_cap, np.zeros((32, 16, 16)), GRID, params, 1)
    # mass on the zero frequency carries zero angle weight, not a nan
    dc = np.zeros((16, 16, 16))
    dc[0, 0, 0] = 1.0
    dc[1, 1, 0] = 0.5
    result = key_bilinear_probe(dc, dc, GRID, params, 1)
    assert np.isfinite(result.lhs)


def test_random_positive_coeffs_layout():
    rng = np.random.default_rng(4)
    data = random_positive_coeffs(rng, GRID, 16, 96)
    assert np.count_nonzero(data) == 96
    assert np.all(data >= 0.0)
    idx = np.nonzero(data)
    folded = [np.minimum(i, dim - i) for i, dim in zip(idx, (16, 16, 16))]
    assert np.all(folded[0] <= 4) and np.all(folded[1] <= 4) and np.all(folded[2] <= 4)


def test_bilinear_sweep_frozen_baseline():
    rng = np.random.default_rng(2024)
    rows = bilinear_sweep(rng, GRID, (1 / 16, 1 / 8, 1 / 4))
    assert len(rows) == 150
    ratios = np.array([row["ratio"] for row in rows])
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
    assert_allclose(ratios.max(), FROZEN_C_PROBE, rtol=1e-9)


def test_free_wave_sample_validation():
    with pytest.raises(ValueError):
        free_wave_sample(GRID, np.zeros((16, 16)), 0, np.ones_like)
    with pytest.raises(ValueError):
        free_wave_sample(GRID, np.zeros((12, 16)), 1, np.ones_like)
    sample = free_wave_sample(GRID, np.ones((16, 16)), 1, np.ones_like, n_t=64)
    assert sample.values.shape == (64, 16, 16)
    assert sample.n_t == 64 and sample.dt == pytest.approx(4.0 / 64)
