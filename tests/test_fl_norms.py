import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.fft import fft, ifft2
from scipy.integrate import quad

from monopole_lab import fl_norms
from monopole_lab.errors import DegenerateInputError
from monopole_lab.fl_norms import (
    MAX_ACTIVE_MODES,
    NormParams,
    SpaceTimeSample,
    bilinear_sweep,
    check_active_modes,
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
    # a complex eps raised TypeError from the range test
    for eps, message in (
        (2j, "eps must be a real number, got 2j"),
        (True, "eps must be a real number, got True"),
        (np.nan, "eps must be finite, got nan"),
    ):
        with pytest.raises(ValueError, match=message):
            NormParams.from_eps(eps)
    # a complex exponent raised TypeError; a bool is no exponent either
    for p, shown in ((2j, "2j"), (1.5 + 0j, r"\(1.5\+0j\)"), (True, "True"), (np.True_, "np.True_")):
        with pytest.raises(ValueError, match=f"p must be a real number, got {shown}"):
            conjugate_exponent(p)
        with pytest.raises(ValueError, match=f"p must be a real number, got {shown}"):
            NormParams(p, 0.5, 0.5)
    for p in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"p must be finite, got {p}"):
            NormParams(p, 0.5, 0.5)
    params = NormParams.from_eps(0.25)
    assert_allclose((params.p, params.s, params.b), (2.0, 0.5, 0.75))
    assert_allclose(1.0 / params.p + 1.0 / conjugate_exponent(params.p), 1.0)


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
    # an empty time axis made xsb_norm divide by zero
    with pytest.raises(ValueError, match="at least one time sample"):
        SpaceTimeSample(np.zeros((0, 16, 16)), t_window=2.0)
    for n_t in (0, -3):
        with pytest.raises(ValueError, match=f"n_t must be at least 1, got {n_t}"):
            free_wave_sample(GRID, np.ones((16, 16)), 1, 0.2, n_t=n_t)
    # 2.5 made 3 time samples and True made 1
    for n_t, shown in ((2.5, "2.5"), (True, "True"), (np.True_, "np.True_"), (8 + 0j, r"\(8\+0j\)"),
                       (np.nan, "nan"), (np.inf, "inf")):
        with pytest.raises(ValueError, match=f"n_t must be a whole number, got {shown}"):
            free_wave_sample(GRID, np.ones((16, 16)), 1, 0.2, n_t=n_t)


def test_lattice_norms_refuse_a_sample_from_another_grid():
    sample = free_wave_sample(GRID, np.ones((16, 16)), 1, 0.2, n_t=32)
    grid = GridSpec(32, 2.0 * np.pi, 1e-3)
    with pytest.raises(ValueError, match=r"sample shape \(32, 16, 16\) does not match grid n=32"):
        xsb_norm(sample, grid, 0.5, 0.5, 1.5, 1)
    with pytest.raises(ValueError, match="does not match grid n=32"):
        embedding_check(sample, grid, NormParams.from_eps(0.125), 1.0)


@pytest.mark.parametrize(
    "t_window",
    [-2.0, 0.0, np.nan, np.inf, True, 2.0 + 0j, np.True_],
    ids=["-2.0", "0.0", "nan", "inf", "True", "(2+0j)", "np.True_"],
)
def test_sample_and_time_norm_refuse_an_unusable_window(t_window):
    # a negative or nan window gave a nan norm and a RuntimeWarning
    with pytest.raises(ValueError, match="t_window must be"):
        SpaceTimeSample(np.zeros((8, 16, 16)), t_window=t_window)
    with pytest.raises(ValueError, match="t_window must be"):
        hbp_norm_1d(np.ones(8), t_window, 0.5, 1.5)
    with pytest.raises(ValueError, match="t_window must be"):
        free_wave_sample(GRID, np.ones((16, 16)), 1, 0.2, t_window=t_window, n_t=8)


@pytest.mark.parametrize(
    "width, message",
    [
        (0.0, "width must be positive, got 0.0"),
        (-0.2, "width must be positive, got -0.2"),
        (np.nan, "width must be finite, got nan"),
        (np.inf, "width must be finite, got inf"),
        (True, "width must be a real number, got True"),
        (np.True_, "width must be a real number, got np.True_"),
        (0.2 + 0j, r"width must be a real number, got \(0.2\+0j\)"),
    ],
    ids=["zero", "negative", "nan", "infinite", "bool", "numpy-bool", "complex"],
)
def test_free_wave_sample_refuses_an_unusable_width(width, message):
    # a zero width divided by zero, and a negative, nan or infinite one gave a window
    with pytest.raises(ValueError, match=message):
        free_wave_sample(GRID, np.ones((16, 16)), 1, width, t_window=2.0, n_t=8)


def test_time_norm_refuses_an_empty_profile():
    # it divided by zero in the tau lattice
    with pytest.raises(ValueError, match=r"profile needs at least one time sample, got shape \(0,\)"):
        hbp_norm_1d(np.ones(0), 2.0, 0.5, 1.5)


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
    sample = free_wave_sample(GRID, field, 1, 0.2)
    left = xsb_norm(sample, GRID, params.s, params.b, params.p, 1)
    mag_sq = 3.0**2 + 1.0**2
    right = (
        (1.0 + mag_sq) ** (params.s / 2)
        * hbp_norm_1d(sample.window, 2.0, params.b, params.p)
        * 0.83
        * (2.0 * np.pi / GRID.length) ** (2.0 / conjugate_exponent(params.p))
    )
    assert_allclose(left, right, rtol=1e-10)


def test_xsb_norm_monotone_in_modulation_exponent():
    rng = np.random.default_rng(3)
    field = random_band_limited(rng, GRID, 5.0, shape=())
    sample = free_wave_sample(GRID, field, -1, 0.2)
    values = [xsb_norm(sample, GRID, 0.5, b, 1.5, -1) for b in (0.0, 0.3, 0.6, 0.9)]
    assert np.all(np.diff(values) >= 0.0)


def _direct_lattice_norm(weight, mag, cell, p):
    pprime = conjugate_exponent(p)
    return np.sum((weight * mag) ** pprime * cell) ** (1.0 / pprime)


def _padded_magnitude(values, t_window):
    """|time transform| of a copy padded by np.pad; the phase exp(i tau T_w) is unimodular."""
    n_t = values.shape[0]
    pad = [(0, (fl_norms._TAU_PAD - 1) * n_t)] + [(0, 0)] * (values.ndim - 1)
    mag = np.abs((2.0 * t_window / n_t) * fft(np.pad(values, pad), axis=0))
    if mag.ndim > 3:
        mag = np.sqrt(np.sum(mag**2, axis=tuple(range(3, mag.ndim))))
    return mag


def _padded_taus(n_t, t_window):
    """The padded tau lattice and its spacing dtau."""
    pad = fl_norms._TAU_PAD
    return 2.0 * np.pi * np.fft.fftfreq(pad * n_t, d=2.0 * t_window / n_t), np.pi / (pad * t_window)


def test_xsb_norm_matches_the_direct_formula():
    # the full (n_tau, N, N) weight on a padded copy, against the lean path
    rng = np.random.default_rng(21)
    s, b, t_window = 0.8, 0.9, 1.5
    field = random_band_limited(rng, GRID, 5.0, shape=())
    pair = np.moveaxis(random_band_limited(rng, GRID, 5.0, shape=(2,)), 0, -1)
    shape = (32, 16, 16, 3)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    taus, dtau = _padded_taus(32, t_window)
    cell = dtau * (2.0 * np.pi / GRID.length) ** 2
    for sign in (1, -1):
        modulation = -taus[:, np.newaxis, np.newaxis] + sign * GRID.kabs
        samples = [
            free_wave_sample(GRID, field, sign, 0.2, t_window=t_window, n_t=32),
            free_wave_sample(GRID, pair, sign, 0.2, t_window=t_window, n_t=32),
            SpaceTimeSample(raw[..., 0], t_window),
            SpaceTimeSample(raw, t_window),
        ]
        weight = (1.0 + GRID.kabs**2) ** (0.5 * s) * (1.0 + modulation**2) ** (0.5 * b)
        for sample in samples:
            mag = _padded_magnitude(sample.values, t_window)
            for p in (1.05, 4 / 3, 2.0):
                want = _direct_lattice_norm(weight, mag, cell, p)
                assert_allclose(xsb_norm(sample, GRID, s, b, p, sign), want, rtol=1e-13)


def test_hbp_norm_matches_the_direct_formula():
    rng = np.random.default_rng(22)
    t_window = 1.5
    taus, dtau = _padded_taus(64, t_window)
    times = -t_window + (2.0 * t_window / 64) * np.arange(64)
    for profile in (gaussian_window(times, 0.2), rng.standard_normal(64)):
        mag = _padded_magnitude(profile.astype(complex), t_window)
        for b, p in ((0.9, 1.05), (0.75, 4 / 3), (0.5, 2.0)):
            want = _direct_lattice_norm((1.0 + taus**2) ** (0.5 * b), mag, dtau, p)
            assert_allclose(hbp_norm_1d(profile, t_window, b, p), want, rtol=1e-13)


def test_xsb_norm_holds_at_most_two_padded_lattices():
    # the padded complex transform is the one full-size lattice the norm needs
    grid = GridSpec(32, 2.0 * np.pi, 1e-3)
    field = random_band_limited(np.random.default_rng(23), grid, 5.0, shape=())
    sample = free_wave_sample(grid, field, 1, 0.2, n_t=256)
    lattice_bytes = fl_norms._TAU_PAD * 256 * 32 * 32 * np.dtype(complex).itemsize
    xsb_norm(sample, grid, 0.8, 0.9, 1.2, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        xsb_norm(sample, grid, 0.8, 0.9, 1.2, 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * lattice_bytes


@pytest.mark.parametrize("n_t", [256, 1024])
def test_xsb_norm_holds_two_slabs_and_the_weight_table(n_t):
    # beyond its sample the norm holds one xi_1 slab of the padded lattice
    # (its transform, then magnitudes and gathered weights) and the
    # (|xi| levels, tau) weight table, whatever n_t; the whole padded
    # lattice is 16 MiB at n_t = 256 and 64 MiB at n_t = 1024
    grid = GridSpec(32, 2.0 * np.pi, 1e-3)
    field = random_band_limited(np.random.default_rng(23), grid, 5.0, shape=())
    sample = free_wave_sample(grid, field, 1, 0.2, n_t=n_t)
    row_bytes = fl_norms._TAU_PAD * n_t * 32 * np.dtype(complex).itemsize
    slab_bytes = max(1, fl_norms._SLAB_BYTES // row_bytes) * row_bytes
    table_bytes = len(grid.kabs_levels[0]) * fl_norms._TAU_PAD * n_t * np.dtype(float).itemsize
    xsb_norm(sample, grid, 0.8, 0.9, 1.2, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        xsb_norm(sample, grid, 0.8, 0.9, 1.2, 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * slab_bytes + table_bytes


@pytest.mark.parametrize("budget", [1, 2**40], ids=["one-row-slabs", "one-slab"])
def test_xsb_norm_does_not_depend_on_the_slab_size(monkeypatch, budget):
    rng = np.random.default_rng(24)
    field = np.moveaxis(random_band_limited(rng, GRID, 5.0, shape=(2,)), 0, -1)
    samples = [
        free_wave_sample(GRID, field[..., 0], 1, 0.2, n_t=128),
        free_wave_sample(GRID, field, -1, 0.15, n_t=64),
    ]
    params = NormParams.from_eps(0.1)
    want = [
        [xsb_norm(sample, GRID, params.s, params.b, params.p, sign) for sign in (1, -1)]
        for sample in samples
    ]
    embed = [embedding_check(sample, GRID, params, 1.0) for sample in samples]
    monkeypatch.setattr(fl_norms, "_SLAB_BYTES", budget)
    for sample, norms, ratio in zip(samples, want, embed):
        for sign, norm in zip((1, -1), norms):
            got = xsb_norm(sample, GRID, params.s, params.b, params.p, sign)
            assert_allclose(got, norm, rtol=1e-14, atol=0.0)
        assert_allclose(embedding_check(sample, GRID, params, 1.0), ratio, rtol=1e-14, atol=0.0)


def test_factorization_identity():
    rng = np.random.default_rng(2024)
    checked = 0
    for eps in (1 / 16, 1 / 8, 0.1875, 1 / 4):
        params = NormParams.from_eps(eps)
        for width in (0.10, 0.15, 0.20, 0.25):
            sign = 1 if checked % 2 == 0 else -1
            field = random_band_limited(rng, GRID, 5.0, shape=())
            lhs, rhs, _ = homogeneous_factorization_check(field, width, GRID, params, sign)
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
            lhs, rhs, _ = homogeneous_factorization_check(field, 0.15, GRID, params, sign)
            assert abs(lhs - rhs) <= 1e-6 * rhs
            checked += 1
    assert checked >= 20


def test_factorization_zero_field():
    params = NormParams.from_eps(0.125)
    lhs, rhs, _ = homogeneous_factorization_check(np.zeros((16, 16)), 0.2, GRID, params, 1)
    assert (lhs, rhs) == (0.0, 0.0)


def test_halving_the_window_changes_only_the_time_factor():
    rng = np.random.default_rng(5)
    field = random_band_limited(rng, GRID, 5.0, shape=())
    params = NormParams.from_eps(0.125)
    lhs = {}
    hbp = {}
    for width in (0.2, 0.1):
        sample = free_wave_sample(GRID, field, 1, width)
        lhs[width] = xsb_norm(sample, GRID, params.s, params.b, params.p, 1)
        hbp[width] = hbp_norm_1d(sample.window, 2.0, params.b, params.p)
    assert_allclose(lhs[0.1] / lhs[0.2], hbp[0.1] / hbp[0.2], rtol=1e-6)


def test_scaling_exponent_is_exact():
    rng = np.random.default_rng(9)
    for p, s in ((2.0, 1.0), (4 / 3, 3 / 4), (8 / 7, 7 / 8)):
        field = random_band_limited(rng, GRID, 4.0, shape=())
        # the rescaled samples are exact for every lam > 0, not only for 2**k
        for lam in (2.0, 4.0, 3.0, 0.7):
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
    # a complex b or p raised TypeError from the comparison
    for b, p, message in (
        (2j, 1.5, "b must be a real number, got 2j"),
        (np.nan, 1.5, "b must be finite, got nan"),
        (0.75, 2j, "p must be a real number, got 2j"),
        (0.75, True, "p must be a real number, got True"),
        (-0.75, -2.0, "p must be positive, got -2.0"),
    ):
        with pytest.raises(ValueError, match=message):
            embedding_constant(b, p)
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
        lhs, _, sample = homogeneous_factorization_check(field, width, GRID, params, sign)
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
    transform = fl_norms._convolve(phi, psi, GRID, 1, 2.0)
    expect = np.zeros_like(phi)
    for m, a, c in zip(*np.nonzero(phi)):
        # the exact angle to zeta = (2, -1) from the signed integer mode
        # indices, which are the frequencies on this 2 pi grid
        e1, e2 = (int(i) - 16 if i >= 8 else int(i) for i in (a, c))
        theta = math.atan2(abs(-e1 - 2 * e2), 2 * e1 - e2)
        expect[m, a, c] = theta * phi[m, a, c] * 0.7
    cell = (np.pi / 2.0) * (2.0 * np.pi / GRID.length) ** 2
    shifted = np.roll(expect, (3, 2, 15), axis=(0, 1, 2)) * cell
    assert_allclose(transform, shifted, atol=1e-14)


def test_bilinear_collinear_support_vanishes():
    phi = np.zeros((16, 16, 16))
    psi = np.zeros((16, 16, 16))
    phi[0, 1, 0] = 0.5
    phi[2, 2, 0] = 0.3
    psi[1, 3, 0] = 0.9
    psi[5, 1, 0] = 0.2
    params = NormParams.from_eps(0.125)
    assert key_bilinear_probe(phi, psi, GRID, params, 1)["lhs"] == 0.0
    assert key_bilinear_probe(phi, psi, GRID, params, -1)["lhs"] > 0.0
    # off the axes, eta = (4, -2) and zeta = (2, -1) are collinear too; an
    # arccos of their rounded cosine would weight this pair 2e-8
    phi = np.zeros((16, 16, 16))
    psi = np.zeros((16, 16, 16))
    phi[1, 4, 14] = 0.4
    psi[2, 2, 15] = 0.6
    assert key_bilinear_probe(phi, psi, GRID, params, 1)["lhs"] == 0.0
    assert key_bilinear_probe(phi, psi, GRID, params, -1)["lhs"] > 0.0


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
    # 1.5 raised TypeError and True ran one sample
    for n_samples, shown in ((1.5, "1.5"), (True, "True"), (np.True_, "np.True_"), (2 + 0j, r"\(2\+0j\)")):
        with pytest.raises(ValueError, match=f"n_samples must be a whole number, got {shown}"):
            bilinear_sweep(np.random.default_rng(0), GRID, (0.125,), n_samples=n_samples)
    over_cap = np.ones((32, 16, 16))
    assert over_cap.size > MAX_ACTIVE_MODES
    with pytest.raises(ValueError):
        key_bilinear_probe(over_cap, np.zeros((32, 16, 16)), GRID, params, 1)
    # mass on the zero frequency carries zero angle weight, not a nan
    dc = np.zeros((16, 16, 16))
    dc[0, 0, 0] = 1.0
    dc[1, 1, 0] = 0.5
    result = key_bilinear_probe(dc, dc, GRID, params, 1)
    assert np.isfinite(result["lhs"])
    # with sign -1 only the pair of the two (1, 0) modes, at angle pi, is weighted
    assert np.count_nonzero(fl_norms._convolve(dc, dc, GRID, -1, 2.0)) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda n_t, n_active: random_positive_coeffs(np.random.default_rng(0), GRID, n_t, n_active),
        lambda n_t, n_active: check_active_modes(GRID, n_t, n_active),
    ],
    ids=["random_positive_coeffs", "check_active_modes"],
)
def test_probe_counts_are_whole_numbers(call):
    # n_active=2.5 placed 3 modes, True placed 1, and n_t=2.5 raised TypeError
    for n_t, n_active, message in (
        (16, 2.5, "n_active must be a whole number, got 2.5"),
        (16, True, "n_active must be a whole number, got True"),
        (16, -1, "n_active must be at least 0, got -1"),
        (2.5, 4, "n_t must be a whole number, got 2.5"),
        (np.True_, 4, "n_t must be a whole number, got np.True_"),
        (0, 4, "n_t must be at least 1, got 0"),
    ):
        with pytest.raises(ValueError, match=message):
            call(n_t, n_active)


def test_probe_t_window_must_be_positive_and_finite():
    # t_window=0.0 raised ZeroDivisionError from tau_lattice
    params = NormParams.from_eps(0.125)
    good = np.zeros((16, 16, 16))
    good[1, 2, 3] = 1.0
    for t_window, message in (
        (0.0, "t_window must be positive, got 0.0"),
        (-2.0, "t_window must be positive, got -2.0"),
        (np.inf, "t_window must be finite, got inf"),
        (2j, "t_window must be a real number, got 2j"),
    ):
        with pytest.raises(ValueError, match=message):
            key_bilinear_probe(good, good, GRID, params, 1, t_window=t_window)
        with pytest.raises(ValueError, match=message):
            bilinear_sweep(np.random.default_rng(0), GRID, (0.125,), n_samples=1, t_window=t_window)


def test_random_positive_coeffs_layout():
    rng = np.random.default_rng(4)
    data = random_positive_coeffs(rng, GRID, 16, 96)
    assert np.count_nonzero(data) == 96
    assert np.all(data >= 0.0)
    idx = np.nonzero(data)
    folded = [np.minimum(i, dim - i) for i, dim in zip(idx, (16, 16, 16))]
    assert np.all(folded[0] <= 4) and np.all(folded[1] <= 4) and np.all(folded[2] <= 4)


def _array_loop_draw(rng, grid, n_t, n_active):
    """random_positive_coeffs as it was: a rejection loop that reads the array back."""
    n = grid.n_points
    index_cap = n // 4
    t_cap = max(n_t // 4, 1)
    data = np.zeros((n_t, n, n))
    placed = rejected = 0
    while placed < n_active:
        m = int(rng.integers(-t_cap, t_cap + 1)) % n_t
        a = int(rng.integers(-index_cap, index_cap + 1)) % n
        c = int(rng.integers(-index_cap, index_cap + 1)) % n
        if data[m, a, c] == 0.0:
            data[m, a, c] = float(rng.uniform(0.1, 1.0))
            placed += 1
        else:
            rejected += 1
    return data, rejected


@pytest.mark.parametrize(
    "n, n_t, n_active", [(16, 16, 96), (32, 16, 96), (8, 4, 27), (8, 1, 25), (16, 8, 0)]
)
def test_random_positive_coeffs_draws_as_the_array_loop_did(n, n_t, n_active):
    grid = GridSpec(n, 2.0 * np.pi, 1e-3)
    for seed in range(4):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        data = random_positive_coeffs(rng, grid, n_t, n_active)
        want, rejected = _array_loop_draw(reference, grid, n_t, n_active)
        assert np.array_equal(data, want)
        assert rng.bit_generator.state == reference.bit_generator.state
        if n_t == 1:
            # all 25 slots of the band: the draw must step past taken slots
            assert rejected > 0


def test_bilinear_sweep_frozen_baseline():
    rng = np.random.default_rng(2024)
    rows = bilinear_sweep(rng, GRID, (1 / 16, 1 / 8, 1 / 4))
    assert len(rows) == 150
    ratios = np.array([row["ratio"] for row in rows])
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)
    assert_allclose(ratios.max(), FROZEN_C_PROBE, rtol=1e-9)


def test_free_wave_sample_validation():
    with pytest.raises(ValueError):
        free_wave_sample(GRID, np.zeros((16, 16)), 0, 0.2)
    with pytest.raises(ValueError):
        free_wave_sample(GRID, np.zeros((12, 16)), 1, 0.2)
    sample = free_wave_sample(GRID, np.ones((16, 16)), 1, 0.2, n_t=64)
    assert sample.values.shape == (64, 16, 16)


def test_free_wave_sample_holds_fourier_coefficients():
    # cos x = (e^{ix} + e^{-ix}) / 2 and |xi| = 1 on both modes
    x = 2.0 * np.pi / 16 * np.arange(16)
    field = np.cos(x)[:, None] * np.ones(16)[None, :]
    times = -2.0 + (4.0 / 64) * np.arange(64)
    for sign in (1, -1):
        sample = free_wave_sample(GRID, field, sign, 0.2, n_t=64)
        want = np.zeros((64, 16, 16), dtype=complex)
        want[:, 1, 0] = gaussian_window(times, 0.2) * np.exp(1j * sign * times) / 2
        want[:, 15, 0] = want[:, 1, 0]
        assert_allclose(sample.values, want, rtol=0.0, atol=1e-15)


def test_embedding_check_is_the_largest_slice_norm():
    rng = np.random.default_rng(8)
    params = NormParams.from_eps(0.125)
    for shape in ((8, 16, 16), (8, 16, 16, 2, 2)):
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        slices = ifft2(values, axes=(1, 2), norm="forward")
        sup = max(hsp_norm(f, GRID, params.s, params.p) for f in slices)
        ratio = embedding_check(SpaceTimeSample(values, 2.0), GRID, params, 0.5)
        assert_allclose(ratio, sup / 0.5, rtol=1e-12)
