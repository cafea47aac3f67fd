import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from monopole_lab.grid_spectral import (
    ALPHA1,
    ALPHA2,
    BETA,
    GridSpec,
    alpha_dot,
    apply_projection,
    band_mask,
    dilate,
    fft_forward,
    fft_inverse,
    projection_matrices,
    random_band_limited,
)


def random_pair(rng, grid, n=2):
    shape = (2, grid.n_points, grid.n_points, n, n)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dealias(field, grid):
    """Zero all Fourier modes of a matrix field outside the two-thirds band."""
    return field * grid.dealias_mask[..., None, None]


def test_grid_validation():
    GridSpec(8, 1.0, 1e-3)
    with pytest.raises(ValueError):
        GridSpec(7, 1.0, 1e-3)
    with pytest.raises(ValueError):
        GridSpec(12, 1.0, 1e-3)
    with pytest.raises(ValueError):
        GridSpec(4, 1.0, 1e-3)
    with pytest.raises(ValueError, match="length must be positive"):
        GridSpec(16, -1.0, 1e-3)
    with pytest.raises(ValueError, match="dt must be positive"):
        GridSpec(16, 1.0, 0.0)
    # a non-finite side or step makes every wavenumber or phase meaningless
    for length, dt, message in [
        (np.inf, 1e-3, "length must be finite, got inf"),
        (np.nan, 1e-3, "length must be finite, got nan"),
        (2 * np.pi, np.inf, "dt must be finite, got inf"),
        (2 * np.pi, np.nan, "dt must be finite, got nan"),
        # a bool was taken as a side of 1, and a complex raised TypeError
        (True, 1e-3, "length must be a real number, got True"),
        (np.True_, 1e-3, "length must be a real number, got np.True_"),
        (2j, 1e-3, "length must be a real number, got 2j"),
        (2 * np.pi, True, "dt must be a real number, got True"),
        (2 * np.pi, 1e-3 + 0j, r"dt must be a real number, got \(0.001\+0j\)"),
    ]:
        with pytest.raises(ValueError, match=message):
            GridSpec(16, length, dt)
    for n_points in (True, np.True_, 16.0, 16 + 0j, np.nan, np.inf):
        with pytest.raises(ValueError, match="n_points must be a whole number"):
            GridSpec(n_points, 1.0, 1e-3)


def test_wavenumbers_are_integer_multiples(grid):
    base = 2 * np.pi / grid.length
    k = grid.wavenumbers / base
    assert_allclose(k, np.round(k), atol=1e-12)
    assert set(np.round(k).astype(int)) == set(range(-8, 8))


def test_fft_round_trip_and_parseval(rng, grid):
    f = random_pair(rng, grid)
    spec = fft_forward(f, grid)
    assert_allclose(fft_inverse(spec, grid), f, atol=1e-12)
    # unitary normalization preserves the entrywise l2 norm
    assert_allclose(np.linalg.norm(spec), np.linalg.norm(f), rtol=1e-12)


def test_fft_constant_field_hits_zero_mode(grid):
    n = grid.n_points
    f = np.zeros((n, n, 2, 2), dtype=complex)
    f[..., 0, 1] = 3.0
    spec = fft_forward(f, grid)
    assert_allclose(spec[0, 0, 0, 1], 3.0 * n, rtol=1e-12)
    spec[0, 0] = 0.0
    assert np.max(np.abs(spec)) < 1e-12


def test_projection_matrix_axis_examples():
    assert_allclose(projection_matrices(+1, (1.0, 0.0)), [[1, 0], [0, 0]], atol=1e-15)
    assert_allclose(projection_matrices(-1, (1.0, 0.0)), [[0, 0], [0, 1]], atol=1e-15)
    assert_allclose(projection_matrices(+1, (0.0, 2.0)), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert_allclose(projection_matrices(+1, (0.0, 0.0)), 0.5 * np.eye(2), atol=1e-15)
    assert_allclose(projection_matrices(-1, (0.0, 0.0)), 0.5 * np.eye(2), atol=1e-15)


def test_projection_identities_random_frequencies(rng):
    # idempotent, orthogonal, complete, and diagonalizing, on 1e4 frequencies
    xi = rng.standard_normal((10_000, 2)) * np.exp(rng.uniform(-2, 2, size=(10_000, 1)))
    pp = projection_matrices(+1, xi)
    pm = projection_matrices(-1, xi)
    eye = np.eye(2)
    assert np.max(np.abs(pp @ pp - pp)) < 1e-12
    assert np.max(np.abs(pm @ pm - pm)) < 1e-12
    assert np.max(np.abs(pp @ pm)) < 1e-12
    assert np.max(np.abs(pp + pm - eye)) < 1e-12
    mag = np.linalg.norm(xi, axis=-1)[..., None, None]
    assert np.max(np.abs(alpha_dot(xi) - mag * (pp - pm))) < 1e-12


def test_projection_scale_invariance(rng):
    xi = rng.standard_normal((100, 2))
    lam = np.exp(rng.uniform(-3, 3, size=(100, 1)))
    assert_allclose(
        projection_matrices(+1, xi), projection_matrices(+1, lam * xi), atol=1e-13
    )


def test_beta_intertwines_projections(rng):
    xi = rng.standard_normal((10_000, 2))
    pp = projection_matrices(+1, xi)
    pm = projection_matrices(-1, xi)
    assert np.max(np.abs(BETA @ pp - pm @ BETA)) < 1e-12
    assert np.max(np.abs(BETA @ pm - pp @ BETA)) < 1e-12


@seed(7)
@settings(deadline=None, max_examples=200)
@given(
    x1=st.floats(-1e3, 1e3),
    x2=st.floats(-1e3, 1e3),
)
def test_projection_identities_hypothesis(x1, x2):
    # idempotency and orthogonality need a direction, so skip the origin
    # (there the convention P = I/2 only keeps completeness)
    xi = np.array([x1, x2])
    pp = projection_matrices(+1, xi)
    pm = projection_matrices(-1, xi)
    if np.hypot(x1, x2) > 0:
        assert np.max(np.abs(pp @ pp - pp)) < 1e-12
        assert np.max(np.abs(pp @ pm)) < 1e-12
    assert np.max(np.abs(pp + pm - np.eye(2))) < 1e-12


def test_alpha_matrices_clifford_relations():
    assert_allclose(ALPHA1 @ ALPHA1, np.eye(2), atol=1e-15)
    assert_allclose(ALPHA2 @ ALPHA2, np.eye(2), atol=1e-15)
    assert_allclose(ALPHA1 @ ALPHA2 + ALPHA2 @ ALPHA1, np.zeros((2, 2)), atol=1e-15)
    assert_allclose(BETA @ BETA, -np.eye(2), atol=1e-15)


def test_apply_projection_matches_per_mode_matrices(rng, grid):
    pair = random_pair(rng, grid)
    out = apply_projection(+1, pair, grid)
    xi = np.stack([grid.kx, grid.ky], axis=-1)
    p = projection_matrices(+1, xi)
    ref = np.einsum("xyab,bxyij->axyij", p, pair)
    assert_allclose(out, ref, atol=1e-12)


def test_apply_projection_resolution_of_identity(rng, grid):
    pair = random_pair(rng, grid)
    out = apply_projection(+1, pair, grid) + apply_projection(-1, pair, grid)
    assert_allclose(out, pair, atol=1e-13)


def test_apply_projection_idempotent_orthogonal(rng, grid):
    pair = random_pair(rng, grid)
    pair[:, 0, 0] = 0.0  # P(0) = I/2 is deliberately not a projection
    plus = apply_projection(+1, pair, grid)
    assert_allclose(apply_projection(+1, plus, grid), plus, atol=1e-12)
    assert np.max(np.abs(apply_projection(-1, plus, grid))) < 1e-12


def test_dealias_mask_and_band_mask(grid):
    m = grid.dealias_mask
    third = grid.n_points // 3
    idx = grid.mode_index
    for i in range(grid.n_points):
        for j in range(grid.n_points):
            assert m[i, j] == (abs(idx[i]) <= third and abs(idx[j]) <= third)
    assert np.array_equal(m, band_mask(grid, third))


def test_dealias_zeroes_high_modes(rng, grid):
    pair = random_pair(rng, grid)
    out = dealias(pair, grid)
    keep = grid.dealias_mask
    assert np.max(np.abs(out[:, ~keep])) == 0.0
    assert_allclose(out[:, keep], pair[:, keep], atol=0)


def test_random_band_limited_is_real_and_band_limited(rng, grid):
    f = random_band_limited(rng, grid, kmax=3, shape=(5,))
    assert f.dtype == np.float64
    spec = np.fft.fft2(f, axes=(-2, -1))
    hi = ~band_mask(grid, 3)
    assert np.max(np.abs(spec[:, hi])) < 1e-10 * np.max(np.abs(spec))


def test_dilate_identity_any_positive_lam_and_refusal(rng, grid):
    f = random_pair(rng, grid)[0]
    out, g2 = dilate(f, grid, 1.0)
    assert g2 == grid
    assert_allclose(out, f, atol=0)
    out, g2 = dilate(f, grid, 2.0)
    assert g2.length == grid.length / 2
    assert g2.dt == pytest.approx(grid.dt / 2)
    assert_allclose(out, 2.0 * f, atol=0)
    out, g2 = dilate(f, grid, 3.0)
    assert g2.length == grid.length / 3
    assert_allclose(out, 3.0 * f, atol=0)
    with pytest.raises(ValueError):
        dilate(f, grid, -2.0)
    # L / lam overflows: the grid refuses the infinite side
    with pytest.raises(ValueError, match="length must be finite"):
        dilate(f, grid, 1e-308)
    # a non-finite lam is named, not the side length it would make
    for lam in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"lam must be finite, got {lam}"):
            dilate(f, grid, lam)
    # a bool was taken as lam = 1, and a complex raised TypeError
    for lam, shown in ((True, "True"), (np.True_, "np.True_"), (2j, "2j")):
        with pytest.raises(ValueError, match=f"lam must be a real number, got {shown}"):
            dilate(f, grid, lam)
