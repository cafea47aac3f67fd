import numpy as np
import pytest
from numpy.testing import assert_allclose

from monopole_lab.lie import (
    SU2_GENERATORS,
    anti_hermitian_defect,
    bracket,
    conjugate,
    dagger,
    lie_expm,
    random_group,
    random_lie,
    su_basis,
    unitary_defect,
)


def frobenius_norm(x):
    """Entrywise l2 norm over the trailing matrix axes."""
    x = np.asarray(x)
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=(-2, -1)))


def test_su2_generator_bracket():
    e1, e2, e3 = SU2_GENERATORS
    assert_allclose(bracket(e1, e2), e3, atol=1e-15)
    assert_allclose(bracket(e2, e3), e1, atol=1e-15)
    assert_allclose(bracket(e3, e1), e2, atol=1e-15)


def test_bracket_of_element_with_itself_is_zero(rng):
    x = random_lie(rng, n=3)
    assert_allclose(bracket(x, x), np.zeros_like(x), atol=1e-15)


def test_bracket_antisymmetry(rng):
    x = random_lie(rng, n=2, shape=(7,))
    y = random_lie(rng, n=2, shape=(7,))
    assert_allclose(bracket(x, y), -bracket(y, x), atol=1e-14)


def test_bracket_closure(rng):
    for n in (2, 3):
        x = random_lie(rng, n=n, shape=(20,))
        y = random_lie(rng, n=n, shape=(20,))
        assert anti_hermitian_defect(bracket(x, y)) < 1e-12


def test_jacobi_identity(rng):
    # 100 random triples in su(2) and su(3), relative tolerance 1e-12
    for n in (2, 3):
        x = random_lie(rng, n=n, shape=(100,))
        y = random_lie(rng, n=n, shape=(100,))
        z = random_lie(rng, n=n, shape=(100,))
        s = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
        scale = np.max(frobenius_norm(x) * frobenius_norm(y) * frobenius_norm(z))
        assert np.max(frobenius_norm(s)) < 1e-12 * scale


def test_bracket_dimension_mismatch():
    x = random_lie(np.random.default_rng(0), n=2)
    y = random_lie(np.random.default_rng(0), n=3)
    with pytest.raises(ValueError):
        bracket(x, y)


def test_conjugate_identity_and_inverse(rng):
    x = random_lie(rng, n=2)
    eye = np.eye(2, dtype=complex)
    assert_allclose(conjugate(eye, x), x, atol=1e-15)
    o = random_group(rng, n=2)
    assert_allclose(conjugate(dagger(o), conjugate(o, x)), x, atol=1e-13)


def test_conjugate_preserves_structure_and_norm(rng):
    x = random_lie(rng, n=3, shape=(10,))
    o = random_group(rng, n=3, shape=(10,))
    y = conjugate(o, x)
    assert anti_hermitian_defect(y) < 1e-12
    assert_allclose(frobenius_norm(y), frobenius_norm(x), rtol=1e-12)


def test_conjugate_is_bracket_homomorphism(rng):
    x = random_lie(rng, n=2)
    y = random_lie(rng, n=2)
    o = random_group(rng, n=2)
    assert_allclose(
        conjugate(o, bracket(x, y)), bracket(conjugate(o, x), conjugate(o, y)), atol=1e-13
    )


def test_frobenius_norm_values():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    e3 = SU2_GENERATORS[2]
    assert_allclose(frobenius_norm(e3), np.sqrt(0.5), rtol=1e-15)
    assert_allclose(frobenius_norm(np.eye(3)), np.sqrt(3.0), rtol=1e-15)


def test_su_basis_orthonormal():
    for n in (2, 3, 4):
        basis = su_basis(n)
        assert basis.shape == (n * n - 1, n, n)
        assert anti_hermitian_defect(basis) < 1e-14
        gram = np.einsum("aji,bji->ab", np.conj(basis), basis)
        assert_allclose(gram, np.eye(n * n - 1), atol=1e-14)


def test_random_lie_is_lie(rng):
    assert anti_hermitian_defect(random_lie(rng, n=2, shape=(50,))) <= 1e-10
    assert anti_hermitian_defect(random_lie(rng, n=3, shape=(50,))) <= 1e-10


def test_lie_expm_unitary_and_matches_series(rng):
    x = 1e-3 * random_lie(rng, n=2)
    series = np.eye(2) + x + x @ x / 2 + x @ x @ x / 6
    assert_allclose(lie_expm(x), series, atol=1e-12)
    o = random_group(rng, n=3, shape=(25,))
    assert unitary_defect(o) < 1e-12


def test_lie_expm_inverse_is_exp_of_negative(rng):
    x = random_lie(rng, n=2)
    assert_allclose(lie_expm(x) @ lie_expm(-x), np.eye(2), atol=1e-13)


def test_su2_coefficients_round_trip(rng):
    from monopole_lab.lie import su2_coefficients, su2_matrix

    x = random_lie(rng, n=2, shape=(6, 5))
    c = su2_coefficients(x)
    assert np.max(np.abs(c.imag)) < 1e-14  # real on the algebra
    assert_allclose(su2_matrix(c), x, atol=1e-14)
    for a in range(3):
        unit = np.zeros(3)
        unit[a] = 1.0
        assert_allclose(su2_coefficients(SU2_GENERATORS[a]), unit, atol=1e-15)


def test_su2_coefficients_ignore_the_trace():
    from monopole_lab.lie import su2_coefficients

    assert_allclose(su2_coefficients(0.3j * np.eye(2)), np.zeros(3), atol=0)


def test_su2_bracket_is_cross_product(rng):
    from monopole_lab.lie import su2_coefficients, su2_matrix

    a = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    b = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    lhs = bracket(su2_matrix(a), su2_matrix(b))
    rhs = su2_matrix(np.cross(a, b))
    assert_allclose(lhs, rhs, atol=1e-13)
