import numpy as np
import pytest
from numpy.testing import assert_allclose

from monopole_lab.lie import (
    bracket,
    coefficients,
    conjugate,
    dagger,
    from_coefficients,
    lie_expm,
    random_lie,
    structure_constants,
    su_basis,
)


def frobenius_norm(x):
    """Entrywise l2 norm over the trailing matrix axes."""
    x = np.asarray(x)
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=(-2, -1)))


def anti_hermitian_defect(x):
    """Largest violation of X + X^H = 0 and tr X = 0 over leading axes."""
    sym = np.max(np.abs(x + dagger(x)))
    tr = np.max(np.abs(np.trace(x, axis1=-2, axis2=-1)))
    return max(float(sym), float(tr))


def unitary_defect(o):
    """Largest violation of O O^H = I and det O = 1 over leading axes."""
    eye = np.eye(o.shape[-1], dtype=np.complex128)
    gram = np.max(np.abs(o @ dagger(o) - eye))
    det = np.max(np.abs(np.linalg.det(o) - 1.0))
    return max(float(gram), float(det))


def random_group(rng, n=2, shape=(), scale=1.0):
    """Random special unitary element(s), exp of a random su(n) element."""
    return lie_expm(random_lie(rng, n=n, shape=shape, scale=scale))


def test_su2_generator_bracket():
    # su_basis(2) is (-i sigma_1, i sigma_2, -i sigma_3) / sqrt(2), so
    # [e_1, e_2] = -sqrt(2) e_3 and cyclic
    e1, e2, e3 = su_basis(2)
    assert_allclose(bracket(e1, e2), -np.sqrt(2.0) * e3, atol=1e-15)
    assert_allclose(bracket(e2, e3), -np.sqrt(2.0) * e1, atol=1e-15)
    assert_allclose(bracket(e3, e1), -np.sqrt(2.0) * e2, atol=1e-15)


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
    e3 = su_basis(2)[2]
    assert_allclose(frobenius_norm(e3), 1.0, rtol=1e-15)
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


@pytest.mark.parametrize("n", [2, 3])
def test_coefficients_round_trip(rng, n):
    basis = su_basis(n)
    x = random_lie(rng, n=n, shape=(6, 5))
    c = coefficients(x, basis)
    assert c.shape == (6, 5, n * n - 1)
    assert_allclose(from_coefficients(c, basis), x, atol=1e-14)
    assert_allclose(coefficients(basis, basis), np.eye(n * n - 1), atol=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_coefficients_drop_the_hermitian_and_trace_parts(rng, n):
    basis = su_basis(n)
    x = random_lie(rng, n=n, shape=(7,))
    hermitian = 1j * random_lie(rng, n=n, shape=(7,))
    trace = 0.3j * np.eye(n)
    assert_allclose(coefficients(x + hermitian + trace, basis), coefficients(x, basis), atol=1e-15)
    assert np.max(np.abs(from_coefficients(coefficients(hermitian, basis), basis))) < 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_structure_constants_give_the_bracket(rng, n):
    basis = su_basis(n)
    f = structure_constants(basis)
    x = random_lie(rng, n=n, shape=(10,))
    y = random_lie(rng, n=n, shape=(10,))
    cx, cy = coefficients(x, basis), coefficients(y, basis)
    lhs = np.einsum("abc,ka,kb->kc", f, cx, cy)
    assert_allclose(lhs, coefficients(bracket(x, y), basis), atol=1e-13)
    assert_allclose(from_coefficients(lhs, basis), bracket(x, y), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_structure_constants_are_totally_antisymmetric(n):
    f = structure_constants(su_basis(n))
    assert np.max(np.abs(f)) > 0.5
    assert_allclose(f, -np.swapaxes(f, 0, 1), atol=1e-15)
    assert_allclose(f, -np.swapaxes(f, 1, 2), atol=1e-15)
    assert_allclose(f, np.transpose(f, (1, 2, 0)), atol=1e-15)
