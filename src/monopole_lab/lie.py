"""Matrix arithmetic for su(n)-valued fields.

A Lie algebra element is an anti-Hermitian traceless complex n x n matrix;
a group element is a special unitary n x n matrix.  Every function here
broadcasts over leading axes, so a field sampled on a grid is simply an
array of shape (..., n, n) and no per-point loops are needed.

su_basis(n) is the one basis of su(n) here, orthonormal for tr(X^H Y);
coefficients, from_coefficients and structure_constants work in it.
"""

import numpy as np


def dagger(a):
    """Conjugate transpose on the trailing two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def _check_square(x, name):
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"{name} must have square trailing axes, got shape {x.shape}")
    return x


def bracket(x, y):
    """Commutator [x, y] = xy - yx."""
    x = _check_square(x, "x")
    y = _check_square(y, "y")
    if x.shape[-1] != y.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    return x @ y - y @ x


def conjugate(o, x):
    """Adjoint action o x o^{-1} for unitary o (the inverse is o^H)."""
    o = _check_square(o, "o")
    x = _check_square(x, "x")
    if o.shape[-1] != x.shape[-1]:
        raise ValueError(f"dimension mismatch: {o.shape[-1]} vs {x.shape[-1]}")
    return o @ x @ dagger(o)


def coefficients(x, basis):
    """Re tr(e_a^H x) for an orthonormal basis (d, n, n), on a trailing length-d axis.

    For su_basis(n) the Hermitian and trace parts of x drop out.
    """
    return np.tensordot(x, basis.conj(), ([-2, -1], [1, 2])).real


def from_coefficients(c, basis):
    """Sum c_a e_a over a trailing length-d axis; inverse of coefficients."""
    return np.tensordot(c, basis, ([-1], [0]))


def structure_constants(basis):
    """f_abc = Re tr(e_c^H [e_a, e_b]), so that [x, y]_c = f_abc x_a y_b."""
    return coefficients(bracket(basis[:, None], basis[None, :]), basis)


def su_basis(n):
    """Orthonormal basis of su(n) for the inner product <X, Y> = tr(X^H Y).

    Returns an array of shape (n*n - 1, n, n).  Ordering: off-diagonal
    symmetric pairs, off-diagonal antisymmetric pairs, diagonal elements.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    basis = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k] = m[k, j] = 1.0
            basis.append(-1j * inv_sqrt2 * m)
            m = np.zeros((n, n), dtype=np.complex128)
            m[j, k] = 1.0
            m[k, j] = -1.0
            basis.append(inv_sqrt2 * m)
    for m_idx in range(1, n):
        d = np.zeros(n, dtype=np.complex128)
        d[:m_idx] = 1.0
        d[m_idx] = -m_idx
        d /= np.sqrt(m_idx * (m_idx + 1))
        basis.append(-1j * np.diag(d))
    return np.array(basis)


def random_lie(rng, n=2, shape=()):
    """Gaussian random su(n) element(s) with real coefficients in su_basis."""
    basis = su_basis(n)
    coeffs = rng.standard_normal((*shape, n * n - 1))
    return np.einsum("...a,aij->...ij", coeffs, basis)


def lie_expm(x):
    """exp(X) for anti-Hermitian X via the eigendecomposition of iX.

    Exactly unitary up to roundoff, and batched over leading axes.
    """
    x = _check_square(x, "x")
    h = 1j * x
    w, u = np.linalg.eigh(h)
    phases = np.exp(-1j * w)
    return (u * phases[..., None, :]) @ dagger(u)
