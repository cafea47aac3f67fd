"""Matrix arithmetic for su(n)-valued fields.

A Lie algebra element is an anti-Hermitian traceless complex n x n matrix;
a group element is a special unitary n x n matrix.  Every function here
broadcasts over leading axes, so a field sampled on a grid is simply an
array of shape (..., n, n) and no per-point loops are needed.
"""

import numpy as np

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=np.complex128,
)

# e_k = -(i/2) sigma_k, so [e_1, e_2] = e_3 and cyclic.
SU2_GENERATORS = -0.5j * _SIGMA


def dagger(a):
    """Conjugate transpose on the trailing two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def _check_square(x, name="x"):
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


def su2_coefficients(x):
    """Coefficients of a traceless 2 x 2 matrix in the SU2_GENERATORS basis.

    The trailing matrix axes collapse to a length-3 axis; coefficients are
    real exactly when x is anti-Hermitian.  The trace part is ignored.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-2:] != (2, 2):
        raise ValueError(f"expected trailing (2, 2) axes, got {x.shape}")
    c1 = 1j * (x[..., 0, 1] + x[..., 1, 0])
    c2 = x[..., 1, 0] - x[..., 0, 1]
    c3 = 1j * (x[..., 0, 0] - x[..., 1, 1])
    return np.stack([c1, c2, c3], axis=-1)


def su2_matrix(c):
    """Contract a trailing length-3 axis with SU2_GENERATORS.

    Inverse of su2_coefficients; the commutator becomes the cross product
    of coefficient vectors because [e_1, e_2] = e_3 and cyclic.
    """
    c = np.asarray(c)
    if c.shape[-1] != 3:
        raise ValueError(f"expected trailing axis of length 3, got {c.shape}")
    out = np.empty((*c.shape[:-1], 2, 2), dtype=np.complex128)
    out[..., 0, 0] = -0.5j * c[..., 2]
    out[..., 1, 1] = 0.5j * c[..., 2]
    out[..., 0, 1] = -0.5j * c[..., 0] - 0.5 * c[..., 1]
    out[..., 1, 0] = -0.5j * c[..., 0] + 0.5 * c[..., 1]
    return out


def anti_hermitian_defect(x):
    """Largest violation of X + X^H = 0 and tr X = 0 over leading axes."""
    x = _check_square(x)
    sym = np.max(np.abs(x + dagger(x)))
    tr = np.max(np.abs(np.trace(x, axis1=-2, axis2=-1)))
    return max(float(sym), float(tr))


def unitary_defect(o):
    """Largest violation of O O^H = I and det O = 1 over leading axes."""
    o = _check_square(o, "o")
    eye = np.eye(o.shape[-1], dtype=np.complex128)
    gram = np.max(np.abs(o @ dagger(o) - eye))
    det = np.max(np.abs(np.linalg.det(o) - 1.0))
    return max(float(gram), float(det))


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


def random_lie(rng, n=2, shape=(), scale=1.0):
    """Gaussian random su(n) element(s) with real coefficients in su_basis."""
    basis = su_basis(n)
    coeffs = scale * rng.standard_normal((*shape, n * n - 1))
    return np.einsum("...a,aij->...ij", coeffs, basis)


def lie_expm(x):
    """exp(X) for anti-Hermitian X via the eigendecomposition of iX.

    Exactly unitary up to roundoff, and batched over leading axes.
    """
    x = _check_square(x)
    h = 1j * x
    w, u = np.linalg.eigh(h)
    phases = np.exp(-1j * w)
    return (u * phases[..., None, :]) @ dagger(u)


def random_group(rng, n=2, shape=(), scale=1.0):
    """Random special unitary element(s), exp of a random su(n) element."""
    return lie_expm(random_lie(rng, n=n, shape=shape, scale=scale))
