import numpy as np
import pytest

from monopole_lab import cone_quadrature, diagonal_system
from monopole_lab.grid_spectral import GridSpec


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def grid():
    return GridSpec(16, 2.0 * np.pi, 1e-3)


@pytest.fixture
def grid32():
    return GridSpec(32, 2.0 * np.pi, 1e-3)


@pytest.fixture
def flipped_structure_constant(monkeypatch):
    """Make the engine's bracket wrong: negate its first f_abc with a < b (and f_bac)."""
    structure_constants = diagonal_system.structure_constants

    def flipped(basis):
        f = structure_constants(basis)
        a, b, c = np.argwhere(np.abs(f) > 1e-12)[0]
        f[a, b, c] *= -1.0
        f[b, a, c] *= -1.0
        return f

    monkeypatch.setattr(diagonal_system, "structure_constants", flipped)


@pytest.fixture
def scaled_quadrature(monkeypatch):
    """Make every direct surface integral of cone_quadrature 5% too large."""
    doubled = cone_quadrature._doubled

    def scaled(evaluate, rtol):
        result = doubled(evaluate, rtol)
        result.value *= 1.05
        return result

    monkeypatch.setattr(cone_quadrature, "_doubled", scaled)
