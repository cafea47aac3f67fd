import numpy as np
import pytest

from monopole_lab import cone_quadrature, diagonal_system, fl_norms
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
def product_count(monkeypatch):
    """Count the engine's product spectra, one per nonlinearity it evaluates."""
    calls = []
    products = diagonal_system.HalfWaveSolver._products

    def counted(self, y):
        calls.append(None)
        return products(self, y)

    monkeypatch.setattr(diagonal_system.HalfWaveSolver, "_products", counted)
    return calls


@pytest.fixture
def weight_exponent_off_by_1e_5(monkeypatch):
    """Make the spatial norms weigh |xi| with the exponent s (1 + 1e-5)."""
    spatial_weight = fl_norms._spatial_weight

    def off(grid, s, homogeneous):
        return spatial_weight(grid, s * (1.0 + 1e-5), homogeneous)

    monkeypatch.setattr(fl_norms, "_spatial_weight", off)


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
