"""A Lawson integrating-factor RK4 that shares no code with the solver's engine.

It evolves the complex matrix pairs (u, v) over the full spectrum.  The
brackets come from pair_nonlinearity, the exact linear flow of u is
e^{it|xi|} P_+ + e^{-it|xi|} P_- built from apply_projection (v flows
with -t), and the result is a state of pairs made by diagonal_split.
"""

import numpy as np

from monopole_lab.diagonal_system import diagonal_split, pair_nonlinearity
from monopole_lab.grid_spectral import apply_projection, fft_forward, fft_inverse


def _flow(grid, t, y):
    """Exact linear flow over time t of the Fourier pairs y = (u_hat, v_hat)."""
    out = np.empty_like(y)
    for w, sign in enumerate((1, -1)):
        phase = np.exp(1j * sign * t * grid.kabs)[..., None, None]
        out[w] = phase * apply_projection(+1, y[w], grid) + np.conj(phase) * apply_projection(-1, y[w], grid)
    return out


def _nonlinearity(grid, y):
    n_u, n_v = pair_nonlinearity(*fft_inverse(y, grid))
    return fft_forward(np.stack([n_u, n_v]), grid) * grid.dealias_mask[..., None, None]


def reference_evolve(state, n_steps, h):
    """n_steps Lawson IF-RK4 steps of size h from a DiagonalState."""
    grid = state.grid
    y = fft_forward(np.stack([state.u(), state.v()]), grid)
    for _ in range(n_steps):
        k1 = _nonlinearity(grid, y)
        k2 = _nonlinearity(grid, _flow(grid, 0.5 * h, y + 0.5 * h * k1))
        k3 = _nonlinearity(grid, _flow(grid, 0.5 * h, y) + 0.5 * h * k2)
        k4 = _nonlinearity(grid, _flow(grid, h, y) + h * _flow(grid, 0.5 * h, k3))
        y = _flow(grid, h, y + h / 6 * k1) + h / 6 * (2 * _flow(grid, 0.5 * h, k2 + k3) + k4)
    u, v = fft_inverse(y, grid)
    return diagonal_split(grid, u, v)
