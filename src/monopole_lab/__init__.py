"""Numerical laboratory for a planar gauge system in Lorenz gauge.

The package evolves the diagonalized first-order system with an
integrating-factor spectral scheme and verifies, numerically, the
algebraic and harmonic-analysis facts the scheme rests on: projection
identities, symbol bounds near null directions, restricted integrals
over the light cone, and the product and scaling structure of the
Fourier-Lebesgue norms.
"""

__version__ = "0.1.0"
