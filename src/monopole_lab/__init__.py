"""Numerical laboratory for a planar gauge system in Lorenz gauge.

The package evolves the diagonalized first-order system with an
integrating-factor spectral scheme and verifies, numerically, the
algebraic and harmonic-analysis facts the scheme rests on: projection
identities, symbol bounds near null directions, restricted integrals
over the light cone, and the product and scaling structure of the
Fourier-Lebesgue norms.
"""

from .cone_quadrature import (
    ConeProbe,
    delta_integral_minus,
    delta_integral_plus,
    minus_kernel,
    minus_kernel_sweep,
    mollified_oracle_minus,
    mollified_oracle_plus,
    plus_kernel,
    plus_kernel_sweep,
    sweep_max,
)
from .diagonal_system import (
    DiagonalState,
    HalfWaveSolver,
    ResidualRecord,
    random_diagonal_state,
    state_distance,
    state_max_abs,
)
from .errors import DegenerateInputError, DivergedError
from .fl_norms import (
    NormParams,
    SpaceTimeSample,
    bilinear_sweep,
    conjugate_exponent,
    embedding_check,
    embedding_constant,
    free_wave_sample,
    gaussian_window,
    hbp_norm_1d,
    homogeneous_factorization_check,
    hsp_norm,
    key_bilinear_probe,
    scaling_check,
    xsb_norm,
)
from .gauge_fields import (
    MonopoleConfig,
    TimeDerivatives,
    gauge_transform,
    lorenz_residual,
    monopole_residual,
    random_config,
    random_derivatives,
)
from .grid_spectral import (
    ALPHA1,
    ALPHA2,
    BETA,
    GridSpec,
    alpha_dot,
    apply_projection,
    dilate,
    projection_matrix,
    random_band_limited,
)
from .lie import bracket, lie_expm, random_group, random_lie
from .null_geometry import (
    angle,
    approach_defects,
    null_sweep,
    symbol_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA1",
    "ALPHA2",
    "BETA",
    "ConeProbe",
    "DegenerateInputError",
    "DiagonalState",
    "DivergedError",
    "GridSpec",
    "HalfWaveSolver",
    "MonopoleConfig",
    "NormParams",
    "ResidualRecord",
    "SpaceTimeSample",
    "TimeDerivatives",
    "alpha_dot",
    "angle",
    "apply_projection",
    "approach_defects",
    "bilinear_sweep",
    "bracket",
    "conjugate_exponent",
    "delta_integral_minus",
    "delta_integral_plus",
    "dilate",
    "embedding_check",
    "embedding_constant",
    "free_wave_sample",
    "gauge_transform",
    "gaussian_window",
    "hbp_norm_1d",
    "homogeneous_factorization_check",
    "hsp_norm",
    "key_bilinear_probe",
    "lie_expm",
    "lorenz_residual",
    "minus_kernel",
    "minus_kernel_sweep",
    "mollified_oracle_minus",
    "mollified_oracle_plus",
    "monopole_residual",
    "null_sweep",
    "plus_kernel",
    "plus_kernel_sweep",
    "projection_matrix",
    "random_band_limited",
    "random_config",
    "random_derivatives",
    "random_diagonal_state",
    "random_group",
    "random_lie",
    "scaling_check",
    "state_distance",
    "state_max_abs",
    "sweep_max",
    "symbol_norm",
    "xsb_norm",
]
