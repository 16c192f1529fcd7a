"""Poisson-type extension kernels on the line and their solution operators.

The package evaluates the kernels of e^{-y sqrt(-Op)} for three operators
on the real line - the transport operator d/dX, the scaling operator
-2 a xi d/dxi, and the harmonic oscillator d^2/dx^2 - a^2 x^2 - applies
them to boundary data, and verifies every closed form against independent
oracles (spectral sums, finite-difference residuals, limit studies).
"""

from .kernels import (
    DegenerateCharacteristicError,
    EvaluationPoint,
    KernelValue,
    OscillatorParam,
    dirac_kernel,
    euler_kernel,
    halfplane_poisson_kernel,
    mehler_heat_kernel,
    oscillator_poisson_kernel,
    oscillator_poisson_kernel_batch,
)
from .oracles import (
    InsufficientOrderError,
    InvalidStencilError,
    SpectralConfig,
    StencilConfig,
    VerificationReport,
    boundary_limit_gap,
    hermite_function,
    limit_a_to_zero_gap,
    pde_residual,
    spectral_heat_kernel,
    spectral_poisson_kernel,
)
from .quadrature import (
    IntegrandEvaluationError,
    NonConvergenceError,
    QuadratureConfig,
    QuadratureResult,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
    subordination_base_residual,
    subordination_derived_residual,
)
from .solvers import (
    PROBLEMS,
    InitialData,
    InvalidDataError,
    SolutionGrid,
    SolveRequest,
    SolveResult,
    solve_dirac,
    solve_euler,
    solve_grid,
    solve_oscillator,
)
from .suites import (
    REFERENCE_OSCILLATOR_POISSON_ORIGIN,
    run_suite,
    suite_names,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DegenerateCharacteristicError",
    "EvaluationPoint",
    "KernelValue",
    "OscillatorParam",
    "dirac_kernel",
    "euler_kernel",
    "halfplane_poisson_kernel",
    "mehler_heat_kernel",
    "oscillator_poisson_kernel",
    "oscillator_poisson_kernel_batch",
    "InsufficientOrderError",
    "InvalidStencilError",
    "SpectralConfig",
    "StencilConfig",
    "VerificationReport",
    "boundary_limit_gap",
    "hermite_function",
    "limit_a_to_zero_gap",
    "pde_residual",
    "spectral_heat_kernel",
    "spectral_poisson_kernel",
    "IntegrandEvaluationError",
    "NonConvergenceError",
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
    "subordination_base_residual",
    "subordination_derived_residual",
    "PROBLEMS",
    "InitialData",
    "InvalidDataError",
    "SolutionGrid",
    "SolveRequest",
    "SolveResult",
    "solve_dirac",
    "solve_euler",
    "solve_grid",
    "solve_oscillator",
    "REFERENCE_OSCILLATOR_POISSON_ORIGIN",
    "run_suite",
    "suite_names",
]
