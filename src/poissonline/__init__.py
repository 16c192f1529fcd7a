"""Poisson-type extension kernels on the line and their solution operators.

The package evaluates the kernels of e^{-y sqrt(-Op)} for three operators
on the real line - the transport operator d/dX, the scaling operator
-2 a xi d/dxi, and the harmonic oscillator d^2/dx^2 - a^2 x^2 - applies
them to boundary data.  The verification layer that checks every closed
form against independent oracles (spectral sums, finite-difference
residuals, limit studies) is `poissonline.oracles` and `poissonline.suites`,
which importing the package does not load; the CLI does.
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
from .numerics import hermite_function
from .quadrature import (
    IntegrandEvaluationError,
    NonConvergenceError,
    QuadratureConfig,
    QuadratureResult,
    integrate_semi_infinite,
    integrate_semi_infinite_batch,
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
    "hermite_function",
    "IntegrandEvaluationError",
    "NonConvergenceError",
    "QuadratureConfig",
    "QuadratureResult",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
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
]
