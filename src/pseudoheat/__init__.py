"""Heat kernels on hyperbolic space in half-space coordinates.

Closed-form evaluation of the radial heat kernel family on the
(D-1)-dimensional hyperbolic space for every ambient dimension D >= 3,
together with the machinery that certifies the formulas: an exact term
algebra for the iterated (1/sinh s) d/ds derivatives, adaptive quadrature
with endpoint-singularity removal, residual checks of the defining
integral equation and of the heat equation, semigroup convolution tests,
and a time-sliced path-integral oracle.
"""

from .geometry import (
    HoricyclicPoint,
    HyperboloidPoint,
    IsometryRecord,
    RadialArgs,
    from_hyperboloid,
    geodesic_distance,
    laplace_beltrami_apply,
    log_height,
    normalize_pair,
    to_hyperboloid,
)
from .gfunc import GExpression, GTerm, evaluate, evaluate_near_origin
from .kernels import EvalParams, KernelValue, kernel, kernel_d3, kernel_d4, kernel_even, kernel_odd
from .lattice import LatticeSpec, lattice_kernel, x_marginal_check
from .quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    abel_identity_check,
    integrate_endpoint_singular,
    integrate_semi_infinite,
)
from .verify import (
    VerificationReport,
    abel_residual,
    chapman_kolmogorov,
    horicyclic_pde_residual,
    mass_multiplicativity,
    radial_pde_residual,
)

__version__ = "0.1.0"

__all__ = [
    "HoricyclicPoint",
    "HyperboloidPoint",
    "IsometryRecord",
    "RadialArgs",
    "from_hyperboloid",
    "geodesic_distance",
    "laplace_beltrami_apply",
    "log_height",
    "normalize_pair",
    "to_hyperboloid",
    "GExpression",
    "GTerm",
    "evaluate",
    "evaluate_near_origin",
    "EvalParams",
    "KernelValue",
    "kernel",
    "kernel_d3",
    "kernel_d4",
    "kernel_even",
    "kernel_odd",
    "LatticeSpec",
    "lattice_kernel",
    "x_marginal_check",
    "NonConvergenceError",
    "QuadratureSpec",
    "abel_identity_check",
    "integrate_endpoint_singular",
    "integrate_semi_infinite",
    "VerificationReport",
    "abel_residual",
    "chapman_kolmogorov",
    "horicyclic_pde_residual",
    "mass_multiplicativity",
    "radial_pde_residual",
]
