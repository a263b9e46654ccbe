"""Heat kernels on hyperbolic space in half-space coordinates.

Closed-form evaluation of the radial heat kernel family on the
(D-1)-dimensional hyperbolic space for every ambient dimension D >= 3,
together with the machinery that certifies the formulas: an exact term
algebra for the iterated (1/sinh s) d/ds derivatives, one trapezoidal
quadrature rule in mapped variables (the odd dimensions' Abel integral
included), residual checks of the defining integral equation and of the
heat equation, semigroup convolution tests, and a time-sliced
path-integral oracle.  The package exports the kernel
entry points; the certification machinery lives in its submodules.
"""

from .geometry import HoricyclicPoint, geodesic_distance
from .kernels import EvalParams, KernelValue, kernel
from .quadrature import NonConvergenceError, QuadratureSpec

__version__ = "0.1.0"

__all__ = [
    "EvalParams",
    "KernelValue",
    "kernel",
    "QuadratureSpec",
    "NonConvergenceError",
    "HoricyclicPoint",
    "geodesic_distance",
]
