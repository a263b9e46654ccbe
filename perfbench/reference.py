"""Independent reference values for the kernel family, in l = cosh s.

Nothing here touches the program's term algebra, l-series or quadrature.
The radial Gaussian G(l) = sqrt(a/pi) exp(-a arccosh(l)^2 + E) is
differentiated numerically by mpmath in extended precision:

    D even   K = (-1/(2 pi))^n  d^n G / dl^n,            n = (D-2)/2
    D odd    K = sqrt(2) (-1/(2 pi))^k
                 int_l0^inf d^k G/dl^k (l) / sqrt(l - l0) dl,   k = (D-1)/2

The odd-D half-order integral is taken by tanh-sinh quadrature after the
substitution l = l0 + u^2, which removes the endpoint singularity.
arccosh(l)^2 is analytic through l = 1, so the difference stencils may
step below l = 1; the real part of mpmath's complex continuation is used.

Cost: milliseconds per even-D value, 0.1-0.4 s per odd-D value.
"""

from __future__ import annotations

import mpmath

_DPS = 30


def _gaussian(a, E):
    def g(l):
        return mpmath.sqrt(a / mpmath.pi) * mpmath.exp(-a * mpmath.acosh(l) ** 2 + E)

    return g


def kernel_reference(D: int, tau: float, s: float, m: float = 0.5, hbar: float = 1.0) -> float:
    """Kernel value at (D, tau, s) with the program's conventions for a and E."""
    with mpmath.workdps(_DPS):
        a = mpmath.mpf(m) / (2 * mpmath.mpf(hbar) * mpmath.mpf(tau))
        E = -(mpmath.mpf(hbar) * (D - 1) * (D - 3) / (8 * mpmath.mpf(m))) * mpmath.mpf(tau)
        g = _gaussian(a, E)
        l0 = mpmath.cosh(mpmath.mpf(s))
        if D % 2 == 0:
            n = (D - 2) // 2
            return float(mpmath.re((-1 / (2 * mpmath.pi)) ** n * mpmath.diff(g, l0, n)))
        k = (D - 1) // 2
        integral = mpmath.quad(
            lambda u: 2 * mpmath.re(mpmath.diff(g, l0 + u * u, k)), [0, 1, mpmath.inf]
        )
        return float(mpmath.sqrt(2) * (-1 / (2 * mpmath.pi)) ** k * integral)
