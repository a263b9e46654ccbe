"""Independent reference computations used by the tests.

Everything here deliberately avoids the package's own quadrature and term
algebra: plain numpy product-integration, high-precision finite
differences and mpmath quadrature only.
"""

import math

import mpmath
import numpy as np


def mckean_by_abel_inversion(a: float, d: float, l_max_sigma: float = 9.0, n: int = 400_000) -> float:
    """Plane kernel at distance d by discretized half-order inversion.

    The defining one-dimensional integral equation
    int_l^inf K(k) (k-l)^(-1/2) dk = F(l),
    F(l) = sqrt(a/(2 pi)) exp(-a arccosh(l)^2),
    inverts to K(u) = -(1/pi) int_u^inf F'(l) (l-u)^(-1/2) dl.  F' is known
    in closed form; the integral is done by midpoint product integration
    with the square-root weight integrated exactly on each panel.
    """
    u = math.cosh(d)
    s_u = d
    s_max = math.sqrt(s_u * s_u + l_max_sigma * l_max_sigma / a)
    l_hi = math.cosh(s_max)
    # graded panels: uniform in sqrt(l - u) so the weight resolves cleanly
    t = np.linspace(0.0, math.sqrt(l_hi - u), n + 1)
    edges = u + t * t
    mids = 0.5 * (edges[:-1] + edges[1:])
    s_mid = np.arccosh(mids)
    f_prime = -np.sqrt(a / (2.0 * math.pi)) * 2.0 * a * s_mid / np.sinh(s_mid) * np.exp(-a * s_mid**2)
    weights = 2.0 * (np.sqrt(edges[1:] - u) - np.sqrt(edges[:-1] - u))
    return float(-(1.0 / math.pi) * np.sum(f_prime * weights))


def graded_midpoint_inverse_sqrt(d: float, upper: float, n: int = 200_000, f=None) -> float:
    """int_d^upper f(s) (cosh s - cosh d)^(-1/2) ds (f = 1 by default) by
    midpoint rule on a mesh graded quadratically toward the singular
    endpoint (uniform midpoints in the grading variable t, s = d + t^2,
    where the integrand is bounded).  f takes and returns numpy arrays."""
    t_hi = math.sqrt(upper - d)
    dt = t_hi / n
    t_mid = (np.arange(n) + 0.5) * dt
    s_mid = d + t_mid * t_mid
    vals = 2.0 * t_mid / np.sqrt(np.cosh(s_mid) - math.cosh(d))
    if f is not None:
        vals = vals * f(s_mid)
    return float(np.sum(vals) * dt)


def odd_reference(D: int, tau: float, s: float, m: float = 0.5, hbar: float = 1.0) -> float:
    """Odd-D kernel at geodesic distance s, to about 40 digits.

    K = sqrt(2) (-1/(2 pi))^k int_s^inf G^(k)(cosh sig) sinh sig
        / sqrt(cosh sig - cosh s) dsig,   k = (D-1)/2,

    with G(l) = sqrt(a/pi) exp(-a arccosh(l)^2 + E) differentiated k times
    in l by mpmath's finite differences.  arccosh(l)^2 is analytic through
    l = 1 and equals -acos(l)^2 below it, where the difference stencil at
    s = 0 reaches.  The integral is taken in v, sig = s + v^2, where the
    weight 2 v / sqrt(2 sinh((sig+s)/2) sinh(v^2/2)) is regular, by
    Gauss-Legendre on panels one Gaussian width wide.  The Gaussian at the
    endpoint is factored out of the integrand, because mpmath's quadrature
    tolerance is absolute.  Costs 0.1-1 s per value at D <= 15.
    """
    if D < 3 or D % 2 == 0:
        raise ValueError("odd D >= 3 only")
    k = (D - 1) // 2
    with mpmath.workdps(40):
        a = mpmath.mpf(m) / (2 * mpmath.mpf(hbar) * mpmath.mpf(tau))
        E = -(mpmath.mpf(hbar) * (D - 1) * (D - 3) / (8 * mpmath.mpf(m))) * mpmath.mpf(tau)
        s0 = mpmath.mpf(s)

        def g(l):  # G(l) / G(cosh s)
            sq = mpmath.acosh(l) ** 2 if l >= 1 else -mpmath.acos(l) ** 2
            return mpmath.exp(-a * (sq - s0 * s0))

        def integrand(v):
            sig = s0 + v * v
            weight = 2 * mpmath.sinh((sig + s0) / 2) * mpmath.sinh(v * v / 2)
            return mpmath.diff(g, mpmath.cosh(sig), k) * mpmath.sinh(sig) * 2 * v / mpmath.sqrt(weight)

        # exp(-a (sig^2 - s^2)) ~ exp(-2 a s v^2 - a v^4): width 1/sqrt(2 a s)
        # in the tail, a^(-1/4) near the origin; cut where it is exp(-100)
        width = min(1 / mpmath.sqrt(2 * a * s0) if s0 > 0 else mpmath.inf, a ** mpmath.mpf(-0.25))
        v_max = mpmath.sqrt(mpmath.sqrt(s0 * s0 + 100 / a) - s0)
        points = [mpmath.mpf(0)]
        while points[-1] + width < v_max:
            points.append(points[-1] + width)
        points.append(v_max)
        integral = mpmath.quad(integrand, points, method="gauss-legendre")
        front = mpmath.sqrt(2) * (-1 / (2 * mpmath.pi)) ** k
        return float(front * mpmath.sqrt(a / mpmath.pi) * mpmath.exp(-a * s0 * s0 + E) * integral)


def even_reference(D: int, tau: float, s: float, m: float = 0.5, hbar: float = 1.0) -> float:
    """Even-D kernel (-1/(2 pi))^n G^(n)(cosh s), n = (D-2)/2, to about 40 digits.

    G(l) = sqrt(a/pi) exp(-a arccosh(l)^2 + E) is differentiated n times in
    l by mpmath's finite differences, which work at (n+1) times the
    precision with a step far below the distance to G's singularity at
    l = -1.  arccosh(l)^2 is analytic through l = 1 and equals
    -acos(l)^2 below it, where the stencil at s = 0 reaches.  The step is
    absolute, about 10^-digits, while G varies on the scale of l itself,
    so the n-th difference at l = cosh s cancels n log10(cosh s) more
    digits than at l = 1: they are added to the 40.
    """
    if D < 4 or D % 2 == 1:
        raise ValueError("even D >= 4 only")
    n = (D - 2) // 2
    with mpmath.workdps(40 + math.ceil(n * math.log10(math.cosh(s)))):
        a = mpmath.mpf(m) / (2 * mpmath.mpf(hbar) * mpmath.mpf(tau))
        E = -(mpmath.mpf(hbar) * (D - 1) * (D - 3) / (8 * mpmath.mpf(m))) * mpmath.mpf(tau)

        def G(l):
            sq = mpmath.acosh(l) ** 2 if l >= 1 else -mpmath.acos(l) ** 2
            return mpmath.sqrt(a / mpmath.pi) * mpmath.exp(-a * sq + E)

        derivative = mpmath.diff(G, mpmath.cosh(mpmath.mpf(s)), n)
        return float((-1 / (2 * mpmath.pi)) ** n * derivative)


def gaussian_moment(k: int, c: float, lower: float = 0.0) -> float:
    """Closed form of int_lower^inf t^k exp(-c t^2) dt for k in 0..4,
    assembled by integration by parts."""
    from math import erfc, exp, pi, sqrt

    x = lower
    e = exp(-c * x * x)
    i0 = sqrt(pi) / (2.0 * sqrt(c)) * erfc(sqrt(c) * x)
    if k == 0:
        return i0
    if k == 1:
        return e / (2.0 * c)
    if k == 2:
        return x * e / (2.0 * c) + i0 / (2.0 * c)
    if k == 3:
        return (x * x + 1.0 / c) * e / (2.0 * c)
    if k == 4:
        i2 = x * e / (2.0 * c) + i0 / (2.0 * c)
        return x**3 * e / (2.0 * c) + 3.0 / (2.0 * c) * i2
    raise ValueError("k out of range")
