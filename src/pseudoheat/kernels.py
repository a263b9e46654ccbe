"""Closed-form heat kernels on the (D-1)-dimensional hyperbolic space.

All evaluation happens on the diffusive branch: the real-time rate alpha/T
becomes a = m/(2 hbar tau) > 0 and the constant action shift becomes
E = -(hbar (D-1)(D-3) / (8 m)) tau, so every kernel is a positive function
of the geodesic distance s, or of l = cosh s:

    D = 4     (a/pi)^(3/2) (s / sinh s) exp(-a s^2 + E)
    D even    (-1/(2 pi))^n G^(n)(l),                       n = (D-2)/2
    D odd     sqrt(2) (-1/(2 pi))^k
              int_l^inf G^(k)(l') (l' - l)^(-1/2) dl',       k = (D-1)/2

with G(l) = sqrt(a/pi) exp(-a arccosh(l)^2 + E) the radial Gaussian of the
gfunc module and G^(n) its n-th derivative in l.  The odd formula, D = 3
included, solves the Abel-type integral equation in l.  The oscillatory
real-time propagator is this family continued back through tau -> i T; it
is not evaluated numerically here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import gfunc
from .quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec, integrate_abel

__all__ = ["EvalParams", "KernelValue", "kernel", "kernel_d4", "kernel_even", "kernel_odd"]


@dataclass(frozen=True)
class EvalParams:
    """Dimension, units and diffusive time for one kernel evaluation."""

    D: int
    tau: float
    m: float = 0.5
    hbar: float = 1.0

    def __post_init__(self):
        if not isinstance(self.D, int) or self.D < 3:
            raise ValueError("D must be an integer >= 3")
        for name in ("tau", "m", "hbar"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def a(self) -> float:
        """Gaussian rate m / (2 hbar tau)."""
        return self.m / (2.0 * self.hbar * self.tau)

    @property
    def E(self) -> float:
        """Constant exponent shift; zero exactly at D = 3."""
        return -(self.hbar * (self.D - 1) * (self.D - 3) / (8.0 * self.m)) * self.tau

    @property
    def beta(self) -> float:
        """(hbar^2 / 4 m^2) (D-1)(D-3)."""
        return (self.hbar**2 / (4.0 * self.m**2)) * (self.D - 1) * (self.D - 3)

    @property
    def kappa(self) -> float:
        """Diffusivity hbar / (2 m) of the associated heat flow."""
        return self.hbar / (2.0 * self.m)

    def with_tau(self, tau: float) -> "EvalParams":
        return EvalParams(self.D, tau, self.m, self.hbar)


@dataclass(frozen=True)
class KernelValue:
    value: float
    err_est: float
    D: int
    s: float
    tau: float


def _check_s(s: float) -> float:
    s = float(s)
    if s < 0.0 or not math.isfinite(s):
        raise ValueError("geodesic distance must be nonnegative and finite")
    return s


def kernel_d4(params: EvalParams, s: float) -> KernelValue:
    """Closed form (a/pi)^(3/2) (s/sinh s) exp(-a s^2 + E) for D = 4."""
    if params.D != 4:
        raise ValueError("kernel_d4 requires D = 4")
    s = _check_s(s)
    a = params.a
    ratio = s / math.sinh(s) if s > 0.0 else 1.0
    value = (a / math.pi) ** 1.5 * ratio * math.exp(-a * s * s + params.E)
    return KernelValue(value, 0.0, 4, s, params.tau)


def kernel_even(params: EvalParams, s: float) -> KernelValue:
    """(-1/(2 pi))^((D-2)/2) G^((D-2)/2)(s) for even D >= 4."""
    if params.D % 2 != 0 or params.D < 4:
        raise ValueError("kernel_even requires even D >= 4")
    s = _check_s(s)
    n = (params.D - 2) // 2
    g = gfunc.expression(n, params.a, params.E)
    value = (-1.0 / (2.0 * math.pi)) ** n * gfunc.evaluate_auto(g, s)
    return KernelValue(value, 0.0, params.D, s, params.tau)


def kernel_odd(params: EvalParams, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> KernelValue:
    """sqrt(2) (-1/(2 pi))^k times the Abel integral of G^(k), k = (D-1)/2, odd D >= 3."""
    if params.D % 2 != 1:
        raise ValueError("kernel_odd requires odd D >= 3")
    s = _check_s(s)
    k = (params.D - 1) // 2
    f = functools.partial(gfunc.evaluate_auto, gfunc.expression(k, params.a, params.E))
    integral, err = integrate_abel(f, s, params.a, spec)
    front = math.sqrt(2.0) * (-1.0 / (2.0 * math.pi)) ** k
    return KernelValue(front * integral, abs(front) * err, params.D, s, params.tau)


def kernel(params: EvalParams, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> KernelValue:
    """Dispatch to the closed form for this dimension.

    A ``NonConvergenceError`` (keeping its value and error estimate) or an
    ``ArithmeticError`` (binary64 overflow) is raised again, as the same
    type, with D, tau, s and the route in its message.
    """
    if params.D == 4:
        route, extra = kernel_d4, ()
    elif params.D % 2 == 0:
        route, extra = kernel_even, ()
    else:
        route, extra = kernel_odd, (spec,)
    try:
        return route(params, s, *extra)
    except (NonConvergenceError, ArithmeticError) as exc:
        msg = f"{exc} at D={params.D}, tau={params.tau!r}, s={float(s)!r} in {route.__name__}"
        if isinstance(exc, NonConvergenceError):
            raise NonConvergenceError(exc.value, exc.err_est, msg) from exc
        raise type(exc)(msg) from exc
