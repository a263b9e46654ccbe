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

``kernel(params, s)`` evaluates one s and raises a numerical failure.
``kernel_row(params, ss)`` evaluates many s at one tau and returns, per s,
the value or the unraised failure.  For odd D the row is one batched Abel
integration, whose nodes gfunc evaluates as arrays; ``kernel`` is a
one-element row, and a value is bit-equal alone or in any row.  Even D
evaluates each s in turn, through the closed forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from . import gfunc
from .quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec, integrate_abel

__all__ = ["EvalParams", "KernelValue", "kernel", "kernel_row", "kernel_d4", "kernel_even", "kernel_odd"]


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


def _located(exc: Exception, params: EvalParams, s: float, route: str) -> Exception:
    """``exc`` again, as the same type, with D, tau, s and the route in its message."""
    msg = f"{exc} at D={params.D}, tau={params.tau!r}, s={float(s)!r} in {route}"
    if isinstance(exc, NonConvergenceError):
        located = NonConvergenceError(exc.value, exc.err_est, msg)
    else:
        located = type(exc)(msg)
    located.__cause__ = exc
    return located


def kernel_row(
    params: EvalParams, ss: Sequence[float], spec: QuadratureSpec = DEFAULT_SPEC
) -> list[KernelValue | Exception]:
    """The kernel at every s of ss, at one tau.

    Per s a KernelValue or, unraised, the located ``NonConvergenceError``
    or ``ArithmeticError`` that ``kernel()`` would raise there.  For odd D
    every s shares one batched Abel integration: sqrt(2) (-1/(2 pi))^k
    times the Abel integral of G^(k), k = (D-1)/2.  A value does not
    depend on the other s in the row.  Even D evaluates each s in turn.
    """
    if params.D % 2 == 0:
        out = []
        for s in ss:
            try:
                out.append(kernel(params, s, spec))
            except (NonConvergenceError, ArithmeticError) as exc:
                out.append(exc)
        return out
    ss = [_check_s(s) for s in ss]
    k = (params.D - 1) // 2
    f = functools.partial(gfunc.evaluate_many, gfunc.expression(k, params.a, params.E))
    front = math.sqrt(2.0) * (-1.0 / (2.0 * math.pi)) ** k
    out = []
    for s, (integral, err, failure) in zip(ss, integrate_abel(f, ss, params.a, spec)):
        if failure is None:
            out.append(KernelValue(front * integral, abs(front) * err, params.D, s, params.tau))
        else:
            out.append(_located(failure, params, s, "kernel_odd"))
    return out


def kernel_odd(params: EvalParams, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> KernelValue:
    """Odd D >= 3 at one s: a one-element ``kernel_row``; raises its located error."""
    if params.D % 2 != 1:
        raise ValueError("kernel_odd requires odd D >= 3")
    (kv,) = kernel_row(params, (s,), spec)
    if isinstance(kv, Exception):
        raise kv
    return kv


def kernel(params: EvalParams, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> KernelValue:
    """Dispatch to the closed form for this dimension.

    A ``NonConvergenceError`` (keeping its value and error estimate) or an
    ``ArithmeticError`` (binary64 overflow) is raised again, as the same
    type, with D, tau, s and the route in its message.
    """
    if params.D % 2 == 1:
        return kernel_odd(params, s, spec)
    route = kernel_d4 if params.D == 4 else kernel_even
    try:
        return route(params, s)
    except (NonConvergenceError, ArithmeticError) as exc:
        raise _located(exc, params, s, route.__name__) from exc
