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
the value or the unraised failure.  Both parities evaluate G^(n) with one
array evaluator, ``gfunc.evaluate_many``: even D hands it the row's s,
odd D the nodes of one batched Abel integration over the row.  ``kernel``
is a one-element row, so a value is bit-equal alone or in any row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import gfunc
from .quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec, integrate_abel

__all__ = ["EvalParams", "KernelValue", "kernel", "kernel_row", "kernel_d4", "kernel_even"]

# (value, err_est, failure or None) per s of a row, before assembly
_RowValues = Iterable[tuple[float, float, Exception | None]]


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
    return KernelValue(_d4_value(params, s), 0.0, 4, s, params.tau)


def _d4_value(params: EvalParams, s: float) -> float:
    a = params.a
    try:
        front = (a / math.pi) ** 1.5
    except OverflowError:  # float ** raises where * would give inf
        raise OverflowError(f"binary64 overflow ((a/pi)^1.5 at a={a!r})") from None
    try:
        ratio = s / math.sinh(s) if s > 0.0 else 1.0
    except OverflowError:
        # past s ~ 710.48, s / sinh s = 2 s exp(-s) to binary64 precision;
        # in one exponent the product underflows to its true value, 0.0
        return front * s * (2.0 * math.exp(-s - a * s * s + params.E))
    return front * ratio * math.exp(-a * s * s + params.E)


def kernel_even(params: EvalParams, s: float) -> KernelValue:
    """(-1/(2 pi))^((D-2)/2) G^((D-2)/2)(s) for even D >= 4: a one-element
    even row through gfunc, also at D = 4; raises its located error."""
    if params.D % 2 != 0 or params.D < 4:
        raise ValueError("kernel_even requires even D >= 4")
    s = _check_s(s)
    return _one(_assemble(params, [s], _even_row(params, [s]), "kernel_even"))


def _located(exc: Exception, params: EvalParams, s: float, route: str) -> Exception:
    """``exc`` again, as the same type, with D, tau, s and the route in its message."""
    msg = f"{exc} at D={params.D}, tau={params.tau!r}, s={float(s)!r} in {route}"
    if isinstance(exc, NonConvergenceError):
        located = NonConvergenceError(exc.value, exc.err_est, msg)
    else:
        located = type(exc)(msg)
    located.__cause__ = exc
    return located


def _d4_row(params: EvalParams, ss: list[float]) -> _RowValues:
    for s in ss:
        try:
            yield _d4_value(params, s), 0.0, None
        except ArithmeticError as exc:
            yield math.nan, 0.0, exc


def _even_row(params: EvalParams, ss: list[float]) -> _RowValues:
    n = (params.D - 2) // 2
    g = gfunc.expression(n, params.a, params.E)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (-1.0 / (2.0 * math.pi)) ** n * gfunc.evaluate_many(g, np.array(ss))
    return ((v, 0.0, None) for v in values.tolist())


def _odd_row(params: EvalParams, ss: list[float], spec: QuadratureSpec) -> _RowValues:
    k = (params.D - 1) // 2
    f = functools.partial(gfunc.evaluate_many, gfunc.expression(k, params.a, params.E))
    front = math.sqrt(2.0) * (-1.0 / (2.0 * math.pi)) ** k
    for v, err, failure in integrate_abel(f, ss, params.a, spec):
        v, err = front * v, abs(front) * err
        if isinstance(failure, NonConvergenceError):  # it carries the Abel integral's
            failure = NonConvergenceError(v, err)
        yield v, err, failure


def _assemble(
    params: EvalParams, ss: list[float], row: _RowValues, route: str
) -> list[KernelValue | Exception]:
    """A KernelValue, or the located failure, per (value, err_est, failure) of a row.

    A value that is not finite becomes an ``OverflowError``; one that
    underflowed to -0.0 under a negative front factor becomes +0.0.
    """
    out = []
    for s, (value, err, failure) in zip(ss, row):
        if failure is None and not math.isfinite(value):
            failure = OverflowError(f"binary64 overflow (value {value!r})")
        if failure is None:
            out.append(KernelValue(value + 0.0, err, params.D, s, params.tau))  # -0.0 + 0.0 is +0.0
        else:
            out.append(_located(failure, params, s, route))
    return out


def _one(row: list[KernelValue | Exception]) -> KernelValue:
    (kv,) = row
    if isinstance(kv, Exception):
        raise kv
    return kv


def kernel_row(
    params: EvalParams, ss: Sequence[float], spec: QuadratureSpec = DEFAULT_SPEC
) -> list[KernelValue | Exception]:
    """The kernel at every s of ss, at one tau.

    Per s a KernelValue or, unraised, the located ``NonConvergenceError``
    or ``ArithmeticError`` that ``kernel()`` would raise there.  D = 4
    evaluates its closed form at each s in turn.  Any other even D is
    (-1/(2 pi))^n times one ``gfunc.evaluate_many`` call over the row,
    n = (D-2)/2.  Odd D shares one batched Abel integration over the row:
    sqrt(2) (-1/(2 pi))^k times the Abel integral of G^(k), k = (D-1)/2.
    A value does not depend on the other s in the row.
    """
    ss = [_check_s(s) for s in ss]
    if params.D == 4:
        return _assemble(params, ss, _d4_row(params, ss), "kernel_d4")
    if params.D % 2 == 0:
        return _assemble(params, ss, _even_row(params, ss), "kernel_even")
    return _assemble(params, ss, _odd_row(params, ss, spec), "kernel_odd")


def kernel(params: EvalParams, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> KernelValue:
    """The kernel at one s: a one-element ``kernel_row``.

    A ``NonConvergenceError`` (keeping its value and error estimate) or an
    ``ArithmeticError`` (binary64 overflow) is raised again, as the same
    type, with D, tau, s and the route in its message.
    """
    return _one(kernel_row(params, (s,), spec))
