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

All evaluation runs on one array row of (tau, s) pairs at one D: value
and err_est arrays, and the located failure at each index that failed.
Every entry has its own rate a and shift E; what depends on the rate alone
is built once per row for the row's distinct tau.  D = 4 is one numpy
expression over the row; other even D hand the row to the array evaluator
``gfunc.evaluate_many``, odd D the nodes of batched Abel integrations of up
to 64 entries, each endpoint at its own decay rate.  ``kernel(params, s)``
(one s, failure raised) and ``kernel_row`` (value and err_est arrays, nan
where a sample failed, and the located failures) are views of the row, at
``params.tau`` or at a tau per entry, so a value is bit-equal alone or in
any row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import gfunc
from .quadrature import DEFAULT_SPEC, QuadratureSpec, failure, integrate_abel

__all__ = ["EvalParams", "KernelValue", "kernel", "kernel_row", "kernel_d4", "kernel_even"]

# value, err_est and failed per s of a route's row
_Row = tuple[np.ndarray, np.ndarray, np.ndarray]


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
        return _rate(self, self.tau)

    @property
    def E(self) -> float:
        """Constant exponent shift; zero exactly at D = 3."""
        return _shift(self, self.tau)

    @property
    def kappa(self) -> float:
        """Diffusivity hbar / (2 m) of the associated heat flow."""
        return self.hbar / (2.0 * self.m)

    def with_tau(self, tau: float) -> "EvalParams":
        return EvalParams(self.D, tau, self.m, self.hbar)


def _rate(params: EvalParams, tau):
    """The Gaussian rate m / (2 hbar tau) at tau, a float or an array."""
    return params.m / (2.0 * params.hbar * tau)


def _shift(params: EvalParams, tau):
    """The shift E at tau, a float or an array."""
    return -(params.hbar * (params.D - 1) * (params.D - 3) / (8.0 * params.m)) * tau


@dataclass(frozen=True)
class KernelValue:
    value: float
    err_est: float
    D: int
    s: float
    tau: float


class _Rates(NamedTuple):
    """A row's dimension, the rates a and shifts E of its distinct tau (in
    increasing tau), and each entry's index into them, an int array like
    the row."""

    D: int
    a: np.ndarray
    E: np.ndarray
    which: np.ndarray


def _d4_row(rates: _Rates, ss: np.ndarray, spec: QuadratureSpec) -> _Row:
    """Closed form (a/pi)^(3/2) (s/sinh s) exp(-a s^2 + E) for D = 4."""
    # past s ~ 710.48 sinh overflows and s / sinh s is 0.0: the kernel there,
    # front 2 s exp(-s - a s^2 + E), is below exp(-1300) at any a (a E = -3/16)
    with np.errstate(over="ignore", invalid="ignore"):  # sinh and the front overflow, 0 / sinh 0
        # a scalar power per rate: numpy's array power rounds differently
        front = np.array([x**1.5 for x in rates.a / math.pi])
        front, a, E = (x[rates.which] for x in (front, rates.a, rates.E))
        value = front * np.where(ss > 0.0, ss / np.sinh(ss), 1.0) * np.exp(-a * ss * ss + E)
    return value, np.zeros(len(ss)), np.zeros(len(ss), dtype=bool)


def _even_row(rates: _Rates, ss: np.ndarray, spec: QuadratureSpec) -> _Row:
    """(-1/(2 pi))^n G^(n)(s), n = (D-2)/2, from one ``gfunc.evaluate_many`` call."""
    n = (rates.D - 2) // 2
    g = gfunc.expression(n, rates.a, rates.E)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported by _row
        value = (-1.0 / (2.0 * math.pi)) ** n * gfunc.evaluate_many(g, ss, rates.which)
    return value, np.zeros(len(ss)), np.zeros(len(ss), dtype=bool)


# entries per integrate_abel call, a bound on its node arrays: with none, the
# peak RSS of one certify and table run rose from 36.7 to 50.0 MiB
_ABEL_BATCH = 64


def _odd_row(rates: _Rates, ss: np.ndarray, spec: QuadratureSpec) -> _Row:
    """sqrt(2) (-1/(2 pi))^k times the Abel integral of G^(k), k = (D-1)/2,
    each endpoint at its entry's rate, in calls of up to _ABEL_BATCH entries."""
    k = (rates.D - 1) // 2
    g = gfunc.expression(k, rates.a, rates.E)
    front = math.sqrt(2.0) * (-1.0 / (2.0 * math.pi)) ** k
    (value, err), failed = np.empty((2, len(ss))), np.empty(len(ss), dtype=bool)
    for lo in range(0, len(ss), _ABEL_BATCH):
        batch = slice(lo, lo + _ABEL_BATCH)
        which = rates.which[batch]
        F = lambda s, endpoint: gfunc.evaluate_many(g, s, which[endpoint])
        value[batch], err[batch], failed[batch] = integrate_abel(F, ss[batch], rates.a[which], spec)
    return front * value, abs(front) * err, failed


_ROUTES = {"kernel_d4": _d4_row, "kernel_even": _even_row, "kernel_odd": _odd_row}


def _row(params: EvalParams, tau, ss: np.ndarray, spec: QuadratureSpec, route: str | None = None):
    """The kernel at every (tau, s) pair of tau and the float array ss, by
    the route of params.D or the one named: value and err_est arrays, and
    the located failure at each index that failed, an ``OverflowError``
    where the value is not finite, with D, its entry's tau, s and the route
    in its message and D, tau and s as attributes.  tau is a float, the tau
    of every entry, or a float array like ss.  -0.0 (an underflow under a
    negative front factor) is +0.0."""
    # the minimum is nan if any s is nan
    if not (np.minimum.reduce(ss, initial=0.0) >= 0.0 and np.maximum.reduce(ss, initial=0.0) < math.inf):
        raise ValueError("geodesic distance must be nonnegative and finite")
    if isinstance(tau, np.ndarray):
        taus, which = np.unique(tau, return_inverse=True)
        if taus.size and not (taus[0] > 0.0 and taus[-1] < math.inf):  # nan sorts last
            raise ValueError("tau must be positive and finite")
        which = which.reshape(ss.shape)
    else:  # a row of one rate
        taus, which = np.array([tau], dtype=float), np.zeros(len(ss), dtype=np.intp)
    route = route or ("kernel_d4" if params.D == 4 else "kernel_odd" if params.D % 2 else "kernel_even")
    rates = _Rates(params.D, _rate(params, taus), _shift(params, taus), which)
    value, err, failed = _ROUTES[route](rates, ss, spec)
    value = value + 0.0  # -0.0 + 0.0 is +0.0
    located = {}
    for i in np.flatnonzero(failed | ~np.isfinite(value)).tolist():
        D, t, s = params.D, float(taus[which[i]]), float(ss[i])
        located[i] = exc = failure(float(value[i]), float(err[i]), f"D={D}, tau={t!r}, s={s!r} in {route}")
        exc.D, exc.tau, exc.s = D, t, s
    return value, err, located


def _one(params: EvalParams, s: float, spec: QuadratureSpec, route: str | None = None) -> KernelValue:
    ss = np.array([s], dtype=float)
    value, err, failures = _row(params, params.tau, ss, spec, route)
    if failures:
        raise failures[0]
    return KernelValue(float(value[0]), float(err[0]), params.D, float(ss[0]), params.tau)


def kernel_d4(params: EvalParams, s: float) -> KernelValue:
    """The D = 4 closed form at one s, a one-element row; raises its located error."""
    if params.D != 4:
        raise ValueError("kernel_d4 requires D = 4")
    return _one(params, s, DEFAULT_SPEC, "kernel_d4")


def kernel_even(params: EvalParams, s: float) -> KernelValue:
    """(-1/(2 pi))^((D-2)/2) G^((D-2)/2)(s) for even D >= 4: a one-element
    even row through gfunc, also at D = 4; raises its located error."""
    if params.D % 2 != 0 or params.D < 4:
        raise ValueError("kernel_even requires even D >= 4")
    return _one(params, s, DEFAULT_SPEC, "kernel_even")


def kernel_row(
    params: EvalParams,
    ss: Sequence[float] | np.ndarray,
    spec: QuadratureSpec = DEFAULT_SPEC,
    tau: Sequence[float] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[ArithmeticError]]:
    """The kernel at every s of ss, at params.tau or, given tau (one that
    broadcasts against ss), at the tau of each entry, from one row of the
    distinct (s, tau) pairs.  Returns value and err_est arrays in the
    broadcast shape, and the located ``NonConvergenceError`` or
    ``OverflowError`` that ``kernel()`` would raise at each failing pair,
    in order of s and then tau.  A failed entry's value is nan, so that it
    fails every integral or stencil it enters, and its err_est is its
    failure's (inf for an overflow).  A numerical failure is never raised,
    and a value does not depend on the other entries of the row.
    """
    if tau is None:  # the distinct s
        key = np.asarray(ss, dtype=float)
    else:  # the distinct (s, tau) pairs, as s + i tau, exactly
        key = np.empty(np.broadcast_shapes(np.shape(ss), np.shape(tau)), complex)
        key.real, key.imag = ss, tau
    distinct, inverse = np.unique(key, return_inverse=True)
    row_tau = params.tau if tau is None else distinct.imag
    value, err, located = _row(params, row_tau, distinct.real, spec)
    at = sorted(located)
    failures = [located[i] for i in at]
    value[at], err[at] = math.nan, [exc.err_est for exc in failures]
    inverse = inverse.reshape(key.shape)
    return value[inverse], err[inverse], failures


def kernel(params: EvalParams, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> KernelValue:
    """The kernel at one s: a one-element row.  Raises its located
    ``NonConvergenceError`` or ``OverflowError`` (binary64 overflow), which
    carry the value and error estimate.
    """
    return _one(params, s, spec)
