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
``gfunc.evaluate_many``, odd D the nodes of one batched Abel integration,
each endpoint at its own decay rate.  ``kernel(params, s)`` (one s,
failure raised), ``kernel_row`` (per entry the value or the unraised
failure) and ``kernel_array`` (the values as an array) are views of the
row, at ``params.tau`` or at a tau per entry, so a value is bit-equal
alone or in any row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import gfunc
from .quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec, integrate_abel

__all__ = ["EvalParams", "KernelValue", "SAMPLED_SPEC", "kernel", "kernel_row", "kernel_array", "kernel_d4",
           "kernel_even"]

# the spec of kernels sampled in the integrands and stencils of verify and lattice
SAMPLED_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-18)

# value and err_est per s of a row, and the failure at each index that failed
_Row = tuple[np.ndarray, np.ndarray, dict[int, Exception]]


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
    def beta(self) -> float:
        """(hbar^2 / 4 m^2) (D-1)(D-3)."""
        return (self.hbar**2 / (4.0 * self.m**2)) * (self.D - 1) * (self.D - 3)

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
    front, failures = [], {}
    for r, a in enumerate(rates.a.tolist()):
        try:
            front.append((a / math.pi) ** 1.5)
        except OverflowError:  # float ** raises where * would give inf; every entry at a fails
            front.append(math.nan)
            exc = OverflowError(f"binary64 overflow ((a/pi)^1.5 at a={a!r})")
            failures.update(dict.fromkeys(np.flatnonzero(rates.which == r).tolist(), exc))
    front, a, E = (x[rates.which] for x in (np.array(front), rates.a, rates.E))
    # past s ~ 710.48 sinh overflows and s / sinh s is 0.0: the kernel there,
    # front 2 s exp(-s - a s^2 + E), is below exp(-1300) at any a (a E = -3/16)
    with np.errstate(over="ignore", invalid="ignore"):  # sinh overflows, 0 / sinh 0
        value = front * np.where(ss > 0.0, ss / np.sinh(ss), 1.0) * np.exp(-a * ss * ss + E)
    return value, np.zeros(len(ss)), failures


def _even_row(rates: _Rates, ss: np.ndarray, spec: QuadratureSpec) -> _Row:
    """(-1/(2 pi))^n G^(n)(s), n = (D-2)/2, from one ``gfunc.evaluate_many`` call."""
    n = (rates.D - 2) // 2
    g = gfunc.expression(n, rates.a, rates.E)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported by _row
        value = (-1.0 / (2.0 * math.pi)) ** n * gfunc.evaluate_many(g, ss, rates.which)
    return value, np.zeros(len(ss)), {}


def _odd_row(rates: _Rates, ss: np.ndarray, spec: QuadratureSpec) -> _Row:
    """sqrt(2) (-1/(2 pi))^k times the Abel integral of G^(k), k = (D-1)/2,
    in one batch, each endpoint at its entry's rate."""
    k = (rates.D - 1) // 2
    g = gfunc.expression(k, rates.a, rates.E)
    front = math.sqrt(2.0) * (-1.0 / (2.0 * math.pi)) ** k
    which = rates.which
    F = lambda s, endpoint: gfunc.evaluate_many(g, s, which[endpoint])
    value, err, failures = integrate_abel(F, ss, rates.a[which], spec)
    value, err = front * value, abs(front) * err
    for i, failure in failures.items():
        if isinstance(failure, NonConvergenceError):  # it carries the Abel integral's
            failures[i] = NonConvergenceError(float(value[i]), float(err[i]), halvings=failure.halvings)
    return value, err, failures


_ROUTES = {"kernel_d4": _d4_row, "kernel_even": _even_row, "kernel_odd": _odd_row}


def _located(exc: Exception, D: int, tau: float, s: float, route: str) -> Exception:
    """``exc`` again, as the same type, with D, tau, s and the route in its
    message, and D, tau and s as attributes (and a NonConvergenceError's
    value, err_est and halvings)."""
    msg = f"{exc} at D={D}, tau={tau!r}, s={s!r} in {route}"
    if isinstance(exc, NonConvergenceError):
        located = NonConvergenceError(exc.value, exc.err_est, msg, exc.halvings)
    else:
        located = type(exc)(msg)
    located.D, located.tau, located.s = D, tau, s
    located.__cause__ = exc
    return located


def _row(params: EvalParams, tau, ss: np.ndarray, spec: QuadratureSpec, route: str | None = None) -> _Row:
    """The kernel at every (tau, s) pair of tau and the float array ss, by
    the route of params.D or the one named: value and err_est arrays, and
    the located failure at each index that failed, an ``OverflowError``
    where the value is not finite.  tau is a float, the tau of every entry,
    or a float array like ss.  -0.0 (an underflow under a negative front
    factor) is +0.0."""
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
    value, err, failures = _ROUTES[route](rates, ss, spec)
    value = value + 0.0  # -0.0 + 0.0 is +0.0
    finite = np.isfinite(value)
    if np.count_nonzero(finite) < len(value):
        for i in np.flatnonzero(~finite).tolist():
            failures.setdefault(i, OverflowError(f"binary64 overflow (value {float(value[i])!r})"))
    return value, err, {
        i: _located(exc, params.D, float(taus[which[i]]), float(ss[i]), route)
        for i, exc in failures.items()
    }


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
    ss: Sequence[float],
    spec: QuadratureSpec = DEFAULT_SPEC,
    tau: Sequence[float] | None = None,
) -> list[KernelValue | Exception]:
    """The kernel at every s of ss, at params.tau or, given tau (a sequence
    like ss), at the tau of each entry: per entry a KernelValue or,
    unraised, the located ``NonConvergenceError`` or ``ArithmeticError``
    that ``kernel()`` would raise there.  A value does not depend on the
    other entries of the row.
    """
    ss = np.asarray(ss, dtype=float)
    tau = params.tau if tau is None else np.broadcast_to(np.asarray(tau, dtype=float), ss.shape)
    value, err, failures = _row(params, tau, ss, spec)
    D = params.D
    taus = np.broadcast_to(tau, ss.shape).tolist()
    return [
        failures[i] if i in failures else KernelValue(v, e, D, s, t)
        for i, (s, t, v, e) in enumerate(zip(ss.tolist(), taus, value.tolist(), err.tolist()))
    ]


def kernel_array(params: EvalParams, ss: np.ndarray, tau: np.ndarray | None = None) -> np.ndarray:
    """``kernel(params.with_tau(t), s, SAMPLED_SPEC).value`` for each s of an
    array, at t = params.tau or, given tau (an array that broadcasts against
    ss), at each entry's tau, as an array of their broadcast shape, from one
    row of the distinct (s, tau) pairs and with no ``KernelValue``; raises
    the failure at the smallest failing s (of those, the smallest tau).
    """
    if tau is None:  # the distinct s
        key = ss
    else:  # the distinct (s, tau) pairs, as s + i tau, exactly
        key = np.empty(np.broadcast_shapes(np.shape(ss), np.shape(tau)), complex)
        key.real, key.imag = ss, tau
    distinct, inverse = np.unique(key, return_inverse=True)
    row_tau = params.tau if tau is None else distinct.imag
    value, _, failures = _row(params, row_tau, distinct.real, SAMPLED_SPEC)
    if failures:
        raise failures[min(failures)]
    return value[inverse].reshape(key.shape)


def kernel(params: EvalParams, s: float, spec: QuadratureSpec = DEFAULT_SPEC) -> KernelValue:
    """The kernel at one s: a one-element row.  Raises its located
    ``NonConvergenceError`` (keeping the value and error estimate) or
    ``ArithmeticError`` (binary64 overflow).
    """
    return _one(params, s, spec)
