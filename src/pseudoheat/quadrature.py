"""Deterministic quadrature for Gaussian-decay radial integrands.

Two rules.  An adaptive embedded Gauss-Legendre 10/21 pair bisects the
worst interval; semi-infinite domains are truncated where the decay
envelope drops below exp(-sigma^2/2), with the tail bound folded into the
error estimate.  The Abel integral int F(arccosh l) (l - l0)^(-1/2) dl of
the odd-dimensional kernels is a trapezoidal rule in t, l = l0 + sinh^2 t,
refined by halving the step.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "NonConvergenceError",
    "integrate_finite",
    "integrate_semi_infinite",
    "integrate_abel",
    "abel_identity_check",
]

_NODES_LO, _WEIGHTS_LO = (tuple(map(float, a)) for a in np.polynomial.legendre.leggauss(10))
_NODES_HI, _WEIGHTS_HI = (tuple(map(float, a)) for a in np.polynomial.legendre.leggauss(21))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for one integral."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14
    max_subdivisions: int = 60
    truncation_sigma: float = 12.0

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if self.truncation_sigma <= 0.0:
            raise ValueError("truncation_sigma must be positive")


DEFAULT_SPEC = QuadratureSpec()


class NonConvergenceError(RuntimeError):
    """Subdivision budget exhausted with the error estimate above tolerance."""

    def __init__(self, value: float, err_est: float, message: str = ""):
        super().__init__(message or f"quadrature did not converge (err_est={err_est:g})")
        self.value = value
        self.err_est = err_est


def _rule(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    hi_sum = 0.0
    for x, w in zip(_NODES_HI, _WEIGHTS_HI):
        hi_sum += w * f(mid + half * x)
    lo_sum = 0.0
    for x, w in zip(_NODES_LO, _WEIGHTS_LO):
        lo_sum += w * f(mid + half * x)
    value = half * hi_sum
    err = abs(half * (hi_sum - lo_sum)) + 1e-16 * abs(value)
    return value, err


def integrate_finite(
    f: Callable[[float], float],
    breakpoints: list[float] | tuple[float, ...],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """Adaptive integration over [breakpoints[0], breakpoints[-1]].

    Interior breakpoints seed the subdivision (useful when most of the mass
    sits near one end of a long interval).  Deterministic: the worst
    interval (largest error estimate, ties broken by insertion order) is
    bisected until the summed estimate meets the tolerance.
    """
    pts = [float(b) for b in breakpoints]
    if len(pts) < 2 or any(b >= c for b, c in zip(pts, pts[1:])):
        raise ValueError("breakpoints must be strictly increasing with at least 2 entries")
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(pts, pts[1:]):
        v, e = _rule(f, lo, hi)
        heapq.heappush(heap, (-e, counter, lo, hi, v))
        counter += 1
        total += v
        total_err += e
    splits = 0
    resolution_err = 0.0  # estimates stuck at float resolution, kept in the total
    while total_err > max(spec.rel_tol * abs(total), spec.abs_tol):
        if splits >= spec.max_subdivisions or not heap:
            raise NonConvergenceError(total, total_err)
        neg_e, _, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at float resolution: its estimate cannot improve;
            # move it out of the work queue so the loop terminates
            resolution_err += -neg_e
            total_err += neg_e
            if resolution_err > max(spec.rel_tol * abs(total), spec.abs_tol):
                raise NonConvergenceError(total, total_err + resolution_err)
            continue
        v1, e1 = _rule(f, lo, mid)
        v2, e2 = _rule(f, mid, hi)
        total += v1 + v2 - v
        total_err += e1 + e2 + neg_e  # neg_e = -(old error)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
        splits += 1
    return total, total_err + resolution_err


def _geometric_breakpoints(lo: float, hi: float, n_halvings: int = 6) -> list[float]:
    """lo plus the points lo + span/2^k, concentrating panels near lo."""
    span = hi - lo
    pts = [lo]
    for k in range(n_halvings, 0, -1):
        cand = lo + span / float(2**k)
        if cand > pts[-1]:
            pts.append(cand)
    if hi > pts[-1]:
        pts.append(hi)
    return pts


def gaussian_cutoff(lower: float, decay_rate: float, sigma: float, linear_growth: float = 0.0) -> float:
    """Upper limit T where the envelope exp(-rate t^2 + growth t) has dropped
    by exp(-sigma^2/2) relative to its maximum over [max(lower, 0), inf)."""
    l0 = max(lower, 0.0)
    peak = max(l0, 0.5 * linear_growth / decay_rate)
    target = decay_rate * peak * peak - linear_growth * peak + 0.5 * sigma * sigma
    t = (linear_growth + math.sqrt(linear_growth * linear_growth + 4.0 * decay_rate * target)) / (
        2.0 * decay_rate
    )
    return max(t, lower + 1.0 / math.sqrt(decay_rate))


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    decay_rate: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    linear_growth: float = 0.0,
) -> tuple[float, float]:
    """Integral of f over [lower, inf) for |f| <= C exp(-rate t^2 + growth t).

    The domain is truncated where the envelope has fallen by
    exp(-truncation_sigma^2/2) relative to the lower endpoint; an envelope
    tail bound is added to the returned error estimate.
    """
    if decay_rate <= 0.0:
        raise ValueError("decay_rate must be positive")
    cutoff = gaussian_cutoff(lower, decay_rate, spec.truncation_sigma, linear_growth)
    value, err = integrate_finite(f, _geometric_breakpoints(lower, cutoff), spec)
    denom = 2.0 * decay_rate * cutoff - linear_growth
    tail = abs(f(cutoff)) / denom if denom > 0.0 else abs(f(cutoff))
    return value, err + tail


# integrate_abel stretches its tail by t = T sinh(u/T).  Up to t ~ 1, where
# a moderate-tau integrand lives, the Jacobian cosh(u/T) stays below 1.03, so
# the trapezoid keeps its geometric rate; beyond t ~ T the map is logarithmic,
# so tau = 300 (t_max ~ 150) ends at u ~ 17 and the node count stays bounded.
_ABEL_STRETCH = 4.0
_ABEL_MAX_HALVINGS = 6
# rounding of a node value per unit of 1 + a s^2: an error eps s in s
# becomes 2 a s^2 eps in exp(-a s^2)
_ABEL_ROUNDING = 2.0 * sys.float_info.epsilon


def integrate_abel(
    F: Callable[[float], float],
    d: float,
    decay_rate: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """Integral of F(arccosh l) (l - cosh d)^(-1/2) over l in [cosh d, inf).

    F must decay like exp(-decay_rate s^2) in s = arccosh l.  With
    l = cosh d + sinh^2 t the integrand, 2 F cosh t, is even, decays like a
    Gaussian and is analytic in |Im t| < pi/2, so the trapezoidal rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  It
    runs in u, t = T sinh(u/T) (after Takahasi & Mori, 1974), from the step
    min(0.2, 0.25/sqrt(decay_rate)), halving it until |I_h - I_2h| plus a
    rounding floor meets the tolerance; I_2h reuses the nodes of I_h.
    """
    if d < 0.0:
        raise ValueError("lower endpoint must be nonnegative")
    if decay_rate <= 0.0:
        raise ValueError("decay_rate must be positive")
    s_max = gaussian_cutoff(d, decay_rate, spec.truncation_sigma)
    # sinh^2 t_max = cosh s_max - cosh d, in product form
    t_max = math.asinh(math.sqrt(2.0 * math.sinh(0.5 * (s_max + d)) * math.sinh(0.5 * (s_max - d))))
    u_max = _ABEL_STRETCH * math.asinh(t_max / _ABEL_STRETCH)
    w_d = 2.0 * math.sinh(0.5 * d) ** 2  # cosh d - 1

    def node_sum(us) -> tuple[float, float, float]:
        """Integrand summed over us, unweighted and weighted by 1 + a s^2; last value."""
        total = weighted = v = 0.0
        for u in us:
            x = math.sinh(u / _ABEL_STRETCH)
            t = _ABEL_STRETCH * x
            sh = math.sinh(t)
            w = w_d + sh * sh  # l - 1
            s = math.log1p(w + math.sqrt(w) * math.sqrt(w + 2.0))
            v = 2.0 * F(s) * math.cosh(t) * math.sqrt(1.0 + x * x)
            total += v
            weighted += abs(v) * (1.0 + decay_rate * s * s)
        return total, weighted, v

    # the first step h0 on an even node count, so that the 2h0 grid is a subset
    n = 2 * math.ceil(0.5 * u_max / min(0.2, 0.25 / math.sqrt(decay_rate)))
    h = u_max / n
    origin, origin_weighted, _ = node_sum((0.0,))
    total, weighted, last = node_sum(j * h for j in range(2, n + 1, 2))
    total += 0.5 * origin
    weighted += 0.5 * origin_weighted
    value = 2.0 * h * total
    for _ in range(_ABEL_MAX_HALVINGS + 1):
        more, more_weighted, _ = node_sum(j * h for j in range(1, n, 2))
        total += more
        weighted += more_weighted
        coarse, value = value, h * total
        # the node at u_max bounds the truncated tail
        err = abs(value - coarse) + h * (_ABEL_ROUNDING * weighted + abs(last))
        if err <= max(spec.rel_tol * abs(value), spec.abs_tol):
            return value, err
        h *= 0.5
        n *= 2
    raise NonConvergenceError(value, err)


def abel_identity_check(
    f: Callable[[float], float],
    u: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    decay_rate: float = 1.0,
) -> tuple[float, float, float]:
    """Both sides of the half-order double-integral collapse identity.

    lhs = int_u^inf dl (l-u)^(-1/2) int_l^inf dk f(k) (k-l)^(-1/2)
    rhs = pi * int_u^inf f(k) dk

    for f with |f(k)| <= C exp(-decay_rate k).  Returns (lhs, rhs,
    |lhs - rhs| / |rhs|).  Engine self-test; both inverse-square-root
    layers are regularized by the substitutions k = l + w^2 and l = u + v^2.
    """
    if u < 1.0:
        raise ValueError("u must be at least 1")
    if decay_rate <= 0.0:
        raise ValueError("decay_rate must be positive")

    def inner(l: float) -> float:
        value, _ = integrate_semi_infinite(lambda w: f(l + w * w), 0.0, decay_rate, spec)
        return 2.0 * value

    lhs_half, _ = integrate_semi_infinite(lambda v: inner(u + v * v), 0.0, decay_rate, spec)
    lhs = 2.0 * lhs_half
    rhs_half, _ = integrate_semi_infinite(lambda w: w * f(u + w * w), 0.0, decay_rate, spec)
    rhs = 2.0 * math.pi * rhs_half
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)
