"""Deterministic quadrature for Gaussian-decay radial integrands.

Two rules.  An adaptive embedded Gauss-Legendre 10/21 pair bisects the
worst interval; semi-infinite domains are truncated where the decay
envelope drops below exp(-sigma^2/2), with the tail bound folded into the
error estimate; its integrand gets the nodes of every panel it opens in
one call.  The Abel integral int F(arccosh l) (l - l0)^(-1/2) dl of the
odd-dimensional kernels is a trapezoidal rule in t, l = l0 + sinh^2 t,
refined by halving the step.

The Abel rule works on arrays: it takes many lower endpoints l0 = cosh d
and hands the integrand F the nodes of all of them that have not yet
converged as one float array per halving.  Each endpoint keeps its own
steps, convergence test and error estimate, and gets back its own value or
failure, so one endpoint that does not converge does not fail the others.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

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


# one panel's nodes, high-order rule first; each panel is summed in this order
_NODES = _NODES_HI + _NODES_LO


def _rules(
    f: Callable[[list[float]], Sequence[float]], panels: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """(value, err) of the 10/21 pair on each (lo, hi), from one call of f on all their nodes."""
    nodes = []
    for lo, hi in panels:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes += [mid + half * x for x in _NODES]
    fx = f(nodes)
    if len(fx) != len(nodes):
        raise ValueError(f"integrand returned {len(fx)} values for {len(nodes)} nodes")
    values = iter(fx)  # zip stops on the weights, so each loop takes its own nodes
    out = []
    for lo, hi in panels:
        half = 0.5 * (hi - lo)
        hi_sum = 0.0
        for w, y in zip(_WEIGHTS_HI, values):
            hi_sum += w * y
        lo_sum = 0.0
        for w, y in zip(_WEIGHTS_LO, values):
            lo_sum += w * y
        value = half * hi_sum
        err = abs(half * (hi_sum - lo_sum)) + 1e-16 * abs(value)
        out.append((value, err))
    return out


def integrate_finite(
    f: Callable[[list[float]], Sequence[float]],
    breakpoints: list[float] | tuple[float, ...],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[float, float]:
    """Adaptive integration over [breakpoints[0], breakpoints[-1]].

    f takes a list of nodes and returns their values, in order, as a
    sequence of floats.  The first call holds the 31 nodes of every seed
    panel, each later call the nodes of both halves of one bisection, so an
    integrand that evaluates many points at once (``kernels.kernel_row``)
    sees them together.  A scalar integrand g is passed as
    ``lambda xs: [g(x) for x in xs]``.

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
    seeds = list(zip(pts, pts[1:]))
    for (lo, hi), (v, e) in zip(seeds, _rules(f, seeds)):
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
        (v1, e1), (v2, e2) = _rules(f, [(lo, mid), (mid, hi)])
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
    f: Callable[[list[float]], Sequence[float]],
    lower: float,
    decay_rate: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    linear_growth: float = 0.0,
) -> tuple[float, float]:
    """Integral of f over [lower, inf) for |f| <= C exp(-rate t^2 + growth t).

    f takes a list of nodes and returns their values, as for
    ``integrate_finite``.  The domain is truncated where the envelope has
    fallen by exp(-truncation_sigma^2/2) relative to the lower endpoint; an
    envelope tail bound is added to the returned error estimate.
    """
    if decay_rate <= 0.0:
        raise ValueError("decay_rate must be positive")
    cutoff = gaussian_cutoff(lower, decay_rate, spec.truncation_sigma, linear_growth)
    value, err = integrate_finite(f, _geometric_breakpoints(lower, cutoff), spec)
    denom = 2.0 * decay_rate * cutoff - linear_growth
    (f_cut,) = f([cutoff])
    tail = abs(f_cut) / denom if denom > 0.0 else abs(f_cut)
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


# lower endpoints per pass of integrate_abel: bounds its node arrays (a few
# MB if every point of a pass runs all halvings, far less as a rule) while
# a table row, or a good part of a verify radial grid, shares each pass
_ABEL_BATCH = 64


def _abel_grid(d: float, decay_rate: float, h_base: float, spec: QuadratureSpec) -> tuple[float, int, float]:
    """First step h0 and even node count n (h0 n = u_max) of one endpoint, and cosh d - 1."""
    s_max = gaussian_cutoff(d, decay_rate, spec.truncation_sigma)
    # sinh^2 t_max = cosh s_max - cosh d, in product form
    t_max = math.asinh(math.sqrt(2.0 * math.sinh(0.5 * (s_max + d)) * math.sinh(0.5 * (s_max - d))))
    u_max = _ABEL_STRETCH * math.asinh(t_max / _ABEL_STRETCH)
    # an even node count, so that the 2h0 grid is a subset of the h0 grid
    n = 2 * math.ceil(0.5 * u_max / h_base)
    return u_max / n, n, 2.0 * math.sinh(0.5 * d) ** 2


def _abel_nodes(F, u_stretched: np.ndarray, w_d, decay_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrand at the nodes u = T u_stretched of endpoints with cosh d - 1 = w_d
    (per node, or one float for all); and it weighted by 1 + a s^2."""
    x = np.sinh(u_stretched)
    t = _ABEL_STRETCH * x
    sh = np.sinh(t)
    w = w_d + sh * sh  # l - 1
    # two square roots: w (w + 2) overflows where cosh s_max is ~1e233 (tau ~ 1000)
    s = np.log1p(w + np.sqrt(w) * np.sqrt(w + 2.0))
    v = 2.0 * F(s) * np.cosh(t) * np.hypot(1.0, x)
    return v, np.abs(v) * (1.0 + decay_rate * s * s)


def _abel_sums(F, us: list, w_ds: list, decay_rate: float, cuts: list[int]) -> tuple[list, list, np.ndarray]:
    """Evaluate the node arrays us (each of one endpoint, u / T, cosh d - 1 = w_ds[i])
    in one call of F; sum the integrand, and it weighted, over the segments
    that start at cuts in their concatenation."""
    if len(us) == 1:
        v, vw = _abel_nodes(F, us[0], w_ds[0], decay_rate)
    else:
        v, vw = _abel_nodes(F, np.concatenate(us), np.repeat(w_ds, [len(u) for u in us]), decay_rate)
    return np.add.reduceat(v, cuts).tolist(), np.add.reduceat(vw, cuts).tolist(), v


def integrate_abel(
    F: Callable[[np.ndarray], np.ndarray],
    ds: Sequence[float],
    decay_rate: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[tuple[float, float, Exception | None]]:
    """Integral of F(arccosh l) (l - cosh d)^(-1/2) over l in [cosh d, inf), for each d in ds.

    F maps a float array of s = arccosh l to its values and must decay
    like exp(-decay_rate s^2).  With l = cosh d + sinh^2 t the integrand,
    2 F cosh t, is even, decays like a Gaussian and is analytic in
    |Im t| < pi/2, so the trapezoidal rule converges geometrically
    (Trefethen & Weideman, SIAM Rev. 56, 2014).  It runs in u,
    t = T sinh(u/T) (after Takahasi & Mori, 1974), from the step
    min(0.2, 0.25/sqrt(decay_rate)), halving it until |I_h - I_2h| plus a
    rounding floor meets the tolerance; I_2h reuses the nodes of I_h.

    Each pass hands F, as one array, the new nodes of every endpoint not
    yet converged, for up to _ABEL_BATCH endpoints at a time; each
    endpoint stops on its own test.  If F evaluates each entry
    independently of the others, an endpoint's result does not depend on
    the other endpoints.  Returns (value, err_est, failure) per endpoint:
    failure is None, or an unraised NonConvergenceError (value and
    err_est after the last halving) or OverflowError.
    """
    ds = [float(d) for d in ds]
    if any(d < 0.0 for d in ds):
        raise ValueError("lower endpoint must be nonnegative")
    if decay_rate <= 0.0:
        raise ValueError("decay_rate must be positive")
    out = []
    # an overflow leaves a non-finite sum, which is reported for its endpoint
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(ds), _ABEL_BATCH):
            out.extend(_abel_pass(F, ds[lo : lo + _ABEL_BATCH], decay_rate, spec))
    return out


@dataclass(slots=True)
class _AbelPoint:
    """One endpoint's running trapezoid state: step h over n intervals,
    sums of the integrand and of it weighted by 1 + a s^2, latest value and
    its error estimate, and the tail-bounding node value at u_max."""

    index: int
    h: float
    n: int
    w_d: float  # cosh d - 1
    total: float = 0.0
    weighted: float = 0.0
    value: float = 0.0
    err: float = 0.0
    last: float = 0.0


def _abel_pass(F, ds: list[float], decay_rate: float, spec: QuadratureSpec) -> list:
    out: list = [None] * len(ds)
    h_base = min(0.2, 0.25 / math.sqrt(decay_rate))
    live = []
    for i, d in enumerate(ds):
        try:
            live.append(_AbelPoint(i, *_abel_grid(d, decay_rate, h_base, spec)))
        except ArithmeticError as exc:
            out[i] = (math.nan, math.inf, exc)
    if not live:
        return out
    # the whole h0 grid in one pass; per endpoint its origin, its even
    # nodes (the 2h0 grid) and its odd nodes, in that order
    us, cuts, ends, offset = [], [], [], 0
    for pt in live:
        j = np.arange(pt.n + 1)
        # u / T, as (j h) / T is j (h / T) exactly: T is a power of two
        us.append(np.concatenate((j[::2], j[1::2])) * (pt.h / _ABEL_STRETCH))
        cuts += (offset, offset + 1, offset + 1 + pt.n // 2)
        ends.append(offset + pt.n // 2)
        offset += pt.n + 1
    sums, wsums, v = _abel_sums(F, us, [pt.w_d for pt in live], decay_rate, cuts)
    for k, pt in enumerate(live):
        origin, evens, _ = sums[3 * k : 3 * k + 3]
        origin_w, evens_w, _ = wsums[3 * k : 3 * k + 3]
        pt.total = evens + 0.5 * origin
        pt.weighted = evens_w + 0.5 * origin_w
        pt.value = 2.0 * pt.h * pt.total
        pt.last = float(v[ends[k]])  # the node at u_max bounds the truncated tail
    more, more_w = sums[2::3], wsums[2::3]

    for level in range(_ABEL_MAX_HALVINGS + 1):
        if level:
            # halve every step; the new nodes are the odd ones of the finer grid
            us, cuts, offset = [], [], 0
            for pt in live:
                pt.h *= 0.5
                pt.n *= 2
                us.append(np.arange(1, pt.n, 2) * (pt.h / _ABEL_STRETCH))
                cuts.append(offset)
                offset += pt.n // 2
            more, more_w, _ = _abel_sums(F, us, [pt.w_d for pt in live], decay_rate, cuts)
        unfinished = []
        for pt, m, m_w in zip(live, more, more_w):
            pt.total += m
            pt.weighted += m_w
            coarse, pt.value = pt.value, pt.h * pt.total
            pt.err = abs(pt.value - coarse) + pt.h * (_ABEL_ROUNDING * pt.weighted + abs(pt.last))
            if not (math.isfinite(pt.total) and math.isfinite(pt.weighted)):
                out[pt.index] = (pt.value, pt.err, OverflowError("integrand overflowed binary64"))
            elif pt.err <= max(spec.rel_tol * abs(pt.value), spec.abs_tol):
                out[pt.index] = (pt.value, pt.err, None)
            else:
                unfinished.append(pt)
        live = unfinished
        if not live:
            return out
    for pt in live:
        out[pt.index] = (pt.value, pt.err, NonConvergenceError(pt.value, pt.err))
    return out


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

    def semi_infinite(g: Callable[[float], float]) -> float:
        value, _ = integrate_semi_infinite(lambda xs: [g(x) for x in xs], 0.0, decay_rate, spec)
        return value

    inner = lambda l: 2.0 * semi_infinite(lambda w: f(l + w * w))
    lhs = 2.0 * semi_infinite(lambda v: inner(u + v * v))
    rhs_half = semi_infinite(lambda w: w * f(u + w * w))
    rhs = 2.0 * math.pi * rhs_half
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)
