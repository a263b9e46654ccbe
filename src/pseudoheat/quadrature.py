"""Deterministic trapezoidal quadrature for analytic, Gaussian-decay integrands.

One rule: the trapezoid in a mapped variable, refined by halving the step,
with |I_h - I_2h| plus a rounding floor as its error estimate.  The
integrands here are analytic, so the rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014), and the 2h grid is a subset of
the h grid, so every halving evaluates only the new nodes.

* ``integrate_tanh_sinh``: a finite interval through the tanh-sinh map
  (Takahasi & Mori, 1974), whose nodes crowd both endpoints, so the rate
  does not depend on how the integrand behaves there.  Semi-infinite
  Gaussian-decay integrals are truncated first, at ``gaussian_cutoff``.
* ``integrate_periodic``: the plain trapezoid on [lo, hi] for an integrand
  whose even extension about lo has period 2 (hi - lo); spectral there.
* ``integrate_abel``: the Abel integral int F(arccosh l) (l - l0)^(-1/2) dl
  of the odd-dimensional kernels, a trapezoidal rule in t, l = l0 +
  sinh^2 t.

Every integrand takes a float array of nodes and returns their values as
one array.  The Abel rule takes many lower endpoints l0 = cosh d and hands
the integrand F the nodes of all of them that have not yet converged as
one float array per halving.  Each endpoint keeps its own steps,
convergence test and error estimate, and gets back its own value or
failure, so one endpoint that does not converge does not fail the others.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "NonConvergenceError",
    "integrate_tanh_sinh",
    "integrate_periodic",
    "integrate_abel",
    "abel_identity_check",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for one integral: it converges when its error estimate is
    at most max(rel_tol |value|, abs_tol)."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")


DEFAULT_SPEC = QuadratureSpec()

# a Gaussian-decay integrand is cut where its envelope has dropped by
# exp(-TRUNCATION_SIGMA^2 / 2), 5.4e-32 of its peak
TRUNCATION_SIGMA = 12.0


class NonConvergenceError(RuntimeError):
    """Halving budget exhausted with the error estimate above tolerance."""

    def __init__(self, value: float, err_est: float, message: str = ""):
        # err_est is an array where many integrals ran at once
        super().__init__(message or f"quadrature did not converge (err_est={np.max(err_est):g})")
        self.value = value
        self.err_est = err_est


# tanh-sinh runs its trapezoid over t in [-3, 3], from the step 1/8: the
# integrands of verify and lattice stop at 1/16 or 1/32, so a coarser start
# would only add passes over them.  At |t| = 3 a node lies 4.6e-14
# half-widths from its endpoint; the part of the integral cut off there is
# bounded by twice that gap times |f| at the node (an integrable
# singularity up to |x - lo|^(-1/2) included), which is the node's weight
# dx/dt times 2 / (pi cosh 3)
_TS_T_MAX = 3.0
_TS_STEP = 0.125
_TS_TAIL = 2.0 / (math.pi * math.cosh(_TS_T_MAX))
# intervals of the first periodic trapezoid
_PERIODIC_INTERVALS = 16
# halvings after the first grid: h = 1/256 in t, 512 periodic intervals
_MAX_HALVINGS = 5
# rounding of the trapezoid sum, per unit of the summed magnitudes
_ROUNDING = 2.0 * sys.float_info.epsilon


def _tanh_sinh_nodes(t: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x = mid + half tanh(pi/2 sinh t) in [lo, hi] and their weights dx/dt."""
    half = 0.5 * (hi - lo)
    u = 0.5 * math.pi * np.sinh(t)
    # distance to the nearer endpoint, half (1 - tanh|u|), without cancellation
    gap = half / (np.exp(np.abs(u)) * np.cosh(u))
    x = np.where(t < 0.0, lo + gap, hi - gap)
    return x, half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2


def _trapezoid(f, mapping, t_lo: float, t_hi: float, n: int, spec: QuadratureSpec, tail: float, count):
    """Trapezoid in t over [t_lo, t_hi] of f(x(t)) w(t), (x, w) = mapping(t), from
    n (even) intervals, halving the step until the estimate meets spec.

    tail times |f w| at t_lo and at t_hi bounds the integral cut off beyond
    them (0 where nothing is cut).  count None: f(x) returns one value per
    node.  Otherwise f(x, live) returns the values of the integrals
    numbered live, shape (nodes, live), and each integral stops on its own.
    """
    scalar = count is None
    if scalar:
        f, count = (lambda x, live, f=f: np.asarray(f(x), dtype=float)[:, None]), 1
    h = (t_hi - t_lo) / n
    live = np.arange(count)

    def weighted(j: np.ndarray) -> np.ndarray:
        x, w = mapping(t_lo + j * h)
        fx = np.asarray(f(x, live), dtype=float)
        if fx.shape != (len(x), len(live)):
            raise ValueError(f"integrand returned shape {fx.shape} for {len(x)} nodes, {len(live)} integrals")
        return fx * w[:, None]

    # the first grid: its even nodes (the 2h grid) first, the end nodes at half weight
    j = np.arange(n + 1)
    g = weighted(np.concatenate((j[::2], j[1::2])))
    cut = tail * np.abs(g[[0, n // 2]]).sum(axis=0)
    g[[0, n // 2]] *= 0.5
    total, magnitude = g.sum(axis=0), np.abs(g).sum(axis=0)
    value = 2.0 * h * g[: n // 2 + 1].sum(axis=0)
    err = np.empty(count)
    for level in range(_MAX_HALVINGS + 1):
        if level:
            # the new nodes are the odd ones of the finer grid
            h *= 0.5
            n *= 2
            g = weighted(np.arange(1, n, 2))
            total[live] += g.sum(axis=0)
            magnitude[live] += np.abs(g).sum(axis=0)
        coarse = value[live]
        value[live] = h * total[live]
        err[live] = np.abs(value[live] - coarse) + h * _ROUNDING * magnitude[live] + cut[live]
        live = live[err[live] > max(spec.rel_tol * np.max(np.abs(value)), spec.abs_tol)]
        if not live.size:
            return (float(value[0]), float(err[0])) if scalar else (value, err)
    if scalar:
        value, err = float(value[0]), float(err[0])
    raise NonConvergenceError(value, err)


def _interval(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need finite lo < hi")
    return lo, hi


def integrate_tanh_sinh(
    f: Callable[..., np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    count: int | None = None,
):
    """Integral of f over [lo, hi] by the tanh-sinh trapezoid: (value, err_est).

    f maps a float array of nodes to the array of their values.  The first
    call holds the 49 nodes of the step 1/8 in t, each later call the new
    nodes of one halving; no node is evaluated twice, and f is never
    called at lo or hi unless a node rounds onto them.  The step halves
    until |I_h - I_2h|, plus a rounding floor and a bound on the tails cut
    at |t| = 3, meets max(rel_tol |I|, abs_tol).  After the last halving a
    ``NonConvergenceError`` carries the value and the estimate.

    With count, f integrates count functions at once: f(x, live) returns,
    in shape (len(x), len(live)), the values at x of the functions
    numbered live (an int array), those that have not converged yet.  Each
    stops when its estimate meets max(rel_tol max_j |I_j|, abs_tol), the
    largest value of all setting the scale; value and err_est are arrays.
    """
    lo, hi = _interval(lo, hi)
    mapping = lambda t: _tanh_sinh_nodes(t, lo, hi)
    n = round(2.0 * _TS_T_MAX / _TS_STEP)
    return _trapezoid(f, mapping, -_TS_T_MAX, _TS_T_MAX, n, spec, _TS_TAIL, count)


def integrate_periodic(
    f: Callable[..., np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    count: int | None = None,
):
    """Integral of f over [lo, hi] by the plain trapezoid: (value, err_est).

    For f whose even extension about lo is analytic and 2 (hi - lo)
    periodic (a function of cos(pi (x - lo) / (hi - lo))), where the rule
    is spectral.  Starts from 16 intervals and halves the step as
    ``integrate_tanh_sinh`` does, with the same contract (count included);
    the nodes include lo and hi, and nothing is cut.
    """
    lo, hi = _interval(lo, hi)
    identity = lambda x: (x, np.ones_like(x))
    return _trapezoid(f, identity, lo, hi, _PERIODIC_INTERVALS, spec, 0.0, count)


def gaussian_cutoff(
    lower: float, decay_rate: float, sigma: float = TRUNCATION_SIGMA, linear_growth: float = 0.0
) -> float:
    """Upper limit T where the envelope exp(-rate t^2 + growth t) has dropped
    by exp(-sigma^2/2) relative to its maximum over [max(lower, 0), inf)."""
    l0 = max(lower, 0.0)
    peak = max(l0, 0.5 * linear_growth / decay_rate)
    target = decay_rate * peak * peak - linear_growth * peak + 0.5 * sigma * sigma
    t = (linear_growth + math.sqrt(linear_growth * linear_growth + 4.0 * decay_rate * target)) / (
        2.0 * decay_rate
    )
    return max(t, lower + 1.0 / math.sqrt(decay_rate))


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
# MB if every point of a pass runs all halvings, far less as a rule) while a
# table row shares each pass; with no bound, the peak RSS of one certify
# and table run rose from 36.7 to 50.0 MiB
_ABEL_BATCH = 64


def _abel_grid(d: float, decay_rate: float, h_base: float) -> tuple[float, int, float]:
    """First step h0 and even node count n (h0 n = u_max) of one endpoint, and cosh d - 1."""
    s_max = gaussian_cutoff(d, decay_rate)
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
            live.append(_AbelPoint(i, *_abel_grid(d, decay_rate, h_base)))
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


def _pointwise(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """A scalar function as an integrand: the array of its values at an array of nodes."""
    return lambda xs: np.array([f(x) for x in xs.tolist()])


def abel_identity_check(
    f: Callable[[float], float], u: float, decay_rate: float = 1.0
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

    # after either substitution the integrand decays like exp(-decay_rate w^2)
    cutoff = gaussian_cutoff(0.0, decay_rate)

    def semi_infinite(g: Callable[[float], float]) -> float:
        value, _ = integrate_tanh_sinh(_pointwise(g), 0.0, cutoff)
        return value

    inner = lambda l: 2.0 * semi_infinite(lambda w: f(l + w * w))
    lhs = 2.0 * semi_infinite(lambda v: inner(u + v * v))
    rhs_half = semi_infinite(lambda w: w * f(u + w * w))
    rhs = 2.0 * math.pi * rhs_half
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)
