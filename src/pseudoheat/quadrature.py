"""Deterministic trapezoidal quadrature for analytic, Gaussian-decay integrands.

One rule: the trapezoid in a mapped variable t, refined by halving the step.
The integrands here are analytic, so the rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014), and the 2h grid is a subset of
the h grid, so every halving evaluates only the new nodes.  Its error
estimate is the difference d1 = |I_h - I_2h| scaled to the rule's rate,
plus a rounding floor and a bound on what is cut off at the ends.  d1 is
the error of I_2h; the Abel rule, whose error about squares per halving,
takes d1 (d1 / |I_h|)^(1/2) for that of I_h, the other rules d1 itself.

One halving loop runs the rule over many integrals at once.  Each integral
brings its own t-range, first step and abs_tol.  The integrand takes the
new nodes of every integral not yet converged as one float array per
halving, with the index of each node's integral, and returns their values
as one array.  Each integral stops on its own test and gets back its own
value, error estimate and failed flag, so one integral that does not
converge does not fail the others; ``failure`` builds the error of one
that failed where it is located.  The rules are node maps over that loop:
each gives x(t), dx/dt, the rounding weight of a node and the cut at its
ends.

* ``integrate_tanh_sinh``: finite intervals through the tanh-sinh map
  (Takahasi & Mori, 1974), whose nodes crowd both endpoints, so the rate
  does not depend on how the integrand behaves there.  Semi-infinite
  Gaussian-decay integrals are truncated first, at ``gaussian_cutoff``.
* ``integrate_periodic``: the plain trapezoid on [lo, hi] for integrands
  whose even extension about lo has period 2 (hi - lo); spectral there.
* ``integrate_abel``: the Abel integral int F(arccosh l) (l - l0)^(-1/2) dl
  of the odd-dimensional kernels, for many lower endpoints l0 = cosh d, a
  trapezoidal rule in t, l = l0 + sinh^2 t.

``integrate_one`` is the one-integral view of the first two: its integrand
takes the nodes alone, and it raises the failure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import _arccosh_from_excess

__all__ = [
    "QuadratureSpec",
    "NonConvergenceError",
    "failure",
    "integrate_tanh_sinh",
    "integrate_periodic",
    "integrate_abel",
    "integrate_one",
    "abel_identity_check",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for one integral: it converges when its error estimate is
    at most max(rel_tol |value|, abs_tol)."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-14

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")


DEFAULT_SPEC = QuadratureSpec()

# a Gaussian-decay integrand is cut where its envelope has dropped by
# exp(-TRUNCATION_SIGMA^2 / 2), 5.4e-32 of its peak
TRUNCATION_SIGMA = 12.0


class NonConvergenceError(ArithmeticError):
    """Halving budget exhausted with the error estimate above tolerance.

    Carries the value and err_est after the last halving.
    """

    def __init__(self, value: float, err_est: float, message: str = ""):
        super().__init__(message or f"quadrature did not converge (err_est={err_est:g})")
        self.value = value
        self.err_est = err_est


def failure(value: float, err_est: float, where: str) -> ArithmeticError:
    """The error of a failed integral or value, located at where: an
    OverflowError where value is not finite (err_est inf), else a
    NonConvergenceError.  Either carries value and err_est."""
    if math.isfinite(value):
        return NonConvergenceError(value, err_est, f"quadrature did not converge (err_est={err_est:g}) at {where}")
    exc = OverflowError(f"binary64 overflow (value {value!r}) at {where}")
    exc.value, exc.err_est = value, math.inf
    return exc


# halvings after the first grid: tanh-sinh down to h = 1/512 in t, 1024
# periodic intervals
_MAX_HALVINGS = 6
# rounding of the trapezoid sum, per unit of the summed magnitudes
_ROUNDING = 2.0 * sys.float_info.epsilon
# a halving doubles each integral's interval count n and halves its step h
_HALVING = np.array([[2.0], [0.5]])


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes laid out integral after integral, counts[i] (at least one) of
    integral i: the first position of each integral, and each node's index
    within its integral.  x.repeat(counts) gives each node its integral's x."""
    ends = np.add.accumulate(counts)
    starts = ends - counts
    return starts, np.arange(ends[-1]) - starts.repeat(counts)


def _trapezoid(nodes, last_weight, cut, grid, abs_tol, rel_tol, live, order):
    """The trapezoid in t of the integrals numbered live, each halving its
    step until its estimate meets max(rel_tol |I_i|, abs_tol[i]).

    grid holds per integral (a column) its even interval count n, its step
    h and the parameters of its node map.  nodes(t, at, *params) gives, at
    the flat float array t of each node's distance from its integral's
    first node, for the integrals numbered at (an int array like t) and
    with each node's map parameters, the integrand times dx/dt and its
    magnitude times the node's rounding weight, as fresh arrays.  The
    first node weighs 1/2 and the last last_weight.  cut(lo, hi), given
    the values at the two end nodes, bounds the integral cut off beyond
    them: a fixed part and a part per unit step.

    order states how fast the rule's error falls: where one halving takes
    a relative error e to about e^order, the error of I_h is about
    d1 (d1 / |I_h|)^(order - 1), d1 = |I_h - I_2h| being that of I_2h.  The
    estimate takes that, never above d1, plus a rounding floor and the cut
    bound.

    Returns the value, err_est and failed arrays: an integral fails where
    its err_est is not finite (its sums overflowed, or it is not in live:
    nan and inf) or it is still open after the last halving.  Callers run
    it with overflow and invalid operations ignored, as they fail an
    integral.
    """
    value_out, err_out = out = np.empty((2, grid.shape[1]))
    out[0], out[1] = math.nan, math.inf
    if not live.size:
        return value_out, err_out, ~np.isfinite(err_out)
    if len(live) < grid.shape[1]:
        grid, abs_tol = grid[:, live], abs_tol[live]
    # the whole first grid in one pass; per integral its first node, its
    # even nodes (the 2h grid) and its odd nodes, in that order
    half = grid[0].astype(np.intp) // 2
    counts = 2 * half + 1
    starts, k = _ragged(counts)
    j = 2 * k % counts.repeat(counts)  # 0, 2, ..., n, then 1, 3, ..., n - 1
    h_node, *params = grid[1:].repeat(counts, axis=1)
    v, vw = nodes(j * h_node, live.repeat(counts), *params)
    last = starts + half
    fixed, per_h = cut(v[starts], v[last])
    if last_weight != 1.0:
        v[last] *= last_weight
        vw[last] *= last_weight
    # each integral's sums: its first node, its evens and its odds (rows:
    # the integrand, and its rounding-weighted magnitude)
    cuts = np.array((starts, starts + 1, last + 1)).T.ravel()
    first, evens, odds = np.add.reduceat((v, vw), cuts, axis=1).reshape(2, -1, 3).transpose(2, 0, 1)
    coarse = evens + 0.5 * first
    # per live integral (a column): the two cut bounds, the last value,
    # the sums, abs_tol, and the grid
    state = np.concatenate(((fixed, per_h, 2.0 * grid[1] * coarse[0]), coarse + odds, (abs_tol,), grid))
    for level in range(_MAX_HALVINGS + 1):
        if level:
            # halve every step; the new nodes, n per integral, are the
            # odd ones of the finer grid
            counts = state[6].astype(np.intp)
            state[6:8] *= _HALVING
            starts, k = _ragged(counts)
            h_node, *params = state[7:].repeat(counts, axis=1)
            v, vw = nodes((2 * k + 1) * h_node, live.repeat(counts), *params)
            state[3:5] += np.add.reduceat((v, vw), starts, axis=1)
        fixed, per_h, coarse, total, weighted, abs_tol, _, h = state[:8]
        value = h * total
        d1, size = np.abs(value - coarse), np.abs(value)
        rel = np.divide(d1, size, out=np.ones_like(d1), where=d1 < size)
        err = d1 * rel ** (order - 1.0) + h * (_ROUNDING * weighted + per_h) + fixed
        state[2] = value
        # every level writes its estimate; an integral's last one stands
        value_out[live], err_out[live] = value, err
        finite = np.isfinite(err)  # the sums overflowed where it is not
        done = ~finite | (err <= np.maximum(rel_tol * np.abs(value), abs_tol))
        finished = np.count_nonzero(done)
        if finished == len(done):
            return value_out, err_out, ~np.isfinite(err_out)
        if finished:
            live, state = live[~done], state[:, ~done]
    failed = ~np.isfinite(err_out)
    failed[live] = True  # still open after the last halving
    return value_out, err_out, failed


def _on_intervals(f, x_of, cut, n, h, lo, hi, spec: QuadratureSpec, abs_tol):
    """The halving loop over [lo[i], hi[i]] from n[i] intervals of h[i]
    in t, x(t) and dx/dt given by x_of(t, lo, hi); n, h, lo, hi and abs_tol
    (spec.abs_tol where None) broadcast to one entry per integral.  f runs
    under the caller's floating-point error state."""
    abs_tol = spec.abs_tol if abs_tol is None else abs_tol
    n, h, lo, hi, abs_tol = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, float)) for x in (n, h, lo, hi, abs_tol)))
    ok = np.isfinite(lo) & np.isfinite(hi) & (lo < hi) & (n % 2.0 == 0.0) & (n > 0.0) & (abs_tol > 0.0)
    if lo.ndim != 1 or not np.all(ok & np.isfinite(abs_tol)):
        raise ValueError("need finite lo < hi, an even interval count and a positive finite abs_tol per integral")
    errstate = np.geterr()

    def nodes(t, at, lo, hi):
        x, w = x_of(t, lo, hi)
        with np.errstate(**errstate):
            fx = np.array(f(x, at), dtype=float)
        if fx.shape != x.shape:
            raise ValueError(f"integrand returned shape {fx.shape} for {len(x)} nodes")
        v = fx * w
        return v, np.abs(v)

    # the first grids of tanh-sinh and the periodic rule can lie far from
    # their asymptotic rate (an estimate from I_4h, I_2h and I_h stopped an
    # x-marginal at D = 7, tau 0.5 on its first grid, 4.3e-5 off), so they
    # keep d1: order 1
    with np.errstate(over="ignore", invalid="ignore"):
        return _trapezoid(nodes, 0.5, cut, np.array((n, h, lo, hi)), abs_tol, spec.rel_tol, np.arange(len(lo)), 1.0)


# tanh-sinh runs its trapezoid over t in [-3, 3], from the step 1/8: the
# integrands of verify and lattice stop at 1/16 or 1/32, so a coarser start
# would only add passes over them.  At |t| = 3 a node lies 4.6e-14
# half-widths from its endpoint; the part of the integral cut off there is
# bounded by twice that gap times |f| at the node (an integrable
# singularity up to |x - lo|^(-1/2) included), which is the node's weight
# dx/dt times 2 / (pi cosh 3)
_TS_T_MAX = 3.0
_TS_STEP = 0.125
_TS_CUT = 2.0 / (math.pi * math.cosh(_TS_T_MAX))


def _tanh_sinh_nodes(t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x = mid + half tanh(pi/2 sinh t) in [lo, hi] and their weights dx/dt."""
    half = 0.5 * (hi - lo)
    u = 0.5 * math.pi * np.sinh(t)
    # distance to the nearer endpoint, half (1 - tanh|u|), without cancellation
    gap = half / (np.exp(np.abs(u)) * np.cosh(u))
    x = np.where(t < 0.0, lo + gap, hi - gap)
    return x, half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2


def integrate_tanh_sinh(f, lo, hi, spec: QuadratureSpec = DEFAULT_SPEC, abs_tol=None):
    """Integral of f over [lo[i], hi[i]] for each i, by the tanh-sinh
    trapezoid: value, err_est and failed arrays.

    lo, hi and abs_tol (spec.abs_tol where None) are floats or arrays that
    broadcast to one entry per integral.  f(x, at) maps a float array of
    nodes, and the index of each node's integral (an int array like x), to
    their values.  Each integral starts from the 49 nodes of the step 1/8
    in t; each later call holds the new nodes of one halving, no node is
    evaluated twice, and f is never called at lo or hi unless a node rounds
    onto them.  An integral's step halves until |I_h - I_2h|, plus a
    rounding floor and a bound on the tails cut at |t| = 3, meets
    max(spec.rel_tol |I|, abs_tol).
    """
    x_of = lambda t, lo, hi: _tanh_sinh_nodes(t - _TS_T_MAX, lo, hi)
    cut = lambda lo, hi: (_TS_CUT * (np.abs(lo) + np.abs(hi)), np.zeros(len(lo)))
    return _on_intervals(f, x_of, cut, 2.0 * _TS_T_MAX / _TS_STEP, _TS_STEP, lo, hi, spec, abs_tol)


def integrate_periodic(f, lo, hi, spec: QuadratureSpec = DEFAULT_SPEC, abs_tol=None, intervals=16):
    """Integral of f over [lo[i], hi[i]] for each i, by the plain
    trapezoid, for f whose even extension about lo is analytic and 2 (hi -
    lo) periodic (a function of cos(pi (x - lo) / (hi - lo))), where the
    rule is spectral.  Each integral starts from its entry of intervals
    (even counts); otherwise the contract of ``integrate_tanh_sinh``.  The
    nodes include lo and hi, and nothing is cut."""
    lo, hi, n = (np.asarray(x, dtype=float) for x in (lo, hi, intervals))
    x_of, no_cut = (lambda t, lo, hi: (lo + t, 1.0)), (lambda lo, hi: (np.zeros(len(lo)),) * 2)
    return _on_intervals(f, x_of, no_cut, n, (hi - lo) / n, lo, hi, spec, abs_tol)


def integrate_one(rule, f, lo: float, hi: float, spec: QuadratureSpec = DEFAULT_SPEC) -> tuple[float, float]:
    """One integral of f over [lo, hi] by rule (``integrate_tanh_sinh`` or
    ``integrate_periodic``), where f maps the nodes alone to their values:
    (value, err_est), or its failure raised."""
    (value,), (err,), (failed,) = rule(lambda x, at: f(x), lo, hi, spec)
    if failed:
        raise failure(float(value), float(err), f"x in [{float(lo)!r}, {float(hi)!r}]")
    return float(value), float(err)


def gaussian_cutoff(
    lower: float | np.ndarray,
    decay_rate: float | np.ndarray,
    sigma: float = TRUNCATION_SIGMA,
    linear_growth: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Upper limit T where the envelope exp(-rate t^2 + growth t) has dropped
    by exp(-sigma^2/2) relative to its maximum over [max(lower, 0), inf);
    elementwise where the lower limits, rates or growths are arrays.  nan
    where growth^2 cancels below 0 under the square root, which a rate
    below ~1e-60 against the growth can make it do, and inf where a rate
    past ~1e200 overflows 4 rate target.  Either is the caller's to fail on."""
    with np.errstate(over="ignore", invalid="ignore"):
        peak = np.maximum(lower, np.maximum(0.0, 0.5 * linear_growth / decay_rate))
        target = decay_rate * peak * peak - linear_growth * peak + 0.5 * sigma * sigma
        root = np.sqrt(linear_growth * linear_growth + 4.0 * decay_rate * target)
        t = (linear_growth + root) / (2.0 * decay_rate)
        return np.maximum(t, lower + 1.0 / np.sqrt(decay_rate))


# integrate_abel stretches its tail by t = T sinh(u/T).  Up to t ~ 1, where
# a moderate-tau integrand lives, the Jacobian cosh(u/T) stays below 1.03, so
# the trapezoid keeps its geometric rate; beyond t ~ T the map is logarithmic,
# so tau = 300 (t_max ~ 150) ends at u ~ 17 and the node count stays bounded.
# T is a power of two, so u / T is exact.
_ABEL_STRETCH = 4.0
# The Abel integrand decays like a Gaussian in t, so each halving about
# squares the trapezoid's relative error (Trefethen & Weideman, SIAM Rev.
# 56, 2014).  Its estimate takes the order 3/2, which is safer: against
# odd_reference the orders 1.6, 1.75 and 2 miss the error more often.
_ABEL_ORDER = 1.5


def _abel_nodes(F, u_stretched: np.ndarray, w_d, decay_rate, endpoint) -> tuple[np.ndarray, np.ndarray]:
    """Integrand at the nodes u = T u_stretched, given per node its
    endpoint's cosh d - 1 = w_d, decay rate a and index (which F takes
    too); and its magnitude weighted by 1 + a s^2, the rounding of a node
    value per unit: an error eps s in s becomes 2 a s^2 eps in exp(-a s^2)."""
    x = np.sinh(u_stretched)
    t = _ABEL_STRETCH * x
    sh = np.sinh(t)
    s = _arccosh_from_excess(w_d + sh * sh)  # w_d + sinh^2 t = l - 1
    v = 2.0 * F(s, endpoint) * np.cosh(t) * np.hypot(1.0, x)
    return v, np.abs(v) * (1.0 + decay_rate * s * s)


def integrate_abel(F, ds: Sequence[float], decay_rate, spec: QuadratureSpec = DEFAULT_SPEC):
    """Integral of F(arccosh l) (l - cosh d)^(-1/2) over l in [cosh d, inf), for each d in ds.

    F(s, endpoint) maps a float array of s = arccosh l, and the index into
    ds of each node's endpoint (an int array like s), to its values; it
    must decay like exp(-decay_rate s^2), where decay_rate is one float, or
    one per d.  With l = cosh d + sinh^2 t the integrand, 2 F cosh t, is
    even, decays like a Gaussian and is analytic in |Im t| < pi/2, so the
    trapezoidal rule converges geometrically (Trefethen & Weideman, SIAM
    Rev. 56, 2014).
    It runs in u, t = T sinh(u/T) (after Takahasi & Mori, 1974), from the
    step min(0.2, 0.25/sqrt(decay_rate)), on the halving loop of every rule
    here, each endpoint on its own test: its step halves until d1 (d1 /
    |I|)^(1/2), never above d1 = |I_h - I_2h|, plus a rounding floor and a
    bound on the tail cut at s_max, meets max(spec.rel_tol |I|,
    spec.abs_tol).  If F evaluates each entry independently of the others,
    an endpoint's result does not depend on the other endpoints.  Returns
    the value, err_est and failed arrays; an endpoint whose grid overflows
    binary64 fails with the value nan.
    """
    ds = np.asarray(ds, dtype=float)
    rates, tol = np.empty((2, len(ds)))
    rates[:], tol[:] = decay_rate, spec.abs_tol
    if np.count_nonzero(ds < 0.0):
        raise ValueError("lower endpoint must be nonnegative")
    if not np.minimum.reduce(rates, initial=math.inf) > 0.0:
        raise ValueError("decay_rate must be positive")
    # an overflow leaves a non-finite grid or sum, which fails its endpoint
    with np.errstate(over="ignore", invalid="ignore"):
        s_max = gaussian_cutoff(ds, rates)
        sh_plus, sh_minus, sh_half = np.sinh(0.5 * np.array((s_max + ds, s_max - ds, ds)))
        # u_max / 2, where u_max = T asinh(t_max / T) and sinh^2 t_max = cosh
        # s_max - cosh d, in product form
        half_u = 0.5 * _ABEL_STRETCH * np.arcsinh(np.arcsinh(np.sqrt(2.0 * sh_plus * sh_minus)) / _ABEL_STRETCH)
        # the first step h0 = u_max / n over an even interval count n = 2 half,
        # so that the 2h0 grid is a subset of the h0 grid; h0 is nan where the
        # grid overflows binary64
        half = np.ceil(half_u / np.minimum(0.2, 0.25 / np.sqrt(rates)))
        grid = np.array((2.0 * half, half_u / half, 2.0 * sh_half**2, rates))  # n, h, cosh d - 1, rate
        nodes = lambda u, at, w_d, rate: _abel_nodes(F, u / _ABEL_STRETCH, w_d, rate, at)
        # the integrand is even in u: the last node, at u_max, weighs 1, and it
        # times the step bounds the truncated tail
        cut = lambda lo, hi: (np.zeros(len(lo)), np.abs(hi))
        live = np.flatnonzero(~np.isnan(grid[1]))
        return _trapezoid(nodes, 1.0, cut, grid, tol, spec.rel_tol, live, _ABEL_ORDER)


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
        value, _ = integrate_one(integrate_tanh_sinh, _pointwise(g), 0.0, cutoff)
        return value

    inner = lambda l: 2.0 * semi_infinite(lambda w: f(l + w * w))
    lhs = 2.0 * semi_infinite(lambda v: inner(u + v * v))
    rhs_half = semi_infinite(lambda w: w * f(u + w * w))
    rhs = 2.0 * math.pi * rhs_half
    return lhs, rhs, abs(lhs - rhs) / abs(rhs)
