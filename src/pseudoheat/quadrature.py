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
one float array per halving, with the index of each node's endpoint.
Each endpoint keeps its own steps, convergence test and error estimate,
and gets back its own value or failure, so one endpoint that does not
converge does not fail the others.
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
        for name in ("rel_tol", "abs_tol"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite")


DEFAULT_SPEC = QuadratureSpec()

# a Gaussian-decay integrand is cut where its envelope has dropped by
# exp(-TRUNCATION_SIGMA^2 / 2), 5.4e-32 of its peak
TRUNCATION_SIGMA = 12.0


class NonConvergenceError(RuntimeError):
    """Halving budget exhausted with the error estimate above tolerance.

    Carries the value and err_est after the last halving and, where the
    rule that failed set it, the number of halvings it ran (else None).
    """

    def __init__(self, value: float, err_est: float, message: str = "", halvings: int | None = None):
        # err_est is an array where many integrals ran at once
        super().__init__(message or f"quadrature did not converge (err_est={np.max(err_est):g})")
        self.value = value
        self.err_est = err_est
        self.halvings = halvings


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
    raise NonConvergenceError(value, err, halvings=_MAX_HALVINGS)


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
    lower: float | np.ndarray,
    decay_rate: float | np.ndarray,
    sigma: float = TRUNCATION_SIGMA,
    linear_growth: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Upper limit T where the envelope exp(-rate t^2 + growth t) has dropped
    by exp(-sigma^2/2) relative to its maximum over [max(lower, 0), inf);
    elementwise where the lower limits, rates or growths are arrays."""
    peak = np.maximum(lower, np.maximum(0.0, 0.5 * linear_growth / decay_rate))
    target = decay_rate * peak * peak - linear_growth * peak + 0.5 * sigma * sigma
    root = np.sqrt(linear_growth * linear_growth + 4.0 * decay_rate * target)
    t = (linear_growth + root) / (2.0 * decay_rate)
    return np.maximum(t, lower + 1.0 / np.sqrt(decay_rate))


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


def _abel_nodes(F, u_stretched: np.ndarray, w_d, decay_rate, endpoint) -> tuple[np.ndarray, np.ndarray]:
    """Integrand at the nodes u = T u_stretched, given per node its
    endpoint's cosh d - 1 = w_d, decay rate a and index (which F takes
    too); and it weighted by 1 + a s^2."""
    x = np.sinh(u_stretched)
    t = _ABEL_STRETCH * x
    sh = np.sinh(t)
    w = w_d + sh * sh  # l - 1
    # two square roots: w (w + 2) overflows where cosh s_max is ~1e233 (tau ~ 1000)
    s = np.log1p(w + np.sqrt(w) * np.sqrt(w + 2.0))
    v = 2.0 * F(s, endpoint) * np.cosh(t) * np.hypot(1.0, x)
    return v, np.abs(v) * (1.0 + decay_rate * s * s)


def integrate_abel(
    F: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ds: Sequence[float],
    decay_rate: float | np.ndarray,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Integral of F(arccosh l) (l - cosh d)^(-1/2) over l in [cosh d, inf), for each d in ds.

    F(s, endpoint) maps a float array of s = arccosh l, and the index into
    ds of each node's endpoint (an int array like s), to its values; it
    must decay like exp(-decay_rate s^2), where decay_rate is one float, or
    one per d.  With
    l = cosh d + sinh^2 t the integrand, 2 F cosh t, is even, decays like
    a Gaussian and is analytic in |Im t| < pi/2, so the trapezoidal rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).
    It runs in u, t = T sinh(u/T) (after Takahasi & Mori, 1974), from the
    step min(0.2, 0.25/sqrt(decay_rate)), halving it until |I_h - I_2h|
    plus a rounding floor meets the tolerance; I_2h reuses the nodes of
    I_h.

    Each pass hands F, as one array, the new nodes of every endpoint not
    yet converged, for up to _ABEL_BATCH endpoints at a time; each
    endpoint stops on its own test.  If F evaluates each entry
    independently of the others, an endpoint's result does not depend on
    the other endpoints.  Returns the value and err_est arrays, one entry
    per endpoint, and the failure of each endpoint that failed, by index:
    an unraised NonConvergenceError (value and err_est after the last
    halving, and the halvings run) or OverflowError.
    """
    ds = np.asarray(ds, dtype=float)
    rates = np.empty_like(ds)
    rates[:] = decay_rate
    if np.count_nonzero(ds < 0.0):
        raise ValueError("lower endpoint must be nonnegative")
    if not np.minimum.reduce(rates, initial=math.inf) > 0.0:
        raise ValueError("decay_rate must be positive")
    (value, err), failures = np.empty((2, len(ds))), {}
    # an overflow leaves a non-finite sum, which is reported for its endpoint
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(ds), _ABEL_BATCH):
            index = np.arange(lo, min(lo + _ABEL_BATCH, len(ds)))
            _abel_pass(F, ds, rates, index, spec, (value, err, failures))
    return value, err, failures


# a halving halves each endpoint's step h (and h / T) and doubles its interval count n
_HALVING = np.array([[0.5], [2.0], [0.5]])


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes laid out endpoint after endpoint, counts[i] (at least one) of
    endpoint i: the first position of each endpoint, and each node's index
    within its endpoint.  x.repeat(counts) gives each node its endpoint's x."""
    ends = np.add.accumulate(counts)
    starts = ends - counts
    return starts, np.arange(ends[-1]) - starts.repeat(counts)


def _abel_pass(F, ds: np.ndarray, rates: np.ndarray, index: np.ndarray, spec: QuadratureSpec, out) -> None:
    """integrate_abel over the endpoints ds[index], each at its decay rate
    rates[index], into out: the value and err_est arrays and the failures by
    index of integrate_abel."""
    value_out, err_out, failures = out
    d, rate = ds[index], rates[index]
    s_max = gaussian_cutoff(d, rate)
    sh_plus, sh_minus, sh_half = np.sinh(0.5 * np.array((s_max + d, s_max - d, d)))
    # u_max / 2, where u_max = T asinh(t_max / T) and sinh^2 t_max = cosh s_max
    # - cosh d, in product form
    half_u = 0.5 * _ABEL_STRETCH * np.arcsinh(np.arcsinh(np.sqrt(2.0 * sh_plus * sh_minus)) / _ABEL_STRETCH)
    # the first step h0 = u_max / n over an even interval count n = 2 half, so
    # that the 2h0 grid is a subset of the h0 grid; h0 is nan where the grid
    # overflows binary64
    half = np.ceil(half_u / np.minimum(0.2, 0.25 / np.sqrt(rate)))
    h, w_d = half_u / half, 2.0 * sh_half**2  # w_d = cosh d - 1
    failed = np.isnan(h)
    if np.count_nonzero(failed):
        for i in index[failed].tolist():
            value_out[i], err_out[i] = math.nan, math.inf
            failures[i] = OverflowError(f"binary64 overflow (Abel grid at d={float(ds[i])!r})")
        index, h, half, w_d, rate = index[~failed], h[~failed], half[~failed], w_d[~failed], rate[~failed]
        if not index.size:
            return
    # the whole h0 grid in one pass; per endpoint its origin, its even nodes
    # (the 2h0 grid) and its odd nodes, in that order
    half = half.astype(np.intp)
    counts = 2 * half + 1
    starts, k = _ragged(counts)
    j = 2 * k % counts.repeat(counts)  # 0, 2, ..., n, then 1, 3, ..., n - 1
    # u / T, as (j h) / T is j (h / T) exactly: T is a power of two
    step = h / _ABEL_STRETCH
    per_endpoint = np.array((step, w_d, rate))  # each node takes its endpoint's
    step_node, w_node, rate_node = per_endpoint.repeat(counts, axis=1)
    v, vw = _abel_nodes(F, j * step_node, w_node, rate_node, index.repeat(counts))
    # each endpoint's sums: its origin, its evens and its odds (rows: the
    # integrand, and it weighted by 1 + a s^2)
    first_even = starts + 1
    cuts = np.array((starts, first_even, first_even + half)).T.ravel()
    origin, evens, odds = np.add.reduceat((v, vw), cuts, axis=1).reshape(2, -1, 3).transpose(2, 0, 1)
    coarse = evens + 0.5 * origin
    # per live endpoint (a column): |integrand| at u_max (which bounds the
    # truncated tail), the last value, the sums, h, n, h / T, cosh d - 1 and
    # the decay rate
    tail = np.abs(v[starts + half])
    state = np.concatenate(
        (tail, 2.0 * h * coarse[0], (coarse + odds).ravel(), h, counts - 1.0, per_endpoint.ravel())
    ).reshape(9, -1)

    for level in range(_ABEL_MAX_HALVINGS + 1):
        if level:
            # halve every step; the new nodes, n per endpoint, are the odd
            # ones of the finer grid
            counts = state[5].astype(np.intp)
            state[4:7] *= _HALVING
            starts, k = _ragged(counts)
            step_node, w_node, rate_node = state[6:].repeat(counts, axis=1)
            v, vw = _abel_nodes(F, (2 * k + 1) * step_node, w_node, rate_node, index.repeat(counts))
            state[2:4] += np.add.reduceat((v, vw), starts, axis=1)
        tail, coarse, total, weighted, h = state[0], state[1], state[2], state[3], state[4]
        value = h * total
        err = np.abs(value - coarse) + h * (_ABEL_ROUNDING * weighted + tail)
        state[1] = value
        # every level writes its estimate; an endpoint's last one stands
        value_out[index], err_out[index] = value, err
        finite = np.isfinite(err)  # the sums overflowed where it is not
        done = ~finite | (err <= np.maximum(spec.rel_tol * np.abs(value), spec.abs_tol))
        finished = np.count_nonzero(done)
        if finished:
            for i in index[~finite].tolist():
                failures[i] = OverflowError("integrand overflowed binary64")
            if finished == len(done):
                return
            index, state = index[~done], state[:, ~done]
    for i in index.tolist():
        failures[i] = NonConvergenceError(float(value_out[i]), float(err_out[i]), halvings=_ABEL_MAX_HALVINGS)


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
