"""Exact term algebra for iterated (1/sinh s) d/ds derivatives of a radial Gaussian.

The base function is G(s) = sqrt(a/pi) * exp(-a s^2 + E) with a > 0.  Its
n-th iterated derivative under the operator (1/sinh s) d/ds -- equivalently
the n-th derivative in l = cosh s -- is represented exactly as a finite sum
of terms

    c(a) * s^p * cosh(s)^q / sinh(s)^r        (q in {0, 1} after rewriting
                                               cosh^2 = 1 + sinh^2)

where each coefficient c(a) is a polynomial in the rate a with exact
rational coefficients.  Two independent evaluation routes are provided:
direct term summation in binary64, and a power series in l - 1, which is
regular at s = 0 and remains accurate out to s of order 1.  Where the
binary64 terms cancel -- their magnitudes sum to more than
``_CANCELLATION_LIMIT`` times their sum, measured at each entry from the
terms themselves -- the term route takes the n-th derivative in l from
Cauchy's integral formula instead, by the trapezoid rule on a circle
around l = cosh s.

``evaluate_many`` is the one evaluator: at every entry of an array of s,
each entry at its own rate a and shift E, it picks the l-series where
``series_ok`` holds and the term route elsewhere, and runs each route as
numpy operations over its entries.  An expression holds its distinct
rates, and every entry carries its rate index; the data that depends on
the rate alone (the coefficients c(a), the l-series coefficients and the
prefactor) is built once per expression for all its rates, with the
operations a lone rate uses, and gathered per entry, so a value is
bit-equal whatever the other entries' rates.  ``evaluate`` (the term
route) and ``evaluate_near_origin`` (the l-series) take one float s, as
one-element arrays, of an expression with one rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "S_MIN",
    "GTerm",
    "expression",
    "derivative_terms",
    "evaluate",
    "evaluate_near_origin",
    "evaluate_many",
    "series_ok",
]

S_MIN = 1e-3
SERIES_SWITCH = 0.2  # below this, evaluate_many prefers the l-series route
SERIES_ORDER_CAP = 30  # the l-series of G^(n) keeps the terms of w^0..w^30

Poly = tuple[Fraction, ...]  # coefficients of a polynomial in the rate a

_ZERO = ()
_ONE: Poly = (Fraction(1),)


def _poly_trim(c: list[Fraction]) -> Poly:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, v in enumerate(q):
        out[i] += v
    return _poly_trim(out)


def _poly_scale(p: Poly, c: int | Fraction) -> Poly:
    if c == 0:
        return _ZERO
    return tuple(v * c for v in p)


def _poly_mul_a(p: Poly) -> Poly:
    """Multiply by the symbol a."""
    if not p:
        return _ZERO
    return (Fraction(0),) + p


def _poly_eval(p: tuple[float, ...], a: float) -> float:
    acc = 0.0
    for v in reversed(p):
        acc = acc * a + v
    return acc


@dataclass(frozen=True)
class GTerm:
    """One canonical term c(a) * s^p * cosh^q(s) / sinh^r(s)."""

    coeff: Poly
    p: int
    q: int
    r: int

    def __post_init__(self):
        if self.q not in (0, 1):
            raise ValueError("cosh power must be canonicalized to 0 or 1")
        if self.p < 0 or self.r < 0:
            raise ValueError("powers must be nonnegative")
        if not self.coeff:
            raise ValueError("zero terms are dropped on merge")

    @cached_property
    def coeff_f64(self) -> tuple[float, ...]:
        """The coefficients rounded to binary64, once per term."""
        return tuple(float(v) for v in self.coeff)


@dataclass(frozen=True)
class GExpression:
    """Canonical term set for the n-th derivative at rate a, shift E.

    The common prefactor sqrt(a/pi) * exp(-a s^2 + E) is kept symbolic as
    the pair (a, E); terms multiply it.  The terms are those of
    ``derivative_terms(n)``.  a and E are tuples of equal length holding
    the rates and shifts that the entries of ``evaluate_many`` pick by
    index.  The per-rate data below has one column per rate.
    """

    n: int
    a: tuple[float, ...]
    E: tuple[float, ...]
    # a and E as float arrays, and 0.5 log(a / pi) (the log of the
    # prefactor's sqrt(a/pi)), one entry per rate
    rates: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    log_front: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rates", (np.array(self.a, dtype=float), np.array(self.E, dtype=float)))
        object.__setattr__(self, "log_front", np.array([0.5 * math.log(x / math.pi) for x in self.a]))

    @property
    def terms(self) -> tuple[GTerm, ...]:
        """The canonical term set of G^(n), shared by every rate."""
        return derivative_terms(self.n)

    @cached_property
    def f64_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """c(a) in binary64 per term and rate, shape (terms, rates), and the
        powers p, q, r per term, (terms, 1) arrays; q is None when no term has
        a cosh factor.  Every rate keeps every term, in term order."""
        a = self.rates[0].tolist()
        c = np.array([[_poly_eval(t.coeff_f64, x) for x in a] for t in self.terms])
        return (c, *_term_table(self.n))

    @cached_property
    def series_scale(self) -> np.ndarray:
        """sigma per rate: the l-series runs in sigma w (``_series_scale``)."""
        return _series_scale(self.rates[0])

    @cached_property
    def front(self) -> np.ndarray:
        """sqrt(a/pi) exp(E) sigma^n per rate: the prefactor at s = 0, times
        the sigma^n that the l-series' weights leave out."""
        a, E = (x.tolist() for x in self.rates)
        front = np.array([math.sqrt(x / math.pi) * math.exp(y) for x, y in zip(a, E)])
        with np.errstate(over="ignore"):  # an inf front is an overflowed value, as the kernel's would be
            return front * self.series_scale**self.n

    @cached_property
    def series_weights(self) -> np.ndarray:
        """h_j(a) sigma^-j j!/(j-n)! for j = n..n+SERIES_ORDER_CAP and every
        rate, shape (SERIES_ORDER_CAP + 1, rates): the l-series of G^(n) in
        w = l - 1 over sigma^n, row m its coefficient of (sigma w)^m."""
        h = _h_series(self.a, self.n + SERIES_ORDER_CAP)[self.n :]
        return h * np.array(_falling_factorials(self.n))[:, None]


def _merge(parts: dict[tuple[int, int, int], Poly]) -> tuple[GTerm, ...]:
    out = []
    for key in sorted(parts):
        poly = parts[key]
        if poly:
            out.append(GTerm(poly, *key))
    return tuple(out)


def _accumulate(parts: dict, p: int, q: int, r: int, poly: Poly) -> None:
    """Add poly * s^p cosh^q sinh^-r, rewriting cosh^2 = 1 + sinh^2 first."""
    while q >= 2:
        # cosh^q = cosh^(q-2) + cosh^(q-2) sinh^2
        _accumulate(parts, p, q - 2, r - 2, poly)
        q -= 2
    key = (p, q, r)
    parts[key] = _poly_add(parts.get(key, _ZERO), poly)


def _apply_rules(terms: tuple[GTerm, ...]) -> tuple[GTerm, ...]:
    """(1/sinh s) d/ds of sum(terms) * exp(-a s^2), exactly.

    Product rule on c s^p cosh^q sinh^-r exp(-a s^2) gives four pieces
    (powers of s, cosh, sinh and the chain-rule -2 a s factor); the
    1/sinh factor shifts every r by one.
    """
    parts: dict[tuple[int, int, int], Poly] = {}
    for t in terms:
        if t.p:
            _accumulate(parts, t.p - 1, t.q, t.r + 1, _poly_scale(t.coeff, t.p))
        if t.q:
            _accumulate(parts, t.p, t.q - 1, t.r, _poly_scale(t.coeff, t.q))
        if t.r:
            _accumulate(parts, t.p, t.q + 1, t.r + 2, _poly_scale(t.coeff, -t.r))
        _accumulate(parts, t.p + 1, t.q, t.r + 1, _poly_mul_a(_poly_scale(t.coeff, -2)))
    return _merge(parts)


@lru_cache(maxsize=None)
def derivative_terms(n: int) -> tuple[GTerm, ...]:
    """Canonical term set of G^(n), independent of the numeric (a, E)."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n == 0:
        return (GTerm(_ONE, 0, 0, 0),)
    return _apply_rules(derivative_terms(n - 1))


@lru_cache(maxsize=None)
def _term_table(n: int) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Rate-free data of derivative_terms(n): the powers p, q, r as
    (terms, 1) float columns, q None when no term has a cosh factor."""
    terms = derivative_terms(n)
    p, q, r = (np.array([[float(getattr(t, k))] for t in terms]) for k in "pqr")
    return p, (q if q.any() else None), r


def expression(n: int, a, E) -> GExpression:
    """G^(n) at rate a and shift E, using the cached term sets; a and E are
    equal-length float arrays of the rates and shifts that
    ``evaluate_many``'s entries pick by index, or floats, one rate."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    a, E = (tuple(np.atleast_1d(np.asarray(x, dtype=float)).tolist()) for x in (a, E))
    if len(a) != len(E):
        raise ValueError("one shift E per rate a")
    if not all(x > 0.0 for x in a):
        raise ValueError("rate a must be positive (diffusive branch)")
    return GExpression(n, a, E)


# --- evaluation: term route -------------------------------------------------

# the term route takes Cauchy's integral where sum |term| exceeds this times
# |sum|: the binary64 terms have lost more than 3 of their digits there
_CANCELLATION_LIMIT = 1e3


def _terms_many(g: GExpression, s: np.ndarray, rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The binary64 term route at every entry of s, all s > 0, entry i at
    the rate numbered rate[i] of g: the sum of the terms, and the sum of
    their magnitudes, which measures how far they cancel.

    One (terms, nodes) matrix of exp(base + p log s + q log cosh s
    - r log sinh s) c, reduced over the terms with a compensated sum.
    Working with log magnitudes keeps sinh^r and the Gaussian prefactor
    from overflowing separately; their combined exponent is moderate.
    """
    c, p, q, r = g.f64_columns
    if c.shape[1] > 1:  # one column broadcasts as it stands
        c = c[:, rate]
    a, E, log_front = (x[rate] for x in (*g.rates, g.log_front))
    expo = log_front - a * s * s + E + p * np.log(s)
    if s.max(initial=0.0) > 20.0:
        # cosh and sinh overflow: their logs from exp(-2s)
        big = s > 20.0
        sb = s[big]
        tiny = np.exp(-2.0 * sb)
        small = s[~big]
        if q is not None:
            log_ch = np.empty_like(s)
            log_ch[big] = sb - math.log(2.0) + np.log1p(tiny)
            log_ch[~big] = np.log(np.cosh(small))
            expo += q * log_ch
        log_sh = np.empty_like(s)
        log_sh[big] = sb - math.log(2.0) + np.log1p(-tiny)
        log_sh[~big] = np.log(np.sinh(small))
    else:
        if q is not None:
            expo += q * np.log(np.cosh(s))
        log_sh = np.log(np.sinh(s))
    rows = np.exp(expo - r * log_sh) * c
    # sum |rows| folded in halves, elementwise (numpy's sum(axis=0) orders a
    # one-entry column differently from a wider array)
    magnitude = np.abs(rows)
    m = len(magnitude)
    while m > 1:
        h = m // 2
        magnitude[:h] += magnitude[m - h : m]
        m -= h
    return _compensated_row_sum(rows), magnitude[0]


def _compensated_row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the rows of a (terms, nodes) array, in a pairwise tree.

    Each addition keeps its exact rounding error (TwoSum, Knuth); the
    errors are summed alongside and added once at the end.  Elementwise
    only, so a column's sum does not depend on the other columns.
    """
    m = 1
    while m < len(rows):
        m *= 2
    if m > len(rows):  # zero rows are exact in TwoSum
        rows = np.concatenate((rows, np.zeros((m - len(rows), rows.shape[1]))))
    total, comp = rows, None
    while m > 1:
        m //= 2
        a, b = total[:m], total[m:]
        t = a + b
        z = t - a
        e = (a - (t - z)) + (b - z)
        comp = e if comp is None else comp[:m] + comp[m:] + e
        total = t
    return total[0] if comp is None else total[0] + comp[0]


# trapezoid nodes on the Cauchy circle.  Against the exact terms summed to
# 65 digits, for a in [0.05, 500]: at 32 nodes the rule's own error, 2^-32
# at the largest radius, left 6e-11 at n = 4..9; at 64 only rounding is
# left, 1.4e-11 at n <= 9 and 5.3e-10 at n = 14.  _cauchy_many evaluates
# nodes 0..32 of them
_CAUCHY_NODES = 64
_CAUCHY_ROOTS = np.exp(2j * math.pi * np.arange(_CAUCHY_NODES) / _CAUCHY_NODES)[:, None]


def _cauchy_many(g: GExpression, s: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """G^(n) in l = cosh s at every entry of s >= 0, by Cauchy's integral.

    G(z) = sqrt(a/pi) exp(-a arccosh(z)^2 + E) is analytic off the cut
    z <= -1, so G^(n)(l) = n!/(M r^n) sum_k G(l + r e^(i theta_k))
    e^(-i n theta_k), the trapezoid rule with M nodes on |z - l| = r.  The
    radius r = min(n / (4 a phi'(l)), (l + 1) / 2), with
    phi'(l) = 2 s / sinh s the slope of arccosh(l)^2, keeps the nodes off
    the cut and the rule stable at high n (Bornemann, Found. Comput. Math.
    11, 2011).  G(conj z) = conj G(z), so nodes k and M - k add conjugate
    terms: only k = 0..M/2 are evaluated, the real parts of k = 1..M/2-1
    counted twice.  Node M/2 is real and may lie on numpy's arccosh cut
    (-inf, 1], across which arccosh^2 is continuous, so its term is real.
    Each entry's largest Re(-a arccosh(z)^2) is factored out of its
    exponent, and the real parts are summed over the nodes by the
    compensated tree, elementwise in the entries, so an entry's value does
    not depend on the other entries (numpy's ``sum(axis=0)`` orders a
    one-entry column differently from a wider array).  n >= 1; entry i at
    the rate numbered rate[i] of g.
    """
    n, half = g.n, _CAUCHY_NODES // 2
    a = g.rates[0][rate]
    l = np.cosh(s)
    slope = np.divide(2.0 * s, np.sinh(s), out=np.full_like(s, 2.0), where=s > 0.0)
    r = np.minimum(0.25 * n / (a * slope), 0.5 * (l + 1.0))
    u = np.arccosh(l + r * _CAUCHY_ROOTS[: half + 1])
    expo = -a * u * u
    c = expo.real.max(axis=0)
    twiddle = _CAUCHY_ROOTS[(-n * np.arange(half + 1)) % _CAUCHY_NODES]
    twiddle[1:half] *= 2.0  # nodes M - k
    total = _compensated_row_sum((np.exp(expo - c) * twiddle).real)
    scale = math.lgamma(n + 1) - math.log(_CAUCHY_NODES) + g.log_front + g.rates[1]
    return np.exp(scale[rate] + c - n * np.log(r)) * total


def _terms(g: GExpression, s: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The term route at every entry of an array s > 0: the binary64 terms,
    and Cauchy's integral at the entries where they cancel, sum |term| >
    _CANCELLATION_LIMIT |sum| (an exact 0 of nonzero terms included; an
    all-zero or nan sum is kept); entry i at the rate numbered rate[i] of g."""
    total, magnitude = _terms_many(g, s, rate)
    cancels = magnitude > _CANCELLATION_LIMIT * np.abs(total)
    if cancels.any():
        total[cancels] = _cauchy_many(g, s[cancels], rate[cancels])
    return total


# --- evaluation: l-series route ----------------------------------------------

@lru_cache(maxsize=None)
def _arccosh_sq_series(order: int) -> tuple[Fraction, ...]:
    """Coefficients of v(w) = (arccosh(1+w))^2 as a power series in w.

    arccosh(1+w) = 2 arcsinh(sqrt(w/2)) and the classical series
    (arcsinh x)^2 = (1/2) sum_k (-1)^(k+1) (2x)^(2k) / (k^2 C(2k,k))
    (Lehmer, Amer. Math. Monthly 92, 1985) give
    c_k = (-2)^(k+1) / (k^2 C(2k,k)) exactly.
    """
    return (Fraction(0),) + tuple(
        Fraction((-2) ** (k + 1), k * k * math.comb(2 * k, k)) for k in range(1, order + 1)
    )


# the l-series runs in sigma w, sigma = max(1, a / _SERIES_RATE) per rate:
# its coefficients h_m grow like (2a)^m / m!, past binary64 at a = 2.5e11
# (tau = 1e-12), while those of sigma w stay those of a = 1e6 or less.  Up
# to a = 1e6 sigma is 1, and every bit is that of the series in w
_SERIES_RATE = 1e6


def _series_scale(a: np.ndarray) -> np.ndarray:
    """sigma = max(1, a / _SERIES_RATE) per rate of the float array a."""
    return np.maximum(1.0, a / _SERIES_RATE)


# keyed by an expression's rates and the series' order: the rows of one
# check or quadrature reuse one tau, and a row over many tau takes one entry
@lru_cache(maxsize=128)
def _h_series(a: tuple[float, ...], order: int) -> np.ndarray:
    """Taylor coefficients h_m sigma^-m, m = 0..order, of exp(-a v(w))
    around w = l - 1 = 0, that is its coefficients in sigma w, sigma =
    ``_series_scale(a)``; one column per rate of a: shape (order + 1,
    rates).  The array is shared: read-only.

    The recurrence h_m = (1/m) sum_{k=1..m} k g_k h_(m-k), g_k = -a v_k,
    taken with h_m sigma^-m and g_k sigma^-k, runs in every rate at once;
    each sum adds its terms in order from 0.0 (``np.add.accumulate`` is
    sequential), as one rate's loop in floats would.
    """
    a = np.array(a, dtype=float)
    v = np.array([float(vk) for vk in _arccosh_sq_series(order)])[:, None]
    k = np.arange(order + 1.0)[:, None]
    kg = k * (-a * v) * _series_scale(a) ** -k  # k g_k sigma^-k; sigma^-k underflows to 0
    h = np.empty((order + 1, len(a)))
    h[0] = 1.0
    # terms[0] stays 0.0, the sum's start
    terms = np.zeros((order + 1, len(a)))
    for m in range(1, order + 1):
        np.multiply(kg[1 : m + 1], h[m - 1 :: -1], out=terms[1 : m + 1])
        h[m] = np.add.accumulate(terms[: m + 1], axis=0)[m] / m
    h.flags.writeable = False
    return h


@lru_cache(maxsize=None)
def _falling_factorials(n: int) -> tuple[float, ...]:
    """j!/(j-n)! for j = n..n+SERIES_ORDER_CAP, as the product j (j-1) ... (j-n+1)."""
    out = []
    for j in range(n, n + SERIES_ORDER_CAP + 1):
        falling = 1.0
        for i in range(n):
            falling *= j - i
        out.append(falling)
    return tuple(out)


def _series_many(g: GExpression, s: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """d^n/dl^n of the base function at every entry of s, via the w = l - 1
    power series: sigma^n sum_{j=n..n+SERIES_ORDER_CAP} h_j sigma^-j
    j!/(j-n)! (sigma w0)^(j-n), by Horner from the top, sigma^n in the
    front; entry i at the rate numbered rate[i] of g."""
    w0 = 2.0 * np.sinh(0.5 * s) ** 2 * g.series_scale[rate]  # sigma (cosh(s) - 1), cancellation-free
    weights = g.series_weights[:, rate]
    acc = np.zeros_like(w0)
    for m in range(SERIES_ORDER_CAP, -1, -1):
        acc *= w0
        acc += weights[m]
    return g.front[rate] * acc


def series_ok(a, s):
    """Whether the l-series route is trustworthy at this (a, s); a and s
    floats or arrays.

    The series alternates with effective argument ~ 2 a (cosh s - 1); for
    large argument it cancels like the termwise sum of exp(-x), so it is
    restricted to a * s^2 <= 3 on top of the geometric radius.
    """
    return (s < SERIES_SWITCH) & (a * s * s <= 3.0)


# --- evaluation: entry points ---------------------------------------------------

def _one_entry(g: GExpression, s: float) -> tuple[np.ndarray, np.ndarray]:
    """s as a one-element array, and its rate index, of g's one rate."""
    if len(g.a) > 1:
        raise ValueError("an expression of several rates needs each entry's rate index")
    return np.array([float(s)]), np.zeros(1, dtype=np.intp)


def evaluate(g: GExpression, s: float) -> float:
    """Sum the canonical terms times the prefactor at one s >= S_MIN.

    Individual terms blow up like s^-(r-p) while their sum stays finite, so
    where they cancel (``_terms``) the value comes from Cauchy's integral
    instead; the binary64 terms are summed with compensation.
    """
    entry = _one_entry(g, s)
    if s < S_MIN:
        raise ValueError(f"s={s:g} below S_MIN={S_MIN:g}; use evaluate_near_origin")
    return float(_terms(g, *entry)[0])


def evaluate_near_origin(g: GExpression, s: float) -> float:
    """Analytic value of the expression on [0, S_MIN] via the series in l - 1."""
    entry = _one_entry(g, s)
    if s < 0.0 or s > S_MIN:
        raise ValueError(f"s={s:g} outside [0, {S_MIN:g}]")
    return float(_series_many(g, *entry)[0])


def evaluate_many(g: GExpression, s: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The expression at every entry of a float array s >= 0, entry i at
    the rate and shift numbered rate[i] of g (an int array like s).

    Each entry takes the route that is accurate there: the l-series where
    ``series_ok`` (no small-s cancellation, mild alternation), else the
    term route, which takes Cauchy's integral where the terms measure
    cancellation above ``_CANCELLATION_LIMIT``.
    Each route runs over its entries as arrays; an entry's value does not
    depend on the other entries or their rates.
    """
    # series_ok holds only below a cut in s, so the smallest s may decide
    if not s.min(initial=math.inf) < SERIES_SWITCH:
        return _terms(g, s, rate)
    series = series_ok(g.rates[0][rate], s)
    if not series.any():
        return _terms(g, s, rate)
    out = np.empty_like(s)
    out[series] = _series_many(g, s[series], rate[series])
    if not series.all():
        out[~series] = _terms(g, s[~series], rate[~series])
    return out

