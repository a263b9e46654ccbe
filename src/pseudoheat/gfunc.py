"""Exact term algebra for iterated (1/sinh s) d/ds derivatives of a radial Gaussian.

The base function is G(s) = sqrt(a/pi) * exp(-a s^2 + E) with a > 0.  Its
n-th iterated derivative under the operator (1/sinh s) d/ds -- equivalently
the n-th derivative in l = cosh s -- is represented exactly as a finite sum
of terms

    c(a) * s^p * cosh(s)^q / sinh(s)^r        (q in {0, 1} after rewriting
                                               cosh^2 = 1 + sinh^2)

where each coefficient c(a) is a polynomial in the rate a with exact
rational coefficients.  Two independent evaluation routes are provided:
direct term summation (with precision escalation where the 1/sinh^r terms
cancel catastrophically) and a power series in l - 1, which is regular at
s = 0 and remains accurate out to s of order 1.

``evaluate_many`` is the one evaluator: at every entry of an array of s it
picks the route with ``series_ok`` and ``escalates`` and runs the l-series
and the binary64 terms as numpy operations over the entries of each route.
Only the entries that need extended precision are evaluated one at a time.
``evaluate`` (the term route) and ``evaluate_near_origin`` (the l-series)
take one float s, as one-element arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import mpmath
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
    "escalates",
    "dump",
]

S_MIN = 1e-3
SERIES_SWITCH = 0.2  # below this, evaluate_many prefers the l-series route
SERIES_ORDER_CAP = 30

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


def _poly_eval_mp(p: Poly, a: "mpmath.mpf") -> "mpmath.mpf":
    acc = mpmath.mpf(0)
    for v in reversed(p):
        acc = acc * a + mpmath.mpf(v.numerator) / v.denominator
    return acc


def _poly_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        v = p[k]
        if v == 0:
            continue
        if k == 0:
            mono = str(v)
        else:
            head = "a" if k == 1 else f"a^{k}"
            if v == 1:
                mono = head
            elif v == -1:
                mono = f"-{head}"
            else:
                mono = f"{v}*{head}"
        parts.append(mono)
    out = parts[0]
    for mono in parts[1:]:
        out += f" - {mono[1:]}" if mono.startswith("-") else f" + {mono}"
    return out


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
    ``derivative_terms(n)``.
    """

    n: int
    a: float
    E: float

    @property
    def terms(self) -> tuple[GTerm, ...]:
        """The canonical term set of G^(n), shared by every rate."""
        return derivative_terms(self.n)

    @property
    def cancellation_exponent(self) -> int:
        """Largest r - p over terms: the s->0 blowup order of individual terms."""
        return _term_table(self.n)[0]

    @cached_property
    def f64_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
        """c(a) in binary64 and the powers p, q, r per term, as (terms, 1)
        float arrays, zero coefficients dropped; q is None when no term has a
        cosh factor."""
        _, p, q, r = _term_table(self.n)
        c = [_poly_eval(t.coeff_f64, self.a) for t in self.terms]
        if 0.0 in c:
            keep = np.array(c) != 0.0
            c, p, r = np.array(c)[keep], p[keep], r[keep]
            q = None if q is None else q[keep]
        return np.array(c)[:, None], p, q, r


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
def _term_table(n: int) -> tuple[int, np.ndarray, np.ndarray | None, np.ndarray]:
    """Rate-free data of derivative_terms(n): the cancellation exponent, and
    the powers p, q, r as (terms, 1) float columns, q None when no term has
    a cosh factor."""
    terms = derivative_terms(n)
    blowup = max([0] + [t.r - t.p for t in terms])
    p, q, r = (np.array([[float(getattr(t, k))] for t in terms]) for k in "pqr")
    return blowup, p, (q if q.any() else None), r


def expression(n: int, a: float, E: float) -> GExpression:
    """G^(n) at rate a and shift E, using the cached term sets."""
    if not a > 0.0:
        raise ValueError("rate a must be positive (diffusive branch)")
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    return GExpression(n, float(a), float(E))


# --- evaluation: term route -------------------------------------------------

@lru_cache(maxsize=None)
def _escalation_switch(blowup: int) -> float:
    """The s below which the term route escalates to mpmath.

    Terms blow up like s^-blowup, so about blowup * log10(1/s) digits are
    lost; the route escalates when that exceeds 3.  Returned is the least
    float s at which the rule no longer holds, so that ``s < switch``
    applies it exactly, to a float or an array, and s = 0 needs no
    logarithm.
    """
    def loses(s: float) -> bool:
        return s < 1.0 and blowup * math.log10(1.0 / s) > 3.0

    if blowup == 0:
        return 0.0
    s = 10.0 ** (-3.0 / blowup)
    while loses(s):
        s = math.nextafter(s, 1.0)
    while not loses(math.nextafter(s, 0.0)):
        s = math.nextafter(s, 0.0)
    return s


def escalates(g: GExpression, s):
    """Whether the term route needs extended precision at s (float or array)."""
    return s < _escalation_switch(g.cancellation_exponent)


def _terms_many(g: GExpression, s: np.ndarray) -> np.ndarray:
    """The binary64 term route at every entry of s, all s > 0.

    One (terms, nodes) matrix of exp(base + p log s + q log cosh s
    - r log sinh s) c, reduced over the terms with a compensated sum.
    Working with log magnitudes keeps sinh^r and the Gaussian prefactor
    from overflowing separately; their combined exponent is moderate.
    """
    c, p, q, r = g.f64_columns
    expo = 0.5 * math.log(g.a / math.pi) - g.a * s * s + g.E + p * np.log(s)
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
    return _compensated_row_sum(rows)


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


# digits kept on top of the blowup * log10(1/s) that the terms cancel
_MP_GUARD_DIGITS = 25


def _evaluate_terms_mp(g: GExpression, s: float) -> float:
    """The term route at one s in mpmath, from the exact rational coefficients."""
    blowup = g.cancellation_exponent
    digits = _MP_GUARD_DIGITS + int(math.ceil(blowup * math.log10(1.0 / s)))
    with mpmath.workdps(digits):
        sm = mpmath.mpf(s)
        am = mpmath.mpf(g.a)
        ch = mpmath.cosh(sm)
        sh = mpmath.sinh(sm)
        total = mpmath.mpf(0)
        for t in g.terms:
            total += _poly_eval_mp(t.coeff, am) * sm**t.p * ch**t.q / sh**t.r
        pref = mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * sm * sm + g.E)
        return float(pref * total)


def _terms(g: GExpression, s: np.ndarray) -> np.ndarray:
    """The term route at every entry of an array s > 0: binary64 over the
    array, and one entry at a time in mpmath where it ``escalates``."""
    # escalates holds only below a cut in s, so the smallest s decides
    if not escalates(g, s.min(initial=math.inf)):
        return _terms_many(g, s)
    mp = escalates(g, s)
    out = np.empty_like(s)
    if not mp.all():
        out[~mp] = _terms_many(g, s[~mp])
    for i in np.flatnonzero(mp):
        out[i] = _evaluate_terms_mp(g, float(s[i]))
    return out


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


# callers reuse one rate at a time (a table row, the nodes of a kernel
# call); over two certify rounds it served 496 hits to 40 misses, 223 of
# the hits for another expression at the same rate
@lru_cache(maxsize=128)
def _h_series(a: float) -> tuple[float, ...]:
    """Taylor coefficients of exp(-a v(w)) around w = l - 1 = 0."""
    order = SERIES_ORDER_CAP
    v = _arccosh_sq_series(order)
    gcoef = [-a * float(vk) for vk in v]
    h = [0.0] * (order + 1)
    h[0] = 1.0
    for m in range(1, order + 1):
        acc = 0.0
        for k in range(1, m + 1):
            if gcoef[k]:
                acc += k * gcoef[k] * h[m - k]
        h[m] = acc / m
    return tuple(h)


@lru_cache(maxsize=None)
def _falling_factorials(n: int) -> tuple[float, ...]:
    """j!/(j-n)! for j = 0..SERIES_ORDER_CAP, as the product j (j-1) ... (j-n+1)."""
    out = []
    for j in range(SERIES_ORDER_CAP + 1):
        falling = 1.0
        for i in range(n):
            falling *= j - i
        out.append(falling)
    return tuple(out)


def _series_many(g: GExpression, s: np.ndarray) -> np.ndarray:
    """d^n/dl^n of the base function at every entry of s, via the w = l - 1
    power series: sum_{j>=n} h_j j!/(j-n)! w0^(j-n), by Horner from the top."""
    n, a = g.n, g.a
    w0 = 2.0 * np.sinh(0.5 * s) ** 2  # cosh(s) - 1, cancellation-free
    h = _h_series(a)
    falling = _falling_factorials(n)
    acc = np.zeros_like(w0)
    for j in range(len(h) - 1, n - 1, -1):
        acc *= w0
        acc += h[j] * falling[j]
    return math.sqrt(a / math.pi) * math.exp(g.E) * acc


def series_ok(a: float, s):
    """Whether the l-series route is trustworthy at this (a, s); s a float or array.

    The series alternates with effective argument ~ 2 a (cosh s - 1); for
    large argument it cancels like the termwise sum of exp(-x), so it is
    restricted to a * s^2 <= 3 on top of the geometric radius.
    """
    return (s < SERIES_SWITCH) & (a * s * s <= 3.0)


# --- evaluation: entry points ---------------------------------------------------

def evaluate(g: GExpression, s: float) -> float:
    """Sum the canonical terms times the prefactor at one s >= S_MIN.

    Individual terms blow up like s^-(r-p) while their sum stays finite, so
    for small s the summation is done in extended precision (the
    coefficients are exact rationals); the binary64 path sums with
    compensation.
    """
    if s < S_MIN:
        raise ValueError(f"s={s:g} below S_MIN={S_MIN:g}; use evaluate_near_origin")
    return float(_terms(g, np.array([float(s)]))[0])


def evaluate_near_origin(g: GExpression, s: float) -> float:
    """Analytic value of the expression on [0, S_MIN] via the series in l - 1."""
    if s < 0.0 or s > S_MIN:
        raise ValueError(f"s={s:g} outside [0, {S_MIN:g}]")
    return float(_series_many(g, np.array([float(s)]))[0])


def evaluate_many(g: GExpression, s: np.ndarray) -> np.ndarray:
    """The expression at every entry of a float array s >= 0.

    Each entry takes the route that is accurate there: the l-series where
    ``series_ok`` (no small-s cancellation, mild alternation), else the
    term route, which escalates to mpmath where the terms cancel.  The
    l-series and the binary64 terms run over their entries as arrays; an
    entry's value does not depend on the other entries.
    """
    # series_ok holds only below a cut in s, so the smallest s decides
    if not series_ok(g.a, s.min(initial=math.inf)):
        return _terms(g, s)
    series = series_ok(g.a, s)
    out = np.empty_like(s)
    out[series] = _series_many(g, s[series])
    if not series.all():
        out[~series] = _terms(g, s[~series])
    return out


def dump(g: GExpression) -> str:
    """Deterministic plain-text rendering of the term set."""
    lines = []
    for t in g.terms:
        bits = [f"({_poly_str(t.coeff)})"]
        if t.p:
            bits.append(f"s^{t.p}" if t.p > 1 else "s")
        if t.q:
            bits.append("cosh(s)")
        head = " * ".join(bits)
        if t.r:
            head += f" / sinh^{t.r}(s)" if t.r > 1 else " / sinh(s)"
        lines.append(head)
    return "\n".join(lines) if lines else "0"
