import math
import sys

import numpy as np
import pytest

from pseudoheat import gfunc
from pseudoheat.kernels import (
    EvalParams,
    KernelValue,
    kernel,
    kernel_d4,
    kernel_even,
    kernel_odd,
    kernel_row,
)
from pseudoheat.quadrature import DEFAULT_SPEC, NonConvergenceError
from _oracles import mckean_by_abel_inversion, odd_reference


def test_params_derived_quantities():
    p = EvalParams(4, 1.0)
    assert p.a == pytest.approx(0.25)
    assert p.E == pytest.approx(-0.75)
    assert p.beta == pytest.approx(3.0)
    assert p.kappa == pytest.approx(1.0)
    p3 = EvalParams(3, 0.7)
    assert p3.E == 0.0
    assert p3.beta == 0.0
    p5 = EvalParams(5, 2.0, m=1.0, hbar=2.0)
    assert p5.a == pytest.approx(1.0 / 8.0)
    assert p5.E == pytest.approx(-(2.0 * 4 * 2 / 8.0) * 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        EvalParams(2, 1.0)
    with pytest.raises(ValueError):
        EvalParams(4, 0.0)
    with pytest.raises(ValueError):
        EvalParams(4, 1.0, m=-1.0)
    with pytest.raises(ValueError):
        EvalParams(4.0, 1.0)  # integer ambient dimension only


def test_kernel_d3_against_abel_inversion_oracle():
    # hbar=1, m=1/2, tau=1/2 -> a = 1/2
    p = EvalParams(3, 0.5)
    got = kernel(p, 1.0).value
    ref = mckean_by_abel_inversion(p.a, 1.0)
    assert got == pytest.approx(ref, rel=1e-5)


def test_kernel_d3_tail_decay():
    p = EvalParams(3, 0.5)
    vals = [kernel(p, s).value for s in (5.0, 6.0, 7.0, 8.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-12


def test_kernel_d3_small_time_gaussian_exponent():
    p = EvalParams(3, 1e-3)
    v = kernel(p, 1.0).value
    assert -math.log(v) * (4.0 * p.tau) / 1.0 == pytest.approx(1.0, abs=0.02)


def test_kernel_d4_values():
    p = EvalParams(4, 1.0)
    a = p.a
    # s -> 0 limit is the prefactor alone
    assert kernel_d4(p, 0.0).value == pytest.approx((a / math.pi) ** 1.5 * math.exp(p.E), rel=1e-14)
    want = (1.0 / (4 * math.pi)) ** 1.5 * (1.0 / math.sinh(1.0)) * math.exp(-0.25 - 0.75)
    assert kernel_d4(p, 1.0).value == pytest.approx(want, rel=1e-14)
    assert kernel_d4(p, 1.0).err_est == 0.0


def test_kernel_even_reduces_to_d4_closed_form():
    p = EvalParams(4, 1.0)
    for s in np.linspace(0.1, 5.0, 25):
        closed = kernel_d4(p, float(s)).value
        alg = kernel_even(p, float(s)).value
        assert abs(alg - closed) <= 1e-12 * closed


def test_kernel_even_d6_against_fd_oracle():
    from pseudoheat.verify import richardson_dl_derivative

    p = EvalParams(6, 1.0)
    got = kernel_even(p, 1.0).value
    ref = (-1.0 / (2.0 * math.pi)) ** 2 * richardson_dl_derivative(p.a, p.E, 2, 1.0)
    assert got > 0.0
    assert got == pytest.approx(ref, rel=1e-6)


# tau -> s values per odd D: every odd D route at tiny, moderate and large
# tau, at the origin and in the Gaussian tail; (3, 0.01, 3) is the point
# where perfbench/reference.py is off by 1.1e-5
_ODD_REFERENCE_POINTS = {
    3: [(0.01, 3.0), (1e-3, 1.0), (30.0, 6.0)],
    5: [(1e-3, 0.0), (0.5, 0.0), (30.0, 3.0)],
    7: [(0.01, 0.15), (2.0, 1.0)],
    9: [(0.01, 1.0), (0.5, 3.0)],
    15: [(0.5, 1.0), (0.5, 6.0)],
}


@pytest.mark.parametrize("dim", sorted(_ODD_REFERENCE_POINTS))
def test_kernel_odd_matches_independent_reference(dim):
    if dim == 3:
        assert odd_reference(3, 0.01, 3.0) == pytest.approx(8.3649164424754e-98, rel=1e-12)
    for tau, s in _ODD_REFERENCE_POINTS[dim]:
        ref = odd_reference(dim, tau, s)
        kv = kernel(EvalParams(dim, tau), s)
        assert abs(kv.value - ref) <= 1e-9 * abs(ref), (tau, s, kv.value, ref)
        assert kv.err_est >= abs(kv.value - ref), (tau, s, kv.err_est, kv.value - ref)


@pytest.mark.xfail(
    strict=True,
    reason="node values carry gfunc's own rounding (its binary64 term route loses up to "
    "~5 digits just above the mpmath switch), which no quadrature estimate sees; "
    "err_est misses it by 2-20% at these points",
)
def test_kernel_odd_err_est_covers_term_route_rounding():
    for dim, tau, s in [(9, 0.5, 1.0), (15, 0.01, 0.0), (15, 0.5, 0.0)]:
        ref = odd_reference(dim, tau, s)
        kv = kernel(EvalParams(dim, tau), s)
        assert abs(kv.value - ref) <= 1e-9 * abs(ref), (dim, tau, s)
        assert kv.err_est >= abs(kv.value - ref), (dim, tau, s, kv.err_est, kv.value - ref)


def test_kernel_odd_positive_and_continuous_at_origin():
    p = EvalParams(5, 1.0)
    v0 = kernel_odd(p, 0.0).value
    v1 = kernel_odd(p, 1e-3).value
    assert v0 > 0.0
    assert v1 == pytest.approx(v0, rel=1e-5)


def test_dispatcher_routes_by_dimension():
    assert kernel(EvalParams(3, 1.0), 0.5).D == 3
    assert kernel(EvalParams(3, 1.0), 0.5).value == kernel_odd(EvalParams(3, 1.0), 0.5).value
    assert kernel(EvalParams(4, 1.0), 0.5).err_est == 0.0
    assert kernel(EvalParams(6, 1.0), 0.5).value == kernel_even(EvalParams(6, 1.0), 0.5).value
    assert kernel(EvalParams(5, 1.0), 0.5).value == kernel_odd(EvalParams(5, 1.0), 0.5).value
    with pytest.raises(ValueError):
        kernel(EvalParams(4, 1.0), -0.5)
    with pytest.raises(ValueError):
        kernel_odd(EvalParams(4, 1.0), 1.0)
    with pytest.raises(ValueError):
        kernel_d4(EvalParams(3, 1.0), 1.0)
    with pytest.raises(ValueError):
        kernel_even(EvalParams(5, 1.0), 1.0)
    with pytest.raises(ValueError):
        kernel_odd(EvalParams(6, 1.0), 1.0)


def test_positivity_and_monotone_decay_sample():
    for d in range(3, 9):
        p = EvalParams(d, 0.5)
        vals = [kernel(p, float(s)).value for s in np.linspace(0.0, 6.0, 13)]
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_derivative_term_cache_consistent_with_stepwise_application():
    # the recursion structure: applying the operator once more to order n-1
    # reproduces the cached order-n term set exactly
    for n in range(1, 7):
        stepped = gfunc._apply_rules(gfunc.derivative_terms(n - 1))
        assert stepped == gfunc.derivative_terms(n)


def test_expression_reuse_is_pure():
    g1 = gfunc.expression(3, 0.25, -0.5)
    g2 = gfunc.expression(3, 0.25, -0.5)
    assert g1 == g2
    assert gfunc.evaluate(g1, 1.0) == gfunc.evaluate(g2, 1.0)


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_kernel_general_units(dim):
    # rate and shift transform consistently when m and hbar move off defaults
    p = EvalParams(dim, 0.8, m=1.3, hbar=0.7)
    kv = kernel(p, 1.2)
    assert kv.value > 0.0
    assert p.a == pytest.approx(1.3 / (2 * 0.7 * 0.8))


def test_kernel_far_tail_no_overflow():
    # deep tail: sinh powers and the Gaussian must combine without overflow
    for dim in (4, 6, 8):
        kv = kernel(EvalParams(dim, 2.0), 25.0)
        assert kv.value >= 0.0 and math.isfinite(kv.value)


def test_semigroup_general_units():
    from pseudoheat.verify import chapman_kolmogorov

    half = EvalParams(4, 0.4, m=1.0, hbar=2.0)
    rep = chapman_kolmogorov(half, half, 1.0)
    assert rep.passed, rep


# --- the batched odd-D row ------------------------------------------------------

_ROW_TAUS = (1e-3, 0.5, 2.0, 30.0)
# the origin, the l-series region, D = 9 nodes that escalate to mpmath
# (s in [0.2, 0.32)), the log1p branch of the term route (s > 20), and a
# tail where the value is below 1e-60 (tau 0.5, s 17)
_ROW_S = (0.0, 0.05, 0.12, 0.21, 0.3, 1.0, 3.0, 17.0, 25.0)


def _same(a, b):
    """Bit-equal KernelValues, or errors of the same type and message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [3, 5, 7, 9, 15])
def test_kernel_row_values_do_not_depend_on_the_row(dim):
    seen_tail = False
    for tau in _ROW_TAUS:
        p = EvalParams(dim, tau)
        row = kernel_row(p, _ROW_S)
        reversed_row = kernel_row(p, _ROW_S[::-1])[::-1]
        for s, kv, kv_rev in zip(_ROW_S, row, reversed_row):
            try:
                alone = kernel(p, s)
            except (ArithmeticError, RuntimeError) as exc:
                alone = exc
            assert _same(alone, kv), (tau, s, alone, kv)
            assert _same(kv, kv_rev), (tau, s)
            seen_tail |= isinstance(kv, KernelValue) and 0.0 < kv.value < 1e-60
    assert seen_tail


def _parent_integrate_abel(F, d, decay_rate, spec=DEFAULT_SPEC):
    """The scalar Abel trapezoid rule as it stood before batching, node by node."""
    from pseudoheat.quadrature import _ABEL_MAX_HALVINGS, _ABEL_ROUNDING, _ABEL_STRETCH, gaussian_cutoff

    s_max = gaussian_cutoff(d, decay_rate, spec.truncation_sigma)
    t_max = math.asinh(math.sqrt(2.0 * math.sinh(0.5 * (s_max + d)) * math.sinh(0.5 * (s_max - d))))
    u_max = _ABEL_STRETCH * math.asinh(t_max / _ABEL_STRETCH)
    w_d = 2.0 * math.sinh(0.5 * d) ** 2

    def node_sum(us):
        total = weighted = v = 0.0
        for u in us:
            x = math.sinh(u / _ABEL_STRETCH)
            t = _ABEL_STRETCH * x
            sh = math.sinh(t)
            w = w_d + sh * sh
            s = math.log1p(w + math.sqrt(w) * math.sqrt(w + 2.0))
            v = 2.0 * F(s) * math.cosh(t) * math.sqrt(1.0 + x * x)
            total += v
            weighted += abs(v) * (1.0 + decay_rate * s * s)
        return total, weighted, v

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
        err = abs(value - coarse) + h * (_ABEL_ROUNDING * weighted + abs(last))
        if err <= max(spec.rel_tol * abs(value), spec.abs_tol):
            return value, err
        h *= 0.5
        n *= 2
    raise NonConvergenceError(value, err)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", sorted(_ODD_REFERENCE_POINTS))
def test_kernel_odd_matches_the_scalar_node_loop(dim):
    # the batched rule sums the same nodes as the scalar loop, with numpy's
    # exp/log/sinh/cosh for math's and a different summation order: 1e-12
    # relative, or the value's own error estimate where abs_tol governs
    k = (dim - 1) // 2
    front = math.sqrt(2.0) * (-1.0 / (2.0 * math.pi)) ** k
    for tau, s in _ODD_REFERENCE_POINTS[dim]:
        p = EvalParams(dim, tau)
        g = gfunc.expression(k, p.a, p.E)
        old = front * _parent_integrate_abel(lambda x: gfunc.evaluate_auto(g, x), s, p.a)[0]
        kv = kernel(p, s)
        assert abs(kv.value - old) <= max(1e-12 * abs(old), kv.err_est), (tau, s, kv.value, old)


_EPS = sys.float_info.epsilon


def _terms_tolerance(g, s):
    """Bound on |evaluate_many - evaluate_auto| on the binary64 term route.

    Both sum the same terms x_i = c_i exp(E_i), E_i = base + p log s
    + q log cosh s - r log sinh s, with the same operations; only numpy's
    log, cosh, sinh and exp differ from math's, by at most 4 ulp each side
    (8 eps relative between them).  That moves each E_i by at most
    8 eps (p |log s| + q (1 + |log cosh s|) + r (1 + |log sinh s|)), the
    re-rounded sum by 4 eps (|base| + the same magnitudes), and exp by
    8 eps: 16 eps M_i |x_i| in all, summed over the terms, plus the final
    roundings of the two compensated sums (2 eps |value|).  Cancellation
    among the terms enters through sum |x_i| against |value|.
    """
    log_s, log_ch, log_sh = math.log(s), math.log(math.cosh(s)), math.log(math.sinh(s))
    base = 0.5 * math.log(g.a / math.pi) - g.a * s * s + g.E
    bound = 0.0
    for c, p_, q_, r_ in g.f64_terms:
        mags = p_ * abs(log_s) + q_ * (1.0 + abs(log_ch)) + r_ * (1.0 + abs(log_sh))
        expo = base + p_ * log_s + q_ * log_ch - r_ * log_sh
        bound += abs(c) * math.exp(expo) * (1.0 + abs(base) + mags)
    return 16.0 * _EPS * bound + 2.0 * _EPS * abs(gfunc.evaluate_auto(g, s)) + sys.float_info.min


def _series_tolerance(g, s):
    """Bound on |evaluate_many - evaluate_auto| on the l-series route.

    Both run the same Horner loop over c_m = h_{n+m} (n+m)!/m! in
    w0 = 2 sinh(s/2)^2; numpy's sinh differs from math's by at most 8 eps,
    so w0 by at most 20 eps, which moves each c_m w0^m by 20 m eps; each
    Horner loop rounds c_m w0^m at most 2m + 2 times (4 (m + 1) eps for the
    two).  Cancellation enters through sum |c_m w0^m| against the value.
    """
    n, a = g.n, g.a
    h, falling = gfunc._h_series(a), gfunc._falling_factorials(n)
    w0 = 2.0 * math.sinh(0.5 * s) ** 2
    bound = sum(
        (20.0 * m + 4.0 * (m + 1)) * abs(h[n + m] * falling[n + m]) * w0**m for m in range(len(h) - n)
    )
    return _EPS * math.sqrt(a / math.pi) * math.exp(g.E) * bound + sys.float_info.min


@pytest.mark.filterwarnings("error")
def test_array_routes_are_evaluate_auto_routes(monkeypatch):
    # every node the batched kernel hands gfunc: the route evaluate_many
    # takes, against the one evaluate_auto takes at that node alone
    seen = []  # (expression, route, s, value)

    def spy(route, fn):
        def wrapped(g, s):
            out = fn(g, s)
            if route == "mp":
                seen.append((g, route, s, out))
            else:
                seen.extend((g, route, si, vi) for si, vi in zip(s.tolist(), np.atleast_1d(out).tolist()))
            return out

        return wrapped

    monkeypatch.setattr(gfunc, "_series_many", spy("series", gfunc._series_many))
    monkeypatch.setattr(gfunc, "_terms_many", spy("f64", gfunc._terms_many))
    monkeypatch.setattr(gfunc, "_evaluate_terms", spy("mp", gfunc._evaluate_terms))
    for dim in (3, 9, 15):
        for tau in _ROW_TAUS:
            kernel_row(EvalParams(dim, tau), (0.0, 0.12, 0.21, 0.3, 1.0, 25.0))
    monkeypatch.undo()
    assert {route for _, route, _, _ in seen} == {"series", "f64", "mp"}

    taken = []  # the route of one evaluate_auto call
    series_value, terms_mp = gfunc._series_value, gfunc._evaluate_terms_mp

    def series_spy(g, s):
        taken.append("series")
        return series_value(g, s)

    def mp_spy(g, s, blowup):
        taken.append("mp")
        return terms_mp(g, s, blowup)

    monkeypatch.setattr(gfunc, "_series_value", series_spy)
    monkeypatch.setattr(gfunc, "_evaluate_terms_mp", mp_spy)
    for route in ("series", "f64", "mp"):
        nodes = [node for node in seen if node[1] == route]
        for g, _, s, value in nodes[:: max(1, len(nodes) // 400)]:  # the mpmath nodes are slow
            taken.clear()
            auto = gfunc.evaluate_auto(g, s)
            assert taken == ([] if route == "f64" else [route]), (g.n, g.a, s, route, taken)
            if route == "mp":
                assert value == auto, (g.n, g.a, s)
            else:
                tol = _series_tolerance(g, s) if route == "series" else _terms_tolerance(g, s)
                assert abs(value - auto) <= tol, (g.n, g.a, s, route, value, auto)


@pytest.mark.filterwarnings("error")
def test_kernel_odd_long_time_nodes_stay_finite():
    # at tau = 1000 the Gaussian cutoff is near s = 540, where cosh s - 1 is
    # ~1e233: the node map must take its square root in two factors
    for dim in (3, 5):
        vals = [kv.value for kv in kernel_row(EvalParams(dim, 1000.0), (0.0, 1.0, 6.0))]
        assert all(math.isfinite(v) and v >= 0.0 for v in vals), (dim, vals)
    assert kernel(EvalParams(3, 1000.0), 0.0).value == pytest.approx(6.972001165339247e-06, rel=1e-9)
