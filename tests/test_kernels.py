import math
import sys

import mpmath
import numpy as np
import pytest

from pseudoheat import gfunc, kernels, quadrature
from pseudoheat.kernels import (
    SAMPLED_SPEC,
    EvalParams,
    KernelValue,
    kernel,
    kernel_array,
    kernel_d4,
    kernel_even,
    kernel_row,
)
from pseudoheat.quadrature import DEFAULT_SPEC, NonConvergenceError, QuadratureSpec
from _oracles import even_reference, mckean_by_abel_inversion, odd_reference


def test_params_derived_quantities():
    p = EvalParams(4, 1.0)
    assert p.a == pytest.approx(0.25)
    assert p.E == pytest.approx(-0.75)
    assert p.kappa == pytest.approx(1.0)
    p3 = EvalParams(3, 0.7)
    assert p3.E == 0.0
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


def test_kernel_d4_past_sinh_overflow_underflows_to_zero():
    # math.sinh overflows past s ~ 710.48; the kernel there is far below the
    # smallest subnormal, at tau 1 as at tau 1e6 with m 1e-3
    for p in (EvalParams(4, 1.0), EvalParams(4, 1e6, m=1e-3)):
        for s in (710.48, 800.0, 1e5, 1e300):
            assert kernel(p, s).value == 0.0
        assert kernel(p, 710.4).value == 0.0  # sinh(710.4) is still finite
    # the in-range branch keeps its formula
    p = EvalParams(4, 1.0)
    want = (p.a / math.pi) ** 1.5 * (30.0 / math.sinh(30.0)) * math.exp(-p.a * 30.0 * 30.0 + p.E)
    assert kernel_d4(p, 30.0).value == want


def test_kernel_d4_overflow_is_a_binary64_overflow():
    # (a/pi)^1.5 overflows to inf at tau = 1e-300, and the value with it
    p = EvalParams(4, 1e-300)
    with pytest.raises(OverflowError, match=r"^binary64 overflow .* at D=4, tau=1e-300, s=1.0 in kernel_d4$"):
        kernel(p, 1.0)
    (failure,) = kernel_row(p, [1.0])
    assert isinstance(failure, OverflowError) and str(failure).startswith("binary64 overflow")
    assert math.isnan(failure.value) and failure.err_est == math.inf


@pytest.mark.filterwarnings("error")
def test_d4_row_over_many_tau_equals_lone_calls():
    # the front (a/pi)^1.5 is Python's float power per rate, alone or in a
    # row: numpy's array power rounds some of these 64 rates differently.
    # At s = 0 the kernel is the front times exp(E)
    p = EvalParams(4, 1.0)
    taus = np.linspace(0.05, 3.0, 64).tolist()
    for s in (0.0, 1.0):
        row = [kv.value for kv in kernel_row(p, [s] * 64, tau=taus)]
        assert row == [kernel(p.with_tau(tau), s).value for tau in taus]
    fronts = [(q.a / math.pi) ** 1.5 * float(np.exp(q.E)) for q in map(p.with_tau, taus)]
    assert [kv.value for kv in kernel_row(p, [0.0] * 64, tau=taus)] == fronts


# at rel 1e-13 / abs 1e-300 the Abel integral at D = 7, tau 0.1, s 12 does not
# converge within its halvings
_TIGHT = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)


def test_odd_nonconvergence_carries_the_kernels_value_and_estimate():
    # the failure is scaled by the front factor sqrt(2) (-1/(2 pi))^3 like
    # the value, not left as the raw Abel integral's (9.6e-178 here); the
    # value it carries is the one rel 1e-12 converges to (the default spec's
    # is 4.6e-9 off, inside its own err_est)
    p = EvalParams(7, 0.1)
    with pytest.raises(NonConvergenceError) as info:
        kernel(p, 12.0, _TIGHT)
    value = kernel(p, 12.0, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)).value
    assert info.value.value == pytest.approx(value, rel=1e-9)
    assert 0.0 < info.value.err_est < 1e-12 * value
    assert f"err_est={info.value.err_est:g}" in str(info.value)
    (failure,) = kernel_row(p, [12.0], _TIGHT)
    assert (failure.value, failure.err_est) == (info.value.value, info.value.err_est)


@pytest.mark.parametrize("dim, tau, s", [(15, 0.5, 0.0), (15, 1.0, 0.1), (11, 2.0, 0.05)])
def test_odd_kernel_converges_at_the_tight_spec(dim, tau, s):
    # a fixed s-switch left Abel nodes on binary64 terms that cancel past
    # 1e3, and the integral did not converge here at rel 1e-13 / abs 1e-300
    ref = odd_reference(dim, tau, s)
    kv = kernel(EvalParams(dim, tau), s, _TIGHT)
    assert abs(kv.value - ref) <= 1e-12 * abs(ref), (kv.value, ref)


def test_kernel_even_reduces_to_d4_closed_form():
    p = EvalParams(4, 1.0)
    for s in np.linspace(0.1, 5.0, 25):
        closed = kernel_d4(p, float(s)).value
        alg = kernel_even(p, float(s)).value
        assert abs(alg - closed) <= 1e-12 * closed


@pytest.mark.parametrize(
    "dim, tau, s, rel",
    [(20, 2.0, 0.7, 2e-11), (20, 1.0, 0.7, 2e-11), (26, 1.0, 1.0, 2e-11), (20, 5.0, 1.0, 2e-11),
     (14, 5.0, 0.6, 2e-11), (20, 1e-4, 0.05, 1e-13)],
)
def test_kernel_even_where_the_terms_cancel_or_do_not(dim, tau, s, rel):
    # G^(n) where its binary64 terms cancel by 2e5-2e7 (Cauchy's integral
    # must be taken), and at tau 1e-4, s 0.05, where they cancel by 49 only
    # (the terms are more accurate than Cauchy's rounding of a s^2 ~ 6)
    ref = even_reference(dim, tau, s)
    value = kernel(EvalParams(dim, tau), s).value
    assert abs(value - ref) <= rel * abs(ref), (value, ref)


@pytest.mark.parametrize("tau", [1e-6, 1e-4])
@pytest.mark.parametrize("dim", [16, 20, 30])
def test_l_series_keeps_its_terms_past_high_orders(dim, tau):
    # at a s^2 = 2.9, the edge of series_ok, the l-series of G^(n) needs
    # about 30 terms past w^0; cut at j <= 30 whatever n was, it was 3.3e-12
    # off at D = 16, 2.2e-10 at D = 20 and 8.1e-8 at D = 30 (tau 1e-6)
    p = EvalParams(dim, tau)
    s = math.sqrt(2.9 / p.a)
    ref = even_reference(dim, tau, s)
    value = kernel(p, s).value
    assert abs(value - ref) <= 1e-13 * abs(ref), (value, ref)


def test_kernel_even_d6_against_fd_oracle():
    from pseudoheat.verify import richardson_dl_derivative

    p = EvalParams(6, 1.0)
    got = kernel_even(p, 1.0).value
    ref = (-1.0 / (2.0 * math.pi)) ** 2 * richardson_dl_derivative(p.a, p.E, 2, 1.0)
    assert got > 0.0
    assert got == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("dim", [6, 8, 12, 20])
def test_kernel_even_matches_independent_reference(dim):
    ss = (0.0, 0.1, 0.3, 0.6, 1.0, 3.0, 6.0)
    for tau in (0.01, 0.25, 1.0, 30.0):
        for s, kv in zip(ss, kernel_row(EvalParams(dim, tau), ss)):
            ref = even_reference(dim, tau, s)
            assert abs(kv.value - ref) <= 1e-9 * abs(ref), (tau, s, kv.value, ref)


@pytest.mark.parametrize("dim", [10, 12, 16])
def test_even_reference_keeps_its_digits_at_large_s(dim):
    # at s = 30 (l = cosh s ~ 5e12) a 40-digit finite difference lost the
    # derivative: 1.7e-9 off at D = 10 and orders of magnitude at D = 16
    p = EvalParams(dim, 5.0)
    n = (dim - 2) // 2
    exact = (-0.5 / math.pi) ** n * _term_sum_mp(gfunc.expression(n, p.a, p.E), 30.0)
    assert even_reference(dim, 5.0, 30.0) == pytest.approx(exact, rel=1e-12, abs=0.0)


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


def test_kernel_odd_err_est_covers_term_route_rounding():
    # node values carry gfunc's own rounding (binary64 terms that cancel by
    # up to 1e3), which no quadrature estimate sees; the Abel estimate of the
    # first grid covers it at these points, though not at every point (at
    # SAMPLED_SPEC, D = 15, tau 0.5, s 0, 0.5 and 1 still miss)
    for dim, tau, s in [(9, 0.5, 1.0), (15, 0.01, 0.0), (15, 0.5, 0.0)]:
        ref = odd_reference(dim, tau, s)
        kv = kernel(EvalParams(dim, tau), s)
        assert abs(kv.value - ref) <= 1e-9 * abs(ref), (dim, tau, s)
        assert kv.err_est >= abs(kv.value - ref), (dim, tau, s, kv.err_est, kv.value - ref)


@pytest.mark.parametrize("dim, tau", [(3, 0.5), (7, 1.0)])
def test_kernel_odd_row_stops_at_its_first_grid(monkeypatch, dim, tau):
    # the Abel estimate knows the trapezoid's rate, so these rows stop on the
    # first grid, one pass over the integrand where a halving takes two, and
    # that grid is within 2e-12 of the reference, its err_est covering it.
    # (D = 7, s = 6, a value of 3.7e-14, stops on DEFAULT_SPEC's abs_tol and
    # is 1.02e-12 off)
    passes = []
    abel_nodes = quadrature._abel_nodes
    monkeypatch.setattr(quadrature, "_abel_nodes", lambda *args: passes.append(1) or abel_nodes(*args))
    ss = np.linspace(0.0, 6.0, 7)
    row = kernel_row(EvalParams(dim, tau), ss)
    assert len(passes) == 1
    for s, kv in zip(ss.tolist(), row):
        ref = odd_reference(dim, tau, s)
        assert abs(kv.value - ref) <= 2e-12 * abs(ref), (s, kv.value, ref)
        assert kv.err_est >= abs(kv.value - ref), (s, kv.err_est, kv.value - ref)


def test_kernel_odd_positive_and_continuous_at_origin():
    p = EvalParams(5, 1.0)
    v0 = kernel(p, 0.0).value
    v1 = kernel(p, 1e-3).value
    assert v0 > 0.0
    assert v1 == pytest.approx(v0, rel=1e-5)


def test_dispatcher_routes_by_dimension():
    assert kernel(EvalParams(3, 1.0), 0.5).D == 3
    assert kernel(EvalParams(3, 1.0), 0.5).err_est > 0.0  # the Abel quadrature's estimate
    assert kernel(EvalParams(4, 1.0), 0.5) == kernel_d4(EvalParams(4, 1.0), 0.5)
    assert kernel(EvalParams(4, 1.0), 0.5).err_est == 0.0
    assert kernel(EvalParams(6, 1.0), 0.5) == kernel_even(EvalParams(6, 1.0), 0.5)
    with pytest.raises(ValueError):
        kernel(EvalParams(4, 1.0), -0.5)
    with pytest.raises(ValueError):
        kernel(EvalParams(5, 1.0), -0.5)
    with pytest.raises(ValueError):
        kernel_d4(EvalParams(3, 1.0), 1.0)
    with pytest.raises(ValueError):
        kernel_even(EvalParams(5, 1.0), 1.0)


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
    from pseudoheat.verify import chapman_kolmogorov_many

    half = EvalParams(4, 0.4, m=1.0, hbar=2.0)
    (rep,) = chapman_kolmogorov_many(half, half, [1.0])
    assert rep.passed, rep


# --- the batched row ------------------------------------------------------------

_ROW_TAUS = (1e-3, 0.5, 2.0, 30.0)
# the origin, the l-series region, D = 9 nodes where the terms cancel
# (s in [0.2, 0.32)), the log1p branch of the term route (s > 20), and a
# tail where the value is below 1e-60 (tau 0.5, s 17)
_ROW_S = (0.0, 0.05, 0.12, 0.21, 0.3, 1.0, 3.0, 17.0, 25.0)


def _same(a, b):
    """Bit-equal KernelValues, or errors of the same type and message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, 9, 15, 20])
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
    from pseudoheat.quadrature import (
        _ABEL_STRETCH,
        _MAX_HALVINGS,
        _ROUNDING,
        TRUNCATION_SIGMA,
        gaussian_cutoff,
    )

    s_max = gaussian_cutoff(d, decay_rate, TRUNCATION_SIGMA)
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
    for _ in range(_MAX_HALVINGS + 1):
        more, more_weighted, _ = node_sum(j * h for j in range(1, n, 2))
        total += more
        weighted += more_weighted
        coarse, value = value, h * total
        err = abs(value - coarse) + h * (_ROUNDING * weighted + abs(last))
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

        def node(x):
            return float(gfunc.evaluate_many(g, np.array([x]), np.zeros(1, dtype=np.intp))[0])

        old = front * _parent_integrate_abel(node, s, p.a)[0]
        kv = kernel(p, s)
        assert abs(kv.value - old) <= max(1e-12 * abs(old), kv.err_est), (tau, s, kv.value, old)


_EPS = sys.float_info.epsilon


def _terms_tolerance(g, s):
    """Bound on the rounding error of the binary64 term route at s.

    It sums x_i = c_i exp(E_i), E_i = base + p log s + q log cosh s
    - r log sinh s.  numpy's log, cosh, sinh and exp are within 4 ulp;
    that moves each E_i by at most 4 eps (p |log s| + q (1 + |log cosh s|)
    + r (1 + |log sinh s|)), its re-rounded sum by 4 eps (|base| + the same
    magnitudes), and exp by 4 eps: 12 eps M_i |x_i|.  c_i is Horner in
    binary64 over coefficients of either sign, off by at most 2 deg eps
    times the same polynomial in |coeff|.  Both are taken at 16 eps, plus
    the compensated sum's own 2 eps |value|; cancellation among the terms
    enters through sum |x_i| against |value|.
    """
    (a,), (E,) = g.a, g.E
    log_s, log_ch, log_sh = math.log(s), math.log(math.cosh(s)), math.log(math.sinh(s))
    base = 0.5 * math.log(a / math.pi) - a * s * s + E
    bound = value = 0.0
    for t in g.terms:
        c = gfunc._poly_eval(t.coeff_f64, a)
        c_abs = gfunc._poly_eval(tuple(abs(v) for v in t.coeff_f64), a)
        mags = t.p * abs(log_s) + t.q * (1.0 + abs(log_ch)) + t.r * (1.0 + abs(log_sh))
        x = math.exp(base + t.p * log_s + t.q * log_ch - t.r * log_sh)
        bound += x * (abs(c) * (1.0 + abs(base) + mags) + c_abs * len(t.coeff))
        value += c * x
    return 16.0 * _EPS * bound + 2.0 * _EPS * abs(value) + sys.float_info.min


def _series_tolerance(g, s):
    """Bound on the error of the l-series route at s.

    It runs a Horner loop over c_m = h_{n+m} (n+m)!/m! in
    w0 = 2 sinh(s/2)^2; numpy's sinh is within 4 ulp, so w0 is within
    10 eps, which moves each c_m w0^m by 10 m eps; the loop rounds
    c_m w0^m at most 2m + 2 times, and h_j carries about j eps from its
    own recursion.  The sum of these is taken four times over, for the
    rounding of the falling factorials and the prefactor.  The series is
    cut at m = SERIES_ORDER_CAP; its next terms are far below the rounding
    where ``series_ok`` holds.  Cancellation enters through
    sum |c_m w0^m| against the value.
    """
    n, (a,), (E,) = g.n, g.a, g.E
    h = gfunc._h_series((a,), n + gfunc.SERIES_ORDER_CAP)[:, 0]
    falling = gfunc._falling_factorials(n)
    w0 = 2.0 * math.sinh(0.5 * s) ** 2
    bound = sum(
        (10.0 * m + 2.0 * (m + 1) + n + m) * abs(h[n + m] * falling[m]) * w0**m
        for m in range(gfunc.SERIES_ORDER_CAP + 1)
    )
    return 4.0 * _EPS * math.sqrt(a / math.pi) * math.exp(E) * bound + sys.float_info.min


def _term_sum_mp(g, s):
    """The canonical terms of g summed in mpmath at one s > 0, from their
    exact rational coefficients, with 65 digits on top of the
    blowup * log10(1/s) that the terms cancel, blowup the largest r - p."""
    (a,), (E,) = g.a, g.E
    digits = 65 + math.ceil(max(t.r - t.p for t in g.terms) * math.log10(1.0 / s))
    with mpmath.workdps(digits):
        sm, am = mpmath.mpf(s), mpmath.mpf(a)
        ch, sh = mpmath.cosh(sm), mpmath.sinh(sm)
        total = mpmath.mpf(0)
        for t in g.terms:
            coeff = mpmath.mpf(0)
            for v in reversed(t.coeff):
                coeff = coeff * am + mpmath.mpf(v.numerator) / v.denominator
            total += coeff * sm**t.p * ch**t.q / sh**t.r
        return float(mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * sm * sm + E) * total)


# the Cauchy route's relative error: at most 6.2e-12 over the 304 nodes of
# the test below (n = 9, a = 250)
_CAUCHY_REL = 1e-10


@pytest.mark.filterwarnings("error")
def test_array_routes_follow_the_route_predicates(monkeypatch):
    # every node the batched kernel hands gfunc, even D and odd, in rows
    # that mix the tau: the route evaluate_many takes must be the one that
    # series_ok and the terms' measured cancellation name at the entry's own
    # rate, and its value must be within that route's error of the term sum
    # in mpmath; the binary64 terms run at every non-series entry, so an
    # entry is theirs unless Cauchy's integral replaced it
    seen = []  # (one-rate expression of the entry, route, s, value)

    def spy(route, fn):
        def wrapped(g, s, rate):
            out = fn(g, s, rate)
            values = out[0] if route == "f64" else out
            a, E = (x[rate].tolist() for x in g.rates)
            seen.extend(
                (gfunc.expression(g.n, ai, Ei), route, si, vi)
                for ai, Ei, si, vi in zip(a, E, s.tolist(), values.tolist())
            )
            return out

        return wrapped

    monkeypatch.setattr(gfunc, "_series_many", spy("series", gfunc._series_many))
    monkeypatch.setattr(gfunc, "_terms_many", spy("f64", gfunc._terms_many))
    monkeypatch.setattr(gfunc, "_cauchy_many", spy("cauchy", gfunc._cauchy_many))
    ss = (0.0, 0.12, 0.21, 0.3, 1.0, 25.0)
    for dim in (3, 9, 15, 8, 20):
        kernel_row(EvalParams(dim, 1.0), ss * len(_ROW_TAUS), tau=np.repeat(_ROW_TAUS, len(ss)))
    monkeypatch.undo()
    assert {route for _, route, _, _ in seen} == {"series", "f64", "cauchy"}
    replaced = {(g, s) for g, route, s, _ in seen if route == "cauchy"}
    seen = [node for node in seen if node[1] != "f64" or (node[0], node[2]) not in replaced]

    for route in ("series", "f64", "cauchy"):
        nodes = [node for node in seen if node[1] == route]
        for g, _, s, value in nodes[:: max(1, len(nodes) // 400)]:  # the mpmath sums are slow
            series = gfunc.series_ok(g.a[0], s)
            if not series:
                total, magnitude = gfunc._terms_many(g, np.array([s]), np.zeros(1, dtype=np.intp))
                cancels = magnitude[0] > gfunc._CANCELLATION_LIMIT * abs(total[0])
            assert (series, not series and cancels) == (route == "series", route == "cauchy"), (g.n, g.a, s, route)
            if s == 0.0:  # no term sum at the origin
                continue
            exact = _term_sum_mp(g, s)
            if route == "cauchy":
                tol = _CAUCHY_REL * abs(exact) + sys.float_info.min
            else:
                tol = _series_tolerance(g, s) if route == "series" else _terms_tolerance(g, s)
            assert abs(value - exact) <= tol, (g.n, g.a, s, route, value, exact)


@pytest.mark.filterwarnings("error")
def test_kernel_odd_long_time_nodes_stay_finite():
    # at tau = 1000 the Gaussian cutoff is near s = 540, where cosh s - 1 is
    # ~1e233: the node map must take its square root in two factors
    for dim in (3, 5):
        vals = [kv.value for kv in kernel_row(EvalParams(dim, 1000.0), (0.0, 1.0, 6.0))]
        assert all(math.isfinite(v) and v >= 0.0 for v in vals), (dim, vals)
    assert kernel(EvalParams(3, 1000.0), 0.0).value == pytest.approx(6.972001165339247e-06, rel=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [1e-12, 1e-14, 1e-20])
def test_kernel_at_tiny_tau_is_its_short_time_form(tau):
    # the rate a = 1/(4 tau) reaches 2.5e19, where the l-series' coefficients
    # in w = l - 1 would overflow binary64 (they grow like (2a)^m / m!); its
    # O(tau) correction leaves the short-time form 7e-12 off at tau 1e-12
    for dim in range(3, 13):
        p = EvalParams(dim, tau)
        for s in (0.0, math.sqrt(tau), 3.0 * math.sqrt(tau)):
            ratio = s / math.sinh(s) if s else 1.0
            want = (4.0 * math.pi * tau) ** (-(dim - 1) / 2) * ratio ** ((dim - 2) / 2)
            want *= math.exp(-s * s / (4.0 * tau) + p.E)
            assert kernel(p, s).value == pytest.approx(want, rel=1e-9), (dim, s)


# --- the array view -------------------------------------------------------------


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8])
def test_kernel_array_is_the_rows_values(dim):
    # repeated and unsorted s, in the shape of a quadrature's node grid
    ss = np.array([[1.0, 0.3, 0.0, 17.0], [0.3, 6.0, 1.0, 0.05]])
    for tau in (0.01, 0.5, 30.0):
        p = EvalParams(dim, tau)
        got, failed = kernel_array(p, ss)
        assert got.shape == ss.shape and failed is None
        assert got.ravel().tolist() == [kv.value for kv in kernel_row(p, ss.ravel().tolist(), SAMPLED_SPEC)]


@pytest.mark.filterwarnings("error")
def test_kernel_array_returns_nan_and_the_failure_at_the_smallest_failing_s(monkeypatch):
    # (a/pi)^1.5 overflows at every s of a D = 4 row at tau = 1e-300
    values, failed = kernel_array(EvalParams(4, 1e-300), np.array([2.0, 0.5, 1.0]))
    assert np.isnan(values).all()
    assert isinstance(failed, OverflowError)
    assert str(failed) == "binary64 overflow (value nan) at D=4, tau=1e-300, s=0.5 in kernel_d4"
    # an odd row that fails at every s >= 1: those entries are nan, the
    # others are their lone values, and the failure is the one at s = 1
    odd_row = kernels._ROUTES["kernel_odd"]

    def failing_from_one(params, ss, spec):
        value, err, failed = odd_row(params, ss, spec)
        inject = ss >= 1.0
        return np.where(inject, 0.5, value), np.where(inject, 0.25, err), failed | inject

    monkeypatch.setitem(kernels._ROUTES, "kernel_odd", failing_from_one)
    ss = np.array([2.0, 0.5, 1.0, 2.0, 0.0])
    values, failed = kernel_array(EvalParams(5, 0.5), ss)
    assert isinstance(failed, NonConvergenceError)
    assert str(failed).endswith(" at D=5, tau=0.5, s=1.0 in kernel_odd")
    assert (failed.value, failed.err_est) == (0.5, 0.25)
    assert np.isnan(values[ss >= 1.0]).all()
    monkeypatch.undo()
    assert values[ss < 1.0].tolist() == [kernel(EvalParams(5, 0.5), s, SAMPLED_SPEC).value for s in (0.5, 0.0)]


def test_located_failures_carry_d_tau_and_s():
    with pytest.raises(NonConvergenceError) as info:
        kernel(EvalParams(7, 0.1), 12.0, _TIGHT)
    assert (info.value.D, info.value.tau, info.value.s) == (7, 0.1, 12.0)
    assert str(info.value).endswith(") at D=7, tau=0.1, s=12.0 in kernel_odd")
    (failure,) = kernel_row(EvalParams(7, 0.1), [12.0], _TIGHT)
    assert (failure.D, failure.tau, failure.s) == (7, 0.1, 12.0)
    with pytest.raises(OverflowError) as info:
        kernel(EvalParams(4, 1e-300), 1.0)
    assert (info.value.D, info.value.tau, info.value.s) == (4, 1e-300, 1.0)


# --- rows over (tau, s) pairs ---------------------------------------------------

# tau from 1e-4 to 30; at tau = 0.75 the rate of D = 7 and 8 is a = 1/3, where
# one term of G''' is 0.0 in binary64 and drops out of that rate's sum
_MIXED_TAUS = (1e-4, 1e-3, 0.01, 0.1, 0.5, 0.75, 2.0, 30.0)
_MIXED_S = (0.0, 0.01, 0.05, 0.12, 0.21, 0.3, 0.6, 1.0, 3.0, 8.0, 25.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [3, 4, 5, 6, 7, 8, 11, 20])
def test_mixed_tau_row_equals_lone_calls(dim, monkeypatch):
    # one shuffled row of every (tau, s) pair: each entry is bit-equal to the
    # lone kernel() call at its own tau, through every gfunc route
    routes = set()
    for name in ("_series_many", "_terms_many", "_cauchy_many"):
        def spy(g, s, rate=None, fn=getattr(gfunc, name), name=name):
            routes.update([name] if len(s) else [])
            return fn(g, s, rate)

        monkeypatch.setattr(gfunc, name, spy)
    pairs = [(tau, s) for tau in _MIXED_TAUS for s in _MIXED_S]
    order = np.random.default_rng(dim).permutation(len(pairs)).tolist()
    taus, ss = (np.array([pairs[i][k] for i in order]) for k in (0, 1))
    p = EvalParams(dim, 1.0)
    row = kernel_row(p, ss, tau=taus)
    values, failed = kernel_array(p, ss, taus)
    assert failed is None
    monkeypatch.undo()
    for tau, s, kv, value in zip(taus.tolist(), ss.tolist(), row, values.tolist()):
        assert _same(kernel(p.with_tau(tau), s), kv), (tau, s, kv)
        assert value == kernel(p.with_tau(tau), s, SAMPLED_SPEC).value, (tau, s)
    # G' has no cancelling terms (D = 3, 5, 6 take no Cauchy); D = 4 is closed
    want = set() if dim == 4 else {"_series_many", "_terms_many"} | ({"_cauchy_many"} if dim >= 7 else set())
    assert routes == want


def test_failures_inside_a_mixed_row_carry_their_own_tau():
    # D = 4: (a/pi)^1.5 overflows at tau = 1e-300 alone
    row = kernel_row(EvalParams(4, 1.0), [0.5, 0.5, 1.0], tau=[0.5, 1e-300, 2.0])
    failure = row[1]
    assert isinstance(failure, OverflowError) and (failure.D, failure.tau, failure.s) == (4, 1e-300, 0.5)
    assert str(failure) == "binary64 overflow (value nan) at D=4, tau=1e-300, s=0.5 in kernel_d4"
    assert str(failure) == str(kernel_row(EvalParams(4, 1e-300), [0.5])[0])
    assert (row[0], row[2]) == (kernel(EvalParams(4, 0.5), 0.5), kernel(EvalParams(4, 2.0), 1.0))
    # D = 7 at the tight spec: the Abel integral at tau 0.1, s 12 does not
    # converge; the other entries are their lone calls
    p = EvalParams(7, 1.0)
    taus, ss = [2.0, 0.1, 0.5, 0.1], [1.0, 12.0, 12.0, 0.5]
    row = kernel_row(p, ss, _TIGHT, tau=taus)
    for tau, s, kv in zip(taus, ss, row):
        try:
            alone = kernel(p.with_tau(tau), s, _TIGHT)
        except NonConvergenceError as exc:
            alone = exc
        assert _same(alone, kv), (tau, s, kv)
    failure = row[1]
    assert isinstance(failure, NonConvergenceError) and (failure.D, failure.tau, failure.s) == (7, 0.1, 12.0)
    with pytest.raises(NonConvergenceError) as info:
        kernel(EvalParams(7, 0.1), 12.0, _TIGHT)
    assert (failure.value, failure.err_est, str(failure)) == (info.value.value, info.value.err_est, str(info.value))
