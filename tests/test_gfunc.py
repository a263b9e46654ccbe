import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudoheat import gfunc
from pseudoheat.gfunc import (
    S_MIN,
    GTerm,
    derivative_terms,
    evaluate,
    evaluate_near_origin,
    expression,
)
from pseudoheat.kernels import EvalParams
from pseudoheat.verify import _fd_derivatives, richardson_dl_derivative
from _oracles import even_reference


def _one_rate(s):
    """The rate index of every entry of s, at an expression's one rate."""
    return np.zeros(len(s), dtype=np.intp)


def test_g_base_values():
    g = expression(0, 1.0, 0.0)
    assert evaluate_near_origin(g, 0.0) == pytest.approx(math.sqrt(1.0 / math.pi), rel=1e-15)
    g2 = expression(0, 0.25, 0.0)
    want = math.sqrt(0.25 / math.pi) * math.exp(-1.0)
    assert evaluate(g2, 2.0) == pytest.approx(want, rel=1e-14)


def test_g_base_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        expression(0, 0.0, 0.0)
    with pytest.raises(ValueError):
        expression(0, -1.0, 0.0)


@given(a=st.floats(0.05, 4.0), e=st.floats(-2.0, 0.0), s=st.floats(0.01, 5.0))
def test_g_base_positive_everywhere(a, e, s):
    g = expression(0, a, e)
    v = evaluate(g, s) if s >= S_MIN else evaluate_near_origin(g, s)
    assert v > 0.0


def test_first_operator_application_structure():
    # one product-rule pass on the bare Gaussian: single term -2a s / sinh s
    terms = gfunc._apply_rules(gfunc.derivative_terms(0))
    assert terms == (GTerm((Fraction(0), Fraction(-2)), 1, 0, 1),)
    g1 = expression(1, 0.5, 0.0)
    assert g1.n == 1
    assert g1.terms == terms


def test_order_one_value_example():
    a = 0.25
    g1 = expression(1, a, 0.0)
    want = -2 * a * (1.0 / math.sinh(1.0)) * math.sqrt(a / math.pi) * math.exp(-a)
    assert evaluate(g1, 1.0) == pytest.approx(want, rel=1e-14)


def test_second_order_matches_fd_oracle():
    a = 0.25
    g2 = expression(2, a, 0.0)
    ref = richardson_dl_derivative(a, 0.0, 2, 1.0)
    assert evaluate(g2, 1.0) == pytest.approx(ref, rel=1e-6)


def test_fd_oracle_full_grid():
    for a in (0.125, 0.25, 1.0):
        for s in (0.1, 0.5, 1.0, 2.5, 5.0):
            table = _fd_derivatives(a, 0.0, 5, s)
            for n in range(6):
                assert evaluate(expression(n, a, 0.0), s) == pytest.approx(table[n], rel=1e-6), (a, n, s)


def _random_terms(rng_idx: int) -> tuple[GTerm, ...]:
    coeffs = [
        (Fraction(1, 2), 1, 0, 1),
        (Fraction(-3), 0, 1, 3),
        (Fraction(2, 3), 2, 0, 2),
        (Fraction(5), 0, 0, 4),
    ]
    pick = coeffs[rng_idx % len(coeffs)]
    return (GTerm((pick[0],), pick[1], pick[2], pick[3]),)


def _add_terms(*term_sets: tuple[GTerm, ...]) -> tuple[GTerm, ...]:
    """Termwise sum of canonical term sets."""
    parts = {}
    for terms in term_sets:
        for t in terms:
            gfunc._accumulate(parts, t.p, t.q, t.r, t.coeff)
    return gfunc._merge(parts)


@given(idx1=st.integers(0, 3), idx2=st.integers(0, 3))
def test_operator_linearity(idx1, idx2):
    t1 = _random_terms(idx1)
    t2 = _random_terms(idx2)
    lhs = gfunc._apply_rules(_add_terms(t1, t2))
    rhs = _add_terms(gfunc._apply_rules(t1), gfunc._apply_rules(t2))
    assert lhs == rhs


def test_evaluate_domain_guards():
    g = expression(1, 1.0, 0.0)
    with pytest.raises(ValueError):
        evaluate(g, 0.5 * S_MIN)
    with pytest.raises(ValueError):
        evaluate_near_origin(g, 2.0 * S_MIN)
    with pytest.raises(ValueError):
        evaluate_near_origin(g, -0.1)


def test_near_origin_values():
    a, e = 0.25, -0.5
    g0 = expression(0, a, e)
    assert evaluate_near_origin(g0, 0.0) == pytest.approx(
        math.sqrt(a / math.pi) * math.exp(e), rel=1e-14
    )
    # s / sinh s -> 1, so the order-1 limit is -2a G(0)
    g1 = expression(1, a, e)
    want = -2 * a * math.sqrt(a / math.pi) * math.exp(e)
    assert evaluate_near_origin(g1, 0.0) == pytest.approx(want, rel=1e-13)


def test_continuity_at_s_min():
    for a in (0.125, 0.25, 1.0):
        for n in range(6):
            g = expression(n, a, 0.0)
            lo = evaluate_near_origin(g, S_MIN)
            hi = evaluate(g, S_MIN)
            assert abs(lo - hi) <= 1e-9 * abs(hi), (a, n)


def test_series_and_terms_agree_in_overlap():
    ss = np.array([0.25, 0.4, 0.6, 0.8])
    for a in (0.125, 0.25, 1.0):
        for n in range(6):
            g = gfunc.expression(n, a, -0.3)
            for s, srs in zip(ss.tolist(), gfunc._series_many(g, ss, _one_rate(ss)).tolist()):
                t = evaluate(g, s)
                assert abs(t - srs) <= 1e-9 * abs(t), (a, n, s)


def test_arccosh_square_series_coefficients():
    order = 30
    c = gfunc._arccosh_sq_series(order)
    assert len(c) == order + 1
    assert c[0] == 0
    assert c[1] == 2
    assert c[2] == Fraction(-1, 3)
    assert c[3] == Fraction(4, 45)
    # exact: v(w) inverts w = cosh(sqrt(v)) - 1 = sum_{j>=1} v^j/(2j)!, so
    # substituting the series gives w back through order 30
    total = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for j in range(1, order + 1):
        power = [sum(power[i] * c[k - i] for i in range(k + 1)) for k in range(order + 1)]
        for k in range(order + 1):
            total[k] += power[k] / math.factorial(2 * j)
    assert total == [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    # numeric cross-check against the closed form at a small offset
    w = 0.01
    series = sum(float(ck) * w**k for k, ck in enumerate(c))
    assert series == pytest.approx(math.acosh(1 + w) ** 2, rel=1e-12)


def test_term_count_growth_bounded():
    prev = 1
    for n in range(1, 11):
        count = len(gfunc.derivative_terms(n))
        assert count >= prev
        assert count < 10 * n * n
        prev = count


def test_sign_alternation():
    for a in (0.125, 1.0):
        for n in range(6):
            g = gfunc.expression(n, a, 0.0)
            for s in (0.2, 1.0, 3.0):
                assert (-1.0) ** n * evaluate(g, s) > 0.0


def test_derivative_terms_golden():
    # c(a) s^p cosh^q(s) / sinh^r(s) as GTerm(c's coefficients in a, p, q, r)
    assert derivative_terms(0) == (GTerm((1,), 0, 0, 0),)
    assert derivative_terms(1) == (GTerm((0, -2), 1, 0, 1),)
    assert derivative_terms(2) == (
        GTerm((0, -2), 0, 0, 2),
        GTerm((0, 2), 1, 1, 3),
        GTerm((0, 0, 4), 2, 0, 2),
    )
    assert derivative_terms(3) == (
        GTerm((0, 6), 0, 1, 4),
        GTerm((0, -4, 12), 1, 0, 3),
        GTerm((0, -6), 1, 0, 5),
        GTerm((0, 0, -12), 2, 1, 4),
        GTerm((0, 0, 0, -8), 3, 0, 3),
    )


def test_derivative_terms_deterministic_and_expression_hashable():
    g = gfunc.expression(3, 0.25, 0.0)
    assert g.terms == gfunc.expression(3, 0.25, 0.0).terms == derivative_terms(3)
    assert hash(g) == hash(gfunc.expression(3, 0.25, 0.0))


def test_gterm_validation():
    with pytest.raises(ValueError):
        GTerm((Fraction(1),), 0, 2, 0)
    with pytest.raises(ValueError):
        GTerm((), 0, 0, 0)
    with pytest.raises(ValueError):
        GTerm((Fraction(1),), -1, 0, 0)


def test_compiled_terms_equal_fraction_loop_exactly():
    # the binary64 coefficients c(a), as they were computed per call before
    # compilation: Horner over the Fraction coefficients, each cast to float
    for n in range(11):
        for a in (0.05, 0.5, 2.0, 40.0):
            g = expression(n, a, -0.3)
            want = []
            for t in g.terms:
                c = 0.0
                for v in reversed(t.coeff):
                    c = c * g.a[0] + float(v)
                want.append((c, float(t.p), float(t.q), float(t.r)))
            c, p, q, r = g.f64_columns
            q = np.zeros_like(p) if q is None else q
            got = list(zip(c[:, 0].tolist(), p[:, 0].tolist(), q[:, 0].tolist(), r[:, 0].tolist()))
            assert got == want, (n, a)


def test_series_weights_equal_nested_loop_exactly():
    def nested(n, a, E, w0):
        h = gfunc._h_series((a,), n + gfunc.SERIES_ORDER_CAP)[:, 0]
        acc = 0.0
        for j in range(len(h) - 1, n - 1, -1):
            falling = 1.0
            for i in range(n):
                falling *= j - i
            acc = acc * w0 + h[j] * falling
        return math.sqrt(a / math.pi) * math.exp(E) * acc

    ss = np.array([0.0, 0.01, 0.1, 0.19, 0.27])
    w0s = (2.0 * np.sinh(0.5 * ss) ** 2).tolist()  # the w0 of _series_many, on the same array
    compared = 0
    for n in range(11):
        for a in (0.05, 0.5, 2.0, 40.0):
            got = gfunc._series_many(expression(n, a, -0.3), ss, _one_rate(ss)).tolist()
            for s, w0, value in zip(ss.tolist(), w0s, got):
                if not gfunc.series_ok(a, s):
                    continue
                assert value == nested(n, a, -0.3, w0), (n, a, s)
                compared += 1
    assert compared == 11 * (4 * 4)  # s = 0.27 is past SERIES_SWITCH


@pytest.mark.filterwarnings("error")
def test_compensated_row_sum_on_cancelling_columns():
    # columns whose terms cancel to ~1e-11 of their magnitude: the sum over
    # the rows must stay within 2 eps of the exact sum (math.fsum), up to
    # a second-order T^2 eps^2 sum|x|; a plain sum is off by ~eps sum|x|
    eps = sys.float_info.epsilon
    rng = np.random.default_rng(3)
    for n_rows in (1, 2, 3, 5, 8, 19, 33):
        rows = rng.standard_normal((n_rows, 40)) * np.exp(rng.uniform(0.0, 18.0, (n_rows, 40)))
        if n_rows > 1:
            rows[-1] = [-math.fsum(col) + 1e-3 * rng.standard_normal() for col in rows[:-1].T]
        got = gfunc._compensated_row_sum(rows)
        for col, value in zip(rows.T, got.tolist()):
            exact = math.fsum(col)
            bound = 2.0 * eps * abs(exact) + n_rows**2 * eps**2 * float(np.abs(col).sum())
            assert abs(value - exact) <= bound, (n_rows, value, exact)


def test_terms_route_takes_cauchy_where_the_terms_measure_cancellation(monkeypatch):
    # _terms sends an entry to Cauchy's integral where sum |term| exceeds
    # _CANCELLATION_LIMIT |sum|: an exact 0 of nonzero terms cancels; an
    # all-zero column and a nan sum stay with the terms
    limit = gfunc._CANCELLATION_LIMIT
    total = np.array([1.0, 1.0, -1.0, 0.0, 0.0, math.nan, 2.0])
    magnitude = np.array([limit, 1.0001 * limit, 1.0001 * limit, 1.0, 0.0, 1.0, math.inf])
    monkeypatch.setattr(gfunc, "_terms_many", lambda g, s, rate: (total.copy(), magnitude))
    monkeypatch.setattr(gfunc, "_cauchy_many", lambda g, s, rate: -s)
    s = np.arange(1.0, 8.0)
    got = gfunc._terms(expression(4, 0.5, 0.0), s, _one_rate(s)).tolist()
    assert got[:5] == [1.0, -2.0, -3.0, -4.0, 0.0]
    assert math.isnan(got[5]) and got[6] == -7.0


# the Cauchy route's relative error: at most 2.8e-12 over the 104 points of
# the sweep below (n = 9, a = 0.05, s = 0.2)
_CAUCHY_REL = 1e-10


@pytest.mark.filterwarnings("error")
def test_cauchy_route_against_the_reference_and_alone_or_in_a_row():
    # G^(n) at the s where the terms measure cancellation above the limit
    # and the l-series does not hold, for every order of D <= 20 and rates
    # from tau = 5 down to tau = 5e-4 (m = 1/2), against the independent
    # finite-difference reference; each value is Cauchy's, and bit-equal
    # alone and inside a 16-entry row of all routes
    checked = set()
    for n in range(1, 10):
        for a in (0.05, 0.125, 0.5, 2.0, 20.0, 500.0):
            p = EvalParams(2 * n + 2, 0.25 / a)
            g = expression(n, p.a, p.E)
            ss = np.array([0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5])
            total, magnitude = gfunc._terms_many(g, ss, _one_rate(ss))
            ss = ss[(magnitude > gfunc._CANCELLATION_LIMIT * np.abs(total)) & ~gfunc.series_ok(p.a, ss)]
            values = gfunc.evaluate_many(g, ss, _one_rate(ss))
            for s, value in zip(ss.tolist(), values.tolist()):
                ref = even_reference(2 * n + 2, p.tau, s) / (-0.5 / math.pi) ** n
                assert abs(value - ref) <= _CAUCHY_REL * abs(ref), (n, a, s, value, ref)
                row = np.linspace(0.0, 3.0, 16)
                row[7] = s
                alone = gfunc._cauchy_many(g, np.array([s]), _one_rate([s]))[0]
                assert alone == value == gfunc.evaluate_many(g, row, _one_rate(row))[7], (n, a, s)
                checked.add((n, a))
    # G' has no cancelling terms, and G'' measures 1e3 only below s = 0.05,
    # where the l-series holds; G''' cancels outside it at a <= 0.5 only,
    # and no order does at a = 500
    want = {(3, 0.05), (3, 0.125), (3, 0.5)}
    want |= {(n, a) for n in range(4, 10) for a in (0.05, 0.125, 0.5, 2.0)}
    want |= {(n, 20.0) for n in (7, 8, 9)}
    assert checked == want


def test_importing_the_kernels_leaves_mpmath_unloaded():
    # mpmath serves verify's Richardson oracle and the tests only; neither
    # the kernels nor the CLI load it, which keeps it out of every job's cost
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys\n"
        "import pseudoheat\n"
        "from pseudoheat.kernels import kernel_row\n"
        "import pseudoheat.cli\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def _h_series_loop(a, order):
    """The l-series coefficients by the recurrence in Python floats, one rate."""
    gcoef = [-a * float(vk) for vk in gfunc._arccosh_sq_series(order)]
    h = [1.0]
    for m in range(1, order + 1):
        acc = 0.0
        for k in range(1, m + 1):
            if gcoef[k]:
                acc += k * gcoef[k] * h[m - k]
        h.append(acc / m)
    return h


def test_h_series_in_every_rate_is_the_float_recurrence():
    rates = (1e-4, 0.05, 1 / 3, 0.5, 2.0, 40.0, 3000.0)
    # orders of G^(0) and of G^(14), the D = 30 kernel's
    for order in (gfunc.SERIES_ORDER_CAP, gfunc.SERIES_ORDER_CAP + 14):
        table = gfunc._h_series(rates, order)
        assert table.shape == (order + 1, len(rates))
        for column, a in zip(table.T.tolist(), rates):
            want = _h_series_loop(a, order)
            assert column == want == gfunc._h_series((a,), order)[:, 0].tolist(), (order, a)


@pytest.mark.filterwarnings("error")
def test_evaluate_many_at_a_rate_per_entry_equals_one_rate_expressions():
    # entries at mixed rates through every route; a = 1/3 (n = 3) and 3/4
    # (n = 6) each have a term whose coefficient is 0.0 in binary64, which
    # keeps its place in the many-rate term matrix
    rates = (0.05, 1 / 3, 0.75, 2.0, 500.0)
    shifts = (0.0, -0.25, -1.5, -3.0, -0.5)
    s = np.concatenate(([0.0, 1e-3], np.geomspace(0.01, 30.0, 40)))
    rng = np.random.default_rng(4)
    for n in range(10):
        g = expression(n, rates, shifts)
        rate = rng.integers(len(rates), size=len(s))
        got = gfunc.evaluate_many(g, s, rate).tolist()
        for si, k, value in zip(s.tolist(), rate.tolist(), got):
            alone = gfunc.evaluate_many(expression(n, rates[k], shifts[k]), np.array([si]), _one_rate([si]))[0]
            assert value == alone, (n, rates[k], si)
    with pytest.raises(ValueError, match="rate index"):
        evaluate(expression(2, rates, shifts), 1.0)
