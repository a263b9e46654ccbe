import math

import numpy as np
import pytest

from pseudoheat.quadrature import (
    TRUNCATION_SIGMA,
    NonConvergenceError,
    QuadratureSpec,
    abel_identity_check,
    failure,
    gaussian_cutoff,
    integrate_abel,
    integrate_one,
    integrate_periodic,
    integrate_tanh_sinh,
)
from _oracles import gaussian_moment, graded_midpoint_inverse_sqrt


def _rows(result):
    """A rule's (value, err_est, failed) arrays as one (value, err_est, failed) per integral."""
    return list(zip(*(x.tolist() for x in result)))


def _abel_rows(F, ds, rate, spec=QuadratureSpec()):
    """integrate_abel of F(s) per endpoint: (value, err_est, failed)."""
    return _rows(integrate_abel(lambda s, endpoint: F(s), ds, rate, spec))


def _abel(F, d, rate, spec=QuadratureSpec()):
    """integrate_abel at one endpoint: (value, err_est), or its failure raised."""
    ((value, err, failed),) = _abel_rows(F, [d], rate, spec)
    if failed:
        raise failure(value, err, f"d={d!r}")
    return value, err


def _semi_infinite(f, lower, rate, spec=QuadratureSpec()):
    """int_lower^inf f for |f| <= C exp(-rate t^2): tanh-sinh up to the Gaussian cutoff."""
    return integrate_one(integrate_tanh_sinh, f, lower, gaussian_cutoff(lower, rate, TRUNCATION_SIGMA), spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            QuadratureSpec(abs_tol=bad)


def test_standard_gaussian():
    value, err = _semi_infinite(lambda t: np.exp(-t * t), 0.0, 1.0)
    assert value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
    assert err < 1e-9


def test_shifted_moment_closed_form():
    value, _ = _semi_infinite(lambda t: t * np.exp(-t * t), 1.0, 1.0)
    assert value == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)


def test_estimator_honesty_on_closed_forms():
    # twenty integrals with closed forms: true error within 10x the estimate
    for k in range(5):
        for c in (0.25, 1.0, 2.0, 5.0):
            value, err = _semi_infinite(lambda t, k=k, c=c: t**k * np.exp(-c * t * t), 0.0, c)
            true = abs(value - gaussian_moment(k, c))
            assert true <= 10.0 * err, (k, c, true, err)


def test_tail_cut_at_the_ends_is_reported():
    # int_0^1 x^(-1/2) = 2: the nodes stop 2.2e-14 short of x = 0, which
    # leaves 2 sqrt(2.2e-14) = 2.9e-7 uncomputed at every step; the rule
    # does not claim 1e-9 but fails with an estimate that covers it
    with pytest.raises(NonConvergenceError) as info:
        integrate_one(integrate_tanh_sinh, lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert 2e-7 < abs(info.value.value - 2.0) <= info.value.err_est < 1e-6


def test_determinism_bit_for_bit():
    f = lambda t: np.exp(-0.5 * t * t) * np.cos(t)
    a = _semi_infinite(f, 0.0, 0.5)
    b = _semi_infinite(f, 0.0, 0.5)
    assert a == b


def test_nonconvergence_raised_and_carries_estimate():
    spiky = lambda t: 1.0 / (1e-8 + (t - 3.0) ** 2)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-30)
    with pytest.raises(NonConvergenceError) as info:
        integrate_one(integrate_tanh_sinh, spiky, 0.0, 6.0, spec)
    assert info.value.err_est > 0.0
    assert math.isfinite(info.value.value) and info.value.value > 0.0


def test_a_failure_is_a_nonconvergence_or_an_overflow():
    # a failed integral whose value is finite did not converge, any other
    # overflowed; both are ArithmeticError and carry value and err_est
    slow = failure(1.5, 2e-3, "x in [0.0, 1.0]")
    assert type(slow) is NonConvergenceError and isinstance(slow, ArithmeticError)
    assert (slow.value, slow.err_est) == (1.5, 2e-3)
    assert str(slow) == "quadrature did not converge (err_est=0.002) at x in [0.0, 1.0]"
    for value in (math.inf, -math.inf, math.nan):
        over = failure(value, 1.0, "x in [0.0, 1.0]")
        assert type(over) is OverflowError and over.value is value and over.err_est == math.inf
        assert str(over) == f"binary64 overflow (value {value!r}) at x in [0.0, 1.0]"


@pytest.mark.filterwarnings("error")
def test_integrate_one_raises_an_overflow_located_by_its_interval():
    with pytest.raises(OverflowError, match=r"^binary64 overflow \(value inf\) at x in \[0.0, 2.0\]$") as info:
        integrate_one(integrate_tanh_sinh, lambda x: np.full(len(x), 1e308), 0.0, 2.0)
    assert info.value.err_est == math.inf


def test_halving_reuses_every_node():
    # the 2h grid is a subset of the h grid: the first call holds the 49
    # nodes of the step 1/8 in t, each later one only the new nodes of one
    # halving, and no node is evaluated twice
    calls = []

    def f(x):
        calls.append(x.tolist())
        return 1.0 / (0.01 + (x - 0.3) ** 2)

    integrate_one(integrate_tanh_sinh, f, 0.0, 2.0, QuadratureSpec(rel_tol=1e-12, abs_tol=1e-30))
    assert [len(c) for c in calls] == [49] + [48 * 2**k for k in range(len(calls) - 1)]
    assert len(calls) > 2
    nodes = [x for c in calls for x in c]
    assert len(nodes) == len(set(nodes)) and all(0.0 < x < 2.0 for x in nodes)


def test_integrand_value_count_is_checked():
    with pytest.raises(ValueError):
        integrate_tanh_sinh(lambda x, at: x[:-1], 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate_periodic(lambda x, at: np.ones((len(x), 3)), 0.0, 1.0, abs_tol=[1e-14, 1e-14])


def test_interval_must_be_finite_and_increasing():
    for rule in (integrate_tanh_sinh, integrate_periodic):
        with pytest.raises(ValueError):
            rule(lambda x, at: x, 0.0, 0.0)
        with pytest.raises(ValueError):
            rule(lambda x, at: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            rule(lambda x, at: x, 0.0, math.inf)
        with pytest.raises(ValueError):  # one bad interval among good ones
            rule(lambda x, at: x, [0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError):
            rule(lambda x, at: x, 0.0, 1.0, abs_tol=[1e-14, 0.0])


def test_periodic_rule_is_spectral_on_an_even_periodic_integrand():
    # int_0^pi exp(c cos x) dx = pi I0(c); 17 nodes give c = 1 to rounding
    calls = []

    def f(x):
        calls.append(len(x))
        return np.exp(np.cos(x))

    value, err = integrate_one(integrate_periodic, f, 0.0, math.pi, QuadratureSpec(rel_tol=1e-14))
    assert value == pytest.approx(math.pi * float(np.i0(1.0)), rel=1e-15)
    assert calls == [17] and err < 1e-13
    value, err = integrate_one(integrate_periodic, lambda x: np.exp(20.0 * np.cos(x)), 0.0, math.pi)
    assert abs(value - math.pi * float(np.i0(20.0))) <= err


def test_many_integrals_stop_on_their_own_test():
    # integral j is exp(-c_j t^2) over [0, 6]; the narrow one keeps halving
    # after the wide ones have stopped, and the nodes' indices say so
    cs = np.array([0.5, 1.0, 200.0])
    seen = []

    def f(t, at):
        seen.append(sorted(set(at.tolist())))
        return np.exp(-cs[at] * t * t)

    # the cut at t = -3 (|f| = 1 there) is 4e-12 of the narrow integral:
    # an abs_tol of 1e-12 lets it stop where rel_tol alone would not
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
    value, err, failed = integrate_tanh_sinh(f, 0.0, 6.0, spec, abs_tol=np.full(3, 1e-12))
    exact = 0.5 * np.sqrt(np.pi / cs) * np.array([math.erf(6.0 * math.sqrt(c)) for c in cs])
    assert np.all(np.abs(value - exact) <= err) and np.all(err <= 1e-12 * value.max())
    assert seen[0] == [0, 1, 2] and seen[-1] == [2] and failed.tolist() == [False] * 3
    # below the rounding floor every integral fails, keeping its last value
    # and estimate: a non-convergence, not an overflow
    spec = QuadratureSpec(rel_tol=1e-18, abs_tol=1e-300)
    value, err, failed = integrate_tanh_sinh(f, 0.0, 6.0, spec, abs_tol=np.full(3, 1e-300))
    assert failed.tolist() == [True] * 3 and np.all(np.abs(value - exact) <= err) and np.all(err > 0.0)


def test_endpoint_singular_weight_only_against_graded_mesh():
    # int f(s) / sqrt(cosh s - cosh d) ds through F = f / sinh, against a
    # brute-force graded midpoint rule on [d, d + 6], past which f < e^-48
    d = 1.0
    oracle = graded_midpoint_inverse_sqrt(d, d + 6.0, f=lambda s: np.exp(-s * s))
    value, _ = _abel(lambda s: np.exp(-s * s) / np.sinh(s), d, 1.0)
    assert value == pytest.approx(oracle, abs=1e-8 * oracle)


def test_endpoint_singular_dual_substitution():
    # same integral through w = cosh s - cosh d, then w = t^2: fully independent path
    d = 1.0
    f = lambda s: s * np.exp(-s * s / 4.0)
    v1, e1 = _abel(lambda s: f(s) / np.sinh(s), d, 0.25)

    def g(t):
        sig = math.acosh(math.cosh(d) + t * t)
        return 2.0 * f(sig) / math.sinh(sig)

    # in t the decay is only quasi-Gaussian (sigma ~ 2 ln t), so hand the
    # truncation a conservative rate
    v2, e2 = _semi_infinite(lambda ts: np.array([g(t) for t in ts]), 0.0, 0.02)
    assert abs(v1 - v2) <= 1e-9 * abs(v1) + e1 + e2


def _s_over_sinh_gaussian(s):
    # f / sinh for f = s exp(-s^2/4), with its limit 1 at s = 0
    ratio = np.divide(s, np.sinh(s), out=np.ones_like(s), where=s > 0.0)
    return ratio * np.exp(-s * s / 4.0)


def test_endpoint_singular_small_d_regular():
    values = [_abel(_s_over_sinh_gaussian, d, 0.25)[0] for d in (0.0, 1e-3, 1e-2)]
    assert all(math.isfinite(v) for v in values)
    assert values[0] == pytest.approx(values[1], rel=1e-2)
    assert values[0] == pytest.approx(values[2], rel=5e-2)


def test_endpoint_singular_rejects_negative_endpoint():
    with pytest.raises(ValueError):
        integrate_abel(lambda s, endpoint: s, [0.1, -0.1], 1.0)
    with pytest.raises(ValueError):
        integrate_abel(lambda s, endpoint: s, [0.1], 0.0)


def test_abel_closed_form_exponential():
    # int_{l0}^inf exp(-c l) (l - l0)^(-1/2) dl = sqrt(pi/c) exp(-c l0); the
    # integrand decays faster than any Gaussian in s, so any rate bounds it
    for c in (0.5, 1.0, 3.0):
        for d in (0.0, 0.5, 2.0):
            value, err = _abel(lambda s: np.exp(-c * np.cosh(s)), d, 1.0)
            exact = math.sqrt(math.pi / c) * math.exp(-c * math.cosh(d))
            assert abs(value - exact) <= 1e-13 * exact, (c, d)
            assert abs(value - exact) <= err, (c, d)


def test_abel_halving_reuses_every_node():
    # the 2h grid is a subset of the h grid: no node is evaluated twice
    nodes = []

    def F(s):
        nodes.extend(s.tolist())
        return np.exp(-2.0 * s * s)

    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    _abel(F, 0.7, 2.0, spec)
    assert len(nodes) == len(set(nodes))
    assert len(nodes) >= 3


def test_abel_nonconvergence_below_rounding_floor():
    spec = QuadratureSpec(rel_tol=1e-18, abs_tol=1e-300)
    with pytest.raises(NonConvergenceError) as info:
        _abel(lambda s: np.exp(-s * s), 1.0, 1.0, spec)
    assert info.value.err_est > 0.0
    assert info.value.value == pytest.approx(_abel(lambda s: np.exp(-s * s), 1.0, 1.0)[0], rel=1e-12)


def test_abel_identity_exponential():
    lhs, rhs, res = abel_identity_check(lambda k: math.exp(-k), 1.0, decay_rate=1.0)
    assert rhs == pytest.approx(math.pi * math.exp(-1.0), rel=1e-9)
    assert res <= 1e-7


def test_abel_identity_gaussian():
    _, _, res = abel_identity_check(lambda k: math.exp(-k * k), 1.0, decay_rate=1.0)
    assert res <= 1e-7


def test_abel_identity_linear_exponential():
    u = 2.0
    lhs, rhs, res = abel_identity_check(lambda k: k * math.exp(-2.0 * k), u, decay_rate=2.0)
    assert rhs == pytest.approx(math.pi * (2.0 * u + 1.0) * math.exp(-2.0 * u) / 4.0, rel=1e-8)
    assert res <= 1e-7


def test_abel_identity_random_offsets():
    import numpy as np

    rng = np.random.default_rng(31)
    for u in rng.uniform(1.0, 5.0, size=10):
        _, _, res = abel_identity_check(lambda k: math.exp(-k), float(u), decay_rate=1.0)
        assert res <= 1e-7, u


def test_abel_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        abel_identity_check(lambda k: math.exp(-k), 0.5)


from hypothesis import given, settings
from hypothesis import strategies as st


@given(k=st.integers(0, 4), c=st.floats(0.2, 4.0), lower=st.floats(0.0, 2.0))
@settings(max_examples=40)
def test_gaussian_moments_property(k, c, lower):
    value, err = _semi_infinite(lambda t: t**k * np.exp(-c * t * t), lower, c)
    assert value == pytest.approx(gaussian_moment(k, c, lower), rel=1e-9, abs=1e-12)


@given(d=st.floats(0.05, 3.0), rate=st.floats(0.1, 2.0))
@settings(max_examples=25)
def test_endpoint_singular_positive_and_finite(d, rate):
    value, err = _abel(lambda s: s * np.exp(-rate * s * s) / np.sinh(s), d, rate)
    assert math.isfinite(value) and value > 0.0
    assert err < 1e-6 * value + 1e-12


@pytest.mark.filterwarnings("error")
def test_abel_endpoints_are_independent_of_their_batch():
    # more endpoints than one pass takes, each bit-equal to its own call
    F = lambda s: np.exp(-s * s)
    ds = [0.05 * k for k in range(70)]
    batch = _abel_rows(F, ds, 1.0)
    assert len(batch) == 70
    for d, got in zip(ds, batch):
        ((value, err, failed),) = _abel_rows(F, [d], 1.0)
        assert not failed and got == (value, err, False), d
    assert _abel_rows(F, [], 1.0) == []


@pytest.mark.filterwarnings("error")
def test_abel_one_failed_endpoint_keeps_the_others():
    # at d = 15 the rounding floor 2 eps (1 + s^2) per node exceeds 1e-13
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    F = lambda s: np.exp(-s * s)
    first, failed, last = _abel_rows(F, [1.0, 15.0, 2.0], 1.0, spec)
    assert first == _abel_rows(F, [1.0], 1.0, spec)[0] and not first[2]
    assert last == _abel_rows(F, [2.0], 1.0, spec)[0] and not last[2]
    value, err, flag = failed
    assert flag and math.isfinite(value) and err > 0.0
    assert failed == _abel_rows(F, [15.0], 1.0, spec)[0]


@pytest.mark.filterwarnings("error")
def test_abel_overflowed_endpoint_keeps_the_others():
    # F is inf past s = 5: the endpoint d = 4 reaches it and overflows, d = 800
    # fails in its grid (sinh overflows), and d = 0 and 1 end before s = 5
    F = lambda s: np.exp(-4.0 * s * s) * np.where(s > 5.0, np.inf, 1.0)
    results = _abel_rows(F, [0.0, 4.0, 1.0, 800.0], 4.0)
    for d, got in zip((0.0, 1.0), (results[0], results[2])):
        assert got == _abel_rows(F, [d], 4.0)[0] and not got[2], d
    overflowed, no_grid = results[1], results[3]
    assert overflowed[2] and not math.isfinite(overflowed[0]) and not math.isfinite(overflowed[1])
    assert no_grid[2] and math.isnan(no_grid[0]) and no_grid[1] == math.inf


@pytest.mark.filterwarnings("error")
def test_abel_reduceat_sums_a_segment_as_it_sums_it_alone():
    # integrate_abel sums each endpoint's nodes with np.add.reduceat over the
    # concatenation of a pass; that sum must not depend on the neighbours.
    # (ndarray.sum of the slice is not the reference: it sums pairwise and
    # differs in the last bits.)
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = rng.standard_normal(int(rng.integers(1, 500))) * math.exp(rng.uniform(-30.0, 30.0))
        cuts = np.unique(np.concatenate(([0], rng.integers(0, len(v), int(rng.integers(1, 9))))))
        sums = np.add.reduceat(v, cuts)
        for i, (lo, hi) in enumerate(zip(cuts, [*cuts[1:], len(v)])):
            assert sums[i] == np.add.reduceat(v[lo:hi].copy(), [0])[0]


def _cutoff_in_floats(lower, rate, sigma, growth):
    """gaussian_cutoff as it stood in Python floats, before it took arrays."""
    peak = max(max(lower, 0.0), 0.5 * growth / rate)
    target = rate * peak * peak - growth * peak + 0.5 * sigma * sigma
    t = (growth + math.sqrt(growth * growth + 4.0 * rate * target)) / (2.0 * rate)
    return max(t, lower + 1.0 / math.sqrt(rate))


@pytest.mark.parametrize("growth", [0.0, 0.5, 3.0])
def test_gaussian_cutoff_on_an_array_is_the_float_call_elementwise(growth):
    lower = np.concatenate(([0.0, 700.0], np.random.default_rng(5).uniform(0.0, 700.0, 40)))
    for rate in np.geomspace(1e-4, 1e4, 9).tolist():
        for sigma in (TRUNCATION_SIGMA, TRUNCATION_SIGMA + 1.0):
            got = gaussian_cutoff(lower, rate, sigma, growth).tolist()
            floats = [gaussian_cutoff(d, rate, sigma, growth) for d in lower.tolist()]
            assert got == floats == [_cutoff_in_floats(d, rate, sigma, growth) for d in lower.tolist()]


@pytest.mark.parametrize("growth", [0.0, 3.0])
def test_gaussian_cutoff_takes_a_rate_per_lower_limit(growth):
    rng = np.random.default_rng(6)
    lower, rate = rng.uniform(0.0, 700.0, 40), np.geomspace(1e-4, 1e4, 40)
    got = gaussian_cutoff(lower, rate, TRUNCATION_SIGMA, growth).tolist()
    want = [_cutoff_in_floats(d, a, TRUNCATION_SIGMA, growth) for d, a in zip(lower.tolist(), rate.tolist())]
    assert got == want


def test_abel_endpoints_at_their_own_rates_equal_lone_calls():
    # one pass over endpoints with a decay rate each gives every endpoint
    # the bits of its lone call at that rate, failures included
    F = lambda s: np.exp(-0.3 * s * s)
    ds = [3.0, 0.0, 0.5, 2.0, 0.5, 1.0]
    rates = [0.3, 0.3, 0.3, 1.0, 4.0, 1e-3]
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    got = _abel_rows(F, ds, np.array(rates), spec)
    for d, rate, row in zip(ds, rates, got):
        assert [row] == _abel_rows(F, [d], rate, spec), (d, rate)
    assert any(failed for _, _, failed in got) and not all(failed for _, _, failed in got)
    # a loose spec.abs_tol stops the first endpoint earlier, at equal d and
    # rate: on its first grid, which the tight call halves
    ((_, loose_err, _),) = _abel_rows(F, [3.0], 0.3, QuadratureSpec(rel_tol=1e-13, abs_tol=1e-2))
    assert loose_err > got[0][1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rule", [integrate_tanh_sinh, integrate_periodic])
def test_integrals_on_their_own_intervals_equal_lone_calls(rule):
    # one call over integrals with an interval, a rate and an abs_tol each
    # gives every integral the bits of its lone call, failures included.
    # The integrands are functions of c = cos(pi (x - lo) / (hi - lo)), which
    # the periodic rule takes too; the kink of |c - 0.3| keeps its integral
    # above rel_tol 1e-12
    lo = np.array([0.0, -1.0, 0.5, 0.0, 2.0, 0.0])
    hi = np.array([1.0, 3.0, 0.75, math.pi, 8.0, 1.0])
    rates = np.array([40.0, 1.0, 0.0, 400.0, 1e-3, 40.0])
    abs_tol = [1e-300, 1e-10, 1e-300, 1e-6, 1e-300, 1e-2]

    def f(x, at):
        c = np.cos(math.pi * (x - lo[at]) / (hi[at] - lo[at]))
        return np.where(at == 2, np.abs(c - 0.3), np.exp(rates[at] * (c - 1.0)))

    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300)
    got = _rows(rule(f, lo, hi, spec, abs_tol))
    for i, row in enumerate(got):
        alone = lambda x, at: f(x, np.full_like(at, i))
        assert [row] == _rows(rule(alone, lo[i], hi[i], spec, abs_tol[i])), i
    assert [i for i, (_, _, failed) in enumerate(got) if failed] == [2]
    assert math.isfinite(got[2][0]) and got[2][1] > 1e-12 * abs(got[2][0])
    assert got[5][1] > got[0][1]
