import math

import numpy as np
import pytest

from pseudoheat.quadrature import (
    NonConvergenceError,
    QuadratureSpec,
    abel_identity_check,
    integrate_abel,
    integrate_finite,
    integrate_semi_infinite,
)
from _oracles import gaussian_moment, graded_midpoint_inverse_sqrt


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadratureSpec(truncation_sigma=0.0)


def test_standard_gaussian():
    value, err = integrate_semi_infinite(lambda t: math.exp(-t * t), 0.0, 1.0)
    assert value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
    assert err < 1e-9


def test_shifted_moment_closed_form():
    value, _ = integrate_semi_infinite(lambda t: t * math.exp(-t * t), 1.0, 1.0)
    assert value == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)


def test_estimator_honesty_on_closed_forms():
    # twenty integrals with closed forms: true error within 10x the estimate
    for k in range(5):
        for c in (0.25, 1.0, 2.0, 5.0):
            value, err = integrate_semi_infinite(lambda t, k=k, c=c: t**k * math.exp(-c * t * t), 0.0, c)
            true = abs(value - gaussian_moment(k, c))
            assert true <= 10.0 * err, (k, c, true, err)


def test_determinism_bit_for_bit():
    f = lambda t: math.exp(-0.5 * t * t) * math.cos(t)
    a = integrate_semi_infinite(f, 0.0, 0.5)
    b = integrate_semi_infinite(f, 0.0, 0.5)
    assert a == b


def test_nonconvergence_raised_and_carries_estimate():
    spiky = lambda t: 1.0 / (1e-8 + (t - 3.0) ** 2)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-30, max_subdivisions=3)
    with pytest.raises(NonConvergenceError) as info:
        integrate_finite(spiky, (0.0, 6.0), spec)
    assert info.value.err_est > 0.0


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t, (0.0, 0.0))
    with pytest.raises(ValueError):
        integrate_finite(lambda t: t, (1.0,))


def test_endpoint_singular_weight_only_against_graded_mesh():
    # int f(s) / sqrt(cosh s - cosh d) ds through F = f / sinh, against a
    # brute-force graded midpoint rule on [d, d + 6], past which f < e^-48
    d = 1.0
    oracle = graded_midpoint_inverse_sqrt(d, d + 6.0, f=lambda s: np.exp(-s * s))
    value, _ = integrate_abel(lambda s: math.exp(-s * s) / math.sinh(s), d, 1.0)
    assert value == pytest.approx(oracle, abs=1e-8 * oracle)


def test_endpoint_singular_dual_substitution():
    # same integral through w = cosh s - cosh d, then w = t^2: fully independent path
    d = 1.0
    f = lambda s: s * math.exp(-s * s / 4.0)
    v1, e1 = integrate_abel(lambda s: f(s) / math.sinh(s), d, 0.25)

    def g(t):
        sig = math.acosh(math.cosh(d) + t * t)
        return 2.0 * f(sig) / math.sinh(sig)

    # in t the decay is only quasi-Gaussian (sigma ~ 2 ln t), so hand the
    # truncation a conservative rate
    v2, e2 = integrate_semi_infinite(g, 0.0, 0.02)
    assert abs(v1 - v2) <= 1e-9 * abs(v1) + e1 + e2


def _s_over_sinh_gaussian(s):
    # f / sinh for f = s exp(-s^2/4), with its limit 1 at s = 0
    return (s / math.sinh(s) if s else 1.0) * math.exp(-s * s / 4.0)


def test_endpoint_singular_small_d_regular():
    values = [integrate_abel(_s_over_sinh_gaussian, d, 0.25)[0] for d in (0.0, 1e-3, 1e-2)]
    assert all(math.isfinite(v) for v in values)
    assert values[0] == pytest.approx(values[1], rel=1e-2)
    assert values[0] == pytest.approx(values[2], rel=5e-2)


def test_endpoint_singular_rejects_negative_endpoint():
    with pytest.raises(ValueError):
        integrate_abel(lambda s: s, -0.1, 1.0)
    with pytest.raises(ValueError):
        integrate_abel(lambda s: s, 0.1, 0.0)


def test_abel_closed_form_exponential():
    # int_{l0}^inf exp(-c l) (l - l0)^(-1/2) dl = sqrt(pi/c) exp(-c l0); the
    # integrand decays faster than any Gaussian in s, so any rate bounds it
    for c in (0.5, 1.0, 3.0):
        for d in (0.0, 0.5, 2.0):
            value, err = integrate_abel(lambda s: math.exp(-c * math.cosh(s)), d, 1.0)
            exact = math.sqrt(math.pi / c) * math.exp(-c * math.cosh(d))
            assert abs(value - exact) <= 1e-13 * exact, (c, d)
            assert abs(value - exact) <= err, (c, d)


def test_abel_halving_reuses_every_node():
    # the 2h grid is a subset of the h grid: no node is evaluated twice
    nodes = []

    def F(s):
        nodes.append(s)
        return math.exp(-2.0 * s * s)

    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-300)
    integrate_abel(F, 0.7, 2.0, spec)
    assert len(nodes) == len(set(nodes))
    assert len(nodes) >= 3


def test_abel_nonconvergence_below_rounding_floor():
    spec = QuadratureSpec(rel_tol=1e-18, abs_tol=1e-300)
    with pytest.raises(NonConvergenceError) as info:
        integrate_abel(lambda s: math.exp(-s * s), 1.0, 1.0, spec)
    assert info.value.err_est > 0.0
    assert info.value.value == pytest.approx(integrate_abel(lambda s: math.exp(-s * s), 1.0, 1.0)[0], rel=1e-12)


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
    value, err = integrate_semi_infinite(lambda t: t**k * math.exp(-c * t * t), lower, c)
    assert value == pytest.approx(gaussian_moment(k, c, lower), rel=1e-9, abs=1e-12)


@given(d=st.floats(0.05, 3.0), rate=st.floats(0.1, 2.0))
@settings(max_examples=25)
def test_endpoint_singular_positive_and_finite(d, rate):
    value, err = integrate_abel(lambda s: s * math.exp(-rate * s * s) / math.sinh(s), d, rate)
    assert math.isfinite(value) and value > 0.0
    assert err < 1e-6 * value + 1e-12
