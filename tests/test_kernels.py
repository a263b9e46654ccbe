import math

import numpy as np
import pytest

from pseudoheat import gfunc
from pseudoheat.kernels import EvalParams, kernel, kernel_d4, kernel_even, kernel_odd
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
