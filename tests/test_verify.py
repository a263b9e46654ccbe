import dataclasses
import json
import math
from pathlib import Path

import jsonschema
import mpmath
import numpy as np
import pytest

from pseudoheat.geometry import HoricyclicPoint, geodesic_distance, normalize_pair
from pseudoheat import cli, gfunc, kernels, verify
from pseudoheat.kernels import EvalParams, kernel
from pseudoheat.quadrature import NonConvergenceError, QuadratureSpec
from pseudoheat.verify import (
    VerificationReport,
    abel_residual,
    chapman_kolmogorov_many,
    gfunc_reports,
    horicyclic_pde_residual,
    mass_multiplicativity,
    radial_pde_residual,
    richardson_dl_derivative,
    x_marginal_check,
)

SCHEMA = Path(__file__).resolve().parents[1] / "schemas" / "report.schema.json"


def test_report_invariant():
    r = VerificationReport.make("x", 3, 1e-7, 1e-6, {})
    assert r.passed
    r2 = VerificationReport.make("x", 3, 2e-6, 1e-6, {})
    assert not r2.passed
    r3 = VerificationReport.make("x", 3, math.inf, 1e-6, {})
    assert not r3.passed
    d = r.to_json_dict()
    assert set(d) == {"check", "D", "residual", "tolerance", "passed", "details"}


def test_abel_residual_d4():
    rep = abel_residual(EvalParams(4, 1.0))
    assert rep.passed and rep.residual <= 1e-6
    # l = 1 is the first grid entry (the s = 0 endpoint of the equation)
    assert rep.details["points"][0]["l"] == 1.0


def test_abel_residual_d3():
    rep = abel_residual(EvalParams(3, 1.0))
    assert rep.passed and rep.residual <= 1e-5


def test_abel_residual_d7_single_point():
    rep = abel_residual(EvalParams(7, 1.0), l_grid=(math.cosh(1.0),))
    assert rep.passed and rep.residual <= 1e-5


@pytest.mark.parametrize("dim, tau", [(10, 2.0), (12, 1.0), (15, 0.5)])
def test_abel_residual_at_high_dimension(dim, tau):
    # exp(E) takes the integral far below 1e-7, where a fixed abs_tol of
    # 1e-16 would outweigh rel_tol 1e-9 and stop the quadrature early; the
    # abs_tol is relative to the rhs instead
    rep = abel_residual(EvalParams(dim, tau))
    assert min(p["rhs"] for p in rep.details["points"]) < 1e-12
    assert rep.passed, rep.residual


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_abel_residual_to_d30_without_warnings(tau):
    # far out the weight (k - l)^((D-4)/2) overflows binary64 (D >= 24 at
    # tau 2), where the kernel is already 0.0: silent there, and every D passes
    for dim in range(3, 31):
        rep = abel_residual(EvalParams(dim, tau))
        assert rep.passed, (dim, rep.residual)


def test_abel_weight_overflow_where_the_kernel_is_not_zero_is_located(monkeypatch):
    # a kernel that never underflows leaves the overflowed weight in the
    # integrand: the check names the point instead of integrating inf
    monkeypatch.setattr(verify, "kernel_array", lambda params, ss: np.ones_like(ss))
    where = r"^binary64 overflow \(\(k - l\)\^13.0 at D=30, tau=2.0, l=1.0, sigma="
    with pytest.raises(OverflowError, match=where):
        verify._abel_lhs(EvalParams(30, 2.0), [1.0], np.array([1e-300]))


def test_abel_residual_rejects_bad_grid():
    with pytest.raises(ValueError):
        abel_residual(EvalParams(4, 1.0), l_grid=(0.5,))


def test_radial_pde_d4():
    rep = radial_pde_residual(EvalParams(4, 1.0))
    assert rep.passed and rep.residual <= 1e-7
    assert rep.details["fitted_c"] == pytest.approx(0.25, abs=1e-7)
    assert rep.details["c_spread"] <= 1e-6


def test_radial_pde_d3():
    rep = radial_pde_residual(EvalParams(3, 1.0), s_grid=(0.3, 1.0, 3.0), tau_grid=(0.3, 1.0))
    assert rep.passed and rep.residual <= 1e-5
    assert rep.details["fitted_c"] == pytest.approx(0.25, abs=1e-5)


def test_radial_pde_general_units():
    # kappa = hbar/2m = 2; fitted constant should scale to kappa/4
    rep = radial_pde_residual(
        EvalParams(4, 0.5, m=0.5, hbar=2.0), s_grid=(0.5, 1.5), tau_grid=(0.4, 0.8)
    )
    assert rep.passed
    assert rep.details["fitted_c"] == pytest.approx(rep.details["kappa"] / 4.0, abs=1e-6)


def test_radial_pde_names_the_points_where_the_kernel_underflows():
    # at D = 40 the kernel underflows at s >= 2, tau 2: those points have no
    # scale to measure the equation against, where c's fit divided by zero
    rep = radial_pde_residual(EvalParams(40, 1.0))
    assert not rep.passed and rep.residual == math.inf
    assert rep.details["underflowed"] == [[2.0, 2.0], [3.5, 2.0], [5.0, 2.0]]
    for point in rep.details["points"]:
        if [point["s"], point["tau"]] in rep.details["underflowed"]:
            assert point["residual"] == math.inf and point["c_pointwise"] is None
        else:
            assert math.isfinite(point["residual"]) and point["c_pointwise"] is not None


def test_verify_cli_reports_underflowed_pde_points(capsys):
    assert cli.main(["verify", "pde-radial", "--dims", "40", "--tau", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    jsonschema.validate(doc, json.loads(SCHEMA.read_text()))
    (report,) = doc["reports"]
    assert report["residual"] == math.inf and report["details"]["underflowed"]


def test_horicyclic_pde_d3_and_d4():
    for d in (3, 4):
        pairs = [
            (HoricyclicPoint(1.0, (0.0,) * (d - 2)), HoricyclicPoint(2.0, (1.0,) * (d - 2))),
            (HoricyclicPoint(0.8, (0.5,) * (d - 2)), HoricyclicPoint(1.4, (-0.3,) * (d - 2))),
            (HoricyclicPoint(1.1, (0.2,) * (d - 2)), HoricyclicPoint(0.9, (0.9,) * (d - 2))),
        ]
        rep = horicyclic_pde_residual(EvalParams(d, 0.5), pairs)
        assert rep.passed, rep
        radial = radial_pde_residual(
            EvalParams(d, 0.5), s_grid=(geodesic_distance(*pairs[0]),), tau_grid=(0.5,)
        )
        assert rep.details["fitted_c"] == pytest.approx(radial.details["fitted_c"], abs=1e-5)


def test_horicyclic_pde_invariant_under_normalization():
    # the kernel depends on the distance alone, so normalizing the pair
    # changes neither the distance nor the kernel value
    d = 3
    q1, q2 = HoricyclicPoint(1.0, (0.0,)), HoricyclicPoint(2.0, (1.0,))
    p1, p2, _ = normalize_pair(q1, q2)
    s_before = geodesic_distance(q1, q2)
    s_after = geodesic_distance(p1, p2)
    assert s_after == pytest.approx(s_before, rel=1e-12)
    params = EvalParams(d, 0.5)
    assert kernel(params, s_after).value == pytest.approx(kernel(params, s_before).value, rel=1e-10)
    rep = horicyclic_pde_residual(params, [(p1, p2)])
    assert rep.passed


def test_horicyclic_pde_rejects_large_dimension():
    with pytest.raises(ValueError):
        horicyclic_pde_residual(EvalParams(5, 0.5), [])


def test_chapman_kolmogorov_d4():
    half = EvalParams(4, 0.5)
    reports = chapman_kolmogorov_many(half, half, [0.0, 1.0])
    for rep in reports:
        assert rep.passed and rep.residual <= 1e-4, rep


@pytest.mark.parametrize("tau", [0.5, 1.0])
@pytest.mark.parametrize("dim", [3, 5])
def test_chapman_kolmogorov_odd_dimensions_to_1e7(dim, tau):
    # tau is the total time, as in `verify ck --tau`; the acceptance test
    # pins only 1e-3 (D = 3) and 1e-4 (D = 5)
    half = EvalParams(dim, tau / 2.0)
    target_params = EvalParams(dim, tau)
    for rep in chapman_kolmogorov_many(half, half, [0.0, 1.0, 2.0]):
        assert rep.passed and rep.residual <= 1e-7, rep
        # the estimate, with the target's own, covers the difference
        target = kernel(target_params, rep.details["d"], kernels.SAMPLED_SPEC)
        miss = abs(rep.details["convolution"] - target.value)
        assert miss <= rep.details["quad_err"] + target.err_est, rep


@pytest.mark.parametrize("tau, d_values", [(1e-3, (0.0, 1.0)), (1e-2, (0.0, 1.0, 2.0))])
@pytest.mark.parametrize("dim", [3, 4, 5])
def test_chapman_kolmogorov_at_small_tau(dim, tau, d_values):
    # tau is the total time: each factor at tau/2.  The product of the
    # factors peaks near r = d/2, past K1's own cutoff (0.38 at D = 3, tau
    # 1e-3), and the values (1e-107 at d = 1) sit far below a fixed abs_tol
    half = EvalParams(dim, tau / 2.0)
    for rep in chapman_kolmogorov_many(half, half, d_values):
        assert rep.passed, rep


def test_chapman_kolmogorov_nonconvergence_fails_the_report():
    # below the rounding floor no theta integral converges: the report
    # fails with no value rather than one the rule did not certify
    half = EvalParams(4, 0.25)
    (rep,) = chapman_kolmogorov_many(half, half, [1.0], QuadratureSpec(rel_tol=1e-17, abs_tol=1e-300))
    assert not rep.passed and rep.residual == math.inf
    assert math.isnan(rep.details["convolution"]) and rep.details["quad_err"] == math.inf


def test_chapman_kolmogorov_radial_weight_overflow_is_located(monkeypatch):
    # a kernel that never underflows leaves K1 sinh^3 r above binary64 past
    # r ~ 237: the check names the first such r instead of integrating inf
    monkeypatch.setattr(verify, "kernel_array", lambda params, ss, tau=None: np.ones(np.shape(ss)))
    where = r"^binary64 overflow \(radial weight of the convolution at D=5, tau=100.0, r=2[34]\d\."
    with pytest.raises(OverflowError, match=where):
        chapman_kolmogorov_many(EvalParams(5, 100.0), EvalParams(5, 100.0), [1.0])


def test_chapman_kolmogorov_validation():
    with pytest.raises(ValueError):
        chapman_kolmogorov_many(EvalParams(4, 0.5), EvalParams(3, 0.5), [1.0])
    with pytest.raises(ValueError):
        chapman_kolmogorov_many(EvalParams(6, 0.5), EvalParams(6, 0.5), [1.0])


def test_mass_multiplicativity_d4():
    rep = mass_multiplicativity(EvalParams(4, 1.0), tau_list=(0.25, 0.5))
    assert rep.passed and rep.residual <= 1e-4
    # masses follow exp(c tau) with c equal to the fitted heat-equation shift
    assert rep.details["fitted_mass_rate"] == pytest.approx(0.25, abs=1e-6)


def test_total_mass_matches_exponential_form():
    (mass,), _, failures = verify._masses(EvalParams(5, 0.5), [0.5])
    assert mass == pytest.approx(math.exp(0.125), rel=1e-8) and failures == {}


def test_gfunc_reports_pass():
    overlap, oracle = gfunc_reports(a_values=(0.25,), n_max=4)
    assert overlap.check == "gfunc-overlap" and overlap.passed
    assert oracle.check == "gfunc-fd-oracle" and oracle.passed


def test_gfunc_fd_oracle_residual_is_the_term_routes():
    # the oracle no longer limits the report: with a fixed 40 digits it was
    # 2.4e-9 off at n = 5, s = 5
    _, oracle = gfunc_reports()
    assert oracle.residual <= 1e-12, oracle.residual


def test_fd_oracle_against_80_digit_differences():
    a, n, s = 0.25, 5, 5.0
    with mpmath.workdps(80 + math.ceil(n * math.log10(math.cosh(s)))):
        am = mpmath.mpf(a)
        G = lambda l: mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * mpmath.acosh(l) ** 2)
        ref = float(mpmath.diff(G, mpmath.cosh(mpmath.mpf(s)), n))
    assert richardson_dl_derivative(a, 0.0, n, s) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [0.125, 0.25, 1.0])
@pytest.mark.parametrize("s", verify._S_ORACLE)
def test_fd_table_against_80_digit_differences_per_order(a, s):
    # the lower orders read stencils centred below cosh s; that offset
    # stays far below binary64
    table = verify._fd_derivatives(a, 0.0, 5, s)
    assert len(table) == 6
    for k, got in enumerate(table):
        with mpmath.workdps(80 + math.ceil(k * math.log10(math.cosh(s)))):
            am = mpmath.mpf(a)
            G = lambda l: mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * mpmath.acosh(l) ** 2)
            ref = float(mpmath.diff(G, mpmath.cosh(mpmath.mpf(s)), k))
        assert got == pytest.approx(ref, rel=1e-14, abs=0.0), k


def test_gfunc_reports_take_one_table_per_a_and_s(monkeypatch):
    calls = []
    table = verify._fd_derivatives

    def counted(a, E, n, s):
        calls.append((a, n, s))
        return table(a, E, n, s)

    monkeypatch.setattr(verify, "_fd_derivatives", counted)
    _, oracle = gfunc_reports()
    a_values = (0.125, 0.25, 1.0)  # gfunc_reports' default
    assert sorted(calls) == sorted((a, 5, s) for a in a_values for s in verify._S_ORACLE)
    assert len(oracle.details["points"]) == len(a_values) * 6 * len(verify._S_ORACLE)


def test_report_json_is_asdicts():
    details = {"points": [{"s": 0.5, "pair": (1.0, 2.0)}, {"s": 1.0, "pair": (3.0, [4.0])}],
               "nested": {"tau": (0.1, 0.2), "rows": [[1, 2], (3,)]}, "underflowed": []}
    r = VerificationReport.make("x", 3, 1e-7, 1e-6, details)
    assert json.dumps(r.to_json_dict(), indent=2) == json.dumps(dataclasses.asdict(r), indent=2)


@pytest.mark.parametrize("a", [0.125, 1.0, 5.0])
def test_fd_oracle_at_the_origin_is_the_l_series(a):
    # at s = 0 the stencil reaches below l = 1, where arccosh(l)^2 = -acos(l)^2
    for n in range(8):
        ref = gfunc.evaluate_near_origin(gfunc.expression(n, a, 0.0), 0.0)
        assert richardson_dl_derivative(a, 0.0, n, 0.0) == pytest.approx(ref, rel=1e-13, abs=0.0), n


def test_x_marginal_equal_heights_d4():
    rep = x_marginal_check(EvalParams(4, 1.0), 1.0, 1.0)
    assert rep.passed and rep.residual <= 1e-6


def test_x_marginal_d3_offset_heights():
    rep = x_marginal_check(EvalParams(3, 0.5), 1.0, math.e)
    assert rep.passed and rep.residual <= 1e-5


def test_x_marginal_all_dimensions():
    for d in (3, 4, 5, 6):
        rep = x_marginal_check(EvalParams(d, 0.5), 1.0, 1.3)
        assert rep.passed and rep.residual <= 1e-5, rep


def test_x_marginal_scale_invariance():
    base = x_marginal_check(EvalParams(4, 1.0), 1.0, 1.5)
    for lam in (0.5, 2.0):
        scaled = x_marginal_check(EvalParams(4, 1.0), lam * 1.0, lam * 1.5)
        assert scaled.residual == pytest.approx(base.residual, abs=1e-10)


@pytest.mark.parametrize("d, tau", [(4, 100.0), (5, 30.0), (6, 50.0)])
def test_x_marginal_resolves_a_tiny_rhs(d, tau):
    # abs_tol scales with the rhs (7.6e-35 at D = 4, tau 100): an absolute
    # 1e-20 stopped the integral on its first grid, at residuals of 1e-6
    rep = x_marginal_check(EvalParams(d, tau), 1.0, 1.0)
    assert rep.passed and rep.residual <= 1e-7, rep


def test_x_marginal_rejects_large_dimension():
    with pytest.raises(ValueError):
        x_marginal_check(EvalParams(7, 0.5), 1.0, 1.0)


def test_all_is_every_suite_in_table_order():
    every = [r for name in verify.SUITES for r in verify.suite_reports(name, [3, 4], 1.0)]
    assert verify.suite_reports("all", [3, 4], 1.0) == every
    assert list(dict.fromkeys(r.check for r in every)) == [
        "abel", "pde-radial", "pde-horicyclic", "ck", "mass", "x-marginal",
        "gfunc-overlap", "gfunc-fd-oracle",
    ]


# --- batched kernel integrands ------------------------------------------------

# abel_residual's tolerances, before its abs_tol is scaled by the rhs
_ABEL_SPEC = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-16)


_real_row = kernels._row


def _pointwise_row(params, tau, ss, spec, route=None):
    """The kernels' array row as one one-element row per (tau, s), which is
    what kernel() evaluates at each (tau, s)."""
    taus = np.broadcast_to(tau, ss.shape).tolist()
    rows = [_real_row(params.with_tau(t), t, ss[i : i + 1], spec, route) for i, t in enumerate(taus)]
    value = np.array([v[0] for v, _, _ in rows])
    err = np.array([e[0] for _, e, _ in rows])
    return value, err, {i: f[0] for i, (_, _, f) in enumerate(rows) if f}


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_batched_integrands_equal_the_pointwise_integrals(dim, monkeypatch):
    # one array row per batch of quadrature nodes, or per check's stencils
    # over many tau, gives the same bits as one kernel() call per node
    params = EvalParams(dim, 0.5)
    l = math.cosh(1.0)

    def integrals():
        return (
            verify._masses(params, [0.5, 1.0])[0].tolist(),
            [x.tolist() for x in verify._abel_lhs(params, [l], np.array([_ABEL_SPEC.abs_tol]))[:2]],
            verify._pde_pieces(params, [(1.0, 0.5), (0.1, 0.1), (3.5, 2.0)]),
            verify.chapman_kolmogorov_many(params, params, [0.0, 1.0])[0].details["target"],
            dim < 5 and verify.horicyclic_pde_residual(params, verify._horicyclic_pairs(dim)),
        )

    batched = integrals()
    monkeypatch.setattr(kernels, "_row", _pointwise_row)
    assert integrals() == batched


def test_nonconvergence_inside_a_batch_reaches_abel_residual(monkeypatch):
    # a kernel failure at one node of a batch fails that grid point's
    # integral, as a scalar kernel() call raising there did
    def row_failing_at_the_fourth_node(params, tau, ss, spec, route=None):
        value, err, failures = _real_row(params, tau, ss, spec, route)
        if len(ss) > 3:
            failures[3] = NonConvergenceError(0.5, 0.25, "injected")
        return value, err, failures

    monkeypatch.setattr(kernels, "_row", row_failing_at_the_fourth_node)
    rep = abel_residual(EvalParams(3, 1.0), l_grid=(1.0, math.cosh(1.0)))
    assert not rep.passed and rep.residual == math.inf
    for point in rep.details["points"]:
        assert point["rel_residual"] == math.inf
        assert (point["lhs"], point["quad_err"]) == (0.5, 0.25)
