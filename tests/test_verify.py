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
from pseudoheat.kernels import EvalParams, kernel, kernel_row
from pseudoheat.quadrature import NonConvergenceError, QuadratureSpec, failure
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
    # tau 2), where the kernel is already 0.0: formed in logs, the integrand
    # is 0 there without a warning, and every D passes
    for dim in range(3, 31):
        rep = abel_residual(EvalParams(dim, tau))
        assert rep.passed, (dim, rep.residual)


@pytest.mark.filterwarnings("error")
def test_abel_with_a_kernel_that_never_underflows_names_its_l(monkeypatch):
    # a kernel that never underflows leaves the weight (k - l)^13 in the
    # integrand, and its sums overflow binary64: the weight in logs raises
    # no warning, and every l is named with no estimate
    monkeypatch.setattr(verify, "kernel_row", lambda params, ss, spec, tau=None: (np.ones_like(ss), np.zeros_like(ss), []))
    rep = abel_residual(EvalParams(30, 2.0))
    assert not rep.passed and rep.residual == math.inf
    assert rep.details["nonconverged"] == {f"{l:g}": math.inf for l in verify._L_GRID}
    assert all(p["rel_residual"] == math.inf for p in rep.details["points"])


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


def test_horicyclic_pde_d6():
    # above D = 4 the stencil's kernel values come from gfunc's even-D rows
    rep = horicyclic_pde_residual(EvalParams(6, 0.5), verify._horicyclic_pairs(6))
    assert rep.passed and rep.residual <= 1e-4, rep


def test_chapman_kolmogorov_d4():
    half = EvalParams(4, 0.5)
    reports = chapman_kolmogorov_many(half, half, [0.0, 1.0])
    for rep in reports:
        assert rep.passed and rep.residual <= 1e-4, rep


@pytest.mark.parametrize("tau", [0.5, 1.0])
@pytest.mark.parametrize("dim", [3, 5, 7])
def test_chapman_kolmogorov_odd_dimensions_to_1e7(dim, tau):
    # tau is the total time, as in `verify ck --tau`; the acceptance test
    # pins only 1e-3 (D = 3) and 1e-4 (D = 5)
    half = EvalParams(dim, tau / 2.0)
    target_params = EvalParams(dim, tau)
    for rep in chapman_kolmogorov_many(half, half, [0.0, 1.0, 2.0]):
        assert rep.passed and rep.residual <= 1e-7, rep
        # the estimate, with the target's own, covers the difference
        target = kernel(target_params, rep.details["d"], verify.SAMPLED_SPEC)
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


@pytest.mark.parametrize("dim", [3, 5])
def test_chapman_kolmogorov_samples_at_its_convolution_rel_tol(dim, monkeypatch):
    # the integrands' kernel samples run at the convolution's rel_tol / 100,
    # 1e-9 at its default 1e-7; held back to SAMPLED_SPEC throughout, every
    # convolution moves by less than 1e-9 relative and no verdict changes
    half = EvalParams(dim, 0.25)
    specs = set()

    def recorded(params, ss, spec, tau=None):
        specs.add(spec)
        return kernel_row(params, ss, spec, tau)

    monkeypatch.setattr(verify, "kernel_row", recorded)
    built = chapman_kolmogorov_many(half, half, [0.0, 1.0, 2.0])
    assert specs == {verify.SAMPLED_SPEC, QuadratureSpec(1e-9, verify.SAMPLED_SPEC.abs_tol)}
    monkeypatch.setattr(verify, "kernel_row", lambda params, ss, spec, tau=None: kernel_row(
        params, ss, verify.SAMPLED_SPEC, tau))
    held = chapman_kolmogorov_many(half, half, [0.0, 1.0, 2.0])
    for new, old in zip(built, held, strict=True):
        assert new.passed == old.passed, (new, old)
        assert new.details["convolution"] == pytest.approx(old.details["convolution"], rel=1e-9, abs=0.0)


def test_chapman_kolmogorov_nonconvergence_fails_the_report():
    # below the rounding floor no theta integral converges: the report
    # fails with no value rather than one the rule did not certify
    half = EvalParams(4, 0.25)
    (rep,) = chapman_kolmogorov_many(half, half, [1.0], QuadratureSpec(rel_tol=1e-17, abs_tol=1e-300))
    assert not rep.passed and rep.residual == math.inf
    assert math.isnan(rep.details["convolution"]) and rep.details["quad_err"] == math.inf
    assert rep.details["nonconverged"] == {"1": math.inf}


@pytest.mark.filterwarnings("error")
def test_chapman_kolmogorov_radial_weight_overflow_is_located(monkeypatch):
    # a kernel that never underflows leaves K1 sinh^3 r above binary64 past
    # r ~ 237: those r nodes are nan, so the convolution fails instead of
    # integrating inf, with no estimate, and its report names d
    monkeypatch.setattr(verify, "kernel_row", lambda params, ss, spec, tau=None: (np.ones(np.shape(ss)), np.zeros(np.shape(ss)), []))
    value, err, failed = verify._convolve_kernels(
        EvalParams(5, 100.0), EvalParams(5, 100.0), 1.0, QuadratureSpec(), 1.0, 1.0
    )
    assert failed and math.isnan(value) and err == math.inf
    (rep,) = chapman_kolmogorov_many(EvalParams(5, 100.0), EvalParams(5, 100.0), [1.0])
    assert not rep.passed and rep.residual == math.inf
    assert math.isnan(rep.details["convolution"]) and rep.details["nonconverged"] == {"1": math.inf}


def test_chapman_kolmogorov_target_failure_fails_every_report():
    # at D = 3 the Abel grid of K2 at s = 0, tau 5000, overflows: with no
    # K2 peak nothing is convolved, and every report carries the error
    half = EvalParams(3, 5000.0)
    reports = chapman_kolmogorov_many(half, half, [0.0, 1.0])
    assert [r.details["d"] for r in reports] == [0.0, 1.0]
    for rep in reports:
        assert not rep.passed and rep.residual == math.inf
        assert rep.details["error"] == "binary64 overflow (value nan) at D=3, tau=5000.0, s=0.0 in kernel_odd"


@pytest.mark.filterwarnings("error")
def test_pde_checks_fail_on_a_failed_stencil_sample(monkeypatch):
    # at D = 5, tau 1e4 the Abel grid of the stencil samples overflows: the
    # report fails and carries the located error of the first one
    rep = horicyclic_pde_residual(EvalParams(5, 1e4), verify._horicyclic_pairs(5))
    assert not rep.passed and rep.residual == math.inf
    assert rep.details["error"].startswith("binary64 overflow (value nan) at D=5, tau=10000.0, s=")
    assert rep.details["error"].endswith(" in kernel_odd")

    def failing(params, ss, spec, tau=None):
        shape = np.broadcast_shapes(np.shape(ss), np.shape(tau))
        return np.full(shape, math.nan), np.full(shape, 0.25), [failure(0.5, 0.25, "a stencil sample")]

    monkeypatch.setattr(verify, "kernel_row", failing)
    rep = radial_pde_residual(EvalParams(3, 1.0))
    assert not rep.passed and rep.residual == math.inf
    assert rep.details["error"] == "quadrature did not converge (err_est=0.25) at a stencil sample"


@pytest.mark.filterwarnings("error")
def test_x_marginal_fails_where_its_cutoff_overflows():
    # at tau 6000 the cutoff s ~ 1424 has a cosh past binary64
    rep = x_marginal_check(EvalParams(3, 6000.0), 1.0, math.e)
    assert not rep.passed and rep.residual == math.inf
    assert rep.details["error"] == "binary64 overflow (cosh of the cutoff s=1424.079000617592) at D=3, tau=6000.0"


def test_chapman_kolmogorov_validation():
    with pytest.raises(ValueError):
        chapman_kolmogorov_many(EvalParams(4, 0.5), EvalParams(3, 0.5), [1.0])


def test_mass_multiplicativity_d4():
    rep = mass_multiplicativity(EvalParams(4, 1.0), tau_list=(0.25, 0.5))
    assert rep.passed and rep.residual <= 1e-4
    # masses follow exp(c tau) with c equal to the fitted heat-equation shift
    assert rep.details["fitted_mass_rate"] == pytest.approx(0.25, abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_mass_at_d13_names_its_nonconverged_masses():
    # sinh^11 s overflows binary64 where K has underflowed: the weight in
    # logs is 0 there, and the masses at tau 1.25-2 stop at the halving cap
    # above SAMPLED_SPEC's absolute floor, each named with its estimate
    rep = mass_multiplicativity(EvalParams(13, 1.0))
    assert not rep.passed and rep.residual == math.inf
    assert set(rep.details["nonconverged"]) <= {"1.25", "1.5", "2"}
    assert all(0.0 < e < 1e-5 for e in rep.details["nonconverged"].values())


@pytest.mark.filterwarnings("error")
def test_mass_that_underflows_fails_its_pairs_and_is_named():
    # at hbar 1e300 the shift E takes every mass to 0.0: no pair has a
    # residual, and there is no rate to fit
    rep = mass_multiplicativity(EvalParams(4, 1.0, hbar=1e300), tau_list=(0.25, 0.5))
    assert not rep.passed and rep.residual == math.inf
    assert rep.details["underflowed"] == [0.25, 0.5, 0.75, 1.0]
    assert all(p["rel_residual"] == math.inf for p in rep.details["pairs"])
    assert rep.details["fitted_mass_rate"] is None


@pytest.mark.filterwarnings("error")
def test_an_integral_whose_cutoff_is_not_finite_fails_on_its_own():
    # at tau 1e70 (a = 2.5e-71) abel's cutoffs are nan: each l fails with
    # no value and no estimate, and none is listed as underflowed
    rep = abel_residual(EvalParams(3, 1e70))
    assert not rep.passed and rep.residual == math.inf
    assert rep.details["nonconverged"] == {f"{l:g}": math.inf for l in verify._L_GRID}
    assert "underflowed" not in rep.details
    assert all(math.isnan(p["lhs"]) and p["quad_err"] == math.inf for p in rep.details["points"])


def test_total_mass_matches_exponential_form():
    (mass,), _, failed, notes = verify._masses(EvalParams(5, 0.5), [0.5])
    assert mass == pytest.approx(math.exp(0.125), rel=1e-8) and failed == set() and notes == {}


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


@pytest.mark.parametrize("a", [0.125, 1.0])
@pytest.mark.parametrize("s", [0.0, 1.0, 5.0])
def test_fd_table_at_30_digits_is_the_40_digit_table(a, s):
    # the difference table's 30 digits keep about 13 over binary64: each
    # float is the one a 40-digit table gives
    n = 5
    with mpmath.workdps(40 + math.ceil(n * math.log10(math.cosh(s)))):
        am = mpmath.mpf(a)

        def G(l):
            sq = mpmath.acosh(l) ** 2 if l >= 1 else -mpmath.acos(l) ** 2
            return mpmath.sqrt(am / mpmath.pi) * mpmath.exp(-am * sq)

        ref = [float(d) for d in mpmath.diffs(G, mpmath.cosh(mpmath.mpf(s)), n)]
    assert verify._fd_derivatives(a, 0.0, n, s) == ref


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
    for d in (3, 4, 5, 6, 7, 9):
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


def test_all_is_every_suite_in_table_order():
    every = [r for name in verify.SUITES for r in verify.suite_reports(name, [3, 4], 1.0)]
    assert verify.suite_reports("all", [3, 4], 1.0) == every
    assert list(dict.fromkeys(r.check for r in every)) == [
        "abel", "pde-radial", "pde-horicyclic", "ck", "mass", "x-marginal",
        "gfunc-overlap", "gfunc-fd-oracle",
    ]


# --- batched kernel integrands ------------------------------------------------

_real_row = kernels._row


def _pointwise_row(params, tau, ss, spec, route=None):
    """The kernels' array row as one one-element row per (tau, s), which is
    what kernel() evaluates at each (tau, s)."""
    rows = [_real_row(params.with_tau(t), tau[i : i + 1], ss[i : i + 1], spec, route) for i, t in enumerate(tau.tolist())]
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
            verify._masses(params, [0.5, 1.0])[:2],
            [(p["lhs"], p["quad_err"]) for p in abel_residual(params, l_grid=(l,)).details["points"]],
            verify.radial_pde_residual(params, s_grid=(1.0, 0.1, 3.5), tau_grid=(0.5, 0.1, 2.0)),
            verify.chapman_kolmogorov_many(params, params, [0.0, 1.0])[0].details["target"],
            dim < 5 and verify.horicyclic_pde_residual(params, verify._horicyclic_pairs(dim)),
        )

    batched = integrals()
    monkeypatch.setattr(kernels, "_row", _pointwise_row)
    assert integrals() == batched


@pytest.mark.parametrize("suite", ["pde-radial", "pde-horicyclic"])
def test_each_heat_equation_check_samples_one_kernel_row_per_dimension(suite, monkeypatch):
    # every stencil point of a check's whole grid, in space and in tau, is
    # one row
    calls = []

    def counted(params, ss, spec, tau=None):
        calls.append(params.D)
        return kernel_row(params, ss, spec, tau)

    monkeypatch.setattr(verify, "kernel_row", counted)
    reports = verify.suite_reports(suite, [3, 4, 5], 0.5)
    assert all(r.passed for r in reports)
    assert calls == [3, 4, 5]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("suite", ["pde-radial", "pde-horicyclic"])
def test_a_zero_time_step_fails_its_heat_equation_report(suite, monkeypatch):
    # a time step that underflows to 0.0 makes dK/dtau nan: the report
    # fails through its residual, and nothing is raised
    real_steps = verify._pde_steps
    monkeypatch.setattr(verify, "_pde_steps", lambda params, s, tau: (real_steps(params, s, tau)[0], 0.0))
    (report,) = verify.suite_reports(suite, [4], 0.5)
    assert not report.passed
    assert not math.isfinite(report.residual)


def test_nonconvergence_inside_a_batch_reaches_abel_residual(monkeypatch):
    # a kernel failure at one node of a batch is nan there: it fails the
    # integral of each l whose nodes it is among, with value nan and
    # err_est inf, not the failed sample's value and estimate
    def row_failing_at_the_fourth_node(params, tau, ss, spec, route=None):
        value, err, failures = _real_row(params, tau, ss, spec, route)
        if len(ss) > 3:
            failures[3] = NonConvergenceError(0.5, 0.25, "injected")
        return value, err, failures

    monkeypatch.setattr(kernels, "_row", row_failing_at_the_fourth_node)
    # the fourth node of the first grid is l = 1's, and of the first halving,
    # where l = 1 has failed, l = cosh 1's
    rep = abel_residual(EvalParams(3, 1.0), l_grid=(1.0, math.cosh(1.0)))
    assert not rep.passed and rep.residual == math.inf
    for point in rep.details["points"]:
        assert point["rel_residual"] == math.inf
        assert math.isnan(point["lhs"]) and point["quad_err"] == math.inf
    assert rep.details["nonconverged"] == {"1": math.inf, "1.54308": math.inf}


@pytest.mark.filterwarnings("error")
def test_a_failed_kernel_sample_fails_only_the_mass_it_enters(monkeypatch):
    # every kernel entry at tau = 1 fails: that mass is nan, named under
    # nonconverged with err_est inf, and the other masses keep their bits
    params, taus = EvalParams(5, 0.5), [0.5, 1.0, 1.5]
    value, err, _, _ = verify._masses(params, taus)

    def row_failing_at_tau_one(params, tau, ss, spec, route=None):
        row_value, row_err, failures = _real_row(params, tau, ss, spec, route)
        for i in np.flatnonzero(np.broadcast_to(tau, ss.shape) == 1.0).tolist():
            failures[i] = NonConvergenceError(0.5, 0.25, "injected")
        return row_value, row_err, failures

    monkeypatch.setattr(kernels, "_row", row_failing_at_tau_one)
    got, got_err, failed, notes = verify._masses(params, taus)
    assert failed == {1} and notes == {"nonconverged": {"1": math.inf}}
    assert math.isnan(got[1]) and got_err[1] == math.inf
    assert (got[0], got[2], got_err[0], got_err[2]) == (value[0], value[2], err[0], err[2])
