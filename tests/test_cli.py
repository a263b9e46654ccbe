import json
import math
import subprocess
import sys

import jsonschema
import pytest

from pathlib import Path

from pseudoheat import cli
from pseudoheat.kernels import EvalParams, kernel_row

REPO_ROOT = Path(__file__).resolve().parents[1]

SCHEMA_PATH = "schemas/report.schema.json"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pseudoheat", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_eval_csv_exact_header_and_value():
    res = run_cli("eval", "--dim", "4", "--tau", "1", "--s", "1", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "D,tau,s,value,err_est"
    fields = lines[1].split(",")
    want = (1.0 / (4 * math.pi)) ** 1.5 / math.sinh(1.0) * math.exp(-1.0)
    assert float(fields[3]) == pytest.approx(want, rel=1e-12)


def test_eval_point_pair_echoes_distance():
    res = run_cli(
        "eval", "--dim", "3", "--tau", "0.5",
        "--y1", "1", "--y2", "2.718281828", "--x1", "0", "--x2", "0",
    )
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["record"]["s"] == pytest.approx(1.0, abs=1e-9)
    assert doc["defaults"]["m"] == 0.5 and doc["defaults"]["hbar"] == 1.0


def test_eval_rejects_low_dimension():
    res = run_cli("eval", "--dim", "2", "--tau", "1", "--s", "1")
    assert res.returncode == 2
    assert "D must be an integer >= 3" in res.stderr


@pytest.mark.parametrize("flag", ["--y1", "--x1", "--y2", "--x2"])
def test_eval_rejects_s_with_a_point_pair_flag(capsys, flag):
    assert cli.main(["eval", "--dim", "3", "--tau", "1", "--s", "1", flag, "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: give either --s or the point pair --y1/--x1/--y2/--x2\n"


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--dim", "3", "--tau", "1", "--s", "1", "--rel-tol", "nan"),
        ("eval", "--dim", "6", "--tau", "1", "--s", "1", "--abs-tol", "nan"),
        ("table", "--dim", "5", "--tau-grid", "0.5:1:2", "--s-grid", "0:1:2", "--rel-tol", "nan"),
    ],
)
def test_nan_tolerance_is_a_usage_error(args):
    # a nan tolerance is rejected before any kernel runs, at every D
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr.endswith("must be positive and finite\n") and res.stdout == ""


def test_table_rows_and_determinism():
    args = ("table", "--dim", "4", "--tau-grid", "0.5:1.5:3", "--s-grid", "0:2:3", "--format", "csv")
    res1 = run_cli(*args)
    res2 = run_cli(*args)
    assert res1.returncode == 0
    lines = res1.stdout.strip().splitlines()
    assert lines[0] == "D,tau,s,value,err_est"
    assert len(lines) == 10  # header + 3x3 grid, tau-major
    assert res1.stdout == res2.stdout


def test_table_same_bytes_at_any_thread_count():
    # a row's values must not depend on which worker thread computed it
    args = ("table", "--dim", "20", "--tau-grid", "0.25:2:3", "--s-grid", "0:0.3:16", "--format", "csv")
    res1 = run_cli(*args, "--threads", "1")
    res2 = run_cli(*args, "--threads", "2")
    assert res1.returncode == 0 and res2.returncode == 0
    assert res1.stdout == res2.stdout


def test_table_with_s_zero_odd_dimension_finite():
    res = run_cli("table", "--dim", "5", "--tau-grid", "1:1:1", "--s-grid", "0:2:3", "--format", "csv")
    assert res.returncode == 0
    for line in res.stdout.strip().splitlines()[1:]:
        value = float(line.split(",")[3])
        assert math.isfinite(value) and value > 0.0


@pytest.mark.parametrize(
    "dim, tau, s, route",
    [
        pytest.param("3", "100000", "1", "kernel_odd", id="3-100000-1"),
        # (a/pi)^(3/2) overflows: the even row's value is NaN, never printed
        pytest.param("6", "1e-300", "1", "kernel_even", id="6-1e-300-1"),
    ],
)
def test_eval_overflow_is_numerical_failure(dim, tau, s, route):
    res = run_cli("eval", "--dim", dim, "--tau", tau, "--s", s)
    assert res.returncode == 3
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr
    # the message names the point and the route that overflowed
    assert f"D={dim}, tau={float(tau)!r}, s={float(s)!r} in {route}" in res.stderr


def test_eval_d4_overflow_says_binary64_overflow():
    res = run_cli("eval", "--dim", "4", "--tau", "1e-300", "--s", "1")
    assert res.returncode == 3
    assert res.stderr.startswith("error: binary64 overflow")
    assert "Numerical result out of range" not in res.stderr
    assert "D=4, tau=1e-300, s=1.0 in kernel_d4" in res.stderr


def test_odd_nonconvergence_reports_the_kernels_estimate():
    # the Abel integral's own estimate here is 9.6e-178; the kernel's, scaled
    # by the front factor sqrt(2) (2 pi)^-3, is 5.5e-180
    tight = ("--rel-tol", "1e-13", "--abs-tol", "1e-300")
    res = run_cli("eval", "--dim", "7", "--tau", "0.1", "--s", "12", *tight)
    assert res.returncode == 3
    err = float(res.stderr.split("err_est=")[1].split(")")[0])
    assert 1e-180 < err < 1e-179
    res = run_cli("table", "--dim", "7", "--tau-grid", "0.1:0.1:1", "--s-grid", "12:12:1", *tight)
    assert res.returncode == 3
    (row,) = json.loads(res.stdout)["rows"]
    assert row["value"] is None and 1e-180 < row["err_est"] < 1e-179
    assert row["error"].startswith(f"quadrature did not converge (err_est={row['err_est']:g})")


@pytest.mark.parametrize("dim, s_grid", [("7", "700:705:2"), ("8", "700:800:3"), ("12", "700:800:3")])
def test_underflowed_value_is_positive_zero(dim, s_grid):
    # the front factor (-1/(2 pi))^n is negative at D = 7, 8 and 12; a value
    # that underflows under it is +0.0, in the kernel and in the CSV
    res = run_cli("table", "--dim", dim, "--tau-grid", "1:1:1", "--s-grid", s_grid, "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert "-0.0" not in res.stdout
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["0.0"] * len(rows)
    values = kernel_row(EvalParams(int(dim), 1.0), [float(r[2]) for r in rows])[0].tolist()
    assert values == [0.0] * len(rows)
    assert all(math.copysign(1.0, v) == 1.0 for v in values)


def test_eval_d4_past_sinh_overflow_underflows_to_zero():
    # sinh(800) overflows binary64; the kernel itself is far below it
    res = run_cli("eval", "--dim", "4", "--tau", "1", "--s", "800", "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[1] == "4,1.0,800.0,0.0,0.0"


def test_table_keeps_finite_cells_around_an_overflowing_one():
    # at s = 1400 the Abel grid's sinh((s_max + s) / 2) overflows binary64
    res = run_cli("table", "--dim", "3", "--tau-grid", "1:1:1", "--s-grid", "0:1400:3", "--format", "csv")
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
    assert [float(r[2]) for r in rows] == [0.0, 700.0, 1400.0]
    finite = [r for r in rows if r[3] != ""]
    assert len(finite) == 2 and all(math.isfinite(float(r[3])) for r in finite)
    assert rows[2][3] == "" and rows[2][4] == "inf"
    # JSON: the failed cell has no value, a null err_est and the located message
    res = run_cli("table", "--dim", "3", "--tau-grid", "1:1:1", "--s-grid", "0:1400:3")
    assert res.returncode == 3
    doc = json.loads(res.stdout)
    bad = doc["rows"][2]
    assert bad["value"] is None and bad["err_est"] is None
    assert bad["error"].endswith("at D=3, tau=1.0, s=1400.0 in kernel_odd")
    assert all(r["value"] is not None for r in doc["rows"][:2])


def test_table_cell_that_fails_names_its_own_tau():
    # the whole grid is one kernel row; (a/pi)^1.5 overflows at tau = 1e-300 only
    res = run_cli("table", "--dim", "4", "--tau-grid", "1e-300:1:2", "--s-grid", "0:1:2")
    assert res.returncode == 3
    rows = json.loads(res.stdout)["rows"]
    assert [(r["tau"], r["s"]) for r in rows] == [(1e-300, 0.0), (1e-300, 1.0), (1.0, 0.0), (1.0, 1.0)]
    for r in rows[:2]:
        assert r["value"] is None and r["error"].endswith(f"at D=4, tau=1e-300, s={r['s']!r} in kernel_d4")
    assert [r["value"] for r in rows[2:]] == kernel_row(EvalParams(4, 1.0), [0.0, 1.0])[0].tolist()


def test_eval_nonconvergence_names_the_point():
    tight = ("--rel-tol", "1e-18", "--abs-tol", "1e-300")
    res = run_cli("eval", "--dim", "5", "--tau", "0.5", "--s", "1", *tight)
    assert res.returncode == 3
    assert res.stderr.startswith("error: quadrature did not converge")
    assert "Traceback" not in res.stderr
    assert "D=5, tau=0.5, s=1.0 in kernel_odd" in res.stderr
    # a failed table cell keeps its error estimate and names the point too
    res = run_cli("table", "--dim", "5", "--tau-grid", "0.5:0.5:1", "--s-grid", "1:1:1", *tight)
    assert res.returncode == 3
    (row,) = json.loads(res.stdout)["rows"]
    assert row["value"] is None and row["err_est"] > 0.0
    assert row["error"].endswith("at D=5, tau=0.5, s=1.0 in kernel_odd")


def test_verify_unknown_suite_usage_error():
    res = run_cli("verify", "nonsense")
    assert res.returncode == 2


def test_verify_takes_no_format():
    # verify prints JSON only: a --format it would ignore is a usage error
    res = run_cli("verify", "abel", "--format", "csv")
    assert res.returncode == 2


def test_verify_abel_json_schema():
    res = run_cli("verify", "abel", "--dims", "3,4", "--tau", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    with open(REPO_ROOT / SCHEMA_PATH) as fh:
        schema = json.load(fh)
    jsonschema.validate(doc, schema)
    assert [r["D"] for r in doc["reports"]] == [3, 4]
    assert all(r["passed"] for r in doc["reports"])


def test_verify_x_marginal_json_schema():
    res = run_cli("verify", "x-marginal", "--dims", "3,4,5,6")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    with open(REPO_ROOT / SCHEMA_PATH) as fh:
        schema = json.load(fh)
    jsonschema.validate(doc, schema)
    assert [(r["check"], r["D"]) for r in doc["reports"]] == [("x-marginal", d) for d in (3, 4, 5, 6)]
    assert all(r["passed"] for r in doc["reports"])


@pytest.mark.parametrize("suite, dims", [("abel", "")])
def test_verify_that_checks_nothing_is_a_usage_error(suite, dims):
    # every suite but gfunc runs once per D of --dims: an empty --dims
    # gives no report, and no report is no pass
    res = run_cli("verify", suite, "--dims", dims)
    assert res.returncode == 2
    assert res.stderr == f"error: verify {suite} has no check at --dims {dims!r}\n"
    assert res.stdout == ""


def test_verify_conjunction_exit_code():
    # the gfunc suite is dimension-free and must pass
    res = run_cli("verify", "gfunc", "--dims", "3")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert {r["check"] for r in doc["reports"]} == {"gfunc-overlap", "gfunc-fd-oracle"}


def test_oracle_deterministic_and_dimension_guard():
    args = (
        "oracle", "--dim", "4", "--tau", "0.25", "--n", "2,4",
        "--samples", "20000", "--seed", "42", "--format", "csv",
    )
    res1 = run_cli(*args)
    res2 = run_cli(*args)
    assert res1.returncode == 0
    assert res1.stdout == res2.stdout
    lines = res1.stdout.strip().splitlines()
    assert lines[0] == "N,lattice_value,err_est,closed_value,rel_dev"
    assert lines[-1].startswith("fitted_order,")
    # the oracle runs at any D, its default points in the D's own space
    res3 = run_cli("oracle", "--dim", "6", "--tau", "0.25", "--n", "2,4", "--samples", "20000", "--format", "csv")
    assert res3.returncode == 0, res3.stderr


@pytest.mark.parametrize("n", ["", "4", "4,4"])
def test_oracle_needs_two_distinct_slice_counts(n):
    # an order in 1/N is fitted to at least two distinct N; checked before sampling
    res = run_cli("oracle", "--dim", "3", "--n", n, "--samples", "10000", "--format", "csv")
    assert res.returncode == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert res.stdout == ""


def test_oracle_names_a_closed_value_that_underflowed():
    # the lattice deviation is relative to the closed-form value: where that
    # underflows to 0.0 the oracle stops before sampling and names the point
    res = run_cli("oracle", "--dim", "3", "--tau", "0.01", "--y2", "1000", "--samples", "10000",
                  "--n", "2,4", "--threads", "1")
    assert res.returncode == 3 and res.stdout == ""
    assert res.stderr.startswith("error: closed-form kernel underflows binary64 at D=3, tau=0.01, s=")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("dim, y1, y2, x2", [
    ("6", "1e100", "1.2e100", "3e99,0,0,0"),
    ("6", "1e-100", "1.2e-100", "3e-101,0,0,0"),
    ("3", "1e-200", "1.2e-200", "3e-201"),
])
def test_eval_and_oracle_at_a_dilated_pair_print_the_unit_pair_rows(dim, y1, y2, x2):
    # the kernel is invariant under (y, x) -> (y, x - x1) / y1, and eval and
    # oracle measure and sample in the first point's frame, so no product of
    # heights passes binary64 and no warning is raised
    unit_x2 = ",".join(["0.3"] + ["0"] * (int(dim) - 3))
    for command, tail in (("oracle", ("--n", "4,8", "--samples", "10000")), ("eval", ("--tau", "0.25"))):
        argv = (command, "--dim", dim, *tail, "--format", "csv")
        res = subprocess.run([sys.executable, "-W", "error", "-m", "pseudoheat", *argv,
                              "--y1", y1, "--y2", y2, "--x2", x2],
                             capture_output=True, text=True, cwd=REPO_ROOT)
        assert res.returncode == 0 and res.stderr == "", res.stderr
        unit = run_cli(*argv, "--y1", "1", "--y2", "1.2", "--x2", unit_x2)
        lines, unit_lines = res.stdout.splitlines(), unit.stdout.splitlines()
        assert lines[0] == unit_lines[0] and len(lines) == len(unit_lines) > 1
        for line, unit_line in zip(lines[1:], unit_lines[1:]):
            (key, *got), (unit_key, *want) = line.split(","), unit_line.split(",")
            assert key == unit_key
            assert list(map(float, got)) == pytest.approx(list(map(float, want)), rel=1e-12, abs=0.0), line


def test_verify_runs_at_the_printed_units():
    base = run_cli("verify", "abel", "--dims", "3", "--tau", "1")
    heavy = run_cli("verify", "abel", "--dims", "3", "--tau", "1", "--m", "1")
    assert base.returncode == 0 and heavy.returncode == 0
    doc = json.loads(heavy.stdout)
    assert doc["defaults"]["m"] == 1.0
    (report,) = doc["reports"]
    assert report["passed"]
    lhs = [p["lhs"] for p in report["details"]["points"]]
    (base_report,) = json.loads(base.stdout)["reports"]
    base_lhs = [p["lhs"] for p in base_report["details"]["points"]]
    assert all(x != y for x, y in zip(lhs, base_lhs))


@pytest.mark.parametrize(
    "suite, dims, tau, points",
    [
        ("abel", "3,4", "3e-3", [math.cosh(3.0)]),
        ("ck", "4", "1e-3", [2.0]),
        ("pde-horicyclic", "3", "1e-4", None),
        ("abel", "3,4", "3.1e-3", [math.cosh(3.0)]),
    ],
)
def test_verify_names_a_reference_value_that_underflowed(suite, dims, tau, points):
    # a reference value of 0.0 fails its report with residual inf and is
    # named in the details, instead of ending the run on a division by zero
    res = run_cli("verify", suite, "--dims", dims, "--tau", tau)
    assert res.returncode == 1
    assert "error:" not in res.stderr and "Traceback" not in res.stderr
    reports = json.loads(res.stdout)["reports"]
    failed = [r for r in reports if "underflowed" in r["details"]]
    assert len(failed) == len(dims.split(","))
    for r in failed:
        assert not r["passed"] and r["residual"] == math.inf
        if points is not None:
            assert r["details"]["underflowed"] == points
        else:  # every pair of the check
            assert len(r["details"]["underflowed"]) == r["details"]["n_pairs"]


def test_verify_mass_reports_a_mass_that_did_not_converge():
    # at hbar = 2 the D = 5 mass at tau = 2 stops above its quadrature
    # tolerance: the check fails and names that tau, the others still report
    res = run_cli("verify", "mass", "--dims", "3,4,5", "--tau", "1", "--hbar", "2")
    assert res.returncode == 1
    assert "error:" not in res.stderr and "Traceback" not in res.stderr
    reports = {r["D"]: r for r in json.loads(res.stdout)["reports"]}
    assert reports[3]["passed"] and reports[4]["passed"]
    assert not reports[5]["passed"] and reports[5]["residual"] == math.inf
    (err_est,) = reports[5]["details"]["nonconverged"].values()
    assert list(reports[5]["details"]["nonconverged"]) == ["2"] and 0.0 < err_est < 1e-6


def test_table_row_keeps_its_cells_around_a_nonconverged_one():
    # one tau row is one batched call; the s = 1 cell stops on its own test
    # (its rounding floor is above rel 1e-13) and the row's other cells stay
    args = ("table", "--dim", "3", "--tau-grid", "0.001:0.001:1", "--s-grid", "0:1:5",
            "--rel-tol", "1e-13", "--abs-tol", "1e-300")
    res = run_cli(*args, "--format", "csv")
    assert res.returncode == 3
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
    assert [float(r[2]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(math.isfinite(float(r[3])) and float(r[3]) > 0.0 for r in rows[:4])
    assert rows[4][3] == "" and 0.0 < float(rows[4][4]) < 1e-100
    res = run_cli(*args)
    assert res.returncode == 3
    doc = json.loads(res.stdout)
    bad = doc["rows"][4]
    assert bad["value"] is None and bad["err_est"] == float(rows[4][4])
    assert bad["error"].startswith("quadrature did not converge")
    assert bad["error"].endswith("at D=3, tau=0.001, s=1.0 in kernel_odd")
    assert all("error" not in r for r in doc["rows"][:4])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "dims, tau",
    [
        ("3", "100"),
        # w (w + 2) overflows at s ~ 550; an absolute abs_tol of 1e-20 against
        # the rhs of 6.7e-296 stopped the integral on its first grid
        ("4", "900"),
    ],
)
def test_verify_x_marginal_names_a_nonconverged_point(dims, tau, capsys):
    # the integral runs to its halving cap: the report fails (exit 1) and
    # names its point pair with the estimate
    assert cli.main(["verify", "x-marginal", "--dims", dims, "--tau", tau]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    (report,) = json.loads(out.out)["reports"]
    assert not report["passed"] and report["residual"] == math.inf
    y2 = math.e if dims == "3" else 1.0
    assert report["details"]["nonconverged"] == {f"1,{y2:g}": report["details"]["quad_err"]}
    assert 0.0 < report["details"]["quad_err"] < 1e-2 * report["details"]["rhs"]


@pytest.mark.filterwarnings("error")
def test_verify_all_prints_every_suite_around_a_nonconverged_integral(capsys):
    # at tau 100 abel's lhs and the x-marginal stop at the halving cap; every
    # suite still reports, and the two checks name their integrals
    assert cli.main(["verify", "all", "--dims", "3", "--tau", "100"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    reports = json.loads(out.out)["reports"]
    assert [r["check"] for r in reports] == [
        "abel", "pde-radial", "pde-horicyclic", "ck", "ck", "ck", "mass", "x-marginal",
        "gfunc-overlap", "gfunc-fd-oracle",
    ]
    failed = {r["check"]: r["details"]["nonconverged"] for r in reports if not r["passed"]}
    assert list(failed) == ["abel", "x-marginal"]
    assert list(failed["abel"]) == ["1", "1.12763", "1.54308", "3.7622", "10.0677"]
    (err,) = failed["x-marginal"].values()
    assert list(failed["x-marginal"]) == ["1,2.71828"] and 5.2e-9 < err < 6.2e-9


@pytest.mark.filterwarnings("error")
def test_verify_all_names_the_integrals_a_kernel_overflow_fails(capsys):
    # at tau 200 a kernel sample of abel (D = 3 and 5) and of ck (D = 5)
    # overflows the Abel grid: it fails the integrals it feeds, which are
    # named, and every other report is still printed
    assert cli.main(["verify", "all", "--dims", "3,4,5", "--tau", "200"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    reports = json.loads(out.out)["reports"]
    assert len(reports) == 26
    failed = [(r["check"], r["D"], list(r["details"]["nonconverged"])) for r in reports if not r["passed"]]
    l_grid = ["1", "1.12763", "1.54308", "3.7622", "10.0677"]
    assert failed == [
        ("abel", 3, l_grid), ("abel", 5, l_grid), ("ck", 5, ["0"]), ("ck", 5, ["1"]), ("ck", 5, ["2"]),
        ("x-marginal", 3, ["1,2.71828"]),
    ]


@pytest.mark.filterwarnings("error")
def test_verify_ck_names_each_d_whose_kernel_sample_overflows(capsys):
    assert cli.main(["verify", "ck", "--dims", "5", "--tau", "200"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    reports = json.loads(out.out)["reports"]
    assert [r["details"]["nonconverged"] for r in reports] == [{"0": math.inf}, {"1": math.inf}, {"2": math.inf}]
    assert all(r["residual"] == math.inf for r in reports)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, n_reports", [
    # the time step's fifth powers of tau and of the Gaussian argument overflow
    ("pde-horicyclic --dims 4,5 --tau 1e62", 2),
    ("all --dims 3,4,5 --tau 1e62", 26),
    # gaussian_cutoff's square root cancels below 0: abel's cutoff is nan,
    # and ck's at D = 8
    ("all --dims 3,4,5 --tau 1e70", 26),
    ("ck --dims 8 --tau 1e44", 3),
    # the masses underflow to 0.0
    ("mass --dims 4 --tau 1 --hbar 1e300", 1),
    ("all --dims 4 --tau 1 --m 1e-300", 10),
    # the rate a ~ 1e120 is past the 1e102 where (2a)^3 of the heat
    # equation's space step would overflow
    ("all --dims 4,6 --tau 1e-120", 18),
    ("pde-radial --dims 4,6 --m 1e120", 2),
    # past a rate of ~1e200: gaussian_cutoff's 4 rate target overflows, and
    # a heat-equation step, or its square, is 0.0
    ("all --dims 4,6 --tau 1e-200", 18),
    ("pde-horicyclic --dims 4 --tau 1e-200", 1),
    ("pde-radial --dims 4 --hbar 1e-300", 1),
    ("all --dims 4 --m 1e300", 10),
])
def test_verify_reports_every_check_at_extreme_units(capsys, argv, n_reports):
    # each check fails on its own, and every report is printed
    assert cli.main(["verify", *argv.split()]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    doc = json.loads(out.out)
    with open(REPO_ROOT / SCHEMA_PATH) as fh:
        jsonschema.validate(doc, json.load(fh))
    assert len(doc["reports"]) == n_reports


@pytest.mark.parametrize("flag, value, name", [("--tau", "-1", "tau"), ("--m", "nan", "m"), ("--hbar", "inf", "hbar")])
def test_verify_gfunc_rejects_invalid_units(capsys, flag, value, name):
    # gfunc reads no unit, yet the units of every D are checked before any
    # suite runs
    assert cli.main(["verify", "gfunc", "--dims", "3", flag, value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {name} must be positive and finite\n"


@pytest.mark.filterwarnings("error")
def test_eval_overflow_exits_3_with_its_location(capsys):
    # at s = 712 the Abel grid's sinh((s_max + s) / 2) overflows binary64
    assert cli.main(["eval", "--dim", "3", "--tau", "1", "--s", "712"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: binary64 overflow (value nan) at D=3, tau=1.0, s=712.0 in kernel_odd\n"


@pytest.mark.filterwarnings("error")
def test_verify_abel_names_every_l_that_did_not_converge(capsys):
    assert cli.main(["verify", "abel", "--dims", "30", "--tau", "3"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    (report,) = json.loads(out.out)["reports"]
    named = report["details"]["nonconverged"]
    assert list(named) == ["1", "1.12763", "1.54308", "3.7622", "10.0677"]
    assert list(named.values()) == [p["quad_err"] for p in report["details"]["points"]]


@pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
def test_verify_takes_no_tolerance(flag):
    # the checks carry their own tolerances: verify does not accept, or
    # echo, a flag it would not read
    res = run_cli("verify", "abel", "--dims", "3", flag, "nan")
    assert res.returncode == 2 and res.stdout == ""
    assert f"unrecognized arguments: {flag} nan" in res.stderr
    res = run_cli("verify", "abel", "--dims", "3")
    assert json.loads(res.stdout)["defaults"] == {"m": 0.5, "hbar": 1.0}


def test_eval_point_pair_in_any_dimension():
    # the flat coordinates default to D - 2 zeros, as the oracle's do
    res = run_cli("eval", "--dim", "5", "--tau", "1", "--y1", "1", "--y2", "2", "--format", "csv")
    assert res.returncode == 0, res.stderr
    _, tau, s, value, _ = res.stdout.strip().splitlines()[1].split(",")
    assert float(s) == pytest.approx(math.log(2.0), rel=1e-15)
    res = run_cli("eval", "--dim", "5", "--tau", "1", "--y1", "1", "--x1", "0,0", "--y2", "2")
    assert res.returncode == 2 and res.stderr == "error: point pair has dimension 4, expected 5\n"


def test_eval_point_pair_far_apart():
    # 1e-160 below the unit height: cosh d - 1 = 5e159, whose square overflows
    res = run_cli("eval", "--dim", "3", "--tau", "1", "--y1", "1", "--y2", "1e-160", "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert float(res.stdout.strip().splitlines()[1].split(",")[2]) == pytest.approx(160 * math.log(10.0), rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "suite, dims, tau, code",
    [
        ("x-marginal", "6", "300", 1),  # the rhs underflows binary64
        ("x-marginal", "3", "1e-4", 1),
        ("x-marginal", "4", "1000", 1),
        ("ck", "5", "100", 0),  # K1 is 0.0 where sinh^3 r overflows
        ("ck", "4", "300", 0),  # cosh r overflows where K1 is 0.0
    ],
)
def test_verify_at_extreme_tau_reports_without_warnings(suite, dims, tau, code, capsys):
    # in-process, so that a RuntimeWarning fails the test: every report has
    # a number for its residual, inf where the reference underflowed
    assert cli.main(["verify", suite, "--dims", dims, "--tau", tau]) == code
    out = capsys.readouterr()
    assert out.err == ""
    for r in json.loads(out.out)["reports"]:
        assert not math.isnan(r["residual"])
        if "underflowed" in r["details"]:
            assert r["residual"] == math.inf and r["details"]["lhs"] is None
            assert r["details"]["underflowed"] == [[1.0, math.e if dims == "3" else 1.0]]
        else:
            assert math.isfinite(r["residual"]) and r["passed"] == (code == 0)
