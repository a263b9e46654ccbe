import json
import math
import subprocess
import sys

import jsonschema
import pytest

from pathlib import Path

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
    assert "D must be >= 3" in res.stderr


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
    # worker threads would share mpmath's process-global working precision
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
    "dim, tau, s",
    [("4", "1", "800"), ("3", "100000", "1")],
)
def test_eval_overflow_is_numerical_failure(dim, tau, s):
    res = run_cli("eval", "--dim", dim, "--tau", tau, "--s", s)
    assert res.returncode == 3
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr
    # the message names the point and the route that overflowed
    route = {"3": "kernel_odd", "4": "kernel_d4"}[dim]
    assert f"D={dim}, tau={float(tau)!r}, s={float(s)!r} in {route}" in res.stderr


def test_table_keeps_finite_cells_around_an_overflowing_one():
    res = run_cli("table", "--dim", "4", "--tau-grid", "1:1:1", "--s-grid", "0:800:3", "--format", "csv")
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[1:]]
    assert [float(r[2]) for r in rows] == [0.0, 400.0, 800.0]
    finite = [r for r in rows if r[3] != ""]
    assert len(finite) == 2 and all(math.isfinite(float(r[3])) for r in finite)
    assert rows[2][3] == "" and rows[2][4] == "inf"
    # JSON: the failed cell has no value, a null err_est and the located message
    res = run_cli("table", "--dim", "4", "--tau-grid", "1:1:1", "--s-grid", "0:800:3")
    assert res.returncode == 3
    doc = json.loads(res.stdout)
    bad = doc["rows"][2]
    assert bad["value"] is None and bad["err_est"] is None
    assert bad["error"].endswith("at D=4, tau=1.0, s=800.0 in kernel_d4")
    assert all(r["value"] is not None for r in doc["rows"][:2])


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


def test_verify_abel_json_schema():
    res = run_cli("verify", "abel", "--dims", "3,4", "--tau", "1")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    with open(REPO_ROOT / SCHEMA_PATH) as fh:
        schema = json.load(fh)
    jsonschema.validate(doc, schema)
    assert [r["D"] for r in doc["reports"]] == [3, 4]
    assert all(r["passed"] for r in doc["reports"])


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
    res3 = run_cli("oracle", "--dim", "6", "--tau", "0.25", "--n", "2")
    assert res3.returncode == 2


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
