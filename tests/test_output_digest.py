"""The value gate of scripts/output_digest.py --compare, on synthetic --values files."""

import copy
import importlib.util
import json
import math
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

TABLE = "table --dim 5 --tau-grid 0.5:1:2 --s-grid 0:1:2 --format csv --threads 1"
VERIFY = "verify all --dims 3 --tau 0.5"
ORACLE = "oracle --dim 3 --tau 0.25 --n 2,4 --samples 20000 --seed 9 --threads 1 --format csv"

OLD = {
    TABLE: {
        "exit": 0,
        "items": [
            {"tau": 0.5, "s": 0.0, "value": 0.25, "err_est": 1e-15},
            {"tau": 0.5, "s": 1.0, "value": 0.125, "err_est": 1e-15},
            {"tau": 1.0, "s": 0.0, "value": 1e-40, "err_est": 1e-44},
            {"tau": 1.0, "s": 1.0, "value": 2e-40, "err_est": 1e-44},
        ],
    },
    VERIFY: {
        "exit": 0,
        "items": [
            {"check": "abel", "D": 3, "residual": 1e-10, "passed": True,
             "values": [{"value": 0.5, "quad_err": 1e-12}, {"value": None, "quad_err": None}]},
            {"check": "mass", "D": 3, "residual": 0.3, "passed": False,
             "values": [{"value": 1.25, "quad_err": 0.0}]},
        ],
    },
    ORACLE: {
        "exit": 0,
        "items": [{"N": 2, "value": 0.30, "err_est": 3e-4}, {"N": 4, "value": 0.29, "err_est": 4e-4}],
        "fitted_order": 0.9,
    },
}


def _compare(tmp_path, new, capsys):
    old_file, new_file = tmp_path / "old.json", tmp_path / "new.json"
    old_file.write_text(json.dumps(OLD))
    new_file.write_text(json.dumps(new))
    code = digest.compare(str(old_file), str(new_file))
    return code, [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]


def test_compare_passes_small_moves(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    cells = new[TABLE]["items"]
    cells[0]["value"] = 0.25 * (1 + 2e-10)  # past both err_est, inside 1e-9 relative
    cells[2]["value"] = 1e-40 * (1 + 1e-6)  # past 1e-9 relative, inside the err_est sum
    new[VERIFY]["items"][0]["residual"] = 2e-10  # residuals may move; verdicts may not
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 0 and fails == []


def test_compare_fails_on_exit_code(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    new[TABLE]["exit"] = 3
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    assert fails == [f"FAIL {TABLE}: exit 0->3"]


def test_compare_fails_on_verdict(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    new[VERIFY]["items"][1]["passed"] = True
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    assert fails == [f"FAIL {VERIFY}: mass D=3 False->True"]


def test_compare_fails_on_value_on_one_side(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    new[TABLE]["items"][3]["value"] = None
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    assert fails == [f"FAIL {TABLE}: tau=1.0 s=1.0: value 2e-40 -> None"]


def test_compare_pairs_reports_by_check_and_dimension(tmp_path, capsys):
    # a report inserted ahead of another is the only failure: the failed
    # mass report still meets its own counterpart, not the inserted one
    new = copy.deepcopy(OLD)
    new[VERIFY]["items"].insert(1, {"check": "pde-horicyclic", "D": 5, "residual": 1e-6, "passed": True,
                                    "values": []})
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    assert fails == [f"FAIL {VERIFY}: pde-horicyclic D=5: report on one side only"]
    # a second report of one (check, D), as ck gives one per separation
    new[VERIFY]["items"].append(copy.deepcopy(OLD[VERIFY]["items"][1]))
    code, fails = _compare(tmp_path, new, capsys)
    assert fails[1:] == [f"FAIL {VERIFY}: mass D=3 #1: report on one side only"]


def test_compare_pairs_cells_by_tau_and_s(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    del new[TABLE]["items"][1]
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    assert fails == [f"FAIL {TABLE}: tau=0.5 s=1.0: cell on one side only"]


def test_compare_fails_on_cell_past_both_bounds(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    new[TABLE]["items"][1]["value"] = 0.125 * (1 + 1e-8)
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    (line,) = fails
    assert line.startswith(f"FAIL {TABLE}: tau=0.5 s=1.0: value 0.125 -> ")


def test_main_returns_the_compare_exit_code(tmp_path, monkeypatch, capsys):
    new = copy.deepcopy(OLD)
    new[TABLE]["exit"] = 3
    old_file, new_file = tmp_path / "old.json", tmp_path / "new.json"
    old_file.write_text(json.dumps(OLD))
    new_file.write_text(json.dumps(new))
    monkeypatch.setattr("sys.argv", ["output_digest.py", "--compare", str(old_file), str(new_file)])
    assert digest.main() == 1


def test_parse_records_each_reports_integrals_with_their_quad_err():
    reports = [
        {"check": "abel", "D": 3, "residual": 1e-10, "passed": True, "details": {"points": [
            {"l": 1.0, "lhs": 0.5, "rhs": 0.5, "quad_err": 1e-12},
            {"l": 2.0, "lhs": None, "rhs": 0.0, "quad_err": None},
        ]}},
        {"check": "ck", "D": 3, "residual": 1e-9, "passed": True,
         "details": {"convolution": 0.25, "target": 0.25, "quad_err": 1e-10}},
        {"check": "mass", "D": 3, "residual": 1e-9, "passed": True,
         "details": {"masses": {"0.25": 1.1, "0.5": 1.2}, "quad_err": {"0.25": 1e-12, "0.5": 2e-12}}},
        {"check": "x-marginal", "D": 3, "residual": 1e-9, "passed": True,
         "details": {"lhs": 0.75, "rhs": 0.75, "quad_err": 3e-12}},
        {"check": "pde-radial", "D": 3, "residual": 1e-9, "passed": True, "details": {}},
        # a report that failed on its kernel row has an error and no integral
        {"check": "ck", "D": 3, "residual": math.inf, "passed": False, "details": {"d": 1.0, "error": "overflow"}},
    ]
    items = digest.parse(["verify", "all"], json.dumps({"reports": reports}))
    assert [item["values"] for item in items] == [
        [{"value": 0.5, "quad_err": 1e-12}, {"value": None, "quad_err": None}],
        [{"value": 0.25, "quad_err": 1e-10}],
        [{"value": 1.1, "quad_err": 1e-12}, {"value": 1.2, "quad_err": 2e-12}],
        [{"value": 0.75, "quad_err": 3e-12}],
        [],
        [],
    ]
    assert [(i["check"], i["residual"], i["passed"]) for i in items] == [
        (r["check"], r["residual"], r["passed"]) for r in reports
    ]


def test_compare_gates_verification_integrals(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    values = new[VERIFY]["items"][0]["values"]
    values[0]["value"] = 0.5 + 1.5e-12  # inside both bounds
    new[VERIFY]["items"][1]["values"][0]["value"] = 1.25 * (1 + 5e-10)  # inside 1e-9 relative
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 0 and fails == []
    values[0]["value"] = 0.5 * (1 + 1e-8)  # past 1e-9 relative and past the quad_err sum
    values[1]["value"] = 0.125  # a value on one side only
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    assert fails[0].startswith(f"FAIL {VERIFY}: abel D=3 integral 0: value 0.5 -> ")
    assert fails[1:] == [f"FAIL {VERIFY}: abel D=3 integral 1: value None -> 0.125"]
    values[1]["value"] = None
    values[0]["value"], values[0]["quad_err"] = 0.5 + 8e-10, 1e-9  # past 1e-9 relative, inside the quad_err sum
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 0 and fails == []


def test_parse_records_each_oracle_row_and_the_fitted_order():
    text = ("N,lattice_value,err_est,closed_value,rel_dev\n"
            "2,0.3,0.0003,0.28,0.07\n4,0.29,0.0004,0.28,0.035\nfitted_order,0.98\n")
    argv = ORACLE.split()
    assert digest.parse(argv, text) == [
        {"N": 2, "value": 0.3, "err_est": 3e-4}, {"N": 4, "value": 0.29, "err_est": 4e-4},
    ]
    assert digest.fitted_order(text) == 0.98
    assert digest.parse(argv, "") == [] and digest.fitted_order("") is None


def test_compare_gates_oracle_rows_on_their_standard_errors(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    rows = new[ORACLE]["items"]
    rows[0]["value"] = 0.30 + 4.9 * 5e-4  # inside 5 sqrt(3e-4^2 + 4e-4^2)
    rows[0]["err_est"], new[ORACLE]["fitted_order"] = 4e-4, 0.7  # the fitted order is reported only
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 0 and fails == []
    rows[1]["value"] = 0.29 - 5.1 * 4e-4 * 2**0.5
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    (line,) = fails
    assert line.startswith(f"FAIL {ORACLE}: N=4 moved 5.1")


def test_compare_fails_on_oracle_exit_code_and_slice_counts(tmp_path, capsys):
    new = copy.deepcopy(OLD)
    new[ORACLE] = {"exit": 2, "items": [], "fitted_order": None}
    code, fails = _compare(tmp_path, new, capsys)
    assert code == 1
    assert fails == [f"FAIL {ORACLE}: exit 0->2", f"FAIL {ORACLE}: slice counts [2, 4] -> []"]
