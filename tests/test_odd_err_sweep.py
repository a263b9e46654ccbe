"""scripts/odd_err_sweep.py on three points of its grid."""

import importlib.util
import math
from pathlib import Path

from pseudoheat.quadrature import DEFAULT_SPEC

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "odd_err_sweep.py"
_spec = importlib.util.spec_from_file_location("odd_err_sweep", _SCRIPT)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


def test_sweep_reports_each_miss_and_the_worst_error(capsys):
    points = [(3, 0.5, 1.0), (5, 5.0, 0.0), (9, 2.0, 3.0)]
    results = sweep.sweep(sweep.references(points), DEFAULT_SPEC)
    assert [r[:3] for r in results] == points
    assert all(0.0 <= r[3] < 1e-12 and 0.0 < r[4] < 1e-9 for r in results)
    missed = sweep.misses(results)
    assert sweep.report("DEFAULT_SPEC", results) == len(missed)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(missed) + 1
    assert all(line.startswith("DEFAULT_SPEC miss D=") for line in lines[:-1])
    assert lines[-1].startswith(f"DEFAULT_SPEC: {len(missed)} of 3 points missed, worst error ")


def test_a_point_misses_where_its_error_exceeds_its_err_est_or_it_failed():
    covered, uncovered, failed = (3, 0.5, 1.0, 1e-15, 2e-15), (5, 2.0, 0.0, 3e-15, 2e-15), (7, 30.0, 6.0, 0.0, math.inf)
    assert sweep.misses([covered, uncovered, failed]) == [uncovered, failed]
