"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from pseudoheat import cli, kernels  # noqa: E402
from pseudoheat.kernels import EvalParams, kernel  # noqa: E402

from perfbench import metrics as M  # noqa: E402
from perfbench.reference import kernel_reference  # noqa: E402
from perfbench.tracer import Span, Tracer, self_times, union_length  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Job,
    Outcome,
    WORKLOADS,
    Workload,
    check_reference,
    check_table,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _pseudoheat_functions() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "pseudoheat" or name.startswith("pseudoheat."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    return out


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


ODD_TABLE = ["table", "--dim", "5", "--tau-grid", "0.5:1:2", "--s-grid", "0.1:2:3", "--format", "csv"]


def test_trace_restores_every_patched_attribute_and_kernel_values():
    points = [(3, 1.0, 0.5), (4, 0.5, 1.0), (5, 1.0, 0.5), (8, 2.0, 0.3)]
    before_values = [kernel(EvalParams(d, t), s).value for d, t, s in points]
    before = _pseudoheat_functions()
    tracer = Tracer()
    with tracer:
        assert tracer.patched
        assert cli.kernel is not before[("pseudoheat.kernels", "kernel")]
        with tracer.job():
            _run_cli(ODD_TABLE)
    assert not tracer.patched
    after = _pseudoheat_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert [kernel(EvalParams(d, t), s).value for d, t, s in points] == before_values


def test_trace_restores_attributes_when_the_job_raises():
    before = _pseudoheat_functions()
    with pytest.raises(ValueError):
        with Tracer():
            kernels.kernel(EvalParams(5, 1.0), -1.0)
    after = _pseudoheat_functions()
    assert all(after[k] is before[k] for k in before)


def test_trace_counts_repeat_exactly():
    def traced_counts():
        tracer = Tracer()
        with tracer:
            with tracer.job():
                _run_cli(ODD_TABLE)
        m = M.layer_metrics(tracer)
        keys = ("kernels.calls", "quadrature.calls", "quadrature.integrand_evals",
                "gfunc.route_series", "gfunc.route_terms_f64", "gfunc.route_terms_mp")
        return {k: m[k] for k in keys}

    first = traced_counts()
    assert first["kernels.calls"] == 6
    assert first["quadrature.integrand_evals"] > 0
    assert traced_counts() == first


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_self_time_on_synthetic_span_tree():
    spans = [
        # job span on the wall clock, children on two worker threads
        Span("cli.main", 0.0, 10.0, None, 1, False),
        Span("kernel", 1.0, 4.0, 0, 1, False, cpu_start=100.0, cpu_end=103.0),
        Span("kernel", 3.0, 6.0, 0, 1, False, cpu_start=200.0, cpu_end=202.0, covered=0.5),
        # quadrature under the first kernel, on that thread's CPU clock
        Span("integrate_endpoint_singular", 1.5, 3.5, 1, 1, False,
             cpu_start=100.5, cpu_end=102.5, covered=0.1),
        Span("integrate_finite", 1.6, 3.4, 3, 1, False,
             cpu_start=100.6, cpu_end=102.4, covered=1.5),
        # opened inside an integrand: already inside its parent's covered time
        Span("kernel", 2.0, 2.5, 4, 1, True, cpu_start=101.0, cpu_end=101.5),
    ]
    got = self_times(spans)
    expected = [
        10.0 - 5.0,  # children cover [1, 6] on the wall clock
        3.0 - 2.0,  # the quadrature child covers 2 of its 3 CPU seconds
        2.0 - 0.5,  # tally time only
        2.0 - 1.8 - 0.1,
        1.8 - 1.5,  # the nested kernel is not subtracted twice
        0.5,
    ]
    assert got == pytest.approx(expected)


def test_benchmark_json_lists_every_metric_the_code_defines():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == M.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert layer == M.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_name_is_in_benchmark_json(tmp_path, trace):
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    for name in ("BENCHMARK.json",):
        shutil.copy(ROOT / name, checkout / name)
    shutil.copytree(ROOT / "perfbench", checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_even", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] > 0
    assert result["correct"] and result["failed"] == 0, done.stderr
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _failed_ratio(outcome: Outcome) -> float:
    return outcome.failed / outcome.attempted


def test_injected_wrong_table_value_raises_failed_ratio():
    argv = ["table", "--dim", "6", "--tau-grid", "0.5:1:2", "--s-grid", "0.1:2:3", "--format", "csv"]
    job = Job(argv, "table", 6, 6)
    out = _run_cli(argv)
    clean = check_table(job, 0, out)
    ref, _ = check_reference(clean.cells, range(6), kernel_reference)
    clean.failed += ref.failed
    assert clean.attempted == 6 and _failed_ratio(clean) == 0.0

    lines = out.splitlines()
    bits = lines[2].split(",")
    # a negative value fails the table check itself
    negative = lines[:2] + [",".join(bits[:3] + ["-" + bits[3]] + bits[4:])] + lines[3:]
    assert _failed_ratio(check_table(job, 0, "\n".join(negative))) > 0.0

    # a value 1e-4 off passes the table check but not the reference
    shifted = lines[:2] + [",".join(bits[:3] + [repr(float(bits[3]) * (1 + 1e-4))] + bits[4:])] + lines[3:]
    outcome = check_table(job, 0, "\n".join(shifted))
    assert outcome.failed == 0
    ref, worst = check_reference(outcome.cells, range(6), kernel_reference)
    outcome.failed += ref.failed
    assert _failed_ratio(outcome) > 0.0 and worst > 1e-5


def test_same_seed_gives_same_rounds_and_other_seeds_differ():
    for name in ("table_odd", "table_even", "certify", "oracle"):
        a, b, c = Workload(name, 7), Workload(name, 7), Workload(name, 8)
        ra, rb, rc = a.next_round(), b.next_round(), c.next_round()
        assert [j.argv for j in ra] == [j.argv for j in rb]
        assert [j.items for j in ra] == [j.items for j in rc]
        if name != "certify":
            assert [j.argv for j in ra] != [j.argv for j in rc]


def test_compare_counts_differing_table_rows_and_whole_other_jobs():
    from perfbench.run import _compare

    table = Job(["table", "--dim", "6"], "table", 3, 3)
    report = Job(["verify", "abel", "--dims", "3"], "verify", 2, 2)
    notes: list[str] = []
    differ = _compare([table, report], ["h\na\nb\nc", "ok"], ["h\na\nx\nc", "ok"], notes, "pass")
    assert differ == 1 and len(notes) == 1
    assert _compare([report], ["ok"], ["bad"], notes, "pass") == 2


def test_with_threads_replaces_or_drops_the_threads_option():
    from perfbench.run import with_threads

    argv = ["table", "--dim", "6", "--threads", "1", "--format", "csv"]
    assert with_threads(argv, None) == ["table", "--dim", "6", "--format", "csv"]
    assert with_threads(argv, 2) == ["table", "--dim", "6", "--format", "csv", "--threads", "2"]
    assert with_threads(["oracle"], 1) == ["oracle", "--threads", "1"]


def test_certify_round_delivers_every_report_with_ck_split_by_dimension():
    jobs = Workload("certify", 3).next_round()
    assert sum(j.items for j in jobs) == 22
    ck = [j.argv[3] for j in jobs if j.argv[1] == "ck"]
    assert ck == ["3", "4", "5"]
