"""scripts/bench_record.py builds BENCH_<pr>.json from run.py's full results, without running them."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

INFO = {"workload": "certify", "trace": 0, "seed": 3603, "python": "3.11.7", "numpy": "2.4.6",
        "mpmath": "1.3.0", "nproc": 2, "threads": 1, "taus": [0.5, 1.0]}
RAW = {"setup_s": 0.41, "round_s": 0.16, "work_per_s": 160.0, "work_unit": "reports"}
METRICS = {"setup_s": {"value": 0.47, "unit": "s"}, "round_cost": {"value": 52.1, "unit": "cal"},
           "peak_rss_mb": {"value": 41.2, "unit": "MiB"}}
# run.py's full result: what it writes under .perfbench_out/
RESULT = {"info": INFO, "extra": {"rounds": 60, "raw": RAW, "round_times_s": [0.16, 0.17]}, "notes": [],
          "correct": True, "attempted": 1560, "failed": 0, "metrics": METRICS}


def test_record_holds_each_workloads_metrics_raw_block_and_seed():
    failed_run = {"exit": 2, "stderr": "Traceback ..."}
    bench = bench_record.record(7, {"certify": RESULT, "oracle": failed_run}, "0123abc")
    assert json.loads(json.dumps(bench)) == bench
    assert (bench["pr"], bench["parent_revision"]) == (7, "0123abc")
    assert bench["host"].endswith(", 2 CPUs, Python 3.11.7, numpy 2.4.6, mpmath 1.3.0")
    assert bench["command"] == "perfbench/run.py --workload <name> --seed <seed> --seconds 10 --trace 0"
    assert bench["workloads"]["certify"] == {"seed": 3603, "correct": True, "attempted": 1560, "failed": 0,
                                             "metrics": METRICS, "raw": RAW}
    assert bench["workloads"]["oracle"] == {"seed": 3604, "correct": False, **failed_run}
    assert bench_record.command("oracle", 3604)[1:] == bench["command"].replace(
        "<name>", "oracle").replace("<seed>", "3604").split()
