"""scripts/bench_record.py builds BENCH_<pr>.json from run.py's full results, and times the layers."""

import importlib.util
import json
import math
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

LAYERS = {"kernels.row_d3_us_per_entry": {"value": 5.8, "unit": "us"},
          "lattice.paths_per_s": {"value": 4.4e6, "unit": "1/s"}}


def test_record_holds_each_workloads_metrics_raw_block_and_seed():
    failed_run = {"exit": 2, "stderr": "Traceback ..."}
    bench = bench_record.record(7, {"certify": RESULT, "oracle": failed_run}, "0123abc", LAYERS)
    assert json.loads(json.dumps(bench)) == bench
    assert (bench["pr"], bench["parent_revision"]) == (7, "0123abc")
    assert bench["host"].endswith(", 2 CPUs, Python 3.11.7, numpy 2.4.6, mpmath 1.3.0")
    assert bench["command"] == "perfbench/run.py --workload <name> --seed <seed> --seconds 10 --trace 0"
    assert bench["workloads"]["certify"] == {"seed": 3603, "correct": True, "attempted": 1560, "failed": 0,
                                             "metrics": METRICS, "raw": RAW}
    assert bench["workloads"]["oracle"] == {"seed": 3604, "correct": False, **failed_run}
    assert bench["layers"] == LAYERS
    assert bench_record.command("oracle", 3604)[1:] == bench["command"].replace(
        "<name>", "oracle").replace("<seed>", "3604").split()


def test_layers_time_every_layer():
    # one run of each job: every figure is a positive, finite rate or time
    block = bench_record.layers(1)
    names = {name.split(".")[0] for name in block}
    assert names == {"gfunc", "quadrature", "kernels", "verify", "lattice"}
    assert [n for n in block if n.startswith("kernels.")] == [
        f"kernels.row_d{D}_us_per_entry" for D in (3, 4, 5, 9, 20)]
    for name, figure in block.items():
        assert 0.0 < figure["value"] < math.inf, (name, figure)
