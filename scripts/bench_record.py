#!/usr/bin/env python3
"""Record the benchmark of a checkout as ``BENCH_<pr>.json``.

Runs the benchmark as it is, ``perfbench/run.py --trace 0 --seconds 10``,
once per workload (table_odd, table_even, certify, oracle) at the fixed
seed of ``SEEDS``, each in a fresh interpreter from the root of the
checkout this script sits in, one after the other.  Then it writes one
JSON file that holds, per workload, the seed, ``correct``, ``attempted``
and ``failed``, the end-to-end metrics (``setup_s``, ``round_cost``,
``peak_rss_mb``) and the ``raw`` block of the full result that run.py
leaves under ``.perfbench_out/`` (uncalibrated seconds and work per
second); and, once, the parent revision and the host line:

    python3 scripts/bench_record.py --pr <pr>   # about 45 s

The file is made on a change's tree before that change is committed, so
the tree it measured is the commit that adds the file, and
``parent_revision`` is the ``HEAD`` it was taken on.  It exits 1, after
writing the file, when a workload's run failed or was not correct, else 0.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"table_odd": 3601, "table_even": 3602, "certify": 3603, "oracle": 3604}
SECONDS = 10


def command(workload: str, seed: int) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]


def run_workload(workload: str, seed: int) -> dict:
    """The full result run.py writes for one untraced run (info, extra,
    notes and the result line), or the exit code and standard error of a
    run that gave none."""
    done = subprocess.run(command(workload, seed), cwd=ROOT, capture_output=True, text=True)
    path = ROOT / ".perfbench_out" / f"{workload}_seed{seed}_trace0.json"
    if done.returncode != 0 or not path.is_file():
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    return json.loads(path.read_text())


def entry(seed: int, result: dict) -> dict:
    """One workload's record from run.py's full result."""
    if "metrics" not in result:
        return {"seed": seed, "correct": False, **result}
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "raw": result["extra"]["raw"],
    }


def parent_revision() -> str:
    """HEAD's commit: the parent of the change whose tree is measured."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def host_line(info: dict) -> str:
    """The host as the benchmark's baseline names it: system, CPUs and versions."""
    return (f"{platform.system()} {platform.release()} {platform.machine()}, {info.get('nproc')} CPUs, "
            f"Python {info.get('python')}, numpy {info.get('numpy')}, mpmath {info.get('mpmath')}")


def record(pr: int, results: dict[str, dict], parent: str) -> dict:
    """The BENCH_<pr>.json object from each workload's full result."""
    info = next((r["info"] for r in results.values() if "info" in r), {})
    return {
        "pr": pr,
        "parent_revision": parent,
        "host": host_line(info),
        "command": f"perfbench/run.py --workload <name> --seed <seed> --seconds {SECONDS} --trace 0",
        "workloads": {name: entry(SEEDS[name], result) for name, result in results.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in the file's name")
    args = parser.parse_args(argv)
    results = {}
    for name, seed in SEEDS.items():
        print(f"running {name} at seed {seed}", file=sys.stderr, flush=True)
        results[name] = run_workload(name, seed)
    bench = record(args.pr, results, parent_revision())
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(w["correct"] for w in bench["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
