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
second); once, the parent revision and the host line; and a ``layers``
block, per layer the least CPU time of ``REPEAT`` runs in one fresh
interpreter from the checkout's ``src`` (``layers``, a few seconds):

    python3 scripts/bench_record.py --pr <pr>   # about 50 s
    python3 scripts/bench_record.py --layers    # the layers block alone, as JSON

The file is made on a change's tree before that change is committed, so
the tree it measured is the commit that adds the file, and
``parent_revision`` is the ``HEAD`` it was taken on.  It exits 1, after
writing the file, when a workload's run failed or was not correct, or
the layers gave no block, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"table_odd": 3601, "table_even": 3602, "certify": 3603, "oracle": 3604}
SECONDS = 10
REPEAT = 5


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


def _least_cpu_s(run, repeat: int) -> float:
    """The least process CPU time of repeat calls of run(), in seconds."""
    best = math.inf
    for _ in range(repeat):
        start = time.process_time()
        run()
        best = min(best, time.process_time() - start)
    return best


def layers(repeat: int = REPEAT) -> dict:
    """Per layer, the least CPU time of repeat runs of one fixed job, as
    {name: {"value", "unit"}}; the first run also builds the caches it
    reads (derivative terms, series weights), so it rarely counts.

    * ``gfunc.<route>_us_per_entry``: ``evaluate_many`` of G^(9) (the D = 20
      kernel at tau 0.5, a = 0.5) on 256 s that all take one route: the
      l-series on [0, 0.19], the binary64 terms on [2, 6] and Cauchy's
      integral on [0.6, 1], where those terms cancel;
    * ``quadrature.abel_64_ms``: one ``integrate_abel`` call of 64 endpoints
      d on [0, 6] over F(s) = exp(-s^2);
    * ``kernels.row_d<D>_us_per_entry``: ``kernel_row`` at tau 0.5 on 256 s
      in [0, 6], at D = 3, 4, 5, 9 and 20;
    * ``verify.ck_d<D>_ms``: one ``chapman_kolmogorov_many`` at tau 0.5 (each
      factor at 0.25) over ck's three separations, at D = 3 and 5;
    * ``verify.mass_d3_ms``: the mass check's seven masses at D = 3, tau 0.5;
    * ``lattice.paths_per_s``: Monte Carlo paths per CPU second of one
      ``lattice_rows`` chain (D = 3, tau 0.25, counts 32, 16, 8 and 4, 2e5
      paths).
    """
    import numpy as np

    from pseudoheat import gfunc, verify
    from pseudoheat.geometry import HoricyclicPoint
    from pseudoheat.kernels import EvalParams, kernel_row
    from pseudoheat.lattice import lattice_rows
    from pseudoheat.quadrature import integrate_abel

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(f"{value:.4g}"), "unit": unit}

    d20 = EvalParams(20, 0.5)
    g = gfunc.expression(9, d20.a, d20.E)
    at = np.zeros(256, dtype=np.intp)
    for route, lo, hi in (("l_series", 0.0, 0.19), ("terms_f64", 2.0, 6.0), ("cauchy", 0.6, 1.0)):
        s = np.linspace(lo, hi, 256)
        put(f"gfunc.{route}_us_per_entry", 1e6 / 256 * _least_cpu_s(lambda: gfunc.evaluate_many(g, s, at), repeat), "us")
    ds = np.linspace(0.0, 6.0, 64)
    put("quadrature.abel_64_ms", 1e3 * _least_cpu_s(lambda: integrate_abel(lambda s, _: np.exp(-s * s), ds, 1.0),
                                                   repeat), "ms")
    ss = np.linspace(0.0, 6.0, 256)
    for D in (3, 4, 5, 9, 20):
        p = EvalParams(D, 0.5)
        put(f"kernels.row_d{D}_us_per_entry", 1e6 / 256 * _least_cpu_s(lambda: kernel_row(p, ss), repeat), "us")
    for D in (3, 5):
        half = EvalParams(D, 0.25)
        ck = lambda: verify.chapman_kolmogorov_many(half, half, verify._CK_SEPARATIONS)
        put(f"verify.ck_d{D}_ms", 1e3 * _least_cpu_s(ck, repeat), "ms")
    put("verify.mass_d3_ms", 1e3 * _least_cpu_s(lambda: verify.mass_multiplicativity(EvalParams(3, 0.5)), repeat), "ms")
    q1, q2 = HoricyclicPoint(1.0, (0.0,)), HoricyclicPoint(1.2, (0.3,))
    paths = 200_000
    chain = lambda: lattice_rows(EvalParams(3, 0.25), q1, q2, [32, 16, 8, 4], paths, 1)
    put("lattice.paths_per_s", paths / _least_cpu_s(chain, repeat), "1/s")
    return out


def run_layers() -> dict:
    """``layers`` in a fresh interpreter (``--layers``), or the exit code
    and standard error of a run that printed none."""
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--layers"],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}
    return json.loads(done.stdout)


def parent_revision() -> str:
    """HEAD's commit: the parent of the change whose tree is measured."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def host_line(info: dict) -> str:
    """The host as the benchmark's baseline names it: system, CPUs and versions."""
    return (f"{platform.system()} {platform.release()} {platform.machine()}, {info.get('nproc')} CPUs, "
            f"Python {info.get('python')}, numpy {info.get('numpy')}, mpmath {info.get('mpmath')}")


def record(pr: int, results: dict[str, dict], parent: str, layer_block: dict) -> dict:
    """The BENCH_<pr>.json object from each workload's full result and the
    layers block."""
    info = next((r["info"] for r in results.values() if "info" in r), {})
    return {
        "pr": pr,
        "parent_revision": parent,
        "host": host_line(info),
        "command": f"perfbench/run.py --workload <name> --seed <seed> --seconds {SECONDS} --trace 0",
        "workloads": {name: entry(SEEDS[name], result) for name, result in results.items()},
        "layers": layer_block,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, help="the number in the file's name")
    parser.add_argument("--layers", action="store_true", help="print the layers block as JSON, and nothing else")
    args = parser.parse_args(argv)
    if args.layers:
        sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, not an installed one
        print(json.dumps(layers()))
        return 0
    if args.pr is None:
        parser.error("--pr is required")
    results = {}
    for name, seed in SEEDS.items():
        print(f"running {name} at seed {seed}", file=sys.stderr, flush=True)
        results[name] = run_workload(name, seed)
    print("timing the layers", file=sys.stderr, flush=True)
    bench = record(args.pr, results, parent_revision(), run_layers())
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    ok = all(w["correct"] for w in bench["workloads"].values()) and "exit" not in bench["layers"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
