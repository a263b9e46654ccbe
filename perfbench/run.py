"""Benchmark of the pseudoheat CLI jobs, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table_odd --seed 1 --seconds 15 --trace 0

Workloads: table_odd, table_even, certify, oracle (see workloads.py for why
each exists).  The jobs run in-process through ``pseudoheat.cli.main``,
from the ``src`` tree next to this directory.  The table and oracle jobs
run at ``--threads 1``, and verify has no worker threads (see
workloads.py for why); the traced run also times the table and oracle
jobs at the CLI's default thread count.

``--trace 0`` measures the end-to-end metrics (see metrics.py): rounds of
CLI jobs run until the next round would pass ``--seconds``, and at least
two rounds.  Each job is timed between two runs of a calibration loop, and
the round's cost in calibration units is reported as a median over
rounds.  Set-up time is sampled in fresh interpreters spread over the run
and scaled to a reference host speed (see metrics.py).

``--trace 1`` runs a fixed number of rounds under the tracer and reports
the per-layer metrics; its counts repeat exactly for a given seed.  See
metrics.py for every metric and the end-to-end metric it should move.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the seed, versions and thread count.  The full result, and in a
traced run every span, is written under ``.perfbench_out/``.  A summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import mpmath
import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics as M  # noqa: E402
from perfbench.calibration import calibrate, calibrate_numpy  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CHECKS,
    ORACLE_SAMPLES,
    WORKLOADS,
    Outcome,
    Workload,
    check_reference,
)

# Fresh-interpreter set-up samples per untraced run, spread over the run.
SETUP_SAMPLES = 12
# The reference host speed that setup_s is scaled to: seconds of the
# calibration loop, and of importing mpmath and numpy, each in a fresh
# interpreter (about their medians on a 2-vCPU VM).
CAL_REF_S = 0.0055
IMPORT_REF_S = 0.15
# Workloads whose jobs are numpy-bound.  Their time does not follow the
# interpreter-bound calibration loop (over ten fresh interpreters an
# oracle job's wall time spread 2% (IQR/median) while the loop's spread
# 17%, correlation 0.2), so they are calibrated by a numpy loop shaped
# like their work, a median of NUMPY_CAL_REPEATS runs at each point.  Over
# two sets of ten oracle runs the round cost spread 0.049 and 0.059 with
# it, against 0.141 and 0.102 for the raw wall time (see BASELINE.md).
NUMPY_BOUND = ("oracle",)
NUMPY_CAL_REPEATS = 5
MIN_ROUNDS = 2
TRACE_ROUNDS = {"table_odd": 2, "table_even": 4, "certify": 1, "oracle": 1}

# First kernel values at each D: s = 0.05 takes the l-series route
# (below gfunc.SERIES_SWITCH), which builds the exact Fraction series on
# first use; s = 0.5 takes the term route.  Both are lazy set-up that every
# one-shot CLI call pays, so both belong in setup_s and not in a timed job.
WARM_S = (0.05, 0.5)

# Fresh-interpreter set-up: the import, then the first kernel values at
# each D, then, untimed, the calibration loop in the same interpreter.
_SETUP_CODE = """
import statistics, sys, time
t0 = time.perf_counter()
import pseudoheat
from pseudoheat.kernels import EvalParams, kernel
t1 = time.perf_counter()
for d in {dims!r}:
    for s in {s!r}:
        kernel(EvalParams(d, 1.0), s)
t2 = time.perf_counter()
sys.path.insert(0, {root!r})
from perfbench.calibration import calibrate
print(repr(t1 - t0), repr(t2 - t1), repr(statistics.median(calibrate() for _ in range(5))))
"""

# The host's import speed, which the calibration loop does not follow:
# the program's third-party imports alone, in a fresh interpreter.
_IMPORT_REF_CODE = """
import time
t0 = time.perf_counter()
import mpmath, numpy
print(repr(time.perf_counter() - t0))
"""


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh(code: str) -> list[float]:
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT,
        env=_program_env(), timeout=120, check=True,
    )
    return [float(x) for x in done.stdout.split()]


def setup_sample(dims) -> tuple[float, float, float, float]:
    """One set-up sample in fresh interpreters, in wall seconds.

    Returns the import, the first kernel calls, the calibration loop after
    them, and the import of mpmath and numpy alone.
    """
    imp, first, cal = _fresh(_SETUP_CODE.format(dims=tuple(dims), s=WARM_S, root=str(ROOT)))
    return imp, first, cal, _fresh(_IMPORT_REF_CODE)[0]


def with_threads(argv, threads: int | None) -> list[str]:
    """``argv`` without its ``--threads`` option, plus ``--threads threads`` if given."""
    out = []
    it = iter(argv)
    for arg in it:
        if arg == "--threads":
            next(it, None)
        else:
            out.append(arg)
    return out + ([] if threads is None else ["--threads", str(threads)])


def run_job(cli, argv):
    """One CLI call in-process: (exit code or None, stdout, wall seconds)."""
    argv = list(argv)
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing job is a failed job; keep measuring
            traceback.print_exc()
        dt = time.perf_counter() - t0
    if err.getvalue():
        sys.stderr.write(f"[{' '.join(argv[:3])}] {err.getvalue()}")
    return rc, out.getvalue(), dt


def warm_up(cli, wl: Workload) -> None:
    """First call at each D and of each command, so lazy set-up is not timed."""
    with contextlib.redirect_stdout(io.StringIO()):
        for d in wl.dims:
            s_grid = f"{WARM_S[0]}:{WARM_S[-1]}:{len(WARM_S)}"
            cli.main(["table", "--dim", str(d), "--tau-grid", "1:1:1", "--s-grid", s_grid,
                      "--format", "csv"])
        if wl.name == "oracle":
            cli.main(["oracle", "--dim", "3", "--n", "2,4", "--samples", "10000", "--format", "csv"])


def _check(job, rc, out, outcome: Outcome, keep_cells: bool = True) -> None:
    res = CHECKS[job.kind](job, rc, out)
    if not keep_cells:
        res.cells = []
    outcome.add(res)


def _label(job) -> str:
    """Key of a job in the per-job timings: the dimension, or suite, dims and tau."""
    if job.kind == "verify":
        return f"{job.argv[1]} D={job.argv[3]} tau={job.argv[5]}"
    return f"D={job.argv[2]}"


def _reference_check(wl: Workload, outcome: Outcome) -> float:
    from perfbench.reference import kernel_reference

    if not outcome.cells:
        return 0.0
    ref, worst = check_reference(outcome.cells, wl.reference_sample(outcome.cells), kernel_reference)
    outcome.failed += ref.failed
    outcome.notes.extend(ref.notes)
    return worst


def host_speed(wl: Workload) -> float:
    """One calibration in seconds, by the loop that follows the workload's jobs."""
    if wl.name in NUMPY_BOUND:
        return statistics.median(calibrate_numpy() for _ in range(NUMPY_CAL_REPEATS))
    return calibrate()


def untraced_run(cli, wl: Workload, seconds: float) -> tuple[dict, Outcome, dict]:
    warm_up(cli, wl)
    host_speed(wl)
    outcome = Outcome()
    round_times, costs, rates, cals, setups = [], [], [], [], []
    per_item: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        jobs = wl.next_round()
        spent = cost = 0.0
        cal = host_speed(wl)
        for job in jobs:
            # set-up samples go between jobs, one per seconds/SETUP_SAMPLES
            if len(setups) < SETUP_SAMPLES and time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
                setups.append(setup_sample(wl.dims))
                cal = host_speed(wl)
            rc, out, dt = run_job(cli, job.argv)
            cal_after = host_speed(wl)
            cals.append(cal_after)
            spent += dt
            cost += dt / (0.5 * (cal + cal_after))
            cal = cal_after
            per_item.setdefault(_label(job), []).append(dt / job.items)
            # the reference sample comes from the first round, so memory
            # does not grow with the number of rounds
            _check(job, rc, out, outcome, keep_cells=not round_times)
        round_times.append(spent)
        costs.append(cost)
        rates.append(sum(j.work for j in jobs) / spent)
        if (len(round_times) >= MIN_ROUNDS
                and time.perf_counter() - start + statistics.median(round_times) > seconds):
            break
    while len(setups) < SETUP_SAMPLES:  # rounds longer than seconds/SETUP_SAMPLES
        setups.append(setup_sample(wl.dims))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _reference_check(wl, outcome)
    # The host's slow spells slow set-up too, and imports and compute apart.
    # The part of set-up that is importing mpmath and numpy counts at its
    # reference cost; the rest -- the program's own imports and its first
    # kernel calls -- is scaled by the calibration loop.  Per sample the
    # references are too noisy to use, so medians are combined.
    imp, first, cal, ref_imp = (statistics.median(col) for col in zip(*setups))
    raw_setup = statistics.median(a + b for a, b, _, _ in setups)
    setup = IMPORT_REF_S + (imp - ref_imp + first) * CAL_REF_S / cal
    values = {"setup_s": setup, "round_cost": statistics.median(costs), "peak_rss_mb": peak}
    extra = {
        "rounds": len(round_times),
        "raw": {
            "setup_s": raw_setup,
            "setup_import_s": imp,
            "setup_first_calls_s": first,
            "setup_calibration_s": cal,
            "setup_import_ref_s": ref_imp,
            "calibration_s": statistics.median(cals),
            # wall clock, uncalibrated: median round seconds and work per second
            "round_s": statistics.median(round_times),
            "work_per_s": statistics.median(rates),
            "work_unit": {"table_odd": "cells", "table_even": "cells", "certify": "reports",
                          "oracle": "Monte Carlo samples"}[wl.name],
        },
        "round_times_s": round_times,
        # median wall seconds per table cell, verify report or oracle run
        "median_s_per_item": {k: statistics.median(v) for k, v in per_item.items()},
        "setup_samples_s": [a + b for a, b, _, _ in setups],
    }
    return {k: {"value": v, "unit": M.END_TO_END[k]} for k, v in values.items()}, outcome, extra


def _lattice_rate(tracer) -> float:
    spans = [sp for sp in tracer.spans if sp.name == "lattice_kernel"]
    busy = sum(sp.end - sp.start for sp in spans)
    return len(spans) * ORACLE_SAMPLES / busy if busy > 0 else 0.0


def _by_dim(spans, names, cpu: bool) -> dict[str, list[float]]:
    """Span durations in seconds keyed by "name D=<dim>", wall or thread CPU time."""
    out: dict[str, list[float]] = {}
    for sp in spans:
        if sp.name in names:
            dt = sp.cpu_end - sp.cpu_start if cpu else sp.end - sp.start
            out.setdefault(f"{sp.name} D={sp.dim}", []).append(dt)
    return dict(sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0])))


def _compare(jobs, expected: list[str], outputs: list[str], notes: list[str], what: str) -> int:
    """Number of items whose output differs from the traced pass.

    The CLI promises output determined by its arguments, whatever the
    thread count and whether traced or not.  A differing table row is one
    differing cell; any other differing job counts all its items.
    """
    differ = 0
    for job, seen, out in zip(jobs, expected, outputs):
        if out == seen:
            continue
        if job.kind == "table":
            rows = zip(seen.splitlines(), out.splitlines())
            differ += min(job.items, sum(1 for x, y in rows if x != y))
        else:
            differ += job.items
        notes.append(f"{' '.join(job.argv[:3])}: {what} differs from the traced pass")
    return differ


def traced_run(cli, wl: Workload) -> tuple[dict, Outcome, dict, object]:
    from pseudoheat import gfunc
    from perfbench.tracer import Tracer

    warm_up(cli, wl)
    rounds = [wl.next_round() for _ in range(TRACE_ROUNDS[wl.name])]
    jobs = [job for r in rounds for job in r]
    h_series = getattr(gfunc, "_h_series", None)
    cache_info = getattr(h_series, "cache_info", None)
    before = cache_info() if cache_info else None

    outcome = Outcome()
    tracer = Tracer()
    traced_out = []
    with tracer:
        for job in jobs:
            with tracer.job():
                rc, out, _ = run_job(cli, job.argv)
            traced_out.append(out)
            _check(job, rc, out, outcome)
    after = cache_info() if cache_info else None
    values = M.layer_metrics(tracer)
    traced_wall = sum(sp.end - sp.start for sp in tracer.spans if sp.name == "cli.main")

    if before is not None:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        values["gfunc.series_cache_hit_ratio"] = hits / lookups if lookups else 0.0
        values["gfunc.series_cache_lookups"] = lookups
    else:
        values["gfunc.series_cache_hit_ratio"] = values["gfunc.series_cache_lookups"] = M.ABSENT

    argvs = [job.argv for job in jobs]
    untraced = [run_job(cli, argv) for argv in argvs]
    outcome.failed += _compare(jobs, traced_out, [out for _, out, _ in untraced], outcome.notes,
                               "untraced output")
    values["trace.overhead_s"] = traced_wall - sum(dt for _, _, dt in untraced)

    def untraced_pass(threads, notes, what):
        """The jobs at ``threads`` (None: the CLI default), and how many of
        their items differ from the traced pass; reuses the pass above if
        argv is unchanged."""
        argvs_t = [with_threads(argv, threads) for argv in argvs]
        if argvs_t == argvs:
            return untraced, 0
        done = [run_job(cli, argv) for argv in argvs_t]
        return done, _compare(jobs, traced_out, [out for _, out, _ in done], notes, what)

    values["cli.serial_points_per_s"] = values["cli.pool_points_per_s"] = 0.0
    values["cli.pool_mismatched_cells"] = 0
    pool_notes: list[str] = []
    values["lattice.samples_per_s"] = values["lattice.serial_samples_per_s"] = 0.0
    if wl.name.startswith("table"):
        work = sum(j.work for j in jobs)
        serial, differ = untraced_pass(1, outcome.notes, "serial output")
        outcome.failed += differ
        values["cli.serial_points_per_s"] = work / sum(dt for _, _, dt in serial)
        # The pool pass is not the workload's job (the tables run serially),
        # so its differing cells are a measured count, not failed items: at
        # two threads the program's mpmath escalation route races on the
        # process-global working precision (BASELINE.md, "Defects and
        # surprises found").
        pool, values["cli.pool_mismatched_cells"] = untraced_pass(
            None, pool_notes, "output at the CLI's default threads")
        values["cli.pool_points_per_s"] = work / sum(dt for _, _, dt in pool)
    if wl.name == "oracle":
        def lattice_rate(threads):
            """Monte Carlo samples/s inside lattice_kernel at ``threads``."""
            argvs_t = [with_threads(argv, threads) for argv in argvs]
            if argvs_t == argvs:
                return _lattice_rate(tracer)
            pass_tracer = Tracer()
            with pass_tracer:
                for argv in argvs_t:
                    run_job(cli, argv)
            return _lattice_rate(pass_tracer)

        values["lattice.samples_per_s"] = lattice_rate(None)
        values["lattice.serial_samples_per_s"] = lattice_rate(1)

    values["kernels.ref_max_rel_err"] = _reference_check(wl, outcome)
    result = {k: {"value": values[k], "unit": u} for k, (u, _) in M.PER_LAYER.items()}
    extra = {
        "rounds": len(rounds),
        "absent": tracer.absent,
        "pool_mismatches": pool_notes,
        "spans": len(tracer.spans),
        # traced, so inflated by the tally and integrand probes they contain
        "kernel_p50_us": {k: M.percentile(v, 50) * 1e6
                          for k, v in _by_dim(tracer.spans, ("kernel",), cpu=False).items()},
        "kernel_cpu_p50_us": {k: M.percentile(v, 50) * 1e6
                              for k, v in _by_dim(tracer.spans, ("kernel",), cpu=True).items()},
        "verify_s": {k: sum(v) for k, v in _by_dim(tracer.spans, M.VERIFY_CHECKS, cpu=False).items()},
    }
    return result, outcome, extra, tracer


def environment(seed: int, threads: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": threads,
    }


def _summary(name: str, result: dict, outcome: Outcome, extra: dict) -> None:
    err = sys.stderr
    err.write(f"perfbench {name}: {extra.get('rounds')} rounds\n")
    for key, m in result.items():
        err.write(f"  {key:<36} {m['value']:>16.6g} {m['unit']}\n")
    for key, value in extra.items():
        if key not in ("rounds", "round_times_s"):
            err.write(f"  {key}: {value}\n")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else float("nan")
    err.write(f"  failed/attempted = {outcome.failed}/{outcome.attempted} = {ratio:.3g}\n")
    for note in outcome.notes[:20]:
        err.write(f"  FAIL {note}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudoheat" / "__init__.py").is_file():
        print(f"error: no pseudoheat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from pseudoheat import cli

    wl = Workload(args.workload, args.seed)
    if args.trace:
        result, outcome, extra, tracer = traced_run(cli, wl)
    else:
        result, outcome, extra = untraced_run(cli, wl, args.seconds)
        tracer = None

    # the thread count the CLI itself derives for the workload's jobs
    first_job = Workload(wl.name, args.seed).next_round()[0]
    threads = cli._threads(cli.build_parser().parse_args(first_job.argv))
    info = {"workload": wl.name, "trace": args.trace, **environment(args.seed, threads)}
    if wl.name == "certify":
        info["taus"] = wl.taus
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}_seed{args.seed}_trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}_spans.csv")
    line = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result,
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "extra": extra, "notes": outcome.notes, **line}, fh, indent=1)
    _summary(wl.name, result, outcome, extra)
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
