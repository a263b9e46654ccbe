"""Workloads: seeded inputs for the CLI jobs, and the checks on their outputs.

A workload is a sequence of rounds; a round is a fixed list of
``pseudoheat`` CLI calls (jobs) whose sizes do not depend on the seed.  The
seed only jitters grid endpoints, picks tau and the Monte Carlo seeds, so
rounds of different seeds cost about the same.  The program receives only
the generated argument lists.

Why each workload exists:

* ``table_odd`` -- ``pseudoheat table`` for D in {3, 5, 7, 9}, taus in
  [0.25, 2], s from 0 into the Gaussian tail (~6).  The ROADMAP hot spot:
  every cell is an adaptive quadrature over the gfunc term route (~210
  integrand evaluations per cell), so ``quadrature`` and ``gfunc`` do most
  of the work.  Untraced it runs at ``--threads 1`` (see "Threads" below);
  the traced run reports the CLI pool's rate, where the two threads
  contend for the GIL, as ``cli.pool_points_per_s``.
* ``table_even`` -- the same job for D in {4, 6, 8, 10, 14, 20}, with a
  dense s-grid on [0, 1] (l-series route and mpmath escalation) plus a few
  tail points.  It never enters ``quadrature``, so a quadrature change
  should leave it unchanged.  Cells cost 3-90 us (mpmath cells up to a few
  ms at D = 20), so per-call overhead -- numpy array construction and
  dispatch -- shows here as a loss.  At the default two threads the
  thread-pool hand-off cost 140-270 us per cell, 4-7 times the serial
  cost.
* ``certify`` -- ``pseudoheat verify`` with the suites abel, pde-radial,
  pde-horicyclic, ck, mass and gfunc over D in {3, 4, 5}, at tau 0.5 and
  1.0 (the values the tests certify) in alternate rounds; the seed picks
  which comes first.  (One tau per run made the round time of a run depend
  on which tau its seed drew.)  One scalar kernel
  call at a time inside nested quadrature, with tau changing at every
  finite-difference stencil point, so a cache keyed on (D, tau) that pays
  off in tables gets few hits here.  The only workload that builds
  ``verify._RadialTable`` (ck at D = 5) and runs the ``geometry`` stencils.
* ``oracle`` -- ``pseudoheat oracle`` at D = 3 and 4, tau = 0.25, slice
  counts 4..32, Monte Carlo seeds drawn from the workload seed.  The only
  workload of the ``lattice`` layer; numpy-bound, it never enters
  ``quadrature`` or ``gfunc``, so changes there should leave it unchanged.
  ROADMAP item 3 keeps the Monte Carlo threads only if this workload shows
  that they gain: the traced run reports ``lattice.samples_per_s`` at the
  CLI's default thread count next to ``lattice.serial_samples_per_s``.

Threads.  The untraced table and oracle jobs run at ``--threads 1`` (verify
has no worker threads).  On the 2-vCPU virtual machine the benchmark was
built on, how much of the second vCPU a job got changed with the host
over minutes, and no single-threaded calibration follows it: with the
jobs at the default two threads, ten runs gave round_cost IQR/median
0.21 on table_odd and 0.52 on oracle (the oracle round's raw time rose
from 3.9 s to 6.6 s within one set of runs), against 0.02-0.04 for the
serial workloads.  The pool's effect is a per-layer figure instead.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

ODD_DIMS = (3, 5, 7, 9)
EVEN_DIMS = (4, 6, 8, 10, 14, 20)
CERTIFY_DIMS = (3, 4, 5)
CERTIFY_SUITES = ("abel", "pde-radial", "pde-horicyclic", "ck", "mass", "gfunc")
CERTIFY_TAUS = (0.5, 1.0)
ORACLE_DIMS = (3, 4)
ORACLE_SLICES = (4, 8, 16, 32)
# At 1e6 samples the fitted order at D = 4 had mean 0.88 and standard
# deviation 0.021 over 25 Monte Carlo seeds; 2e6 halves the variance, which
# puts the 0.8 criterion more than 5 deviations away.
ORACLE_SAMPLES = 2_000_000
TAU_POINTS = 3

# Reports one certify round must produce: abel, pde-radial and mass at each
# D, pde-horicyclic at D in {3, 4}, ck at three separations for each D, and
# the two gfunc reports.
CERTIFY_REPORTS = {"abel": 3, "pde-radial": 3, "pde-horicyclic": 2, "ck": 9, "mass": 3, "gfunc": 2}

# A table cell must match the independent reference to the accuracy the
# program itself certifies the family at: the abel and pde-radial checks
# pin 1e-6 relative for even D (odd D is pinned looser, at 1e-5).  The
# measured error is reported separately as kernels.ref_max_rel_err.
REF_REL_TOL = 1e-6
REF_CELLS_PER_DIM = {"table_odd": 2, "table_even": 5}

WORKLOADS = ("table_odd", "table_even", "certify", "oracle")


@dataclass
class Job:
    argv: list[str]
    kind: str  # "table", "verify" or "oracle"
    items: int  # cells, reports or oracle runs this job must deliver
    work: int  # units of the raw work per second: cells, reports or samples


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    cells: list[tuple[int, float, float, float]] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)
        self.cells.extend(other.cells)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _tau_grid(rng: random.Random) -> str:
    return f"{_fmt(0.25 + rng.uniform(0.0, 0.05))}:{_fmt(2.0 - rng.uniform(0.0, 0.1))}:{TAU_POINTS}"


def _table_job(dim: int, tau_grid: str, s_grid: str, extra: tuple[str, ...] = ()) -> Job:
    cells = TAU_POINTS * int(s_grid.rsplit(":", 1)[1])
    argv = ["table", "--dim", str(dim), "--tau-grid", tau_grid, "--s-grid", s_grid, "--format", "csv"]
    return Job(argv + list(extra), "table", cells, cells)


class Workload:
    """Seeded source of rounds for one workload name."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.rng = random.Random(f"{name}:{seed}")
        self.taus = list(CERTIFY_TAUS)
        self.rng.shuffle(self.taus)
        self.rounds = 0

    @property
    def dims(self) -> tuple[int, ...]:
        return {
            "table_odd": ODD_DIMS,
            "table_even": EVEN_DIMS,
            "certify": CERTIFY_DIMS,
            "oracle": ORACLE_DIMS,
        }[self.name]

    def next_round(self) -> list[Job]:
        rng = self.rng
        self.rounds += 1
        if self.name == "table_odd":
            return [
                _table_job(
                    d,
                    _tau_grid(rng),
                    f"{_fmt(rng.uniform(0.0, 0.05))}:{_fmt(6.0 - rng.uniform(0.0, 0.4))}:8",
                    ("--threads", "1"),
                )
                for d in ODD_DIMS
            ]
        if self.name == "table_even":
            jobs = []
            for d in EVEN_DIMS:
                taus = _tau_grid(rng)
                dense = f"{_fmt(rng.uniform(0.0, 0.02))}:{_fmt(1.0 - rng.uniform(0.0, 0.05))}:16"
                tail = f"{_fmt(1.5 + rng.uniform(0.0, 0.5))}:{_fmt(6.0 - rng.uniform(0.0, 0.5))}:4"
                jobs += [_table_job(d, taus, g, ("--threads", "1")) for g in (dense, tail)]
            return jobs
        if self.name == "certify":
            dims = ",".join(map(str, CERTIFY_DIMS))
            tau = self.taus[(self.rounds - 1) % len(self.taus)]
            jobs = []
            for s in CERTIFY_SUITES:
                # ck runs one D per job, so that ck at D = 5 (the _RadialTable
                # build) is timed on its own
                groups = [str(d) for d in CERTIFY_DIMS] if s == "ck" else [dims]
                reports = CERTIFY_REPORTS[s] // len(groups)
                jobs += [Job(["verify", s, "--dims", g, "--tau", repr(tau)], "verify", reports, reports)
                         for g in groups]
            return jobs
        slices = ",".join(map(str, ORACLE_SLICES))
        return [
            Job(
                ["oracle", "--dim", str(d), "--tau", "0.25", "--n", slices,
                 "--samples", str(ORACLE_SAMPLES), "--seed", str(rng.getrandbits(32)),
                 "--threads", "1"],
                "oracle", 1, ORACLE_SAMPLES * len(ORACLE_SLICES),
            )
            for d in ORACLE_DIMS
        ]

    def reference_sample(self, cells: list[tuple[int, float, float, float]]) -> list[int]:
        """Seed-chosen indices of table cells to compare against the reference."""
        per_dim = REF_CELLS_PER_DIM.get(self.name, 0)
        pick = random.Random(f"{self.name}:{self.seed}:reference")
        out = []
        for d in self.dims:
            idx = [i for i, c in enumerate(cells) if c[0] == d]
            out += pick.sample(idx, min(per_dim, len(idx)))
        return sorted(out)


# --- output checks ----------------------------------------------------------

def check_table(job: Job, rc: int, out: str) -> Outcome:
    """A cell fails when it is missing, empty, non-finite or negative."""
    res = Outcome(attempted=job.items)
    lines = out.strip().splitlines()
    if not lines or lines[0] != "D,tau,s,value,err_est":
        res.failed = job.items
        res.notes.append(f"table {job.argv[2]}: no CSV header (exit {rc})")
        return res
    rows = lines[1:]
    bad = max(0, job.items - len(rows))
    for line in rows[: job.items]:
        bits = line.split(",")
        try:
            d, tau, s, value = int(bits[0]), float(bits[1]), float(bits[2]), float(bits[3])
        except (IndexError, ValueError):
            bad += 1
            continue
        if not math.isfinite(value) or value < 0.0:
            bad += 1
            continue
        res.cells.append((d, tau, s, value))
    if len(rows) != job.items:
        res.notes.append(f"table {job.argv[2]}: {len(rows)} rows, expected {job.items}")
    if rc != 0:
        res.notes.append(f"table {job.argv[2]}: exit {rc}")
    res.failed = bad
    return res


def check_verify(job: Job, rc: int, out: str) -> Outcome:
    """A report fails when it does not pass; missing reports fail too."""
    res = Outcome(attempted=job.items)
    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError):
        res.failed = job.items
        res.notes.append(f"verify {job.argv[1]}: unreadable output (exit {rc})")
        return res
    passed = sum(1 for r in reports if r.get("passed") is True)
    res.failed = max(job.items - passed, 0)
    for r in reports:
        if r.get("passed") is not True:
            res.notes.append(f"verify {r.get('check')} D={r.get('D')}: residual {r.get('residual')}")
    if len(reports) != job.items:
        res.notes.append(f"verify {job.argv[1]}: {len(reports)} reports, expected {job.items}")
    return res


def check_oracle(job: Job, rc: int, out: str) -> Outcome:
    """Fails when the N = 32 row is outside 0.05 + 3 se or the order is below 0.8."""
    res = Outcome(attempted=1)
    try:
        doc = json.loads(out)
        rows = {r["N"]: r for r in doc["rows"]}
        last = rows[max(ORACLE_SLICES)]
        dev = abs(last["rel_dev"])
        se = last["err_est"] / last["closed_value"]
        order = doc["fitted_order"]
    except (ValueError, KeyError, TypeError, ZeroDivisionError):
        res.failed = 1
        res.notes.append(f"oracle {job.argv[2]}: unreadable output (exit {rc})")
        return res
    ok = rc == 0 and len(rows) == len(ORACLE_SLICES) and dev <= 0.05 + 3.0 * se and order >= 0.8
    if not ok:
        res.failed = 1
        res.notes.append(f"oracle {job.argv[2]}: N=32 dev {dev:.4g} se {se:.3g} order {order:.3f}")
    return res


CHECKS = {"table": check_table, "verify": check_verify, "oracle": check_oracle}


def check_reference(cells, indices, reference) -> tuple[Outcome, float]:
    """Compare the chosen cells against ``reference(D, tau, s)``.

    A cell outside the tolerance counts as failed; it was already counted
    as attempted when its table was checked.  Also returns the largest
    relative error seen.
    """
    res = Outcome()
    worst = 0.0
    for i in indices:
        d, tau, s, value = cells[i]
        ref = reference(d, tau, s)
        rel = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
        worst = max(worst, rel)
        if not rel <= REF_REL_TOL:
            res.failed += 1
            res.notes.append(f"reference D={d} tau={tau!r} s={s!r}: {value!r} vs {ref!r} (rel {rel:.3g})")
    return res, worst
