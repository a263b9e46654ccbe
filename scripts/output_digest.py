#!/usr/bin/env python3
"""Digest the CLI outputs of a checkout, as a gate between commits.

Runs, in-process through ``pseudoheat.cli.main`` and from the ``src`` tree
of the checkout it sits in:

* ``table --format csv --threads 1`` for D = 3..12, 14 and 20 (the
  even orders whose terms cancel over the widest s, where gfunc takes
  Cauchy's integral) on
  ``--tau-grid 0.25:2:4 --s-grid 0:6:13`` and on
  ``--tau-grid 0.0001:0.01:2 --s-grid 0:0.3:7``;
* ``table --dim 20 --tau-grid 0.25:2:4 --s-grid 0.6:1:9``, s in steps of
  0.05 over the band where G^(9)'s binary64 terms cancel by 1e4-1e7;
* ``eval --dim {3,4,5} --tau 0.5 --s 1 --format csv``, the single-point
  ``kernel()`` path, ``eval --dim 20 --tau 2 --s 0.7 --format csv``,
  a lone even-D gfunc entry whose terms cancel, and ``eval --tau 1 --y1 1
  --format csv`` at ``--dim 3 --y2 1e-160`` (368 apart) and ``--dim 5
  --y2 2``, the point-pair reader;
* ``oracle --dim {3,4,5} --tau 0.25 --n 2,4 --samples 20000 --seed 9
  --threads 1 --format csv``, the lattice Monte Carlo, and the same run
  at the dilated pairs ``--dim 6 --y1 1e100 --y2 1.2e100 --x2 3e99,0,0,0``
  and ``--dim 3 --y1 1e-200 --y2 1.2e-200 --x2 3e-201``, whose heights
  overflow or underflow their products unless sampled in the first
  point's frame;
* ``verify all --dims 3,4,5`` at ``--tau 0.5`` and ``--tau 1.0``, the two
  tau of the benchmark's ``certify`` workload;
* ``verify pde-radial --dims 6,7,8,9 --tau 0.5``, whose stencils hold
  even-D gfunc rows over many rates (``verify all`` has only the D = 4
  closed form among its even D);
* ``verify abel --dims 6,7,8,9,10,14,20 --tau 0.5``, whose integrands
  evaluate one-tau gfunc rows at even D >= 6 and odd D >= 7, hundreds of
  their entries through Cauchy's integral;
* ``verify all --dims 6,7,8,9,10,11,12 --tau 0.5``, every suite above the
  D that ``certify`` runs (mass fails at D = 9 and 11, exit 1);
* ``verify all --dims 3 --tau 100``, whose abel and x-marginal integrals
  stop at the halving cap and are named under ``nonconverged`` (exit 1);
* ``verify all --dims 3,4,5 --tau 200``, where kernel samples of abel (D =
  3 and 5) and ck (D = 5) overflow binary64 and fail the integrals they
  feed, which are named under ``nonconverged`` (exit 1);
* ``verify pde-horicyclic --dims 5 --tau 10000`` and ``verify ck --dims 3
  --tau 5000``, where a stencil sample or a target of the kernel row
  overflows binary64 and fails the reports, the row's located failure
  under ``error`` (exit 1);
* ``eval --format csv --s 0`` at ``--dim 3 --tau 5e-13`` and ``--dim 6
  --tau 1e-12``, the l-series at a rate near 2.5e11, far past the
  a = 1e6 where its variable is rescaled;
* ``verify pde-horicyclic --dims 4,5 --tau 1e62`` and ``verify all --dims
  3,4,5`` at ``--tau 1e62`` and ``--tau 1e70``, where the heat-equation
  time step's fifth powers pass binary64 and (at 1e70) abel's Gaussian
  cutoffs are nan, ``verify ck --dims 8 --tau 1e44``, whose convolution
  cutoffs are nan, ``verify mass --dims 4 --tau 1 --hbar 1e300`` and
  ``verify all --dims 4 --tau 1 --m 1e-300``, where the masses underflow
  to 0.0, and ``verify all --dims 4,6 --tau 1e-120`` and ``verify
  pde-radial --dims 4,6 --m 1e120``, whose rate a ~ 1e120 is past the
  1e102 where (2a)^3 in the heat-equation space step would overflow, and
  ``verify all --dims 4,6 --tau 1e-200`` and ``verify pde-radial --dims 4
  --hbar 1e-300``, whose rates past ~1e200 overflow 4 rate target in
  ``gaussian_cutoff`` and take a heat-equation step, or its square, to
  0.0: every check fails on its own and reports (exit 1).

Each printed line reads ``<sha256 of stdout> exit=<code> <arguments>``.
Run it in two checkouts and diff the outputs:

    python3 scripts/output_digest.py > digests.txt

A change that must keep every table and verification output identical
keeps every line.  The verify jobs take most of the run (tens of seconds).

A change that moves output bits is gated on values instead:

    python3 scripts/output_digest.py --values old.json   # in the old checkout
    python3 scripts/output_digest.py --values new.json   # in the new checkout
    python3 scripts/output_digest.py --compare old.json new.json

``--values FILE`` also writes every parsed number to FILE as JSON: each
table cell's ``value`` and ``err_est``, each verification report's
residual, verdict and integrals, each a value with its ``quad_err``
(abel's lhs per l, ck's convolution, mass's masses, x-marginal's lhs),
and each oracle row's N, value and ``err_est`` (its Monte Carlo standard
error) with the run's ``fitted_order``.  The ``eval`` outputs are
digested only.  ``--compare OLD NEW`` runs nothing.  It pairs table cells
by (tau, s) and verification reports by (check, D, occurrence of that
pair), so a cell or report on one side only is one failure and shifts no
other pair.  Per command it prints the largest relative change in value,
how many cells or integrals changed by more than their own error estimate
(the sum of the two sides' ``err_est`` or ``quad_err``), how many have a
value on one side only, and every verification verdict that changed; per
oracle row, its value and standard error on each side and its shift in
units of sqrt(se_old^2 + se_new^2), and the fitted order on each side.
It exits 1, after one ``FAIL`` line per failure, when an exit code or a
verdict changes, a cell or report is on one side only, a cell or integral
has a value on one side only, one moves by more than both 1e-9 relative
and the sum of the two sides' error estimates, an oracle run's slice
counts change, or an oracle row moves by more than ORACLE_SE_GATE = 5 of
those units; otherwise it exits 0.
Oracle rows are Monte Carlo estimates, so a change of sampler moves them
by design and is gated statistically.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from pseudoheat import cli  # noqa: E402

GRIDS = (("0.25:2:4", "0:6:13"), ("0.0001:0.01:2", "0:0.3:7"))
DIMS = (*range(3, 13), 14, 20)


def commands() -> list[list[str]]:
    out = []
    for tau_grid, s_grid in GRIDS:
        for dim in DIMS:
            out.append([
                "table", "--dim", str(dim), "--tau-grid", tau_grid, "--s-grid", s_grid,
                "--format", "csv", "--threads", "1",
            ])
    out.append([
        "table", "--dim", "20", "--tau-grid", "0.25:2:4", "--s-grid", "0.6:1:9",
        "--format", "csv", "--threads", "1",
    ])
    for dim in ("3", "4", "5"):
        out.append(["eval", "--dim", dim, "--tau", "0.5", "--s", "1", "--format", "csv"])
    out.append(["eval", "--dim", "20", "--tau", "2", "--s", "0.7", "--format", "csv"])
    for dim, y2 in (("3", "1e-160"), ("5", "2")):
        out.append(["eval", "--dim", dim, "--tau", "1", "--y1", "1", "--y2", y2, "--format", "csv"])
    for dim in ("3", "4", "5"):
        out.append([
            "oracle", "--dim", dim, "--tau", "0.25", "--n", "2,4", "--samples", "20000",
            "--seed", "9", "--threads", "1", "--format", "csv",
        ])
    for dim, y1, y2, x2 in (("6", "1e100", "1.2e100", "3e99,0,0,0"), ("3", "1e-200", "1.2e-200", "3e-201")):
        out.append([
            "oracle", "--dim", dim, "--y1", y1, "--y2", y2, "--x2", x2, "--n", "2,4",
            "--samples", "20000", "--seed", "9", "--threads", "1", "--format", "csv",
        ])
    for tau in ("0.5", "1.0"):
        out.append(["verify", "all", "--dims", "3,4,5", "--tau", tau])
    out.append(["verify", "pde-radial", "--dims", "6,7,8,9", "--tau", "0.5"])
    out.append(["verify", "abel", "--dims", "6,7,8,9,10,14,20", "--tau", "0.5"])
    out.append(["verify", "all", "--dims", "6,7,8,9,10,11,12", "--tau", "0.5"])
    out.append(["verify", "all", "--dims", "3", "--tau", "100"])
    out.append(["verify", "all", "--dims", "3,4,5", "--tau", "200"])
    out.append(["verify", "pde-horicyclic", "--dims", "5", "--tau", "10000"])
    out.append(["verify", "ck", "--dims", "3", "--tau", "5000"])
    for dim, tau in (("3", "5e-13"), ("6", "1e-12")):
        out.append(["eval", "--dim", dim, "--tau", tau, "--s", "0", "--format", "csv"])
    out.append(["verify", "pde-horicyclic", "--dims", "4,5", "--tau", "1e62"])
    for tau in ("1e62", "1e70"):
        out.append(["verify", "all", "--dims", "3,4,5", "--tau", tau])
    out.append(["verify", "ck", "--dims", "8", "--tau", "1e44"])
    out.append(["verify", "mass", "--dims", "4", "--tau", "1", "--hbar", "1e300"])
    out.append(["verify", "all", "--dims", "4", "--tau", "1", "--m", "1e-300"])
    out.append(["verify", "all", "--dims", "4,6", "--tau", "1e-120"])
    out.append(["verify", "pde-radial", "--dims", "4,6", "--m", "1e120"])
    out.append(["verify", "all", "--dims", "4,6", "--tau", "1e-200"])
    out.append(["verify", "pde-radial", "--dims", "4", "--hbar", "1e-300"])
    return out


def run(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def _integrals(report: dict) -> list[tuple[float | None, float | None]]:
    """The (value, quad_err) of each integral a verification report carries:
    abel's lhs per l, ck's convolution, mass's masses and x-marginal's lhs.
    A report that failed with an ``error`` carries none."""
    details = report["details"]
    if "error" in details:
        return []
    if report["check"] == "abel":
        return [(p["lhs"], p["quad_err"]) for p in details["points"]]
    if report["check"] in ("ck", "x-marginal"):
        key = "convolution" if report["check"] == "ck" else "lhs"
        return [(details[key], details["quad_err"])]
    if report["check"] == "mass":
        errs = details.get("quad_err", {})
        return [(m, errs.get(t, 0.0)) for t, m in details["masses"].items()]
    return []


def parse(argv: list[str], text: str) -> list[dict]:
    """Every number of one output: table cells, oracle rows, or
    verification reports with their integrals' values and error estimates."""
    if argv[0] == "oracle":
        rows = [line.split(",") for line in text.strip().splitlines()[1:-1]]
        return [{"N": int(n), "value": float(value), "err_est": float(err)} for n, value, err, _, _ in rows]
    if argv[0] == "table":
        cells = []
        for line in text.strip().splitlines()[1:]:
            _, tau, s, value, err = line.split(",")
            cells.append({
                "tau": float(tau), "s": float(s),
                "value": float(value) if value else None, "err_est": float(err),
            })
        return cells
    if not text:  # a run that failed before printing
        return []
    return [
        {
            "check": r["check"], "D": r["D"], "residual": r["residual"], "passed": r["passed"],
            "values": [{"value": v, "quad_err": e} for v, e in _integrals(r)],
        }
        for r in json.loads(text)["reports"]
    ]


def fitted_order(text: str) -> float | None:
    """The ``fitted_order`` of an oracle's CSV output, None if it has none."""
    last = text.strip().rsplit("\n", 1)[-1]
    return float(last.split(",")[1]) if last.startswith("fitted_order,") else None


def _rel_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if math.isfinite(scale) else math.inf


# a cell or integral fails the gate when it moves by more than both of these
GATE_REL = 1e-9
# an oracle row fails when it moves by more than this many sqrt(se_old^2 + se_new^2)
ORACLE_SE_GATE = 5.0


class _Gate:
    """Values of one command against the gate: the largest relative change,
    how many moved by more than their two error estimates, how many have a
    value on one side only, and a failure line per value that fails."""

    def __init__(self, failures: list[str]):
        self.failures, self.worst, self.over, self.one_sided = failures, 0.0, 0, 0

    def check(self, where: str, va, ea, vb, eb) -> None:
        if (va is None) != (vb is None):
            self.one_sided += 1
            self.failures.append(f"{where}: value {va!r} -> {vb!r}")
            return
        if va is None or (math.isnan(va) and math.isnan(vb)):
            return
        rel = _rel_change(va, vb)
        self.worst = max(self.worst, rel)
        # nan on either side moves by nan, which no bound covers
        if not abs(vb - va) <= (ea or 0.0) + (eb or 0.0):
            self.over += 1
            if not rel <= GATE_REL:
                self.failures.append(f"{where}: value {va!r} -> {vb!r}, rel change {rel:.3g}, "
                                     f"err_est {ea!r} + {eb!r}")


def _matched(a_items: list[dict], b_items: list[dict], key) -> tuple[list[tuple[str, dict, dict]], list[str]]:
    """Items of the two sides paired by key(item) and the occurrence of that
    key among the side's items, so that an item inserted or dropped on one
    side leaves every other pair in place.  Returns (label, old, new) per
    pair, in the old side's order, and the label of each item on one side
    only.  A label is the key's text, with ``#k`` for the k-th repeat."""
    def keyed(items):
        seen, out = {}, {}
        for item in items:
            k = key(item)
            n = seen[k] = seen.get(k, -1) + 1
            out[k, n] = item
        return out

    a, b = keyed(a_items), keyed(b_items)
    label = lambda k, n: " ".join(map(str, k)) + (f" #{n}" if n else "")
    pairs = [(label(*kn), a[kn], b[kn]) for kn in a if kn in b]
    return pairs, [label(*kn) for kn in (*a, *b) if (kn in a) != (kn in b)]


def _compare_oracle(key: str, a: dict, b: dict, codes: str, failures: list[str]) -> None:
    """Print one oracle run's rows on both sides; a row that moves by more
    than ORACLE_SE_GATE combined standard errors, or slice counts that
    differ, fail."""
    if [r["N"] for r in a["items"]] != [r["N"] for r in b["items"]]:
        failures.append(f"{key}: slice counts {[r['N'] for r in a['items']]} -> {[r['N'] for r in b['items']]}")
    lines = []
    for ra, rb in zip(a["items"], b["items"]):
        se, moved = math.hypot(ra["err_est"], rb["err_est"]), abs(rb["value"] - ra["value"])
        shift = moved / se if se > 0.0 else (math.inf if moved else 0.0)  # N = 1 rows are exact
        lines.append(f"\n  N={rb['N']}: value {ra['value']!r} -> {rb['value']!r}, "
                     f"se {ra['err_est']:.4g} -> {rb['err_est']:.4g}, shift {shift:.3g} se")
        if not shift <= ORACLE_SE_GATE:
            failures.append(f"{key}: N={rb['N']} moved {shift:.3g} combined se")
    print(f"{key}: {codes}, rows {len(b['items'])}, "
          f"fitted order {a.get('fitted_order')!r} -> {b.get('fitted_order')!r}" + "".join(lines))


def compare(old_path: str, new_path: str) -> int:
    """Print the per-command summary; 1 if any command fails the gate, else 0.

    Cells are paired by (tau, s) and reports by (check, D, occurrence).  A
    command fails when its exit code changes, a verification verdict
    changes, a cell or report is on one side only, a cell or integral has
    a value on one side only, or one moves by more than both GATE_REL
    relative and the sum of the two sides' ``err_est`` (``quad_err`` for
    an integral).  An
    oracle run fails when its slice counts change or a row moves by more
    than ORACLE_SE_GATE combined standard errors.  Each failure is printed
    on a line of its own starting with ``FAIL``.
    """
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    failures = []
    for key in old:
        if key not in new:
            print(f"{key}: missing in {new_path}")
            failures.append(f"{key}: missing in {new_path}")
            continue
        a, b = old[key], new[key]
        codes = f"exit {a['exit']}->{b['exit']}"
        if a["exit"] != b["exit"]:
            failures.append(f"{key}: {codes}")
        gate = _Gate(failures)
        if key.startswith("oracle"):
            _compare_oracle(key, a, b, codes, failures)
        elif key.startswith("table"):
            cells, alone = _matched(a["items"], b["items"], lambda c: (f"tau={c['tau']!r}", f"s={c['s']!r}"))
            for where, ca, cb in cells:
                gate.check(f"{key}: {where}", ca["value"], ca["err_est"], cb["value"], cb["err_est"])
            gate.one_sided += len(alone)
            failures.extend(f"{key}: {where}: cell on one side only" for where in alone)
            print(f"{key}: {codes}, cells {len(b['items'])}, max rel change {gate.worst:.3g}, "
                  f"over err_est {gate.over}, value on one side only {gate.one_sided}")
        else:
            reports, alone = _matched(a["items"], b["items"], lambda r: (r["check"], f"D={r['D']}"))
            flips = [f"{where} {ra['passed']}->{rb['passed']}" for where, ra, rb in reports
                     if ra["passed"] != rb["passed"]]
            failures.extend(f"{key}: {f}" for f in flips)
            failures.extend(f"{key}: {where}: report on one side only" for where in alone)
            worst = max((_rel_change(ra["residual"], rb["residual"]) for _, ra, rb in reports), default=0.0)
            for where, ra, rb in reports:
                va, vb = ra.get("values", []), rb.get("values", [])
                if len(va) != len(vb):
                    failures.append(f"{key}: {where}: integrals {len(va)} -> {len(vb)}")
                for k, (ia, ib) in enumerate(zip(va, vb)):
                    gate.check(f"{key}: {where} integral {k}", ia["value"], ia["quad_err"], ib["value"], ib["quad_err"])
            print(f"{key}: {codes}, reports {len(a['items'])}->{len(b['items'])}, "
                  f"on one side only {len(alone)}, "
                  f"max rel residual change {worst:.3g}, verdicts changed {len(flips)}, "
                  f"max rel integral change {gate.worst:.3g}, over quad_err {gate.over}, "
                  f"value on one side only {gate.one_sided}"
                  + "".join(f"\n  {f}" for f in flips))
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", metavar="FILE", help="also write every parsed number to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --values files instead of running")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    values = {}
    for argv in commands():
        text, code = run(argv)
        sha = hashlib.sha256(text.encode()).hexdigest()
        print(f"{sha} exit={code} {' '.join(argv)}", flush=True)
        if argv[0] != "eval":
            entry = values[" ".join(argv)] = {"exit": code, "items": parse(argv, text)}
            if argv[0] == "oracle":
                entry["fitted_order"] = fitted_order(text)
    if args.values:
        Path(args.values).write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
