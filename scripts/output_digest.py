#!/usr/bin/env python3
"""Digest the CLI outputs of a checkout, as a gate between commits.

Runs, in-process through ``pseudoheat.cli.main`` and from the ``src`` tree
of the checkout it sits in:

* ``table --format csv --threads 1`` for D = 3..12, 14 and 20 (the
  even orders whose terms cancel over the widest s, where gfunc takes
  Cauchy's integral) on
  ``--tau-grid 0.25:2:4 --s-grid 0:6:13`` and on
  ``--tau-grid 0.0001:0.01:2 --s-grid 0:0.3:7``;
* ``eval --dim {3,4,5} --tau 0.5 --s 1 --format csv``, the single-point
  ``kernel()`` path;
* ``oracle --dim {3,4} --tau 0.25 --n 2,4 --samples 20000 --seed 9
  --threads 1 --format csv``, the lattice Monte Carlo;
* ``verify all --dims 3,4,5`` at ``--tau 0.5`` and ``--tau 1.0``, the two
  tau of the benchmark's ``certify`` workload;
* ``verify pde-radial --dims 6,7,8,9 --tau 0.5``, whose stencils hold
  even-D gfunc rows over many rates (``verify all`` has only the D = 4
  closed form among its even D).

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
table cell's ``value`` and ``err_est``, and each verification report's
residual and verdict.  The ``eval`` and ``oracle`` outputs are digested
only.  ``--compare OLD NEW`` runs nothing; per command it
prints the largest relative change in value, how many cells changed by
more than their own error estimate (the sum of the two sides' ``err_est``),
how many cells have a value on one side only, and every verification
verdict that changed.  It exits 1, after one ``FAIL`` line per failure,
when an exit code or a verdict changes, a cell has a value on one side
only, or a cell moves by more than both 1e-9 relative and the sum of the
two sides' ``err_est``; otherwise it exits 0.
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
    for dim in ("3", "4", "5"):
        out.append(["eval", "--dim", dim, "--tau", "0.5", "--s", "1", "--format", "csv"])
    for dim in ("3", "4"):
        out.append([
            "oracle", "--dim", dim, "--tau", "0.25", "--n", "2,4", "--samples", "20000",
            "--seed", "9", "--threads", "1", "--format", "csv",
        ])
    for tau in ("0.5", "1.0"):
        out.append(["verify", "all", "--dims", "3,4,5", "--tau", tau])
    out.append(["verify", "pde-radial", "--dims", "6,7,8,9", "--tau", "0.5"])
    return out


def run(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


def parse(argv: list[str], text: str) -> list[dict]:
    """Every number of one output: table cells or verification reports."""
    if argv[0] == "table":
        cells = []
        for line in text.strip().splitlines()[1:]:
            _, tau, s, value, err = line.split(",")
            cells.append({
                "tau": float(tau), "s": float(s),
                "value": float(value) if value else None, "err_est": float(err),
            })
        return cells
    return [
        {"check": r["check"], "D": r["D"], "residual": r["residual"], "passed": r["passed"]}
        for r in json.loads(text)["reports"]
    ]


def _rel_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if math.isfinite(scale) else math.inf


# a cell fails the gate when it moves by more than both of these
GATE_REL = 1e-9


def compare(old_path: str, new_path: str) -> int:
    """Print the per-command summary; 1 if any command fails the gate, else 0.

    A command fails when its exit code changes, a verification verdict
    changes, a table cell has a value on one side only, or a cell moves by
    more than both GATE_REL relative and the sum of the two sides'
    ``err_est``.  Each failure is printed on a line of its own starting
    with ``FAIL``.
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
        if key.startswith("table"):
            worst, over, one_sided = 0.0, 0, 0
            for ca, cb in zip(a["items"], b["items"]):
                va, vb = ca["value"], cb["value"]
                where = f"{key}: tau={cb['tau']!r} s={cb['s']!r}"
                if (va is None) != (vb is None):
                    one_sided += 1
                    failures.append(f"{where}: value {va!r} -> {vb!r}")
                    continue
                if va is None:
                    continue
                rel = _rel_change(va, vb)
                worst = max(worst, rel)
                if abs(vb - va) > ca["err_est"] + cb["err_est"]:
                    over += 1
                    if rel > GATE_REL:
                        failures.append(f"{where}: value {va!r} -> {vb!r}, rel change {rel:.3g}, "
                                        f"err_est {ca['err_est']!r} + {cb['err_est']!r}")
            if len(a["items"]) != len(b["items"]):
                one_sided += abs(len(a["items"]) - len(b["items"]))
                failures.append(f"{key}: cells {len(a['items'])} -> {len(b['items'])}")
            print(f"{key}: {codes}, cells {len(b['items'])}, max rel change {worst:.3g}, "
                  f"over err_est {over}, value on one side only {one_sided}")
        else:
            flips = [
                f"{ra['check']} D={ra['D']} {ra['passed']}->{rb['passed']}"
                for ra, rb in zip(a["items"], b["items"])
                if ra["passed"] != rb["passed"]
            ]
            failures.extend(f"{key}: {f}" for f in flips)
            if len(a["items"]) != len(b["items"]):
                failures.append(f"{key}: reports {len(a['items'])} -> {len(b['items'])}")
            worst = max(
                (_rel_change(ra["residual"], rb["residual"]) for ra, rb in zip(a["items"], b["items"])),
                default=0.0,
            )
            print(f"{key}: {codes}, reports {len(a['items'])}->{len(b['items'])}, "
                  f"max rel residual change {worst:.3g}, verdicts changed {len(flips)}"
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
        if argv[0] in ("table", "verify"):
            values[" ".join(argv)] = {"exit": code, "items": parse(argv, text)}
    if args.values:
        Path(args.values).write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
