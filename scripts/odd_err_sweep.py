#!/usr/bin/env python3
"""Sweep the odd-D kernel against an independent reference, and list where
its ``err_est`` does not cover its error.

Runs, from the ``src`` tree of the checkout it sits in, ``kernel_row`` at
D in {3, 5, 7, 9, 15} and tau in {0.01, 0.05, 0.5, 2, 5, 30} on s in
{0, 0.5, 1, 3, 6}, at ``DEFAULT_SPEC`` and at ``SAMPLED_SPEC``, and
compares each value with ``tests/_oracles.odd_reference`` (about 40
digits).  A point whose reference underflows to 0.0 has no relative error
and is left out, which leaves 140 points.

A point misses where its error exceeds its ``err_est``, or where the
kernel failed.  Per spec it prints each miss (D, tau, s, the error and the
``err_est``, both relative to the reference), then the number of misses
and the worst error:

    python3 scripts/odd_err_sweep.py                  # about 12 s
    python3 scripts/odd_err_sweep.py --max-misses 11  # exit 1 above 11 at a spec

It exits 1 when a spec has more than ``--max-misses`` misses, else 0.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _oracles import odd_reference  # noqa: E402
from pseudoheat.kernels import EvalParams, kernel_row  # noqa: E402
from pseudoheat.quadrature import DEFAULT_SPEC  # noqa: E402
from pseudoheat.verify import SAMPLED_SPEC  # noqa: E402

DIMS = (3, 5, 7, 9, 15)
TAUS = (0.01, 0.05, 0.5, 2.0, 5.0, 30.0)
SS = (0.0, 0.5, 1.0, 3.0, 6.0)
SPECS = {"DEFAULT_SPEC": DEFAULT_SPEC, "SAMPLED_SPEC": SAMPLED_SPEC}


def references(points) -> dict:
    """odd_reference at each (D, tau, s) of points whose value does not underflow."""
    refs = {p: odd_reference(*p) for p in points}
    return {p: ref for p, ref in refs.items() if ref != 0.0}


def sweep(refs: dict, spec) -> list[tuple]:
    """Per point of refs, in its order: (D, tau, s, error, err_est), both
    relative to the reference; a failed point has the error of the value
    its failure carries and an err_est of inf."""
    rows = {}
    for D, tau, s in refs:
        rows.setdefault((D, tau), []).append(s)
    out = {}
    for (D, tau), ss in rows.items():
        values, errs, failures = kernel_row(EvalParams(D, tau), ss, spec)
        carried = {exc.s: exc.value for exc in failures}
        for s, value, err_est in zip(ss, values.tolist(), errs.tolist()):
            ref = refs[D, tau, s]
            if s in carried:
                value, err_est = carried[s], math.inf
            out[D, tau, s] = (D, tau, s, abs(value - ref) / abs(ref), err_est / abs(ref))
    return [out[p] for p in refs]


def misses(results: list[tuple]) -> list[tuple]:
    """The points whose error exceeds their err_est, or that failed."""
    return [r for r in results if not r[3] <= r[4] or r[4] == math.inf]


def report(name: str, results: list[tuple]) -> int:
    """Print each miss, the miss count and the worst error; return the count."""
    missed = misses(results)
    for D, tau, s, err, est in missed:
        print(f"{name} miss D={D} tau={tau:g} s={s:g} error={err:.2e} err_est={est:.2e}")
    worst = max(results, key=lambda r: r[3])
    print(f"{name}: {len(missed)} of {len(results)} points missed, worst error {worst[3]:.2e} "
          f"at D={worst[0]} tau={worst[1]:g} s={worst[2]:g}")
    return len(missed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-misses", type=int, default=None, metavar="N",
                        help="exit 1 when a spec misses at more than N points")
    args = parser.parse_args(argv)
    refs = references([(D, tau, s) for D in DIMS for tau in TAUS for s in SS])
    counts = [report(name, sweep(refs, spec)) for name, spec in SPECS.items()]
    return 1 if args.max_misses is not None and max(counts) > args.max_misses else 0


if __name__ == "__main__":
    sys.exit(main())
