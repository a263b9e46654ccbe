#!/usr/bin/env python3
"""Run the full verification battery and print one line per check.

Desk-scale driver: a few seconds end to end, from the ``src`` tree of the
checkout it sits in:

    python3 scripts/run_verification.py

Exit status 0 iff every check passes.
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pseudoheat.geometry import HoricyclicPoint  # noqa: E402
from pseudoheat.kernels import EvalParams  # noqa: E402
from pseudoheat import verify  # noqa: E402
from pseudoheat.lattice import x_marginal_check  # noqa: E402


def show(report, t0):
    status = "PASS" if report.passed else "FAIL"
    print(
        f"[{status}] {report.check:<16} D={report.D}  residual={report.residual:.3e} "
        f"tol={report.tolerance:.1e}  ({time.time() - t0:.1f}s)"
    )
    return report.passed


def main() -> int:
    ok = True
    for d in (3, 4, 5, 6, 7):
        for tau in (0.5, 1.0):
            t0 = time.time()
            ok &= show(verify.abel_residual(EvalParams(d, tau)), t0)
    for d in (3, 4, 5, 6, 7, 8):
        t0 = time.time()
        ok &= show(verify.radial_pde_residual(EvalParams(d, 1.0)), t0)
    for d in (3, 4):
        t0 = time.time()
        pairs = [
            (HoricyclicPoint(1.0, (0.0,) * (d - 2)), HoricyclicPoint(2.0, (1.0,) * (d - 2))),
            (HoricyclicPoint(0.8, (0.5,) * (d - 2)), HoricyclicPoint(1.4, (-0.3,) * (d - 2))),
        ]
        ok &= show(verify.horicyclic_pde_residual(EvalParams(d, 0.5), pairs), t0)
    for d in (3, 4, 5):
        half = EvalParams(d, 0.5)
        t0 = time.time()
        for report in verify.chapman_kolmogorov_many(half, half, [0.0, 1.0, 2.0]):
            ok &= show(report, t0)
    for d in (3, 4, 5, 6):
        t0 = time.time()
        ok &= show(verify.mass_multiplicativity(EvalParams(d, 1.0)), t0)
    for d in (3, 4, 5, 6):
        t0 = time.time()
        y2 = math.e if d == 3 else 1.0
        ok &= show(x_marginal_check(EvalParams(d, 0.5), 1.0, y2), t0)
    t0 = time.time()
    for report in verify.gfunc_reports():
        ok &= show(report, t0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
