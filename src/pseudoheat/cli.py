"""Command-line interface: kernel evaluation, tables, verification, lattice runs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure (an ArithmeticError: nonconvergence or binary64 overflow, located
where it happened; verify reports its own as failed checks, exit 1).  Every
command runs serially, and all outputs are deterministic given the full
configuration (including the seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .geometry import HoricyclicPoint, geodesic_distance
from .kernels import EvalParams, kernel, kernel_row
from .lattice import convergence_order, lattice_rows
from .quadrature import QuadratureSpec
from . import verify

CSV_HEADER = "D,tau,s,value,err_est"


def _parse_grid(text: str) -> list[float]:
    """start:stop:count with count >= 1 and stop >= start."""
    bits = text.split(":")
    if len(bits) != 3:
        raise ValueError(f"grid must be start:stop:count, got {text!r}")
    start, stop = float(bits[0]), float(bits[1])
    count = int(bits[2])
    if count < 1 or stop < start:
        raise ValueError("grid needs count >= 1 and stop >= start")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _threads(args) -> int:
    """Threads a command runs on: one, whatever ``--threads`` says (perfbench reads it)."""
    return 1


def _defaults_block(args) -> dict:
    """m and hbar, and the tolerances of a command that takes them (verify does not)."""
    return {k: getattr(args, k) for k in ("m", "hbar", "rel_tol", "abs_tol") if hasattr(args, k)}


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol)


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=False))


_S_OR_PAIR = "give either --s or the point pair --y1/--x1/--y2/--x2"


def _point_pair(args, y1: float | None = None, y2: float | None = None, x2: list[float] | None = None):
    """The points (--y1, --x1) and (--y2, --x2) in D = --dim.  A height not
    given is y1 or y2, and required where that is None; flat coordinates
    not given are D - 2 zeros, or x2 for --x2 where x2 is given."""
    y1 = args.y1 if args.y1 is not None else y1
    y2 = args.y2 if args.y2 is not None else y2
    if y1 is None or y2 is None:
        raise ValueError(_S_OR_PAIR)
    zeros = [0.0] * (args.dim - 2)
    x1 = _parse_floats(args.x1) if args.x1 else zeros
    x2 = _parse_floats(args.x2) if args.x2 else x2 or zeros
    for x in (x1, x2):
        if len(x) + 2 != args.dim:
            raise ValueError(f"point pair has dimension {len(x) + 2}, expected {args.dim}")
    return HoricyclicPoint(y1, x1), HoricyclicPoint(y2, x2)


def cmd_eval(args) -> int:
    params = EvalParams(args.dim, args.tau, args.m, args.hbar)
    if args.s is not None and any(v is not None for v in (args.y1, args.x1, args.y2, args.x2)):
        raise ValueError(_S_OR_PAIR)
    s = args.s if args.s is not None else geodesic_distance(*_point_pair(args))
    kv = kernel(params, s, _quad_spec(args))
    if args.format == "csv":
        print(CSV_HEADER)
        print(f"{kv.D},{kv.tau!r},{kv.s!r},{kv.value!r},{kv.err_est!r}")
    else:
        _emit_json(
            {
                "defaults": _defaults_block(args),
                "command": "eval",
                "record": {
                    "D": kv.D,
                    "tau": kv.tau,
                    "s": kv.s,
                    "value": kv.value,
                    "err_est": kv.err_est,
                },
            }
        )
    return 0


def cmd_table(args) -> int:
    taus = _parse_grid(args.tau_grid)
    ss = _parse_grid(args.s_grid)
    spec = _quad_spec(args)
    # the whole grid in one kernel row, tau-major
    cells = [(tau, s) for tau in taus for s in ss]
    params = EvalParams(args.dim, taus[0], args.m, args.hbar)
    values, errs, failures = kernel_row(params, [s for _, s in cells], spec, tau=[tau for tau, _ in cells])
    # a failed cell's value is nan and its err_est its failure's, inf for an overflow
    notes = {(exc.tau, exc.s): str(exc) for exc in failures}
    rows = [
        (args.dim, tau, s, None if (tau, s) in notes else value, err, notes.get((tau, s)))
        for (tau, s), value, err in zip(cells, values.tolist(), errs.tolist())
    ]
    if args.format == "csv":
        print(CSV_HEADER)
        for d, tau, s, value, err, note in rows:
            vtxt = "" if value is None else repr(value)
            print(f"{d},{tau!r},{s!r},{vtxt},{err!r}")
    else:
        _emit_json(
            {
                "defaults": _defaults_block(args),
                "command": "table",
                "rows": [
                    {"D": d, "tau": tau, "s": s, "value": value,
                     "err_est": err if math.isfinite(err) else None,
                     **({"error": note} if note else {})}
                    for d, tau, s, value, err, note in rows
                ],
            }
        )
    return 3 if failures else 0


def cmd_verify(args) -> int:
    reports = verify.suite_reports(args.suite, _parse_ints(args.dims), args.tau, args.m, args.hbar)
    if not reports:
        raise ValueError(f"verify {args.suite} has no check at --dims {args.dims!r}")
    _emit_json(
        {
            "defaults": _defaults_block(args),
            "command": "verify",
            "suite": args.suite,
            "reports": [r.to_json_dict() for r in reports],
        }
    )
    return 0 if all(r.passed for r in reports) else 1


def cmd_oracle(args) -> int:
    n_list = _parse_ints(args.n)
    if len(set(n_list)) < 2:
        raise ValueError("--n needs at least two distinct slice counts to fit an order")
    params = EvalParams(args.dim, args.tau, args.m, args.hbar)
    q1, q2 = _point_pair(args, 1.0, 1.2, [0.3] + [0.0] * (args.dim - 3))
    s = geodesic_distance(q1, q2)
    closed = kernel(params, s, _quad_spec(args)).value
    if closed == 0.0:  # each row's deviation is relative to it
        raise ArithmeticError(
            f"closed-form kernel underflows binary64 at D={args.dim}, tau={args.tau!r}, s={s!r}: "
            "no reference for the lattice deviation"
        )
    estimates = lattice_rows(params, q1, q2, n_list, args.samples, args.seed)
    rows = [(n, value, err, closed, value / closed - 1.0) for n, (value, err) in zip(n_list, estimates)]
    fitted = convergence_order([(n, dev) for n, value, err, c, dev in rows if dev != 0.0])
    if args.format == "csv":
        print("N,lattice_value,err_est,closed_value,rel_dev")
        for n, value, err, c, dev in rows:
            print(f"{n},{value!r},{err!r},{c!r},{dev!r}")
        print(f"fitted_order,{fitted!r}")
    else:
        _emit_json(
            {
                "defaults": _defaults_block(args),
                "command": "oracle",
                "seed": args.seed,
                "rows": [
                    {"N": n, "lattice_value": value, "err_est": err,
                     "closed_value": c, "rel_dev": dev}
                    for n, value, err, c, dev in rows
                ],
                "fitted_order": fitted,
            }
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pseudoheat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerances=True):
        p.add_argument("--m", type=float, default=0.5, help="mass (default 1/2)")
        p.add_argument("--hbar", type=float, default=1.0, help="Planck constant (default 1)")
        if tolerances:  # verify's checks carry their own
            p.add_argument("--rel-tol", type=float, default=1e-9)
            p.add_argument("--abs-tol", type=float, default=1e-14)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored: every command runs serially")

    p = sub.add_parser("eval", help="evaluate the kernel at one point")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--y1", type=float, default=None)
    p.add_argument("--x1", type=str, default=None, help="comma-separated flat coordinates")
    p.add_argument("--y2", type=float, default=None)
    p.add_argument("--x2", type=str, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("table", help="evaluate the kernel on a (tau, s) grid")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tau-grid", type=str, required=True, help="start:stop:count")
    p.add_argument("--s-grid", type=str, required=True, help="start:stop:count")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p, tolerances=False)
    p.add_argument("suite", type=str, help=f"one of {', '.join((*verify.SUITES, 'all'))}")
    p.add_argument("--dims", type=str, default="3,4")
    p.add_argument("--tau", type=float, default=1.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="run the lattice path-integral oracle")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--n", type=str, default="2,4,8,16,32", help="comma-separated slice counts")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--y1", type=float, default=None)
    p.add_argument("--x1", type=str, default=None)
    p.add_argument("--y2", type=float, default=None)
    p.add_argument("--x2", type=str, default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


# built once: a parser costs about a millisecond, paid per in-process call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
