#!/usr/bin/env python3
"""Print one sha256 per CLI output, as a byte-identity gate between commits.

Runs, in-process through ``pseudoheat.cli.main`` and from the ``src`` tree
of the checkout it sits in:

* ``table --format csv --threads 1`` for D = 3..12 on
  ``--tau-grid 0.25:2:4 --s-grid 0:6:13`` and on
  ``--tau-grid 0.0001:0.01:2 --s-grid 0:0.3:7``;
* ``verify all --dims 3,4,5 --tau 0.5``.

Each line reads ``<sha256 of stdout> exit=<code> <arguments>``.  Run it in
two checkouts and diff the outputs:

    python3 scripts/output_digest.py > digests.txt

A change that must keep every table and verification output identical
keeps every line.  The verify job takes most of the run (tens of seconds).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from pseudoheat import cli  # noqa: E402

GRIDS = (("0.25:2:4", "0:6:13"), ("0.0001:0.01:2", "0:0.3:7"))


def commands() -> list[list[str]]:
    out = []
    for tau_grid, s_grid in GRIDS:
        for dim in range(3, 13):
            out.append([
                "table", "--dim", str(dim), "--tau-grid", tau_grid, "--s-grid", s_grid,
                "--format", "csv", "--threads", "1",
            ])
    out.append(["verify", "all", "--dims", "3,4,5", "--tau", "0.5"])
    return out


def digest(argv: list[str]) -> tuple[str, int]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


def main() -> int:
    for argv in commands():
        sha, code = digest(argv)
        print(f"{sha} exit={code} {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
