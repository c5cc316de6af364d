"""Run the paper's figures: ``figures.py [id ...] [--quick] [--check]``.

Every figure of the evaluation (Section 5), the segment-packing ablation
and the overload curve are entries of one registry,
:data:`repro.bench.experiments.FIGURES`.  This command runs the named
entries (default: every entry not marked on-request) at full scale, or at
the registry's reduced sizes with ``--quick``, and prints each table as
text and as markdown — EXPERIMENTS.md is that output.  ``--check`` also
asserts each figure's shape predicate and exits 1 if one fails.

Every LD/LS join time printed here is a cold join (compiled read state
dropped before each repetition); warm, steady-state reads are what
``benchmarks/e2e`` measures.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.experiments import FIGURES  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "ids", nargs="*", metavar="id", help=f"figures to run: {' '.join(FIGURES)}"
    )
    parser.add_argument(
        "--quick", action="store_true", help="the registry's reduced sizes"
    )
    parser.add_argument(
        "--check", action="store_true", help="assert each figure's shape predicate"
    )
    args = parser.parse_args(argv)
    unknown = [fid for fid in args.ids if fid not in FIGURES]
    if unknown:
        parser.error(f"unknown figure id(s): {' '.join(unknown)}")
    ids = args.ids or [fid for fid, fig in FIGURES.items() if not fig.on_request]

    failures = []
    started = time.perf_counter()
    for fid in ids:
        figure = FIGURES[fid]
        print(f"## {fid}: {figure.title}\n")
        tables = figure.run(**(figure.quick if args.quick else {}))
        for table in tables:
            table.print()
            print(f"**{table.title}**\n\n{table.format_markdown()}\n")
        if args.check:
            try:
                figure.shape(tables)
            except AssertionError as exc:
                failures.append(fid)
                print(f"SHAPE FAILED {fid}: {exc}\n")
            else:
                print(f"shape ok: {fid}\n")
    print(f"total wall time: {time.perf_counter() - started:.1f} s")
    if failures:
        print(f"shape check failed: {' '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
