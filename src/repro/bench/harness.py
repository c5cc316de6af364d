"""Timing and reporting utilities shared by the benchmark suite.

Small on purpose: a monotonic timer helper, a result-table formatter that
prints paper-style rows, and a container for (x, series...) sweeps.  The
``benchmarks/`` scripts use these both under pytest-benchmark and as
directly runnable ``main()`` programs that print each figure's series.

Every runnable benchmark writes the same self-describing JSON **envelope**
(:func:`envelope` / :func:`write_envelope`): schema version, benchmark
name, workload parameters, the tables/sweeps it printed, and a snapshot of
the process metric registry — so a ``BENCH_*.json`` can be interpreted
without re-reading the script that produced it.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import METRICS

__all__ = [
    "measure",
    "Table",
    "Sweep",
    "SCHEMA",
    "metrics_snapshot",
    "envelope",
    "write_envelope",
]

#: Envelope schema identifier.  Bump when the envelope layout changes.
#: ``repro-bench/2`` added: uniform envelope for every script, workload
#: params, and the embedded metric snapshot.
SCHEMA = "repro-bench/2"


def measure(fn: Callable[[], object], *, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall time of ``fn()`` in seconds.

    Minimum over repeats is the standard low-noise estimator for
    deterministic workloads (what ``timeit`` does).
    """
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


@dataclass
class Table:
    """A printable result table with aligned columns.

    >>> t = Table("demo", ["n", "ms"])
    >>> t.add_row([10, 1.5])
    >>> print(t.format())  # doctest: +SKIP
    """

    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)

    def add_row(self, row: Iterable[object]) -> None:
        row = list(row)
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def _cells(self) -> list[list[str]]:
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.6g}"
            return str(value)

        return [self.headers] + [[fmt(v) for v in row] for row in self.rows]

    def format(self) -> str:
        """Render as an aligned text table."""
        cells = self._cells()
        widths = [
            max(len(row[col]) for row in cells) for col in range(len(self.headers))
        ]
        lines = [f"== {self.title} =="]
        for i, row in enumerate(cells):
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
            if i == 0:
                lines.append("  ".join("-" * width for width in widths))
        return "\n".join(lines)

    def format_markdown(self) -> str:
        """Render as a GitHub-flavored markdown table (for EXPERIMENTS.md)."""
        cells = self._cells()
        lines = [
            "| " + " | ".join(cells[0]) + " |",
            "|" + "|".join("---" for _ in self.headers) + "|",
        ]
        for row in cells[1:]:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    def print(self) -> None:
        print(self.format())
        print()

    def as_dict(self) -> dict:
        """JSON-serializable form for the benchmark envelope."""
        return {"title": self.title, "headers": list(self.headers),
                "rows": [list(row) for row in self.rows]}


@dataclass
class Sweep:
    """One experiment sweep: x values plus named y series."""

    x_name: str
    xs: list[object] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)

    def add(self, x: object, **values: float) -> None:
        self.xs.append(x)
        for name, value in values.items():
            self.series.setdefault(name, []).append(value)

    def to_table(self, title: str) -> Table:
        table = Table(title, [self.x_name] + list(self.series))
        for i, x in enumerate(self.xs):
            table.add_row([x] + [self.series[name][i] for name in self.series])
        return table

    def as_dict(self) -> dict:
        """JSON-serializable form for the benchmark envelope."""
        return {"x_name": self.x_name, "xs": list(self.xs),
                "series": {name: list(ys) for name, ys in self.series.items()}}


# ----------------------------------------------------------------------
# the self-describing result envelope (``BENCH_*.json``)


def metrics_snapshot() -> dict:
    """The process metric registry as plain dicts (see ``repro.obs``)."""
    return METRICS.snapshot()


def envelope(
    name: str,
    *,
    params: dict | None = None,
    tables: Iterable[Table] = (),
    sweeps: Iterable[Sweep] = (),
    results: dict | None = None,
) -> dict:
    """Assemble the uniform benchmark-result envelope.

    ``params`` records the workload knobs (sizes, repeat counts, modes);
    ``results`` carries any script-specific payload that is not naturally
    a table or sweep.  The metric snapshot is taken at call time, so call
    this *after* the measured work.
    """
    return {
        "schema": SCHEMA,
        "benchmark": name,
        "params": dict(params or {}),
        "tables": [table.as_dict() for table in tables],
        "sweeps": [sweep.as_dict() for sweep in sweeps],
        "results": dict(results or {}),
        "metrics": metrics_snapshot(),
    }


def write_envelope(path, name: str, **kwargs) -> Path:
    """Write :func:`envelope` output to ``path`` and report where."""
    path = Path(path)
    path.write_text(
        json.dumps(envelope(name, **kwargs), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"[{name}] wrote {path}")
    return path
