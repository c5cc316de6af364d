"""Timing and reporting utilities shared by the figure experiments.

Small on purpose: a monotonic timer helper, the cold-join timer every
LD/LS figure timing goes through, a result-table formatter that prints
paper-style rows, and a container for (x, series...) sweeps.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

__all__ = ["measure", "measure_cold_join", "Table", "Sweep"]


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


def measure_cold_join(
    db, join: Callable[[], Sequence], *, repeat: int = 3
) -> tuple[float, int]:
    """Best-of-``repeat`` seconds of ``join()`` on ``db``, and its pair count.

    The database's derived read state (push lists, span columns, the
    answer memos) is dropped before every repetition, so the time is the
    merge of Fig. 9 plus its index reads — never a memo hit
    (:meth:`~repro.core.readpath.ReadPathCache.memo`), which
    repetitions two and three of a plain :func:`measure` would report.
    Element blocks are base data: LD, LS and STD read them through the
    same :meth:`~repro.core.element_index.ElementIndex.block` call.
    (Warm, steady-state reads are what ``benchmarks/e2e`` measures.)  The
    clear runs before the clock starts and the answer is dropped after it
    stops: the clear frees the previous repetition's memo, about a fifth
    of the join on Fig. 13 nested-160, which is not the join's cost.
    """
    best = float("inf")
    pairs = 0
    for _ in range(repeat):
        db.readpath.clear()
        start = time.perf_counter()
        answer = join()
        elapsed = time.perf_counter() - start
        pairs = len(answer)
        del answer
        best = min(best, elapsed)
    return best, pairs


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

    def column(self, name: str) -> list[object]:
        """The values under header ``name``, in row order."""
        col = self.headers.index(name)
        return [row[col] for row in self.rows]


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
