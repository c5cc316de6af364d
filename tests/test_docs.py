"""The documents name modules that exist.

Every backticked module path in DESIGN.md and README.md resolves at
HEAD: ``src/repro/...`` (a file or a package), a path under ``tests/``,
``benchmarks/`` or ``examples/``, ``repro/...`` (under ``src/``), and a
package-relative ``core/....py`` (under ``src/repro/``); a ``::name`` or
``:line`` suffix is ignored.  A module that is gone is named in plain
text, unquoted, beside the change that removed it, not as a path a
reader would go looking for.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_PATH = re.compile(
    r"`((?:src/repro/[^`\s:]*)|(?:[\w.-]+/)+[\w.-]+\.py)(?:::[^`]*|:\d[^`]*)?`"
)

_FROM_ROOT = ("src", "tests", "benchmarks", "examples")


def _resolve(path: str) -> Path:
    first = path.split("/", 1)[0]
    if first in _FROM_ROOT:
        return ROOT / path
    if first == "repro":
        return ROOT / "src" / path
    return ROOT / "src" / "repro" / path


def module_paths(text: str) -> list[tuple[int, str]]:
    """``(line, path)`` of every backticked module path in ``text``."""
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1))
        for match in _PATH.finditer(text)
    ]


def test_the_pattern_reads_every_form():
    text = (
        "`src/repro/twig/` `core/ertree.py::ERNode` `tests/helpers.py:12` "
        "`repro/storage.py` `benchmarks/e2e/run.py` `figures.py` `a.b`"
    )
    assert [path for _, path in module_paths(text)] == [
        "src/repro/twig/", "core/ertree.py", "tests/helpers.py",
        "repro/storage.py", "benchmarks/e2e/run.py",
    ]
    assert all(_resolve(path).exists() for _, path in module_paths(text))
    assert not _resolve("core/query.py").exists()


@pytest.mark.parametrize("document", ["DESIGN.md", "README.md"])
def test_every_module_path_exists(document):
    text = (ROOT / document).read_text("utf-8")
    missing = [
        f"{document}:{line}: {path}"
        for line, path in module_paths(text)
        if not _resolve(path).exists()
    ]
    assert not missing, "\n".join(missing)
