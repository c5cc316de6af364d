"""The documents name modules and objects that exist.

Every backticked module path in DESIGN.md and README.md resolves at
HEAD: ``src/repro/...`` (a file or a package), a path under ``tests/``,
``benchmarks/`` or ``examples/``, ``repro/...`` (under ``src/``), and a
package-relative ``core/....py`` (under ``src/repro/``); a ``::name`` or
``:line`` suffix is ignored.  So does every backticked dotted name
``repro.x.y``: the longest importable prefix is a module, and the rest
are attributes of it.  A module that is gone is named in plain text,
unquoted, beside the change that removed it, not as a path a reader
would go looking for.
"""

from __future__ import annotations

import importlib
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


_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def dotted_names(text: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every backticked dotted ``repro.x.y`` name."""
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1))
        for match in _NAME.finditer(text)
    ]


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(found, attribute):
                return False
            found = getattr(found, attribute)
        return True
    return False


def test_the_name_pattern_reads_every_form():
    text = (
        "`repro.durability` `repro.xml.parser.parse` "
        "`repro.core.ertree.ERTree.remove_node` `repro` `repro.nope` "
        "`repro.core.no_such_name` `core/ertree.py`"
    )
    names = [name for _, name in dotted_names(text)]
    assert names == [
        "repro.durability", "repro.xml.parser.parse",
        "repro.core.ertree.ERTree.remove_node", "repro.nope",
        "repro.core.no_such_name",
    ]
    assert [_resolves(name) for name in names] == [True, True, True, False, False]


@pytest.mark.parametrize("document", ["DESIGN.md", "README.md"])
def test_every_dotted_name_resolves(document):
    text = (ROOT / document).read_text("utf-8")
    names = dotted_names(text)
    assert names, f"{document} names no repro.x.y object"
    missing = [
        f"{document}:{line}: {name}" for line, name in names if not _resolves(name)
    ]
    assert not missing, "\n".join(missing)
