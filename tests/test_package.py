"""Package-level tests: public exports, error hierarchy, versioning."""

from __future__ import annotations

import argparse
import ast
import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import errors


class TestExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_top_level_all_resolvable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_core_all_resolvable(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name, None) is not None, name

    def test_subpackage_all_resolvable(self):
        import repro.bench as bench
        import repro.btree as btree
        import repro.joins as joins
        import repro.labeling as labeling
        import repro.workloads as workloads
        import repro.xml as xml

        for module in (btree, xml, joins, labeling, workloads, bench):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module, name)

    def test_quickstart_docstring_example(self):
        from repro import LazyXMLDatabase

        db = LazyXMLDatabase()
        db.insert("<article><title/><author/></article>")
        db.insert("<author><name/></author>", position=db.text.index("<author/>"))
        pairs = db.structural_join("article", "author")
        assert len(pairs) == 2


def test_library_names_no_repro_environment_variable():
    """``src/repro`` has one configuration: no ``REPRO_*`` switch.

    ``benchmarks/e2e/run.py`` measures the program with every ``REPRO_*``
    variable scrubbed from the environment; that is the only program
    there is as long as no module names one.  A string constant that *is*
    such a name (however it reaches ``os.environ``) fails here, so the
    next switch arrives with a deliberate edit to this test and a
    measured workload that needs it, not unannounced.
    """
    name = re.compile(r"REPRO_\w*")
    found = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and name.fullmatch(node.value)
            ):
                found.append(f"{path.name}:{node.lineno} {node.value}")
    assert not found, found


def test_element_data_has_one_home():
    """``src/repro`` keeps each fact once: a segment's elements in
    ``ElementIndex``, a segment by sid in the ER-tree's registry, and a
    tag's segments in the tag list's node list and count map.

    The B+-tree serves the interval-labeling baseline only, and the names
    of the copies that used to shadow those homes occur nowhere — not in
    code, not in prose: the database's parse cache, the read path's
    element table and its bulk-compile plumbing; the SB-tree's B+-tree
    and the read path's lp memo; the tag list's entry records and the
    path summary's count memo; the bench-only LS reset.  A second home
    arrives with a deliberate edit to this test, not unannounced.
    """
    root = Path(repro.__file__).parent
    gone = re.compile(
        r"_segment_elements|tag_columns|bulk_elements|warm_tag"
        r"|SBTree|\.sbtree\b|\b_lps\b|\blp_of\b|TagEntry|mark_stale"
        r"|\b_segment_counts\b"
    )
    importers, found = [], []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        found += [
            f"{path.name}:{number} {line.strip()}"
            for number, line in enumerate(text.splitlines(), 1)
            if gone.search(line)
        ]
        if path.parent.name != "btree" and any(
            alias.name == "BPlusTree"
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        ):
            importers.append(path.relative_to(root).as_posix())
    assert not found, found
    assert importers == ["labeling/interval.py"]


#: Library names only tests read, each with why it stays in ``src/``.
READ_ONLY_BY_TESTS = {
    "core.database.LazyXMLDatabase.oracle_join":
        "oracle: the text-reparse join every join test compares against",
    "xml.parser.is_well_formed":
        "oracle: the well-formedness verdict the removal tests compare against",
    "xml.model.XMLElement.contains":
        "oracle: Def. 1 containment the chopper tests check nesting with",
    "labeling.prime.PrimeLabeling.is_ancestor":
        "oracle: the divisibility test that shows PRIME labels are right",
    "shard.executor.ProcessExecutor.respawn":
        "recovery verb: the killed-worker drill restarts a worker",
    "durability.hooks.set_failpoint":
        "failpoint setter: the crash matrices arm a failpoint",
    "durability.hooks.clear_failpoint":
        "failpoint setter: the crash matrices disarm one failpoint",
    "durability.hooks.clear_all_failpoints":
        "failpoint setter: the fixtures disarm every failpoint",
    "shard.database.ShardedDatabase.flush_caches":
        "reset hook: drills drop the scatter cache to reach a dead worker",
    "obs.metrics.MetricsRegistry.reset":
        "reset hook: metric tests start from zeroed instruments",
    "service.context.QueryContext.ticks":
        "introspection: the budget tests count checkpoints",
    "btree.bptree.BPlusTree.node_count":
        "introspection: the B+-tree tests check splits and bulk loads",
    "labeling.interval.IntervalLabelingIndex.all_records":
        "introspection: the relabeling tests read every label",
    "workloads.generator.generate_fragment":
        "test input generator: random well-formed fragments",
}


#: The callbacks an event loop makes on an ``asyncio.Protocol``, by name.
_LOOP_CALLBACKS = {name for name in dir(asyncio.Protocol) if name[0] != "_"}


def _library_names(root: Path):
    """``(name, path, first line, last line)`` of every top-level and
    class-level ``def`` and ``class`` under ``src/repro`` (dunders and
    :data:`_LOOP_CALLBACKS` are called implicitly, so they have no reader
    to find)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()
        module = module.replace("/", ".")
        for node in ast.parse(path.read_text("utf-8")).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for prefix, defn in [(module, node)] + [
                (f"{module}.{node.name}", member) for member in members
            ]:
                if isinstance(defn, kinds) and not (
                    defn.name.startswith("__") and defn.name.endswith("__")
                    or defn.name in _LOOP_CALLBACKS
                ):
                    yield (f"{prefix}.{defn.name}", path, defn.lineno,
                           defn.end_lineno)


def test_every_library_name_has_a_reader():
    """Every ``def`` and ``class`` in ``src/repro`` is read by the library,
    the benchmarks or the examples — or is in :data:`READ_ONLY_BY_TESTS`
    with its reason.

    A read is a loaded ``Name`` or ``Attribute`` under ``src/``,
    ``benchmarks/`` or ``examples/`` outside the name's own body (an import
    or an ``__all__`` entry re-exports, it does not read).  Names match by
    spelling, so a method shares readers with every namesake: the check
    finds what nothing can reach, not every dead path.
    """
    root = Path(__file__).resolve().parents[1]
    reads: dict[str, list[tuple[Path, int]]] = {}
    for folder in ("src", "benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    reads.setdefault(node.attr, []).append((path, node.lineno))
    unread = sorted(
        name
        for name, path, first, last in _library_names(root)
        if not any(
            where != path or not first <= line <= last
            for where, line in reads.get(name.rsplit(".", 1)[1], ())
        )
    )
    unlisted = sorted(set(unread) - set(READ_ONLY_BY_TESTS))
    assert not unlisted, unlisted
    stale = sorted(set(READ_ONLY_BY_TESTS) - set(unread))
    assert not stale, f"read by the library now, or gone: {stale}"
    assert len(READ_ONLY_BY_TESTS) <= 20


def test_every_metric_has_a_reader():
    """Each event is counted once, where the work happens.

    Every ``METRICS.counter``/``METRICS.histogram`` registered under
    ``src/repro`` is either a ``unit="seconds"`` histogram (a per-layer
    latency no object keeps) or read by name — a string constant equal to
    its name — outside its registration, in ``src/``, ``benchmarks/`` or a
    test other than this file.  A count an object already keeps belongs to
    that object's ``stats()``/``metrics()``, not a registry mirror.  The
    per-structure replica flag that only kept mutation-path mirrors from
    double-counting is gone with them.
    """
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "repro"
    registered: dict[str, tuple[Path, int, int]] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "METRICS"
                and node.func.attr in ("counter", "gauge", "histogram")
            ):
                continue
            where = f"{path.relative_to(root)}:{node.lineno}"
            assert node.args and isinstance(node.args[0], ast.Constant), (
                f"{where}: a metric name must be a string literal"
            )
            units = [k.value for k in node.keywords if k.arg == "unit"]
            latency = node.func.attr == "histogram" and [
                getattr(unit, "value", None) for unit in units
            ] == ["seconds"]
            if not latency:
                registered[node.args[0].value] = (path, node.lineno, node.end_lineno)
    reads: dict[str, list[tuple[Path, int]]] = {}
    for folder in ("src", "benchmarks", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Constant) and node.value in registered:
                    reads.setdefault(node.value, []).append((path, node.lineno))
    unread = sorted(
        name
        for name, (path, first, last) in registered.items()
        if not any(
            where != path or not first <= line <= last
            for where, line in reads.get(name, ())
        )
    )
    assert not unread, unread

    gone = re.compile(
        r"set_observed|\.observed\b|from_registry|publish_gauges|publish_fanout"
        r"|SIZE_BUCKETS"
    )
    found = [
        f"{path.relative_to(package)}:{number} {line.strip()}"
        for path in sorted(package.rglob("*.py"))
        for number, line in enumerate(path.read_text("utf-8").splitlines(), 1)
        if gone.search(line)
    ]
    assert not found, found


#: Defaulted parameters of the serving stack that only tests set, each
#: with why the keyword stays.
SET_ONLY_BY_TESTS = {
    "service.server.DatabaseService(clock)":
        "test-fake seam: deadline tests drive a fake clock",
}

#: The serving stack the keyword guard walks: packages above the core.
_SERVING_STACK = ("durability", "shard", "service", "net")


def test_serving_stack_never_loads_shard(tmp_path):
    """A served database is one database: building and closing a
    ``DatabaseService`` over a plain and over a durable primary, and
    importing the CLI and the TCP server, loads no ``repro.shard`` module.
    Runs in a fresh interpreter, where nothing else imported it first."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from repro.core.database import LazyXMLDatabase\n"
        "from repro.durability.database import DurableDatabase\n"
        "from repro.service import DatabaseService\n"
        "DatabaseService(LazyXMLDatabase()).close()\n"
        f"DatabaseService(DurableDatabase({str(tmp_path / 'state')!r})).close()\n"
        "import repro.__main__, repro.net.server\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.shard')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root,
        env={"PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _keyword_walk(root: Path):
    """The defaulted parameters of every ``def`` in the serving stack (and
    ``__main__.py``) that no call under ``src/``, ``benchmarks/`` or
    ``examples/`` sets, as ``module.Qual.name(parameter)``.  A frozen
    ``@dataclass``'s fields are the parameters of its constructor, the
    only place they can be set: a field with a default is a keyword like
    any other.  (A mutable dataclass's fields are also assigned after
    construction, as ``RecoveryReport``'s counts are, so its constructor
    is not where a setting would show.)

    A def is called by its name, or by its class's name for ``__init__``
    (``super().__init__`` names the base classes).  A call sets a
    parameter by keyword, by positional count, or through ``*``/``**``.
    A ``name=name`` forward of the caller's own parameter (and a ``**kw``
    forward of its own ``**kw``) sets the callee's parameter only if the
    caller's is set itself — by a call, or by the tests that
    :data:`SET_ONLY_BY_TESTS` names — so sets are resolved to a fixed
    point.
    """
    defs, calls = [], []

    def visit(node, module, cls, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_frozen_dataclass(child):
                    defs.append(_dataclass_defn(child, module))
                visit(child, module, child, enclosing)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = node is cls and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list
                )
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                positional = positional[1:] if method else positional
                named = positional + [a.arg for a in args.kwonlyargs]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                ]
                init = method and child.name == "__init__"
                owner = f"{module}.{cls.name}" if method else module
                defn = {
                    "key": owner if init else f"{owner}.{child.name}",
                    "callee": cls.name if init else child.name,
                    "positional": positional,
                    "named": set(named),
                    "required": set(named) - set(defaulted),
                    "defaulted": defaulted,
                    "kwarg": args.kwarg.arg if args.kwarg else None,
                    "set": set(),
                    "any": False,
                }
                defs.append(defn)
                visit(child, module, cls, defn)
            else:
                if isinstance(child, ast.Call):
                    calls.append((child, cls, enclosing))
                visit(child, module, cls, enclosing)

    guarded = []
    for folder in ("src", "benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            module = path.relative_to(root / folder).with_suffix("").as_posix()
            module = module.removeprefix("repro/").replace("/", ".")
            start = len(defs)
            visit(ast.parse(path.read_text("utf-8")), module, None, None)
            if folder == "src" and (
                module.split(".")[0] in _SERVING_STACK or module == "__main__"
            ):
                guarded += defs[start:]
    by_callee: dict[str, list[dict]] = {}
    for defn in defs:
        by_callee.setdefault(defn["callee"], []).append(defn)

    def callees(call, cls):
        func = call.func
        if isinstance(func, ast.Name):
            return by_callee.get(func.id, [])
        if not isinstance(func, ast.Attribute):
            return []
        if (
            func.attr == "__init__" and cls is not None
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
        ):
            bases = [getattr(b, "id", getattr(b, "attr", "")) for b in cls.bases]
            return [d for base in bases for d in by_callee.get(base, [])]
        return by_callee.get(func.attr, [])

    def called_with(defn, name):
        return name in defn["required"] or name in defn["set"] or defn["any"]

    def is_set(defn, name):
        return called_with(defn, name) or (
            f"{defn['key']}({name})" in SET_ONLY_BY_TESTS
        )

    changed = True
    while changed:
        changed = False
        for call, cls, caller in calls:
            for defn in callees(call, cls):
                before = (len(defn["set"]), defn["any"])
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                count = len(defn["positional"]) if starred else len(call.args)
                defn["set"].update(defn["positional"][:count])
                for kw in call.keywords:
                    name = getattr(kw.value, "id", None) if caller else None
                    if kw.arg is None:
                        if name is not None and name == caller["kwarg"]:
                            defn["set"] |= caller["set"] - caller["named"]
                            defn["any"] |= caller["any"]
                        else:
                            defn["any"] = True
                    elif (
                        kw.arg != name or kw.arg not in caller["named"]
                        or is_set(caller, kw.arg)
                    ):
                        defn["set"].add(kw.arg)
                changed |= before != (len(defn["set"]), defn["any"])
    return sorted(
        f"{defn['key']}({name})"
        for defn in guarded
        for name in defn["defaulted"]
        if not called_with(defn, name)
    )


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        and any(
            kw.arg == "frozen" and getattr(kw.value, "value", False) is True
            for kw in d.keywords
        )
        for d in cls.decorator_list
    )


def _dataclass_defn(cls: ast.ClassDef, module: str) -> dict:
    """A dataclass's generated ``__init__`` as a :func:`_keyword_walk`
    def: its fields in order, those with a default defaulted."""
    positional, defaulted = [], []
    for stmt in cls.body:
        if not (
            isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        ):
            continue
        value = stmt.value
        is_field = (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
        )
        options = {kw.arg: kw.value for kw in value.keywords} if is_field else {}
        if getattr(options.get("init"), "value", True) is False:
            continue
        positional.append(stmt.target.id)
        if value is not None and (
            not is_field or {"default", "default_factory"} & set(options)
        ):
            defaulted.append(stmt.target.id)
    return {
        "key": f"{module}.{cls.name}",
        "callee": cls.name,
        "positional": positional,
        "named": set(positional),
        "required": set(positional) - set(defaulted),
        "defaulted": defaulted,
        "kwarg": None,
        "set": set(),
        "any": False,
    }


def test_every_keyword_has_a_setter():
    """Every defaulted parameter of a ``def`` in the serving stack
    (``durability``, ``shard``, ``service``, ``net``) and
    ``__main__.py`` is set by some call under ``src/``, ``benchmarks/`` or
    ``examples/`` — or is in :data:`SET_ONLY_BY_TESTS` with its reason.

    A keyword nothing but a test sets is a switch with one production
    value: the value is the program, and the keyword goes.  Callees match
    by spelling, as in :func:`test_every_library_name_has_a_reader`.
    """
    unset = _keyword_walk(Path(__file__).resolve().parents[1])
    unlisted = sorted(set(unset) - set(SET_ONLY_BY_TESTS))
    assert not unlisted, unlisted
    stale = sorted(set(SET_ONLY_BY_TESTS) - set(unset))
    assert not stale, f"set by the library now, or gone: {stale}"
    assert len(SET_ONLY_BY_TESTS) <= 5


def test_package_map_is_current():
    """DESIGN.md §2's package map has one row per package under
    ``src/repro``, and names only gated workloads (``BENCHMARK.json``),
    figure ids (``FIGURES``) and test files that exist."""
    from repro.bench.experiments import FIGURES

    root = Path(__file__).resolve().parents[1]
    design = (root / "DESIGN.md").read_text("utf-8")
    section = design.split("### Package map", 1)[1].split("\n#", 1)[0]
    rows = [
        [re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    packages = sorted(
        f"{path.parent.name}/"
        for path in (root / "src" / "repro").glob("*/__init__.py")
    )
    assert sorted(row[0][0] for row in rows) == packages
    workloads = {
        entry["name"]
        for entry in json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    }
    for package, named_workloads, figures, tests in rows:
        assert set(named_workloads) <= workloads, package
        assert set(figures) <= set(FIGURES), package
        assert tests and all((root / name).is_file() for name in tests), package


def test_front_ends_own_no_verb():
    """The shell and the CLI are codecs over the verb table.  The shell
    defines no ``_cmd_*`` and imports nothing from ``repro.net``; ``help``
    is the table, so every verb (a new one included) appears in it.  Every
    verb is a CLI subcommand the table built, and ``__main__`` defines no
    handler named after one."""
    from repro import __main__ as cli
    from repro.service import DatabaseService, commands, shell

    assert not [name for name in vars(shell.ServiceShell) if name.startswith("_cmd_")]
    assert not [name for name in vars(DatabaseService) if name.startswith("trace_")]
    tree = ast.parse(Path(shell.__file__).read_text(encoding="utf-8"))
    imported = [
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    assert not [name for name in imported if name.startswith("repro.net")]
    rows = commands.reference().splitlines()
    assert [row.split()[0] for row in rows] == list(commands.COMMANDS)

    table_verbs = set(commands.COMMANDS)
    subcommands = next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for verb in table_verbs:
        assert subcommands[verb].get_default("run") is cli._run_verb, verb
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = {
        node.name.lstrip("_").removeprefix("cmd_")
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert not handlers & {verb.replace("-", "_") for verb in table_verbs}


def test_one_benchmark_estate():
    """Two measuring programs and nothing else: ``benchmarks/e2e`` (the
    gated end-to-end benchmark) and ``benchmarks/figures.py`` (the paper's
    figures from one registry).  No committed result JSON that nothing
    re-measures, and no pytest-benchmark target anywhere."""
    root = Path(__file__).resolve().parents[1]
    held = {p.name for p in (root / "benchmarks").iterdir()} - {"__pycache__"}
    assert held == {"e2e", "figures.py"}
    assert not list(root.glob("BENCH_*.json"))
    requests = []
    for folder in ("tests", "benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
                    if any(arg.arg == "benchmark" for arg in node.args.args):
                        requests.append(f"{path.name}:{node.lineno} {node.name}")
    assert not requests, requests


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "name",
        [
            "XMLSyntaxError",
            "UpdateError",
            "SegmentNotFoundError",
            "InvalidSegmentError",
            "IndexError_",
            "KeyNotFoundError",
            "QueryError",
            "LabelingError",
        ],
    )
    def test_all_derive_from_repro_error(self, name):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)

    def test_xml_syntax_error_offset(self):
        exc = errors.XMLSyntaxError("bad", offset=17)
        assert exc.offset == 17
        assert "17" in str(exc)

    def test_xml_syntax_error_without_offset(self):
        exc = errors.XMLSyntaxError("bad")
        assert exc.offset is None

    def test_segment_not_found_carries_sid(self):
        exc = errors.SegmentNotFoundError(42)
        assert exc.sid == 42
        assert "42" in str(exc)

    def test_key_not_found_carries_key(self):
        exc = errors.KeyNotFoundError((1, 2))
        assert exc.key == (1, 2)

    def test_snapshot_error_is_repro_error(self):
        from repro.storage import SnapshotError

        assert issubclass(SnapshotError, errors.ReproError)

    def test_catching_base_class_covers_library_failures(self):
        from repro import LazyXMLDatabase

        db = LazyXMLDatabase()
        failures = 0
        for action in (
            lambda: db.insert("<bad"),
            lambda: db.remove(0, 10),
            lambda: db.structural_join("a", "b", axis="nope"),
            lambda: db.log.node(99),
        ):
            try:
                action()
            except errors.ReproError:
                failures += 1
        assert failures == 4
