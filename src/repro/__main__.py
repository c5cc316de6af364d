"""Command-line interface: ``python -m repro <command> ...``.

A thin operational layer over :class:`~repro.core.database.LazyXMLDatabase`
and :mod:`repro.storage` snapshots:

    python -m repro load doc.xml --db db.json --segments 20 --shape balanced
    python -m repro insert db.json fragment.xml --position 120
    python -m repro remove db.json --position 120 --length 34
    python -m repro query db.json "person//profile/interest" [--count]
    python -m repro join db.json person interest --algorithm std
    python -m repro stats db.json [--metrics] [--json]
    python -m repro compact db.json
    python -m repro dump db.json            # print the document text
    python -m repro fsck db.json            # verify a snapshot / durable dir

Every subcommand can also run against a **durable directory** (write-ahead
journal + atomic checkpoints, see :mod:`repro.durability`) instead of a
plain snapshot by passing the global ``--durable DIR`` flag, in which case
the snapshot-path argument is omitted:

    python -m repro --durable state/ load doc.xml
    python -m repro --durable state/ insert fragment.xml --position 120
    python -m repro --durable state/ query "person//profile/interest"
    python -m repro --durable state/ checkpoint
    python -m repro --durable state/ fsck

In durable mode, mutating commands are journaled (fsynced before the
command reports success) rather than rewriting the whole snapshot; the
``checkpoint`` command folds the journal into the checkpoint file.

**Sharded operation** (:mod:`repro.shard`): ``load --shards N`` with
``--durable`` creates an N-way document-partitioned directory (per-shard
WALs plus a coordinated checkpoint manifest).  A durable directory that
contains ``manifest.json`` is recognised as sharded by *every* command —
``query``/``join``/``stats``/``serve``/``fsck``/``checkpoint`` open it
through :class:`~repro.shard.durable.ShardedDurableDatabase`
automatically.  ``serve --shards N`` on a plain snapshot partitions it at
startup and fans queries out to persistent worker processes:

    python -m repro --durable state/ load doc.xml --shards 4
    python -m repro --durable state/ serve --executor process
    python -m repro serve db.json --shards 4

**Replication** (:mod:`repro.replication`): ``serve --replicas N`` on an
unsharded durable directory streams every committed journal record to N
follower directories under ``<durable>/replicas/`` and adds the
``repl-status`` / ``promote <node>`` shell commands.  Offline, the same
verbs inspect and fail over a cluster that is not being served:

    python -m repro --durable state/ serve --replicas 2
    python -m repro repl-status state/
    python -m repro promote state/replicas/node-1

Offline ``promote`` performs the fenced term bump (persisted in the
node's replication manifest *before* it may accept writes); a stale
primary that comes back sees the higher term and refuses appends.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import LazyXMLDatabase, __version__
from repro.core.join import JoinStatistics
from repro.durability.database import DurableDatabase
from repro.errors import ReproError
from repro.storage import load, save
from repro.workloads.chopper import chop_text

__all__ = ["main", "build_parser"]

#: Positional arguments per command, leftmost first.  When ``--durable`` is
#: given the snapshot-path positional is omitted on the command line, so the
#: parsed values must be shifted one slot to the right.
_POSITIONALS = {
    "insert": ("db", "fragment_file"),
    "remove": ("db",),
    "query": ("db", "expression"),
    "join": ("db", "ancestor_tag", "descendant_tag"),
    "stats": ("db",),
    "compact": ("db",),
    "dump": ("db",),
    "fsck": ("db",),
    "checkpoint": ("db",),
    "serve": ("db",),
    "repl-status": ("db",),
    "promote": ("db",),
}


def _bounded(kind, *, zero_ok: bool):
    """An argparse ``type=`` for a count or a duration: a ``kind`` value
    that is positive, or non-negative when ``zero_ok``."""
    least = "non-negative" if zero_ok else "positive"

    def parse(text: str):
        value = kind(text)
        if not (value > 0 or (zero_ok and value == 0)):
            raise argparse.ArgumentTypeError(f"must be {least}, got {text}")
        return value

    parse.__name__ = f"{least} {kind.__name__}"
    return parse


_POSITIVE = _bounded(int, zero_ok=False)
_COUNT = _bounded(int, zero_ok=True)
_SECONDS = _bounded(float, zero_ok=False)
_SECONDS_OR_ZERO = _bounded(float, zero_ok=True)


class _Parser(argparse.ArgumentParser):
    """Usage errors (unknown subcommand, bad flag) exit 2 with ONE line —
    a scriptable contract, not a usage dump."""

    def error(self, message: str) -> "NoReturn":  # noqa: F821 - doc only
        self.exit(2, f"error: {message} (see {self.prog} --help)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description="Lazy XML Updates database (SIGMOD 2005 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--durable",
        metavar="DIR",
        default=None,
        help="operate on a durable directory (journal + checkpoints) "
        "instead of a snapshot file; omit the snapshot-path argument",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("load", help="build a database from an XML file")
    cmd.add_argument("xml_file", type=Path)
    cmd.add_argument("--db", type=Path, default=None, help="snapshot to write")
    cmd.add_argument("--segments", type=_POSITIVE, default=1)
    cmd.add_argument("--shape", choices=["balanced", "nested"], default="balanced")
    cmd.add_argument(
        "--shards", type=_POSITIVE, default=1,
        help="partition into N shards (requires --durable; creates "
        "per-shard WALs and a coordinated checkpoint manifest)",
    )

    cmd = commands.add_parser("insert", help="insert a fragment file")
    cmd.add_argument("db", nargs="?", default=None)
    cmd.add_argument("fragment_file", nargs="?", default=None)
    cmd.add_argument("--position", type=int, default=None)

    cmd = commands.add_parser("remove", help="remove a character span")
    cmd.add_argument("db", nargs="?", default=None)
    cmd.add_argument("--position", type=int, required=True)
    cmd.add_argument("--length", type=int, required=True)

    cmd = commands.add_parser("query", help="evaluate a path expression")
    cmd.add_argument("db", nargs="?", default=None)
    cmd.add_argument("expression", nargs="?", default=None)
    cmd.add_argument("--count", action="store_true", help="print only the count")
    cmd.add_argument(
        "--twig",
        action="store_true",
        help="evaluate as a twig pattern (branches, wildcards, predicates)",
    )
    cmd.add_argument(
        "--strategy",
        choices=["auto", "twig", "pairwise"],
        default="auto",
        help="twig execution strategy (with --twig; default: planner choice)",
    )

    cmd = commands.add_parser("join", help="run one structural join")
    cmd.add_argument("db", nargs="?", default=None)
    cmd.add_argument("ancestor_tag", nargs="?", default=None)
    cmd.add_argument("descendant_tag", nargs="?", default=None)
    cmd.add_argument("--axis", choices=["descendant", "child"], default="descendant")
    cmd.add_argument("--algorithm", choices=["lazy", "std"], default="lazy")

    cmd = commands.add_parser("stats", help="print database statistics")
    cmd.add_argument("db", nargs="?", default=None)
    cmd.add_argument(
        "--metrics", action="store_true",
        help="also print the process metric catalogue with current values",
    )
    cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit stats (and --metrics snapshot) as one JSON object",
    )

    cmd = commands.add_parser("compact", help="rebuild the index (pack segments)")
    cmd.add_argument("db", nargs="?", default=None)

    cmd = commands.add_parser("dump", help="print the document text")
    cmd.add_argument("db", nargs="?", default=None)

    cmd = commands.add_parser(
        "fsck", help="verify a snapshot file or durable directory"
    )
    cmd.add_argument("db", nargs="?", default=None)

    cmd = commands.add_parser(
        "checkpoint", help="fold a durable directory's journal into its checkpoint"
    )
    cmd.add_argument("db", nargs="?", default=None)

    cmd = commands.add_parser(
        "serve",
        help="serve the database over a line protocol on stdin/stdout "
        "(snapshot isolation, deadlines, backpressure, auto-maintenance)",
    )
    cmd.add_argument("db", nargs="?", default=None)
    cmd.add_argument(
        "--timeout", type=_SECONDS, default=None,
        help="default per-query deadline in seconds",
    )
    cmd.add_argument(
        "--max-rows", type=_COUNT, default=None,
        help="default per-query result-row budget",
    )
    cmd.add_argument("--readers", type=_POSITIVE, default=16,
                     help="concurrent read limit")
    cmd.add_argument(
        "--maintenance-interval", type=_SECONDS_OR_ZERO, default=0.0,
        help="seconds between background pressure checks (0 = only "
        "piggybacked on writes)",
    )
    cmd.add_argument(
        "--max-segments", type=_POSITIVE, default=256,
        help="pressure bound: segment count",
    )
    cmd.add_argument(
        "--max-depth", type=_POSITIVE, default=12,
        help="pressure bound: ER-tree depth",
    )
    cmd.add_argument(
        "--shards", type=_POSITIVE, default=None,
        help="partition a snapshot into N shards at startup (a sharded "
        "durable directory is detected from its manifest instead)",
    )
    cmd.add_argument(
        "--executor", choices=["process", "inprocess"], default="process",
        help="sharded query execution: persistent worker processes "
        "(default) or in-process on the coordinator",
    )
    cmd.add_argument(
        "--replicas", type=_COUNT, default=0,
        help="replicate every committed record to N follower directories "
        "under <durable>/replicas/ (requires an unsharded --durable DIR)",
    )
    cmd.add_argument(
        "--tcp", metavar="HOST:PORT", default=None,
        help="serve the framed TCP protocol on HOST:PORT instead of the "
        "stdin/stdout shell (PORT 0 picks an ephemeral port; SIGTERM or "
        "a 'shutdown' request drains gracefully)",
    )
    cmd.add_argument(
        "--max-conns", type=_POSITIVE, default=128,
        help="TCP: concurrent connection limit (excess connects are shed "
        "with a typed Overloaded)",
    )
    cmd.add_argument(
        "--drain-grace", type=_SECONDS_OR_ZERO, default=5.0,
        help="TCP: seconds to let in-flight requests finish during a "
        "graceful drain before cancelling them",
    )

    cmd = commands.add_parser(
        "repl-status",
        help="print replication manifests, terms and seqs for a cluster "
        "directory (a served --durable dir or a cluster root)",
    )
    cmd.add_argument("db", nargs="?", default=None)

    cmd = commands.add_parser(
        "promote",
        help="fail over to the given node directory: persist a fenced, "
        "strictly higher term in its replication manifest",
    )
    cmd.add_argument("db", nargs="?", default=None)
    cmd.add_argument(
        "--term", type=int, default=None,
        help="explicit new term (default: one above the highest term "
        "found across the node's replication group)",
    )
    return parser


def _shift_positionals(args: argparse.Namespace) -> None:
    """In durable mode the snapshot path is omitted; realign positionals."""
    names = _POSITIONALS.get(args.command)
    if names is None:
        return
    values = [getattr(args, name) for name in names]
    present = [value for value in values if value is not None]
    if len(present) == len(names):
        raise ReproError(
            "--durable replaces the snapshot-path argument; drop "
            f"{present[0]!r} from the command line"
        )
    shifted = [None] + present + [None] * (len(names) - len(present) - 1)
    for name, value in zip(names, shifted):
        setattr(args, name, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ReproError(f"missing required argument: {name}")


def _open(args: argparse.Namespace):
    """Open the database plus a ``persist()`` to call after mutations.

    Snapshot mode rewrites the snapshot atomically; durable mode persists
    through the journal as each op commits, so ``persist`` is a no-op.
    """
    if args.durable:
        directory = Path(args.durable)
        if not directory.is_dir():
            raise OSError(
                f"durable directory {str(directory)!r} does not exist "
                "or is not a directory (create it with: load --durable)"
            )
        if (directory / "manifest.json").exists():
            # A coordinated-checkpoint manifest marks a sharded directory.
            from repro.shard.durable import ShardedDurableDatabase

            sdd = ShardedDurableDatabase(
                directory, executor=getattr(args, "executor", "inprocess")
            )
            return sdd, lambda: None
        return DurableDatabase(directory), lambda: None
    _require(args, "db")
    path = Path(args.db)
    db = load(path)
    return db, lambda: save(db, path)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.durable and args.command != "load":
            _shift_positionals(args)
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Environment problems (unreadable --durable directory, missing
        # input file) are usage-level failures: one line, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "load":
        return _cmd_load(args)
    if args.command == "fsck":
        return _cmd_fsck(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "repl-status":
        return _cmd_repl_status(args)
    if args.command == "promote":
        return _cmd_promote(args)

    db, persist = _open(args)

    if args.command == "insert":
        _require(args, "fragment_file")
        fragment = Path(args.fragment_file).read_text(encoding="utf-8")
        receipt = db.insert(fragment, args.position)
        persist()
        print(f"inserted segment {receipt.sid} at {receipt.gp} (path {receipt.path})")
        return 0

    if args.command == "remove":
        outcome = db.remove(args.position, args.length)
        persist()
        print(
            f"removed {args.length} chars: {len(outcome.report.removed_sids)} "
            f"segment(s) and {outcome.elements_removed} element record(s) gone"
        )
        return 0

    if args.command == "query":
        _require(args, "expression")
        if args.twig:
            records = db.twig_query(args.expression, strategy=args.strategy)
        else:
            records = db.path_query(args.expression)
        if args.count:
            print(len(records))
        else:
            from repro.service.commands import span_row

            for record in records:
                start, end, sid, level = span_row(db, record)
                print(f"{start}\t{end}\tsid={sid} level={level}")
        return 0

    if args.command == "join":
        _require(args, "ancestor_tag", "descendant_tag")
        stats = JoinStatistics()
        kwargs = {"stats": stats} if args.algorithm == "lazy" else {}
        pairs = db.structural_join(
            args.ancestor_tag,
            args.descendant_tag,
            axis=args.axis,
            algorithm=args.algorithm,
            **kwargs,
        )
        print(f"{len(pairs)} pairs")
        if args.algorithm == "lazy":
            print(
                f"cross-segment: {stats.cross_pairs}, "
                f"in-segment: {stats.in_segment_pairs}"
            )
        return 0

    if args.command == "stats":
        return _cmd_stats(args, db)

    if args.command == "compact":
        result = db.compact()
        persist()
        print(
            f"compacted {result.segments_before} -> {result.segments_after} "
            f"segments ({result.elements_relabelled} elements relabelled)"
        )
        return 0

    if args.command == "dump":
        print(db.text)
        return 0

    if args.command == "serve":
        return _cmd_serve(args, db, persist)

    raise AssertionError(f"unhandled command {args.command!r}")


def _stats_payload(args: argparse.Namespace, db) -> dict:
    """The ``stats --json`` object.

    Sharded databases emit ``{"shards": [...], "totals": {...}}`` — one
    entry per shard carrying its read-path cache stats and per-structure
    version counters, plus the aggregated totals.  With a single shard the
    flat single-database keys are *also* kept at the top level, so scripts
    written against the unsharded shape keep parsing.
    """
    from repro.shard.database import ShardedDatabase

    if isinstance(db, ShardedDatabase):
        totals = {
            "documents": len(db.docmap),
            "characters": db.document_length,
            "segments": db.segment_count,
            "elements": db.element_count,
            "tags": len(db.catalog.tags()),
            "sbtree_bytes": db.stats().sbtree_bytes,
            "taglist_bytes": db.stats().taglist_bytes,
            "versions": db.version_counters(),
        }
        if hasattr(db, "epoch"):  # ShardedDurableDatabase
            totals["epoch"] = db.epoch
            totals["last_seqs"] = db.last_seqs
            totals["journal_bytes"] = sum(db.journal_sizes)
        payload = {"shards": db.shard_stats(), "totals": totals}
        if db.n_shards == 1:
            # Compatibility fallback: the unsharded flat keys still parse.
            for key in (
                "characters", "segments", "elements", "tags",
                "sbtree_bytes", "taglist_bytes",
            ):
                payload[key] = totals[key]
        return payload
    log_stats = db.stats()
    payload = {
        "characters": db.document_length,
        "segments": db.segment_count,
        "elements": db.element_count,
        "tags": len(db.log.tags),
        "sbtree_bytes": log_stats.sbtree_bytes,
        "taglist_bytes": log_stats.taglist_bytes,
    }
    if args.durable:
        payload["journal_bytes"] = db.journal_size
        payload["last_seq"] = db.last_seq
    return payload


def _cmd_stats(args: argparse.Namespace, db) -> int:
    """Database size stats, optionally with the process metric catalogue."""
    from repro.obs.metrics import METRICS
    from repro.shard.database import ShardedDatabase

    log_stats = db.stats()
    if args.as_json:
        import json

        payload = _stats_payload(args, db)
        if args.metrics:
            payload["metrics"] = METRICS.snapshot()
            payload["metric_catalogue"] = METRICS.catalogue()
        print(json.dumps(payload, sort_keys=True))
        return 0
    if isinstance(db, ShardedDatabase):
        payload = _stats_payload(args, db)
        totals = payload["totals"]
        print(f"shards:     {db.n_shards}")
        print(f"documents:  {totals['documents']}")
        print(f"characters: {totals['characters']}")
        print(f"segments:   {totals['segments']}")
        print(f"elements:   {totals['elements']}")
        print(f"tags:       {totals['tags']}")
        if "epoch" in totals:
            print(
                f"epoch:      {totals['epoch']} "
                f"(journals {totals['journal_bytes']} B)"
            )
        for entry in payload["shards"]:
            print(
                f"  shard {entry['shard']}: {entry['documents']} doc(s), "
                f"{entry['segments']} segment(s), "
                f"{entry['elements']} element(s)"
            )
        return 0
    print(f"characters: {db.document_length}")
    print(f"segments:   {db.segment_count}")
    print(f"elements:   {db.element_count}")
    print(f"tags:       {len(db.log.tags)}")
    print(f"SB-tree:    {log_stats.sbtree_bytes / 1024:.1f} KB")
    print(f"tag-list:   {log_stats.taglist_bytes / 1024:.1f} KB")
    if args.durable:
        dd: DurableDatabase = db
        print(f"journal:    {dd.journal_size} B (last seq {dd.last_seq})")
    if args.metrics:
        snapshot = METRICS.snapshot()
        state = "enabled" if METRICS.enabled else "disabled"
        print(f"metrics:    {len(snapshot)} instrument(s), recording {state}")
        for entry in METRICS.catalogue():
            name = entry["name"]
            data = snapshot[name]
            if entry["type"] == "histogram":
                value = f"n={data['count']} mean={data['mean']:.4g} max={data['max']:.4g}"
            else:
                value = str(data["value"])
            print(
                f"  {name:<28} {entry['type']:<9} {value:<28} "
                f"[{entry['unit']}] {entry['site']}"
            )
    return 0


def _cmd_serve(args: argparse.Namespace, db, persist) -> int:
    """Run the resilient service shell over stdin/stdout."""
    from repro.service import DatabaseService, PressureThresholds, ServiceConfig
    from repro.service.shell import ServiceShell
    from repro.shard.database import ShardedDatabase

    if isinstance(db, ShardedDatabase):
        if args.shards is not None and db.n_shards != args.shards:
            db.close()
            raise ReproError(
                f"--shards {args.shards} conflicts with the sharded "
                f"directory's manifest ({db.n_shards} shards)"
            )
    elif args.shards is not None and args.shards > 1:
        # Partition the snapshot at startup; writes stay in memory
        # (persist() rewrites nothing for the sharded copy).
        db = ShardedDatabase.from_database(db, args.shards, executor=args.executor)
        persist = lambda: None  # noqa: E731 - deliberate shadowing

    replication = None
    if args.replicas:
        from repro.replication import ReplicationCluster

        if not args.durable:
            raise ReproError("serve --replicas requires --durable DIR")
        if isinstance(db, ShardedDatabase):
            raise ReproError(
                "serve --replicas requires an unsharded durable directory"
            )
        # The cluster owns the durable handle; reopen the directory as the
        # primary node (node 0) with followers under <durable>/replicas/.
        db.close()
        replication = ReplicationCluster(
            Path(args.durable) / "replicas",
            args.replicas,
            primary_dir=Path(args.durable),
        )
        db = None

    config = ServiceConfig(
        read_limit=args.readers,
        default_timeout=args.timeout,
        max_result_rows=args.max_rows,
        thresholds=PressureThresholds(
            max_segments=args.max_segments, max_depth=args.max_depth
        ),
    )
    service = DatabaseService(db, config=config, replication=replication)
    if args.maintenance_interval > 0:
        service.start_maintenance(args.maintenance_interval)
    health = service.health()
    sharding = (
        f", {health['shards']['count']} shard(s) "
        f"[{health['shards']['executor']} executor]"
        if "shards" in health
        else ""
    )
    replicas = (
        f", {len(health['replication']['nodes']) - 1} replica(s) "
        f"at term {health['replication']['term']}"
        if "replication" in health
        else ""
    )
    print(
        f"serving {health['segments']} segment(s), "
        f"{health['elements']} element(s) "
        f"[{'durable' if health['durable'] else 'snapshot'} mode]"
        f"{sharding}{replicas}; "
        "type 'help' for commands",
        file=sys.stderr,
    )
    try:
        if args.tcp:
            _serve_tcp(service, args)
        else:
            ServiceShell(service, sys.stdin, sys.stdout).run()
    finally:
        service.close()
        persist()
    return 0


def _serve_tcp(service, args: argparse.Namespace) -> None:
    """Run the framed TCP front end until SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.net.server import NetServerConfig, TcpServer

    host, _, port_text = args.tcp.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"--tcp wants HOST:PORT, got {args.tcp!r}") from None
    config = NetServerConfig(
        host=host,
        port=port,
        max_conns=args.max_conns,
        drain_grace=args.drain_grace,
    )

    async def main() -> None:
        import contextlib
        import signal

        server = TcpServer(service, config)
        await server.start()
        # Install drain-on-signal *before* the banner: once "listening"
        # is visible, a SIGTERM must drain rather than kill.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, server.request_drain)
        print(
            f"listening on {host}:{server.port} (framed TCP; "
            f"max {config.max_conns} connections); "
            "SIGTERM or a 'shutdown' request drains",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        # Non-unix loops have no signal handlers; the drain contract is
        # still honored by the service-level drain in the caller.
        print("interrupted; draining", file=sys.stderr)


def _cmd_load(args: argparse.Namespace) -> int:
    text = args.xml_file.read_text(encoding="utf-8")
    if args.shards > 1 and not args.durable:
        raise ReproError("load --shards requires --durable DIR")
    if args.durable:
        from repro.durability.recovery import CHECKPOINT_NAME, JOURNAL_NAME
        from repro.shard.durable import MANIFEST_NAME

        directory = Path(args.durable)
        for name in (CHECKPOINT_NAME, JOURNAL_NAME, MANIFEST_NAME):
            existing = directory / name
            if existing.exists() and existing.stat().st_size:
                raise ReproError(
                    f"refusing to load into non-empty durable directory "
                    f"({existing} exists)"
                )
        if args.shards > 1:
            from repro.shard.durable import ShardedDurableDatabase

            db = ShardedDurableDatabase(directory, args.shards)
            _load_into(db, text, args)
            db.checkpoint()
            db.close()
            where = f"sharded durable dir ({args.shards} shards): {directory}"
            print(
                f"loaded {db.element_count} elements into {db.segment_count} "
                f"segment(s); {where}"
            )
            return 0
        db = DurableDatabase(directory)
        _load_into(db, text, args)
        db.checkpoint()
        where = f"durable dir: {directory}"
    else:
        if args.db is None:
            raise ReproError("load requires --db SNAPSHOT (or --durable DIR)")
        db = LazyXMLDatabase()
        _load_into(db, text, args)
        save(db, args.db)
        where = f"snapshot: {args.db}"
    print(
        f"loaded {db.element_count} elements into {db.segment_count} "
        f"segment(s); {where}"
    )
    return 0


def _load_into(db, text: str, args: argparse.Namespace) -> None:
    if args.segments <= 1:
        db.insert(text)
    else:
        chop_text(text, args.segments, args.shape, db=db)


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Verify a snapshot file or durable directory; non-zero on corruption."""
    target = Path(args.durable) if args.durable else None
    if target is None:
        _require(args, "db")
        target = Path(args.db)
    try:
        if target.is_dir() and (target / "manifest.json").exists():
            from repro.shard.durable import ShardedDurableDatabase

            db = ShardedDurableDatabase(target)
            reports = db.recovery_reports()
            detail = (
                f"sharded ({db.n_shards} shards, epoch {db.epoch}); "
                + "; ".join(
                    f"shard {i}: {r.describe()}" for i, r in enumerate(reports)
                )
            )
            if any(r.torn_tail for r in reports):
                print(
                    "fsck: note: torn final journal record discarded",
                    file=sys.stderr,
                )
            db.close()
        elif target.is_dir():
            from repro.durability.recovery import recover

            db, report = recover(target)
            detail = report.describe()
            if report.torn_tail:
                print("fsck: note: torn final journal record discarded", file=sys.stderr)
        else:
            db = load(target)
            detail = f"snapshot, {db.segment_count} segment(s)"
        db.check_invariants()
    except (ReproError, AssertionError, OSError) as exc:
        print(f"fsck: {target}: CORRUPT", file=sys.stderr)
        print(f"fsck: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(
        f"fsck: {target}: ok ({detail}; {db.element_count} elements, "
        f"{db.document_length} chars)"
    )
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    if not args.durable:
        raise ReproError("checkpoint requires --durable DIR")
    directory = Path(args.durable)
    if (directory / "manifest.json").exists():
        from repro.shard.durable import ShardedDurableDatabase

        db = ShardedDurableDatabase(directory)
        before = sum(db.journal_sizes)
        db.checkpoint()
        after = sum(db.journal_sizes)
        epoch = db.epoch
        db.close()
        print(
            f"coordinated checkpoint written: epoch {epoch}, "
            f"{db.n_shards} shard(s) (journals {before} B -> {after} B)"
        )
        return 0
    db = DurableDatabase(args.durable)
    before = db.journal_size
    db.checkpoint()
    after = db.journal_size
    db.close()
    print(
        f"checkpoint written at seq {db.last_seq} "
        f"(journal {before} B -> {after} B)"
    )
    return 0


def _replication_group(directory: Path) -> list[Path]:
    """Node directories of the replication group ``directory`` belongs to.

    Covers both on-disk layouts: a served durable dir with followers under
    ``<dir>/replicas/node-*`` (the dir itself is node 0), and a bare
    cluster root whose nodes are ``<dir>/node-*`` — plus the view from
    inside one node directory (siblings, and the ``replicas/`` parent's
    owner).  Only directories holding a replication manifest qualify.
    """
    from repro.replication import read_replication_manifest

    candidates = [directory]
    candidates += sorted(directory.glob("node-*"))
    candidates += sorted((directory / "replicas").glob("node-*"))
    candidates += sorted(directory.parent.glob("node-*"))
    if directory.parent.name == "replicas":
        candidates.append(directory.parent.parent)
    group, seen = [], set()
    for path in candidates:
        key = path.resolve()
        if key in seen or not path.is_dir():
            continue
        seen.add(key)
        try:
            manifest = read_replication_manifest(path)
        except ReproError:
            continue
        if manifest is not None:
            group.append(path)
    return group


def _node_replication_status(directory: Path) -> dict:
    """One node's manifest plus its durable seqs, read without opening
    (and thereby recovering) the database — safe on a live node."""
    import json

    from repro.durability.recovery import CHECKPOINT_NAME, JOURNAL_NAME
    from repro.durability.wal import read_journal
    from repro.replication import read_replication_manifest

    manifest = read_replication_manifest(directory)
    checkpoint_seq = 0
    checkpoint = directory / CHECKPOINT_NAME
    if checkpoint.exists():
        try:
            envelope = json.loads(checkpoint.read_text(encoding="utf-8"))
            checkpoint_seq = int(envelope.get("last_seq", 0))
        except (ValueError, TypeError):
            checkpoint_seq = -1  # unreadable checkpoint: flagged, not fatal
    scan = read_journal(directory / JOURNAL_NAME)
    last_seq = max(
        checkpoint_seq, *(r["seq"] for r in scan.records), 0
    ) if scan.records else max(checkpoint_seq, 0)
    return {
        "directory": str(directory),
        "node": manifest["node"],
        "term": manifest["term"],
        "role": manifest["role"],
        "checkpoint_seq": checkpoint_seq,
        "last_seq": last_seq,
        "journal_records": len(scan.records),
        "torn_tail": scan.torn_tail,
    }


def _cmd_repl_status(args: argparse.Namespace) -> int:
    import json

    directory = Path(args.durable) if args.durable else None
    if directory is None:
        _require(args, "db")
        directory = Path(args.db)
    if not directory.is_dir():
        raise OSError(f"{str(directory)!r} is not a directory")
    group = _replication_group(directory)
    if not group:
        print(
            f"error: no replication manifests under {directory} "
            "(serve with --replicas N first)",
            file=sys.stderr,
        )
        return 1
    nodes = [_node_replication_status(path) for path in group]
    nodes.sort(key=lambda entry: entry["node"])
    top_seq = max(entry["last_seq"] for entry in nodes)
    payload = {
        "term": max(entry["term"] for entry in nodes),
        "primary": [
            entry["node"] for entry in nodes if entry["role"] == "primary"
        ],
        "lag": {
            str(entry["node"]): top_seq - entry["last_seq"] for entry in nodes
        },
        "nodes": nodes,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from repro.replication import advance_term, read_replication_manifest

    directory = Path(args.durable) if args.durable else None
    if directory is None:
        _require(args, "db")
        directory = Path(args.db)
    if not directory.is_dir():
        raise OSError(f"{str(directory)!r} is not a directory")
    manifest = read_replication_manifest(directory)
    if manifest is None:
        raise ReproError(
            f"{directory} has no replication manifest; promote targets a "
            "replica node directory (e.g. <durable>/replicas/node-1)"
        )
    group = _replication_group(directory)
    highest = max(
        read_replication_manifest(path)["term"] for path in group
    )
    new_term = args.term if args.term is not None else highest + 1
    advance_term(
        directory, node=manifest["node"], new_term=new_term, role="primary"
    )
    print(
        f"node {manifest['node']} promoted to primary at term {new_term} "
        f"(was {manifest['role']} at term {manifest['term']}; "
        f"group high term was {highest})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
