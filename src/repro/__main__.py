"""Command-line interface: ``python -m repro <command> TARGET ...``.

TARGET is a snapshot file or a durable directory, and the target itself
says which: a directory is durable (write-ahead journal + atomic
checkpoints, :mod:`repro.durability`), and anything else is a snapshot
file (:mod:`repro.storage`).

**Table verbs.**  Every verb of the service's table
(:data:`repro.service.commands.COMMANDS`) is a subcommand, and the CLI is
one more codec over it, like the ``serve`` shell.
``python -m repro <verb> TARGET <words...> [--<field> VALUE]`` opens
TARGET, wraps it in a :class:`~repro.service.server.DatabaseService`, runs
the request the shell line ``<verb> <words...>`` stands for and prints the
reply exactly as the shell prints it.  ``--<field>`` sets a field only the
wire reaches, such as ``--limit``.  After a write or maintenance verb a
snapshot target is saved; a durable target journaled the op before the
reply.

    python -m repro insert db.json 120 '<interest topic="x"/>'   # or: end
    python -m repro remove db.json 120 34
    python -m repro query db.json 'person[profile]//interest' [--limit 0]
    python -m repro join db.json person interest [child]
    python -m repro stats state/            # health + metric catalogue, JSON
    python -m repro compact db.json

``query`` takes any pattern of the one grammar (:mod:`repro.twig.pattern`):
a path or a twig; ``twig`` is another name for it.  A bad or missing field
is one ``error: ...`` line and exit 2, like any other usage error; any
other refusal (a malformed pattern too) is exit 1.

**Commands with no verb:**

    python -m repro load doc.xml --db db.json --segments 20 --shape balanced
    python -m repro load doc.xml --durable state/
    python -m repro dump db.json            # print the document text
    python -m repro checkpoint state/       # fold the journal into a checkpoint
    python -m repro fsck state/             # read-only check: exit 0 ok, 1 corrupt
    python -m repro serve state/ [--tcp HOST:PORT]

``serve`` runs the verb table over stdin/stdout (or framed TCP) for a
whole session.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import LazyXMLDatabase, __version__
from repro.durability.database import DurableDatabase
from repro.errors import ProtocolError, ReproError
from repro.service import DatabaseService
from repro.service.commands import (
    COMMANDS,
    SessionState,
    execute_request,
    line_fields,
    line_request,
    render_reply,
)
from repro.storage import load, save
from repro.workloads.chopper import chop_text

__all__ = ["main", "build_parser"]

_TARGET = "snapshot file or durable directory"


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


def _wire_fields(verb: str) -> list:
    """The verb's fields no shell line reaches: its ``--<name>`` options."""
    line = line_fields(verb) or ()
    return [field for field in COMMANDS[verb].fields if field not in line]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description="Lazy XML Updates database (SIGMOD 2005 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("load", help="build a database from an XML file")
    cmd.add_argument("xml_file", type=Path)
    into = cmd.add_mutually_exclusive_group(required=True)
    into.add_argument("--db", type=Path, help="snapshot file to write")
    into.add_argument(
        "--durable", type=Path, metavar="DIR", help="durable directory to create"
    )
    cmd.add_argument("--segments", type=_POSITIVE, default=1)
    cmd.add_argument("--shape", choices=["balanced", "nested"], default="balanced")
    cmd.set_defaults(run=_cmd_load)

    for name, run, text in (
        ("dump", _cmd_dump, "print the document text"),
        ("checkpoint", _cmd_checkpoint,
         "fold a durable directory's journal into its checkpoint"),
        ("fsck", _cmd_fsck,
         "verify a snapshot file or durable directory (read-only)"),
    ):
        cmd = commands.add_parser(name, help=text)
        cmd.add_argument("target", type=Path, help=_TARGET)
        cmd.set_defaults(run=run)

    cmd = commands.add_parser(
        "serve",
        help="serve the database over a line protocol on stdin/stdout "
        "(snapshot isolation, deadlines, backpressure)",
    )
    cmd.add_argument("target", type=Path, help=_TARGET)
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
    cmd.set_defaults(run=_cmd_serve)

    for verb, entry in COMMANDS.items():
        cmd = commands.add_parser(verb, help=entry.doc)
        cmd.add_argument("target", type=Path, help=_TARGET)
        if line_fields(verb) is not None:
            cmd.add_argument(
                "words", nargs="*", help="the shell line's words after the verb"
            )
        for field in _wire_fields(verb):
            cmd.add_argument(
                f"--{field.name}",
                type=json.loads if field.kind == "ops" else str,
                help=f"the wire-only {field.kind} field {field.name!r}",
            )
        cmd.set_defaults(run=_run_verb)
    return parser


def _open(target: Path):
    """The database TARGET names: a directory is durable, and anything
    else is a snapshot file."""
    if target.is_dir():
        return DurableDatabase(target)
    if not target.is_file():
        raise OSError(
            f"{str(target)!r} is neither a snapshot file nor a durable directory"
        )
    return load(target)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ProtocolError, OSError) as exc:
        # Usage-level failures (a bad or missing field, an unreadable
        # target or input file): one line, exit 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_verb(args: argparse.Namespace) -> int:
    """A table verb: the shell line ``<verb> <words...>`` against TARGET."""
    verb = args.command
    request = (
        line_request(verb, " ".join(args.words)) if "words" in args
        else {"cmd": verb}
    )
    for field in _wire_fields(verb):
        value = getattr(args, field.name)
        if value is not None:
            request[field.name] = value
    service = DatabaseService(_open(args.target))
    try:
        reply = execute_request(service, SessionState(0), request)
    finally:
        service.close()
    if COMMANDS[verb].kind in ("write", "maintenance") and not args.target.is_dir():
        save(service.primary, args.target)
    print("\n".join(render_reply(verb, reply)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the resilient service shell over stdin/stdout."""
    from repro.service import ServiceConfig
    from repro.service.shell import ServiceShell

    snapshot = not args.target.is_dir()
    config = ServiceConfig(
        read_limit=args.readers,
        default_timeout=args.timeout,
        max_result_rows=args.max_rows,
    )
    # The service owns the database: the save below reads service.primary.
    service = DatabaseService(_open(args.target), config=config)
    health = service.health()
    print(
        f"serving {health['segments']} segment(s), "
        f"{health['elements']} element(s) "
        f"[{'durable' if health['durable'] else 'snapshot'} mode]; "
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
        if snapshot:
            # The service's writer buffer, caught up: the object passed in
            # may be a write behind.
            save(service.primary, args.target)
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
    try:
        text = args.xml_file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{str(args.xml_file)!r} is not UTF-8 text: {exc}") from exc
    if args.durable is None:
        db, where = LazyXMLDatabase(), f"snapshot: {args.db}"
    else:
        from repro.durability.recovery import CHECKPOINT_NAME, JOURNAL_NAME

        for name in (CHECKPOINT_NAME, JOURNAL_NAME):
            existing = args.durable / name
            if existing.exists() and existing.stat().st_size:
                raise ReproError(
                    f"refusing to load into non-empty durable directory "
                    f"({existing} exists)"
                )
        db = DurableDatabase(args.durable)
        where = f"durable dir: {args.durable}"
    if args.segments <= 1:
        db.insert(text)
    else:
        chop_text(text, args.segments, args.shape, db=db)
    if args.durable is None:
        save(db, args.db)
    else:
        db.checkpoint()
        db.close()
    print(
        f"loaded {db.element_count} elements into {db.segment_count} "
        f"segment(s); {where}"
    )
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    db = _open(args.target)
    print(db.text)
    if args.target.is_dir():
        db.close()
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    if args.target.is_file():
        raise ReproError(
            f"checkpoint needs a durable directory; {str(args.target)!r} "
            "is a snapshot file"
        )
    db = _open(args.target)
    before = db.journal_size
    db.checkpoint()
    after = db.journal_size
    db.close()
    print(f"checkpoint written: {args.target} (journal {before} B -> {after} B)")
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Verify a snapshot file or durable directory; non-zero on corruption."""
    target = args.target
    try:
        if target.is_dir():
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


if __name__ == "__main__":
    raise SystemExit(main())
