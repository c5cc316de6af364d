"""Line-oriented serving loop for ``python -m repro serve``.

One command per line on the input stream, one ``ok``/``error`` report per
command on the output stream — a deliberately plain protocol that works
over a pipe, a terminal, or a test harness without any dependency beyond
the standard library.  All database access goes through the
:class:`~repro.service.server.DatabaseService`, so every command gets the
service's admission control, snapshot isolation, deadlines, and graceful
degradation; a ``Busy`` or ``DeadlineExceeded`` is reported and the loop
keeps serving.

Commands::

    query <path-expression>          count + spans of matches
    twig <twig-expression>           branching-pattern query (holistic)
    join <anc> <desc> [algorithm]    structural join (default: lazy)
    insert <position|end> <xml...>   insert the rest of the line
    remove <position> <length>       remove a character span
    trace query <path-expression>    run a query, print per-span timings
    trace twig <twig-expression>     run a twig query, print spans
    trace join <anc> <desc> [algo]   run a join, print per-span timings
    repack <sid> | compact           breaker-guarded maintenance
    maintain                         sample pressure, run the plan
    pressure | health | stats        JSON status output
    repl-status                      replication term/lag/role per node
    promote <node>                   fail over to a follower (fenced term)
    shutdown                         graceful drain, then exit
    help | quit | exit
"""

from __future__ import annotations

import json

from repro.errors import ReproError, ServiceClosed
from repro.service.server import DatabaseService

__all__ = ["ServiceShell"]

_HELP = (
    "commands: query <expr> | twig <expr> | join <anc> <desc> [algo] | "
    "insert <pos|end> <xml> | remove <pos> <len> | "
    "trace query <expr> | trace twig <expr> | "
    "trace join <anc> <desc> [algo] | "
    "repack <sid> | compact | "
    "maintain | pressure | health | stats | "
    "repl-status | promote <node> | shutdown | help | quit"
)


class ServiceShell:
    """Executes shell commands against a :class:`DatabaseService`.

    ``run()`` drains the input stream; ``handle(line)`` executes one
    command and returns ``False`` when the session should end (making the
    protocol unit-testable without threads or pipes).
    """

    def __init__(self, service: DatabaseService, in_stream, out_stream):
        self.service = service
        self._in = in_stream
        self._out = out_stream

    def run(self) -> None:
        """Serve until EOF, ``quit``/``shutdown``, or Ctrl-C.

        Every exit path ends in :meth:`drain`: the service refuses new
        requests with a typed :class:`~repro.errors.Draining` while
        admitted work (background maintenance included) finishes — the
        same graceful-drain contract as the TCP front end, and never a
        raw traceback on the operator's terminal.
        """
        try:
            for line in self._in:
                if not self.handle(line):
                    break
        except KeyboardInterrupt:
            self._print("ok interrupted; draining")
        finally:
            self.drain()

    def drain(self) -> None:
        """Stop accepting new work; in-flight requests finish normally.

        Safe to call repeatedly and on an already-closed service (the
        caller owns the final ``close()``).
        """
        try:
            self.service.begin_drain()
        except Exception:  # pragma: no cover - nothing to drain
            pass

    def handle(self, line: str) -> bool:
        line = line.strip()
        if not line:
            return True
        verb, _, rest = line.partition(" ")
        verb = verb.lower()
        if verb in ("quit", "exit"):
            self._print("ok bye")
            return False
        if verb == "shutdown":
            self.drain()
            self._print("ok draining; bye")
            return False
        try:
            # Dashed verbs (repl-status) map to underscored handlers.
            handler = getattr(self, f"_cmd_{verb.replace('-', '_')}", None)
            if handler is None:
                self._print(f"error unknown command {verb!r}; try 'help'")
            else:
                handler(rest.strip())
        except ServiceClosed:
            self._print("error service closed")
            return False
        except ReproError as exc:
            self._print(f"error {type(exc).__name__}: {exc}")
        except ValueError as exc:
            self._print(f"error bad argument: {exc}")
        return True

    # ------------------------------------------------------------------

    def _cmd_help(self, rest: str) -> None:
        self._print(f"ok {_HELP}")

    def _cmd_query(self, rest: str) -> None:
        if not rest:
            raise ValueError("query needs a path expression")
        records = self.service.query(rest)
        self._print(f"ok {len(records)} match(es)")
        for record in records:
            self._print(f"  sid={record.sid} start={record.start} "
                        f"end={record.end} level={record.level}")

    def _cmd_twig(self, rest: str) -> None:
        if not rest:
            raise ValueError("twig needs a twig expression")
        records = self.service.twig(rest)
        self._print(f"ok {len(records)} match(es)")
        for record in records:
            self._print(f"  sid={record.sid} start={record.start} "
                        f"end={record.end} level={record.level}")

    def _cmd_join(self, rest: str) -> None:
        parts = rest.split()
        if len(parts) not in (2, 3):
            raise ValueError("join needs: <ancestor> <descendant> [algorithm]")
        algorithm = parts[2] if len(parts) == 3 else "lazy"
        pairs = self.service.join(parts[0], parts[1], algorithm=algorithm)
        self._print(f"ok {len(pairs)} pair(s)")

    def _cmd_insert(self, rest: str) -> None:
        where, _, fragment = rest.partition(" ")
        if not fragment:
            raise ValueError("insert needs: <position|end> <xml fragment>")
        position = None if where == "end" else int(where)
        receipt = self.service.insert(fragment, position)
        self._print(f"ok inserted segment {receipt.sid} at {receipt.gp}")

    def _cmd_remove(self, rest: str) -> None:
        parts = rest.split()
        if len(parts) != 2:
            raise ValueError("remove needs: <position> <length>")
        outcome = self.service.remove(int(parts[0]), int(parts[1]))
        self._print(f"ok removed {outcome.elements_removed} element record(s)")

    def _cmd_trace(self, rest: str) -> None:
        kind, _, spec = rest.partition(" ")
        kind = kind.lower()
        spec = spec.strip()
        if kind == "query":
            if not spec:
                raise ValueError("trace query needs a path expression")
            result, spans = self.service.trace_query(spec)
            self._print(f"ok {len(result)} match(es), {len(spans)} span(s)")
        elif kind == "twig":
            if not spec:
                raise ValueError("trace twig needs a twig expression")
            result, spans = self.service.trace_twig(spec)
            self._print(f"ok {len(result)} match(es), {len(spans)} span(s)")
        elif kind == "join":
            parts = spec.split()
            if len(parts) not in (2, 3):
                raise ValueError(
                    "trace join needs: <ancestor> <descendant> [algorithm]"
                )
            algorithm = parts[2] if len(parts) == 3 else "lazy"
            result, spans = self.service.trace_join(
                parts[0], parts[1], algorithm=algorithm
            )
            self._print(f"ok {len(result)} pair(s), {len(spans)} span(s)")
        else:
            raise ValueError(
                "trace needs: query <expr> | twig <expr> | join <anc> <desc>"
            )
        for span in spans:
            self._print("  " + json.dumps(span, sort_keys=True))

    def _cmd_repack(self, rest: str) -> None:
        if not rest:
            raise ValueError("repack needs: <sid>")
        self.service.repack(int(rest))
        self._print("ok repacked")

    def _cmd_compact(self, rest: str) -> None:
        result = self.service.compact()
        # A sharded primary compacts every shard and returns one
        # CompactionResult per shard; report the aggregate.
        results = result if isinstance(result, list) else [result]
        before = sum(r.segments_before for r in results)
        after = sum(r.segments_after for r in results)
        self._print(f"ok compacted {before} -> {after} segment(s)")

    def _cmd_maintain(self, rest: str) -> None:
        report = self.service.run_maintenance()
        self._print(f"ok pressure {report.level}; "
                    f"breaker {self.service.health()['breaker']['state']}")

    def _cmd_pressure(self, rest: str) -> None:
        report = self.service.check_pressure()
        self._print("ok " + json.dumps(report.as_dict(), sort_keys=True))

    def _cmd_health(self, rest: str) -> None:
        self._print("ok " + json.dumps(self.service.health(), sort_keys=True))

    def _cmd_stats(self, rest: str) -> None:
        self._print("ok " + json.dumps(self.service.stats(), sort_keys=True))

    def _cmd_repl_status(self, rest: str) -> None:
        status = self.service.replication_status()
        if status is None:
            self._print("ok replication disabled (serve with --replicas N)")
        else:
            self._print("ok " + json.dumps(status, sort_keys=True))

    def _cmd_promote(self, rest: str) -> None:
        if not rest:
            raise ValueError("promote needs: <node id>")
        node = self.service.promote(int(rest))
        self._print(f"ok node {node.node_id} promoted to primary "
                    f"at term {node.term}")

    def _print(self, text: str) -> None:
        print(text, file=self._out, flush=True)
