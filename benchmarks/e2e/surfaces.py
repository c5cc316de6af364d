"""The one adapter between the benchmark and ``repro``.

Every call the benchmark makes into the system goes through this file, so
an API rename under ``src/`` is a one-file benchmark change.  A *surface*
is one depth of the request path, with one small interface:

``load(ops)``            bulk-ingest ``(fragment, position)`` insert ops
``insert(fragment, position) -> handle``
``remove(handle)``       remove exactly the segment ``insert`` created
``batch(subs) -> handles``   insert/remove sub-steps as one commit
``query(q) -> int``      result count of one suite query
``checkpoint()``         fold the journal (no-op without one)
``footprint() -> dict``  element count, update-log and on-disk bytes
``close()``              stop everything the surface started

Surfaces, outermost last: :func:`embedded` (bare ``LazyXMLDatabase``),
:func:`durable` (``DurableDatabase``), :func:`sharded` (``ShardedDatabase``,
either executor), :class:`Service` (``DatabaseService``), :class:`Protocol`
(``execute_request`` in process) and :class:`Tcp` (``python -m repro serve
--tcp`` as a subprocess, one ``NetClient`` connection here).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if not (SRC / "repro").is_dir():
    raise SystemExit(f"benchmark needs the repro sources at {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import storage  # noqa: E402
from repro.core.database import LazyXMLDatabase  # noqa: E402
from repro.durability.database import DurableDatabase  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.net.client import NetClient  # noqa: E402
from repro.net.protocol import SessionState, execute_request  # noqa: E402
from repro.service import DatabaseService  # noqa: E402
from repro.shard.database import ShardedDatabase  # noqa: E402

#: What a failed operation raises: the system's typed errors (``Busy``,
#: ``Overloaded``, ``DeadlineExceeded`` ... all derive from ``ReproError``)
#: and transport failures.
FAILURES = (ReproError, OSError, asyncio.TimeoutError)

#: Seconds one TCP request may take before it counts as failed.
REQUEST_TIMEOUT = 20.0

#: Bulk ingest is cut into batches below the 1 MiB frame cap.
_LOAD_BATCH_BYTES = 256 * 1024


def _insert_record(fragment: str, position: int) -> dict:
    return {"op": "insert", "fragment": fragment, "position": position}


def _batch_records(subs, handles) -> list[dict]:
    """Journal-dialect records for a schedule's batch sub-steps."""
    records = []
    for step in subs:
        if step[0] == "insert":
            records.append(_insert_record(step[2], step[3]))
        else:
            records.append({"op": "remove_segment", "sid": handles[step[1]]})
    return records


def _batch_handles(subs, results) -> list:
    """Handles of a batch's inserts (``None`` for removes); a skipped
    sub-op means the schedule and the database disagree."""
    if any(result is None for result in results):
        raise ReproError("a batch sub-op was skipped")
    return [
        result.sid if step[0] == "insert" else None
        for step, result in zip(subs, results)
    ]


def _load_batches(ops):
    batch, size = [], 0
    for fragment, position in ops:
        if batch and size + len(fragment) > _LOAD_BATCH_BYTES:
            yield batch
            batch, size = [], 0
        batch.append(_insert_record(fragment, position))
        size += len(fragment)
    if batch:
        yield batch


def _disk_bytes(directory) -> dict:
    """Journal and checkpoint file bytes under a durable directory."""
    journal = checkpoint = 0
    if directory is not None:
        for path in Path(directory).rglob("*"):
            if path.is_file():
                if path.suffix == ".wal":
                    journal += path.stat().st_size
                elif path.name.startswith("checkpoint"):
                    checkpoint += path.stat().st_size
    return {"journal_bytes": journal, "checkpoint_bytes": checkpoint}


class Direct:
    """A database object called directly: ``LazyXMLDatabase``,
    ``DurableDatabase`` and ``ShardedDatabase`` share these method names."""

    def __init__(self, name: str, db, directory=None):
        self.name = name
        self.db = db
        self.directory = directory

    def load(self, ops) -> None:
        self.db.apply_batch([_insert_record(f, p) for f, p in ops])

    def insert(self, fragment: str, position: int) -> int:
        return self.db.insert(fragment, position).sid

    def remove(self, handle: int) -> None:
        self.db.remove_segment(handle)

    def batch(self, subs, handles) -> list:
        return _batch_handles(
            subs, self.db.apply_batch(_batch_records(subs, handles))
        )

    def query(self, q) -> int:
        kind = q[0]
        if kind == "join":
            return len(self.db.structural_join(q[1], q[2]))
        if kind == "path":
            return len(self.db.path_query(q[1]))
        return len(self.db.twig_query(q[1]))

    def checkpoint(self) -> None:
        if self.directory is not None:
            self.db.checkpoint()

    def reopen(self) -> None:
        """Close a durable database and recover it from its directory."""
        self.db.close()
        self.db = DurableDatabase.open(self.directory)

    def journal_bytes(self) -> int:
        """Size of the journal file on disk right now."""
        return os.path.getsize(self.db.journal_path)

    def crash_and_recover(self, acked_bytes: int) -> bool:
        """Crash in the middle of a journal write, then recover.

        ``acked_bytes`` is the journal's size when the last acknowledged
        write returned.  Everything behind it is what a crash would have
        lost from the OS cache: the journal is cut back to ``acked_bytes``,
        then the first half of what followed (the record in flight) is
        written again, as a torn write leaves it.  Returns whether recovery
        reported a torn tail.
        """
        journal = self.db.journal_path
        self.db.close()
        with open(journal, "r+b") as handle:
            handle.seek(acked_bytes)
            in_flight = handle.read()
            handle.truncate(acked_bytes)
            handle.seek(acked_bytes)
            handle.write(in_flight[: len(in_flight) // 2])
        self.db = DurableDatabase.open(self.directory)
        return bool(in_flight) and self.db.recovery_report.torn_tail

    def text(self) -> str:
        return self.db.text

    def footprint(self) -> dict:
        return {
            "elements": self.db.element_count,
            "characters": self.db.document_length,
            "log_bytes": self.db.stats().total_bytes,
            **_disk_bytes(self.directory),
        }

    def close(self) -> None:
        close = getattr(self.db, "close", None)
        if close is not None:
            close()


def embedded() -> Direct:
    return Direct("bare", LazyXMLDatabase())


def durable(directory) -> Direct:
    return Direct("durable", DurableDatabase.open(directory), directory)


def sharded(executor: str) -> Direct:
    """Two shards, whole documents routed by the document map."""
    return Direct(f"shard_{executor}", ShardedDatabase(2, executor=executor))


class Service(Direct):
    """``DatabaseService`` over a fresh ``LazyXMLDatabase``: admission,
    epoch pin on reads, epoch publish on writes.  Its write verbs carry the
    database's names; only the read verbs differ."""

    def __init__(self):
        super().__init__("service", DatabaseService(LazyXMLDatabase()))

    def query(self, q) -> int:
        kind = q[0]
        if kind == "join":
            return len(self.db.join(q[1], q[2]))
        if kind == "path":
            return len(self.db.query(q[1]))
        return len(self.db.twig(q[1]))

    def footprint(self) -> dict:
        return _health_footprint(self.db.health())

    def stats(self) -> dict:
        return self.db.stats()


def _health_footprint(health: dict) -> dict:
    return {
        "elements": health["elements"],
        "characters": health["document_length"],
        "log_bytes": health["log_bytes"],
        "journal_bytes": 0,
        "checkpoint_bytes": 0,
    }


def request_for(q) -> dict:
    """The wire request of one suite query; replies carry at most 10 rows."""
    kind = q[0]
    if kind == "join":
        return {"cmd": "join", "ancestor": q[1], "descendant": q[2]}
    return {"cmd": "query" if kind == "path" else "twig", "expr": q[1], "limit": 10}


def insert_request(fragment: str, position: int) -> dict:
    return {"cmd": "insert", "fragment": fragment, "position": position}


def remove_request(handle: int) -> dict:
    return {"cmd": "remove_segment", "sid": handle}


def reply_count(reply: dict) -> int:
    return reply["pairs"] if "pairs" in reply else reply["count"]


class _Wire:
    """The surface interface on top of ``request(dict) -> dict``."""

    def load(self, ops) -> None:
        for records in _load_batches(ops):
            reply = self.request({"cmd": "batch", "ops": records})
            if reply["skipped"]:
                raise ReproError("a bulk-load sub-op was skipped")

    def insert(self, fragment: str, position: int) -> int:
        return self.request(insert_request(fragment, position))["sid"]

    def remove(self, handle: int) -> None:
        self.request(remove_request(handle))

    def batch(self, subs, handles) -> list:
        reply = self.request({"cmd": "batch", "ops": _batch_records(subs, handles)})
        if reply["skipped"]:
            raise ReproError("a batch sub-op was skipped")
        return [
            slot["sid"] if step[0] == "insert" else None
            for step, slot in zip(subs, reply["results"])
        ]

    def query(self, q) -> int:
        return reply_count(self.request(request_for(q)))

    def checkpoint(self) -> None:
        pass

    def footprint(self) -> dict:
        return _health_footprint(self.request({"cmd": "health"}))

    def stats(self) -> dict:
        return self.request({"cmd": "stats"})


class Protocol(_Wire):
    """``execute_request`` called in process: the TCP verbs without the
    wire (request validation, span rows, reply building)."""

    name = "protocol"

    def __init__(self):
        self.service = DatabaseService(LazyXMLDatabase())
        self.session = SessionState(1)

    def request(self, request: dict) -> dict:
        return execute_request(self.service, self.session, request)

    def close(self) -> None:
        self.session.release()
        self.service.close()


class Tcp(_Wire):
    """``python -m repro serve --tcp 127.0.0.1:0 <empty snapshot>`` as a
    subprocess; one ``NetClient`` connection here, one request at a time."""

    name = "tcp"

    def __init__(self, workdir):
        workdir = Path(workdir)
        snapshot = workdir / "snapshot.json"
        storage.save(LazyXMLDatabase(), snapshot)
        self._log = open(workdir / "server.log", "w+", encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
             str(snapshot)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log, env=env,
        )
        self.loop = asyncio.new_event_loop()
        self.client = None
        try:
            port = self._await_banner()
            self.client = self.loop.run_until_complete(
                NetClient("127.0.0.1", port).connect()
            )
        except BaseException:
            self.close()
            raise

    def _await_banner(self) -> int:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            self._log.seek(0)
            for line in self._log.read().splitlines():
                if line.startswith("listening on "):
                    return int(line.split()[2].rpartition(":")[2])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        raise OSError("the TCP server did not start listening")

    def request(self, request: dict) -> dict:
        """One request, bounded by :data:`REQUEST_TIMEOUT`."""
        args = dict(request)
        return self.loop.run_until_complete(
            self.client.request(args.pop("cmd"), timeout=REQUEST_TIMEOUT, **args)
        )

    def wire_bytes(self, request: dict) -> int:
        """Bytes one request and its reply take on the wire, both frames
        (the reply re-encoded the way the server encoded it)."""
        from repro.net.frame import HEADER_SIZE
        from repro.net.protocol import encode_payload

        reply = self.request(request)
        return 2 * HEADER_SIZE + len(encode_payload(request)) + len(
            encode_payload(reply)
        )

    def close(self) -> None:
        try:
            if self.client is not None:
                if self.process.poll() is None:
                    self.request({"cmd": "shutdown"})
                self.loop.run_until_complete(self.client.close(goodbye=False))
        except FAILURES:
            pass
        finally:
            self.client = None
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.loop.close()
            self._log.close()


# ----------------------------------------------------------------------
# what the traced run needs from the system (trace.py holds the mechanics)


def trace_points():
    """The public callables the traced run wraps in spans.

    Returns ``(functions, methods)``: ``functions`` maps a span name to a
    module-level function, replaced in every ``repro`` module that imported
    it; ``methods`` maps a span name to ``(class, method name)``.
    """
    from repro.joins.stack_tree import stack_tree_desc
    from repro.twig.evaluate import evaluate_twig
    from repro.twig.pattern import parse_twig
    from repro.twig.plan import plan_twig
    from repro.xml.parser import parse

    functions = {
        "xml.parse": parse,  # parse_fragment and is_well_formed both end here
        "joins.stack_tree_desc": stack_tree_desc,
        "twig.parse": parse_twig,
        "twig.plan": plan_twig,
        "twig.evaluate": evaluate_twig,
    }
    methods = {
        "core.insert": (LazyXMLDatabase, "insert"),
        "core.remove": (LazyXMLDatabase, "remove"),
        "core.apply_batch": (LazyXMLDatabase, "apply_batch"),
        "core.structural_join": (LazyXMLDatabase, "structural_join"),
        "core.path_query": (LazyXMLDatabase, "path_query"),
        "durability.insert": (DurableDatabase, "insert"),
        "durability.remove_segment": (DurableDatabase, "remove_segment"),
        "durability.apply_batch": (DurableDatabase, "apply_batch"),
        "durability.checkpoint": (DurableDatabase, "checkpoint"),
    }
    return functions, methods


def engine_counters(surface: Direct) -> dict:
    """Cumulative counters of a bare database: read-path cache, path
    summary, planner decisions."""
    from repro.twig.plan import PLAN_RECORDER

    readpath = surface.db.readpath.stats()
    plans = PLAN_RECORDER.snapshot()["counts"]
    return {
        "readpath_hits": readpath["hits"],
        "readpath_misses": readpath["misses"],
        "readpath_invalidations": readpath["invalidations"],
        "readpath_bytes": surface.db.readpath.approximate_bytes(),
        "summary_invalidations": surface.db.path_summary.stats()["invalidations"],
        "plans_twig": plans["twig"],
        "plans_pairwise": plans["pairwise"],
        "plans_pruned": plans["pruned"],
    }


def join_work(surface: Direct, tag_a: str, tag_d: str) -> dict:
    """One Lazy-Join with its ``JoinStatistics``: pairs produced, segments
    visited and segments it never had to look into."""
    from repro.core.join import JoinStatistics

    stats = JoinStatistics()
    surface.db.structural_join(tag_a, tag_d, stats=stats)
    return {
        "pairs": stats.pairs,
        "visited": stats.segments_pushed + stats.segments_skipped,
        "skipped": stats.segments_galloped + stats.d_fetches_avoided,
    }


def twig_with_strategy(surface: Direct, expression: str, strategy: str) -> int:
    return len(surface.db.twig_query(expression, strategy=strategy))


def registry_values(names) -> dict:
    """Current values of ``repro.obs`` counters in this process."""
    from repro.obs.metrics import METRICS

    return {name: METRICS.value(name) for name in names}


def service_counters(stats: dict) -> dict:
    """What the traced run reads from a service ``stats()`` payload (the
    in-process service and the TCP ``stats`` verb return the same shape)."""
    admission = stats["admission"]
    metrics = stats["metrics"]

    def value(name):
        return metrics.get(name, {}).get("value", 0)

    return {
        "publishes": stats["epochs"]["publishes"],
        "writes": stats["counters"]["writes"],
        "maintenance_runs": stats["counters"]["maintenance_runs"],
        "admitted": sum(c["admitted"] for c in admission.values()),
        "rejected": sum(c["rejected"] for c in admission.values()),
        "net_requests": value("net.requests"),
        "net_sheds": value("net.sheds"),
    }


def recovery_replayed(surface: Direct) -> int:
    """Journal records the last :meth:`Direct.reopen` replayed."""
    return surface.db.recovery_report.ops_replayed


def codec_seconds(payload: dict, repeat: int) -> tuple[float, float]:
    """Seconds per (frame encode + decode) and per (payload encode +
    decode) of one recorded reply."""
    from repro.net import frame as wire
    from repro.net.protocol import decode_payload, encode_payload

    data = encode_payload(payload)
    start = time.perf_counter()
    for _ in range(repeat):
        wire.FrameDecoder().feed(wire.encode_frame(wire.T_RESPONSE, 7, data))
    frame_s = (time.perf_counter() - start) / repeat
    start = time.perf_counter()
    for _ in range(repeat):
        decode_payload(encode_payload(payload))
    payload_s = (time.perf_counter() - start) / repeat
    return frame_s, payload_s


def btree_seconds(keys) -> tuple[float, float]:
    """Seconds per key to insert ``keys`` into a fresh ``BPlusTree`` in the
    given order, and per key to read them all back with one range scan per
    leading key component."""
    from repro.btree import BPlusTree

    tree = BPlusTree()
    start = time.perf_counter()
    for key in keys:
        tree.insert(key, None)
    insert_s = (time.perf_counter() - start) / len(keys)
    groups = sorted({key[0] for key in keys})
    start = time.perf_counter()
    read = sum(len(tree.range_keys((g,), (g + 1,))) for g in groups)
    range_s = (time.perf_counter() - start) / max(1, read)
    return insert_s, range_s
