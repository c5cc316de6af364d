"""`DatabaseService` — the resilient concurrent facade over the lazy store.

Composes the pieces of :mod:`repro.service` into one operational surface:

- **reads** go through admission control, pin an epoch snapshot
  (:mod:`repro.service.snapshot`), and run under a
  :class:`~repro.service.context.QueryContext` deadline/budget; they never
  observe a half-applied update and never block the writer;
- **writes** (single-writer) go through admission control and commit to
  the epoch store's writer buffer, which *is* the authoritative database
  (through the journal when the primary is a
  :class:`~repro.durability.database.DurableDatabase`) — then that buffer
  is published atomically and the retired one becomes the next writer
  buffer, to catch up on the op in the front end's idle time
  (:meth:`DatabaseService.settle`) or else at the next write;
- **maintenance** (``repack``/``compact``) runs only when an operator asks
  for it, and is a write: it queues for the one write slot and commits
  like any write (through the journal on a durable primary).  Nothing
  samples the update log or repairs it unasked: on the workloads measured
  (DESIGN.md §5) an automatic trigger never found work it could do.

``python -m repro serve`` wraps this class in a line-oriented shell (see
:mod:`repro.service.shell`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

from repro.durability.database import DurableDatabase
from repro.durability.recovery import apply_op, parse_op
from repro.errors import (
    DeadlineExceeded,
    Draining,
    ResourceExhausted,
    ServiceClosed,
)
from repro.joins.stack_tree import AXIS_DESCENDANT
from repro.obs.metrics import METRICS
from repro.service.admission import AdmissionController
from repro.service.context import OverBudget, QueryContext
from repro.service.snapshot import EpochManager, Snapshot

__all__ = ["ServiceConfig", "DatabaseService"]

#: Seconds a request may wait in its admission queue before ``Busy``.
ADMISSION_WAIT = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs for a :class:`DatabaseService` (``serve``'s
    ``--readers``, ``--timeout`` and ``--max-rows``)."""

    #: Reads running at once (writes, maintenance included: one).
    read_limit: int = 16
    #: Default per-query deadline (seconds); ``None`` = no deadline.
    default_timeout: float | None = None
    #: Default per-query result-row budget; ``None`` = unbounded.
    max_result_rows: int | None = None


class DatabaseService:
    """Concurrent, deadline-aware access to a database.

    Parameters
    ----------
    primary:
        The authoritative store — a plain
        :class:`~repro.core.database.LazyXMLDatabase` or a
        :class:`~repro.durability.database.DurableDatabase` (in which case
        every write, ``repack`` and ``compact`` included, goes through the
        journaled commit protocol).  It becomes the epoch store's first
        writer buffer: from the first write on, read the state from
        :attr:`primary`, not from the object passed in, which may be a
        write behind.
    config:
        :class:`ServiceConfig`; defaults are sized for tests/examples.
    clock:
        Injectable monotonic clock the query deadlines read.
    """

    def __init__(
        self,
        primary,
        *,
        config: ServiceConfig | None = None,
        clock=time.monotonic,
    ):
        self.config = config or ServiceConfig()
        self._primary = primary
        self._durable = isinstance(primary, DurableDatabase)
        self._epochs = EpochManager(getattr(primary, "db", primary))
        if self._durable:
            primary.attach_epochs(self._epochs)
        else:
            # The store owns a plain primary now: it is one of the two
            # buffers, and a closed store lets the published one go.
            self._primary = None
        self._clock = clock
        self._admission = AdmissionController(self.config.read_limit)
        self._writer_lock = threading.RLock()
        self._closed = False
        self._draining = False
        self._counters = {
            "queries": 0,
            "writes": 0,
            "deadline_aborts": 0,
            "resource_aborts": 0,
            "maintenance_runs": 0,
            "maintenance_failures": 0,
        }

    # ------------------------------------------------------------------
    # contexts & snapshots

    def make_context(self, **overrides) -> QueryContext:
        """A :class:`QueryContext` seeded from the service defaults."""
        options = {
            "timeout": self.config.default_timeout,
            "max_result_rows": self.config.max_result_rows,
            "clock": self._clock,
        }
        options.update(overrides)
        return QueryContext(**options)

    @property
    def primary(self):
        """The authoritative store, up to date: a plain primary's writer
        buffer (caught up first), or the durable handle whose ``db`` is
        that buffer."""
        if self._durable:
            return self._primary
        with self._writer_lock:
            return self._epochs.writer()

    @property
    def _base(self):
        """The database a write commits to, up to date."""
        primary = self.primary
        return primary.db if self._durable else primary

    def snapshot(self) -> Snapshot:
        """Pin the current epoch directly (no admission, no deadline) —
        for diagnostics and invariant checks; release it promptly."""
        self._ensure_open()
        return self._epochs.pin()

    @property
    def writes_in_memory(self) -> bool:
        """True when a write waits on no I/O: a plain in-memory primary
        (no journal fsync)."""
        return not self._durable

    # ------------------------------------------------------------------
    # reads

    def read(self, fn, *, context=None, snapshot=None):
        """Run ``fn(db, context)`` against a pinned snapshot.

        The one read entry point: admission-controlled, snapshot-
        isolated, deadline-enforced, counted.  ``fn`` must treat ``db`` as
        read-only and let nothing of it escape: once the pin is released a
        retired buffer becomes the writer's and is mutated in place.
        ``snapshot`` is a pin the caller already holds (a session's
        repeatable-read epoch); omitted, the read pins the current one.
        """
        self._ensure_open()
        with self._admission.admit("read", ADMISSION_WAIT):
            ctx = context if context is not None else self.make_context()
            if snapshot is not None:
                return self._run_read(fn, snapshot.db, ctx)
            with self.snapshot() as snap:
                return self._run_read(fn, snap.db, ctx)

    def _run_read(self, fn, db, ctx):
        try:
            result = fn(db, ctx)
        except DeadlineExceeded:
            self._counters["deadline_aborts"] += 1
            raise
        except ResourceExhausted:
            self._counters["resource_aborts"] += 1
            raise
        self._counters["queries"] += 1
        return result

    def query(self, expression: str):
        """Snapshot-isolated :meth:`LazyXMLDatabase.path_query`: any
        pattern, a path or a twig."""
        return self.read(lambda db, ctx: db.path_query(expression, context=ctx))

    twig = query

    def join(self, tag_a: str, tag_d: str, axis: str = AXIS_DESCENDANT, *,
             context=None):
        """Snapshot-isolated :meth:`LazyXMLDatabase.structural_join`."""
        return self.read(
            lambda db, ctx: db.structural_join(tag_a, tag_d, axis, context=ctx),
            context=context,
        )

    # ------------------------------------------------------------------
    # writes (single writer)

    def apply(self, op: dict, context=None):
        """Commit one journal-dialect op record; returns the op's result.

        The one write entry (the methods below are this call with the
        record spelled out), one at a time in the write class;
        ``repack``/``compact`` count as maintenance runs.  An ``insert``
        without a position appends at the end the writer finds.
        ``context`` matters only as a loop attempt
        (:meth:`QueryContext.attempt`): the write then waits for nothing
        and raises :class:`OverBudget`, having changed nothing, wherever
        it would have to (see :meth:`_write`).
        """
        if op["op"] in ("repack", "compact"):
            return self._maintenance_op(op)
        return self._write(op, context=context)

    def insert(self, fragment: str, position: int | None = None):
        return self.apply({"op": "insert", "fragment": fragment, "position": position})

    def remove(self, position: int, length: int):
        return self.apply({"op": "remove", "position": position, "length": length})

    def remove_segment(self, sid: int):
        return self.apply({"op": "remove_segment", "sid": sid})

    def repack(self, sid: int):
        """Operator-requested repack (a write)."""
        return self.apply({"op": "repack", "sid": sid})

    def compact(self):
        """Operator-requested compact (a write)."""
        return self.apply({"op": "compact"})

    def apply_batch(self, ops: list[dict]):
        """Apply several structural ops as **one** write; per-op results.

        The batch is one admission ticket, one primary commit (durable
        primaries journal it as a single CRC-framed record with a single
        fsync) and one epoch publish — read-path caches invalidate once
        per batch rather than once per op.  Sub-ops use the journal
        dialect; one whose preconditions fail mid-batch yields ``None``
        in its result slot.
        """
        return self.apply({"op": "batch", "ops": [dict(sub) for sub in ops]})

    def _write(self, op: dict, context=None):
        self._ensure_open()
        attempt = context is not None and context.is_attempt
        with self._write_slot(attempt):
            if attempt and not self._commits_in_memory():
                raise OverBudget("this write must wait")
            # The writer buffer caught up: the replay of an op already
            # committed, so an attempt may still stop after it.
            base = self._base
            if op["op"] == "insert" and op.get("position") is None:
                op = {**op, "position": base.document_length}
            # The write's one parse, for the commit and the catch-up.
            parsed = parse_op(op, base.document_length)
            if attempt:
                # The attempt's one checkpoint: after the parse, the cost
                # that grows with the payload, and before any change.
                context.check_budget()
            result = self._apply_primary(op, parsed, base)
            self._epochs.publish([op], [parsed])
            self._counters["writes"] += 1
        return result

    def settle(self) -> bool:
        """Replay the last write into the retired buffer now, so the next
        write finds its writer buffer current (:meth:`EpochManager.settle`).

        For a front end's idle time: it takes the writer lock only if it
        is free and waits for nothing, and returns whether it replayed.
        """
        if self._draining:
            return False
        if not self._writer_lock.acquire(blocking=False):
            return False
        try:
            return self._epochs.settle()
        finally:
            self._writer_lock.release()

    @contextlib.contextmanager
    def _write_slot(self, attempt: bool):
        """Hold the write ticket, then the writer lock.  A loop attempt
        takes each only if it is free now and otherwise raises
        :class:`OverBudget` holding neither: it never waits."""
        if not attempt:
            with self._admission.admit("write", ADMISSION_WAIT):
                with self._writer_lock:
                    yield
            return
        ticket = self._admission.try_admit("write")
        if ticket is None:
            raise OverBudget("the write slot is taken")
        with ticket:
            if not self._writer_lock.acquire(blocking=False):
                raise OverBudget("the writer lock is held")
            try:
                yield
            finally:
                self._writer_lock.release()

    def _commits_in_memory(self) -> bool:
        """Under the writer lock: this write touches only memory up to its
        reply.  It does not if the primary does I/O, or if its writer
        buffer would wait for a reader or be cloned."""
        return self.writes_in_memory and self._epochs.writer_ready()

    def _apply_primary(self, op: dict, parsed, base):
        """Apply ``op`` to the authoritative database ``base``, from its
        parse.

        Every primary spells the structural operations alike, so the
        record goes through the dispatcher recovery and the epoch
        catch-up use (``parse_op`` ran a batch's whole-batch checks): a
        durable primary commits it (fsync before apply, so repacks and
        compactions journal like user writes; a batch is *one* record, one
        fsync).
        """
        if self._durable:
            if op["op"] == "insert":  # the record DurableDatabase.insert journals
                op = {key: op[key] for key in ("op", "fragment", "position")}
            return self._primary.commit(op, parsed)
        return apply_op(base, op, parsed)

    # ------------------------------------------------------------------
    # operator maintenance

    def _maintenance_op(self, op: dict):
        self._counters["maintenance_runs"] += 1
        try:
            return self._write(op)
        except Exception:
            self._counters["maintenance_failures"] += 1
            raise

    # ------------------------------------------------------------------
    # health & lifecycle

    def health(self) -> dict:
        """Operational snapshot: status, admission, epochs, read-path cache,
        log stats."""
        if self._closed:
            status = "closed"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        with self._latest() as db:
            counts = {
                "segments": db.segment_count,
                "elements": db.element_count,
                "document_length": db.document_length,
                "log_bytes": db.stats().total_bytes,
            }
        # After the pin above is released: it is not a reader's.
        epochs = self._epochs.metrics()
        return {
            "status": status,
            "durable": self._durable,
            **counts,
            "admission": self._admission.metrics(),
            "epochs": epochs,
            # The published buffer's compiled read-path cache — the one
            # read queries actually hit (reads run on pinned snapshots).
            "readpath": epochs.get("readpath"),
            "counters": dict(self._counters),
        }

    @contextlib.contextmanager
    def _latest(self):
        """The latest committed state, read-only: the published epoch
        under a pin, which no write mutates.  Once the store is closed no
        write runs, and the writer buffer, caught up, serves."""
        try:
            snap = self._epochs.pin()
        except ServiceClosed:
            with self._writer_lock:
                yield self._base
            return
        with snap:
            yield snap.db

    def stats(self) -> dict:
        """:meth:`health` minus derived status, plus the full metric
        snapshot and catalogue from the registry (CLI/shell ``stats``)."""
        health = self.health()
        health.pop("status", None)
        health["metrics"] = METRICS.snapshot()
        health["metric_catalogue"] = METRICS.catalogue()
        # Planner decisions (path + twig surfaces): strategy counts and
        # the most recent choices, each ``{expr, strategy, pruned}``, so a
        # plan regression shows up here instead of only in latency.
        from repro.twig.plan import PLAN_RECORDER

        health["planner"] = PLAN_RECORDER.snapshot()
        return health

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosed("service has been closed")
        if self._draining:
            raise Draining(
                "service is draining for shutdown; no new requests accepted"
            )

    def begin_drain(self) -> None:
        """Enter the draining state: refuse *new* requests with a typed
        :class:`~repro.errors.Draining` while requests already admitted
        (and pinned snapshots already taken) finish normally.

        The first half of graceful shutdown, shared by the TCP front end
        (SIGTERM / ``shutdown``) and the line-protocol shell (EOF /
        KeyboardInterrupt); :meth:`close` completes it once in-flight work
        has ended.  Idempotent; a no-op on a closed service.
        """
        self._draining = True

    def close(self) -> None:
        """Refuse new requests, release the epoch store.

        In-flight reads holding pinned snapshots finish normally.
        """
        if self._closed:
            return
        self._closed = True
        self._admission.close()
        with self._writer_lock:  # no write is between commit and publish
            self._epochs.close()
        if self._durable:
            self._primary.close()

    def __enter__(self) -> "DatabaseService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
