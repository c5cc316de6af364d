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
  buffer, to catch up on the op at the next write;
- **maintenance** is driven by the :class:`~repro.service.pressure.
  PressureMonitor` and executed behind a :class:`~repro.service.breaker.
  CircuitBreaker`: repeated repack/compact failures open the breaker and
  the service degrades gracefully — reads keep flowing, writes are shed
  while pressure is critical — instead of hot-looping a failing repair.

``python -m repro serve`` wraps this class in a line-oriented shell (see
:mod:`repro.service.shell`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field

from repro.durability.database import DurableDatabase
from repro.durability.recovery import apply_op, parse_op
from repro.errors import (
    Busy,
    CircuitOpenError,
    DeadlineExceeded,
    Draining,
    ResourceExhausted,
    ServiceClosed,
)
from repro.joins.stack_tree import AXIS_DESCENDANT
from repro.obs.metrics import METRICS
from repro.service.admission import AdmissionController
from repro.service.breaker import CircuitBreaker
from repro.service.context import OverBudget, QueryContext
from repro.service.pressure import (
    LEVEL_CRITICAL,
    PressureMonitor,
    PressureReport,
    PressureThresholds,
)
from repro.service.snapshot import EpochManager, Snapshot

__all__ = ["ServiceConfig", "DatabaseService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Operational knobs for a :class:`DatabaseService`."""

    #: Per-class concurrency limits; ``write`` must stay 1 (single writer).
    read_limit: int = 16
    maintenance_limit: int = 1
    #: Wait-queue depth per class (over the concurrency limit).
    read_queue_depth: int = 32
    write_queue_depth: int = 8
    #: Seconds a request may wait for admission before ``Busy``.
    admission_wait: float = 0.05
    #: Default per-query deadline (seconds); ``None`` = no deadline.
    default_timeout: float | None = None
    #: Default per-query result-row budget; ``None`` = unbounded.
    max_result_rows: int | None = None
    #: Default per-query join-stack depth budget; ``None`` = unbounded.
    max_stack_depth: int | None = None
    #: Seconds a publish waits for a retiring epoch's readers to drain.
    drain_timeout: float = 5.0
    #: Writes between automatic pressure samples (0 disables).
    pressure_check_every: int = 8
    thresholds: PressureThresholds = field(default_factory=PressureThresholds)
    breaker_failure_threshold: int = 3
    breaker_reset_timeout: float = 30.0
    #: Shed writes with ``Busy`` while pressure is critical and the
    #: breaker is open (maintenance cannot run) — self-defense against
    #: unbounded log growth.
    shed_writes_when_degraded: bool = True


class DatabaseService:
    """Concurrent, deadline-aware, self-defending access to a database.

    Parameters
    ----------
    primary:
        The authoritative store — a plain
        :class:`~repro.core.database.LazyXMLDatabase` or a
        :class:`~repro.durability.database.DurableDatabase` (in which case
        every write, including pressure-triggered repacks, goes through the
        journaled commit protocol); ``None`` with ``replication``, whose
        primary node serves.  A plain or
        durable database becomes the epoch store's first writer buffer:
        from the first write on, read the state from :attr:`primary`,
        not from the object passed in, which may be a write behind.
    config:
        :class:`ServiceConfig`; defaults are sized for tests/examples.
    clock:
        Injectable monotonic clock shared by deadlines and the breaker.
    """

    def __init__(
        self,
        primary,
        *,
        config: ServiceConfig | None = None,
        clock=time.monotonic,
        replication=None,
    ):
        self.config = config or ServiceConfig()
        self._replication = replication
        self._primary = primary
        # The service's own epoch store; a replication cluster's reads pin
        # its primary node's store instead.
        self._epochs: EpochManager | None = None
        if replication is not None:
            self._durable = True
        else:
            self._durable = isinstance(primary, DurableDatabase)
            self._epochs = EpochManager(
                getattr(primary, "db", primary),
                drain_timeout=self.config.drain_timeout,
            )
            if self._durable:
                primary.attach_epochs(self._epochs)
            else:
                # The store owns a plain primary now: it is one of the two
                # buffers, and a closed store lets the published one go.
                self._primary = None
        self._clock = clock
        self._admission = AdmissionController(
            {
                "read": self.config.read_limit,
                "write": 1,
                "maintenance": self.config.maintenance_limit,
            },
            queue_depth={
                "read": self.config.read_queue_depth,
                "write": self.config.write_queue_depth,
                "maintenance": 0,
            },
        )
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout=self.config.breaker_reset_timeout,
            clock=clock,
        )
        self._monitor = PressureMonitor(self.config.thresholds)
        self._writer_lock = threading.RLock()
        self._writes_since_check = 0
        self._last_pressure: PressureReport | None = None
        self._closed = False
        self._draining = False
        self._stop_maintenance = threading.Event()
        self._maintenance_thread: threading.Thread | None = None
        self._counters = {
            "queries": 0,
            "writes": 0,
            "deadline_aborts": 0,
            "resource_aborts": 0,
            "writes_shed_degraded": 0,
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
            "max_stack_depth": self.config.max_stack_depth,
            "clock": self._clock,
        }
        options.update(overrides)
        return QueryContext(**options)

    @property
    def primary(self):
        """The authoritative store, up to date: a plain primary's writer
        buffer (caught up first), the durable handle whose ``db`` is that
        buffer, or the replication cluster's primary node's durable
        handle."""
        if self._replication is not None:
            return self._replication.primary.durable
        if self._durable:
            return self._primary
        with self._writer_lock:
            return self._epochs.writer()

    @property
    def _base(self):
        """The database a write commits to, up to date."""
        primary = self.primary
        return primary.db if self._durable else primary

    @property
    def _store(self) -> EpochManager:
        """The epoch store reads pin: the primary node's with a
        replication cluster, else the service's own."""
        if self._replication is not None:
            return self._replication.primary.epochs
        return self._epochs

    def snapshot(self) -> Snapshot:
        """Pin the current epoch directly (no admission, no deadline) —
        for diagnostics and invariant checks; release it promptly."""
        self._ensure_open()
        return self._store.pin()

    @property
    def writes_in_memory(self) -> bool:
        """True when a write waits on no I/O: a plain in-memory primary
        (no journal fsync; a replication cluster's primary is durable)."""
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
        with self._admission.admit("read", self.config.admission_wait):
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
        """Snapshot-isolated :meth:`LazyXMLDatabase.path_query`."""
        return self.read(lambda db, ctx: db.path_query(expression, context=ctx))

    def twig(self, expression: str):
        """Snapshot-isolated :meth:`LazyXMLDatabase.twig_query`."""
        return self.read(lambda db, ctx: db.twig_query(expression, context=ctx))

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
        record spelled out): ``repack``/``compact`` run in the maintenance
        class behind the breaker, the rest in the write class; an
        ``insert`` without a position appends at the end the writer finds.
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
        """Operator-requested repack (maintenance class, breaker-guarded)."""
        return self.apply({"op": "repack", "sid": sid})

    def compact(self):
        """Operator-requested compact (maintenance class, breaker-guarded)."""
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

    def _write(self, op: dict, request_class: str = "write", context=None):
        self._ensure_open()
        if (
            request_class == "write"
            and self.config.shed_writes_when_degraded
            and self.is_degraded
        ):
            self._counters["writes_shed_degraded"] += 1
            raise Busy(
                "service is degraded (pressure critical, maintenance "
                "circuit open); writes are shed until the log drains"
            )
        attempt = context is not None and context.is_attempt
        with self._write_slot(request_class, attempt):
            if attempt and not self._commits_in_memory():
                raise OverBudget("this write must wait or do maintenance")
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
            if self._epochs is not None:
                self._epochs.publish([op], [parsed])
            self._counters["writes"] += 1
            if request_class == "write":
                self._after_write()
        return result

    @contextlib.contextmanager
    def _write_slot(self, request_class: str, attempt: bool):
        """Hold the class's admission ticket, then the writer lock.  A loop
        attempt takes each only if it is free now and otherwise raises
        :class:`OverBudget` holding neither: it never waits."""
        if not attempt:
            with self._admission.admit(request_class, self.config.admission_wait):
                with self._writer_lock:
                    yield
            return
        ticket = self._admission.try_admit(request_class)
        if ticket is None:
            raise OverBudget(f"the {request_class} slot is taken")
        with ticket:
            if not self._writer_lock.acquire(blocking=False):
                raise OverBudget("the writer lock is held")
            try:
                yield
            finally:
                self._writer_lock.release()

    def _commits_in_memory(self) -> bool:
        """Under the writer lock: this write touches only memory up to its
        reply.  It does not if the primary does I/O, if it is the write
        that samples pressure (maintenance may repack or compact), or if
        its writer buffer would wait for a reader or be cloned."""
        every = self.config.pressure_check_every
        return (self.writes_in_memory
                and not 0 < every <= self._writes_since_check + 1
                and self._epochs.writer_ready())

    def _apply_primary(self, op: dict, parsed, base):
        """Apply ``op`` to the authoritative database ``base``, from its
        parse.

        Every primary spells the structural operations alike, so the
        record goes through the dispatcher recovery and the epoch
        catch-up use (``parse_op`` ran a batch's whole-batch checks): a
        durable primary commits it (fsync before apply, so
        pressure-triggered repacks journal like user writes; a batch is
        *one* record, one fsync).

        With a replication cluster attached, the write goes through the
        cluster instead: commit on the primary node, ship the record to
        every follower, fence on a stale term
        (:class:`~repro.errors.FencedError` propagates to the caller).
        """
        if self._replication is not None:
            return self._replication.commit_from(
                self._replication.primary_id, dict(op), parsed
            )
        if self._durable:
            if op["op"] == "insert":  # the record DurableDatabase.insert journals
                op = {key: op[key] for key in ("op", "fragment", "position")}
            return self._primary._commit(op, parsed)
        return apply_op(base, op, parsed)

    # ------------------------------------------------------------------
    # replication / failover

    @property
    def replication(self):
        """The attached :class:`~repro.replication.cluster
        .ReplicationCluster` (None when standalone)."""
        return self._replication

    def promote(self, node_id: int):
        """Fail over to ``node_id`` and rewire the service's authority.

        The cluster persists the new fenced term before the node accepts
        a write; from then on reads pin the new primary node's epoch store
        and writes commit through it.
        """
        from repro.errors import ReplicationError

        if self._replication is None:
            raise ReplicationError("service has no replication cluster")
        with self._writer_lock:
            return self._replication.promote(node_id)

    def replication_status(self) -> dict | None:
        """The cluster's :meth:`~repro.replication.cluster
        .ReplicationCluster.status` (None when standalone)."""
        if self._replication is None:
            return None
        return self._replication.status()

    # ------------------------------------------------------------------
    # pressure-driven maintenance & degradation

    def _after_write(self) -> None:
        every = self.config.pressure_check_every
        if every <= 0:
            return
        self._writes_since_check += 1
        if self._writes_since_check >= every:
            self._writes_since_check = 0
            self.run_maintenance()

    def check_pressure(self) -> PressureReport:
        """Sample pressure on the authoritative log (no maintenance run):
        the log's O(1) trackers, no ER-tree or tag-list walk."""
        with self._writer_lock:
            report = self._monitor.sample(self._base)
        self._last_pressure = report
        return report

    def run_maintenance(self) -> PressureReport:
        """Sample pressure and execute the recommended plan, if any.

        Each planned op runs behind the circuit breaker; failures open it
        after the configured threshold and are swallowed here (the service
        keeps serving — that is the graceful-degradation contract).
        Returns the pressure report that drove the decision.
        """
        report = self.check_pressure()
        if not report.needs_maintenance:
            return report
        for op in report.plan:
            try:
                self._maintenance_op(op)
            except (Busy, CircuitOpenError, ServiceClosed):
                break
            except Exception:
                # Recorded by the breaker inside _maintenance_op; degraded
                # mode (breaker open) is the steady state if this persists.
                break
        self._last_pressure = self.check_pressure()
        return self._last_pressure

    def _maintenance_op(self, op: dict):
        def attempt():
            return self._write(op, "maintenance")

        self._counters["maintenance_runs"] += 1
        try:
            return self._breaker.call(attempt)
        except CircuitOpenError:
            raise
        except Exception:
            self._counters["maintenance_failures"] += 1
            raise

    @property
    def is_degraded(self) -> bool:
        """True when pressure is critical but maintenance cannot run
        (breaker open): reads continue, writes are shed."""
        if self._breaker.state != "open":
            return False
        last = self._last_pressure
        return last is not None and last.level == LEVEL_CRITICAL

    # ------------------------------------------------------------------
    # background maintenance

    def start_maintenance(self, interval: float = 1.0) -> None:
        """Run :meth:`run_maintenance` every ``interval`` seconds in a
        daemon thread until :meth:`close`."""
        self._ensure_open()
        if self._maintenance_thread is not None:
            return

        def loop():
            while not self._stop_maintenance.wait(interval):
                try:
                    self.run_maintenance()
                except ServiceClosed:  # pragma: no cover - close race
                    break

        self._maintenance_thread = threading.Thread(
            target=loop, name="repro-maintenance", daemon=True
        )
        self._maintenance_thread.start()

    # ------------------------------------------------------------------
    # health & lifecycle

    def health(self) -> dict:
        """Operational snapshot: status, pressure, breaker, admission,
        epochs, read-path cache, log stats."""
        last = self._last_pressure
        breaker_state = self._breaker.state
        if self._closed:
            status = "closed"
        elif self._draining:
            status = "draining"
        elif self.is_degraded:
            status = "degraded"
        elif breaker_state != "closed" or (last is not None and last.level != "ok"):
            status = "warning"
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
        epochs = self._store.metrics()
        payload = {
            "status": status,
            "durable": self._durable,
            **counts,
            "pressure": last.as_dict() if last is not None else None,
            "breaker": self._breaker.metrics(),
            "admission": self._admission.metrics(),
            "epochs": epochs,
            # The published buffer's compiled read-path cache — the one
            # read queries actually hit (reads run on pinned snapshots).
            "readpath": epochs.get("readpath"),
            "counters": dict(self._counters),
        }
        if self._replication is not None:
            payload["replication"] = self._replication.status()
        return payload

    @contextlib.contextmanager
    def _latest(self):
        """The latest committed state, read-only: the published epoch
        under a pin, which no write mutates.  Once the store is closed no
        write runs, and the writer buffer, caught up, serves."""
        try:
            snap = self._store.pin()
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
        self._stop_maintenance.set()

    def close(self) -> None:
        """Stop maintenance, refuse new requests, release the epoch store.

        In-flight reads holding pinned snapshots finish normally.
        """
        if self._closed:
            return
        self._closed = True
        self._stop_maintenance.set()
        if self._maintenance_thread is not None:
            self._maintenance_thread.join(timeout=5.0)
            self._maintenance_thread = None
        self._admission.close()
        if self._epochs is not None:
            with self._writer_lock:  # no write is between commit and publish
                self._epochs.close()
        if self._replication is not None:
            self._replication.close()
        elif self._durable:
            self._primary.close()

    def __enter__(self) -> "DatabaseService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
