"""`DatabaseService` — the resilient concurrent facade over the lazy store.

Composes the pieces of :mod:`repro.service` into one operational surface:

- **reads** go through admission control, pin an epoch snapshot
  (:mod:`repro.service.snapshot`), and run under a
  :class:`~repro.service.context.QueryContext` deadline/budget; they never
  observe a half-applied update and never block the writer;
- **writes** (single-writer) go through admission control and the
  journaled primary when it is a
  :class:`~repro.durability.database.DurableDatabase` — then the committed
  op is replayed onto the next epoch's replica and published atomically;
- **maintenance** is driven by the :class:`~repro.service.pressure.
  PressureMonitor` and executed behind a :class:`~repro.service.breaker.
  CircuitBreaker`: repeated repack/compact failures open the breaker and
  the service degrades gracefully — reads keep flowing, writes are shed
  while pressure is critical — instead of hot-looping a failing repair;
- **sharded primaries** (:class:`~repro.shard.database.ShardedDatabase`
  and its durable subclass) are served natively: reads scatter-gather
  through the shard executor's worker replicas instead of pinning epoch
  snapshots (the coordinator's shard lock plus per-worker replicas *are*
  the isolation mechanism), writes route through the coordinator's
  virtual-coordinate methods, and pressure is sampled per shard with the
  worst level governing degradation.

``python -m repro serve`` wraps this class in a line-oriented shell (see
:mod:`repro.service.shell`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.database import LazyXMLDatabase
from repro.durability.recovery import apply_op
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
from repro.service.context import QueryContext
from repro.service.pressure import (
    LEVEL_CRITICAL,
    LEVEL_ELEVATED,
    LEVEL_OK,
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


#: Severity order for merging per-shard pressure levels.
_LEVEL_ORDER = {LEVEL_OK: 0, LEVEL_ELEVATED: 1, LEVEL_CRITICAL: 2}


class _DirectView:
    """`snapshot()` stand-in for sharded primaries: a context-managed
    handle on the coordinator itself (no epoch pinning to release)."""

    def __init__(self, db):
        self.db = db

    def release(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class DatabaseService:
    """Concurrent, deadline-aware, self-defending access to a database.

    Parameters
    ----------
    primary:
        The authoritative store — a plain
        :class:`~repro.core.database.LazyXMLDatabase` or a
        :class:`~repro.durability.database.DurableDatabase` (in which case
        every write, including pressure-triggered repacks, goes through the
        journaled commit protocol).
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
        # Local import: repro.shard.executor needs repro.service.context,
        # so a module-level import here would be circular.
        from repro.shard.database import ShardedDatabase
        from repro.shard.durable import ShardedDurableDatabase

        self.config = config or ServiceConfig()
        self._replication = replication
        if replication is not None and primary is None:
            primary = replication.primary.durable
        self.primary = primary
        self._sharded = isinstance(primary, ShardedDatabase)
        if self._sharded:
            # The coordinator is the read/write surface; its worker
            # replicas (or the shard lock, in-process) isolate readers.
            self._base = primary
            self._durable = isinstance(primary, ShardedDurableDatabase)
        else:
            # The raw LazyXMLDatabase behind a durable wrapper (or the
            # primary itself): what replicas are cloned from and pressure
            # is sampled on.
            self._base: LazyXMLDatabase = getattr(primary, "db", primary)
            self._durable = self._base is not primary
        self._clock = clock
        # Sharded primaries skip the epoch store: reads fan out to worker
        # replicas kept current by lazy op forwarding, so there is no
        # single replica to publish epochs over.
        self._epochs = (
            None
            if self._sharded
            else EpochManager(self._base, drain_timeout=self.config.drain_timeout)
        )
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
            "replica_rebuilds": 0,
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

    def snapshot(self) -> Snapshot:
        """Pin the current epoch directly (no admission, no deadline) —
        for diagnostics and invariant checks; release it promptly.

        Sharded primaries have no epoch store; the returned handle views
        the coordinator directly (reads take the shard lock per call).
        """
        self._ensure_open()
        if self._epochs is None:
            return _DirectView(self._base)
        return self._epochs.pin()

    @property
    def has_epoch_store(self) -> bool:
        """True when a read pins an in-process epoch buffer; False for a
        sharded primary, whose reads wait on worker pipes."""
        return self._epochs is not None

    # ------------------------------------------------------------------
    # reads

    def read(self, fn, *, context=None, snapshot=None):
        """Run ``fn(db, context)`` against a pinned snapshot.

        The one read entry point: admission-controlled, snapshot-
        isolated, deadline-enforced, counted.  ``fn`` must treat ``db`` as
        read-only and let nothing of it escape: once the pin is released a
        drained buffer becomes the publish spare and is mutated in place.
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

    def apply(self, op: dict):
        """Commit one journal-dialect op record; returns the op's result.

        The one write entry (the methods below are this call with the
        record spelled out): ``repack``/``compact`` run in the maintenance
        class behind the breaker, the rest in the write class; an
        ``insert`` without a position appends.
        """
        kind = op["op"]
        if kind in ("repack", "compact"):
            return self._maintenance_op(op)
        if kind == "insert" and op.get("position") is None:
            op = {**op, "position": self._base.document_length}
        return self._write(op)

    def insert(self, fragment: str, position: int | None = None, *,
               validate: str = "fragment"):
        op = {"op": "insert", "fragment": fragment, "position": position}
        if validate != "fragment":
            op["validate"] = validate
        return self.apply(op)

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

    def _write(self, op: dict, request_class: str = "write"):
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
        with self._admission.admit(request_class, self.config.admission_wait):
            with self._writer_lock:
                result = self._apply_primary(op)
                self._publish([op])
                self._counters["writes"] += 1
                if request_class == "write":
                    self._after_write()
        return result

    def _apply_primary(self, op: dict):
        """Apply ``op`` to the authoritative database.

        Every primary spells the structural operations alike, so the
        record goes through the dispatcher recovery and the replicas use:
        a durable primary's methods journal (fsync before apply, so
        pressure-triggered repacks journal like user writes), the sharded
        coordinator's route to the owning shard.  A batch goes to the
        primary's own ``apply_batch``, where it becomes *one* commit (one
        whole-batch validation, one journal record, one fsync).

        With a replication cluster attached, the write goes through the
        cluster instead: commit on the primary node, ship the record to
        every follower, fence on a stale term
        (:class:`~repro.errors.FencedError` propagates to the caller).
        """
        if self._replication is not None:
            return self._replication.commit_from(
                self._replication.primary_id, dict(op)
            )
        if op["op"] == "batch":
            return self.primary.apply_batch(op["ops"])
        return apply_op(self.primary, op)

    def _publish(self, ops: list[dict]) -> None:
        """Publish committed ops to readers; self-heal on replica failure.

        Replica replay uses the same dispatcher as crash recovery, so a
        failure here means the replica diverged (e.g. an injected fault).
        The primary is already committed — readers must not be left on a
        stale epoch forever — so the epoch store is rebuilt from a fresh
        clone of the primary.

        Sharded primaries publish nothing here: the coordinator already
        forwarded the committed op to the owning shard's worker replica.
        """
        if self._epochs is None:
            return
        try:
            self._epochs.publish(ops)
        except Exception:
            self._counters["replica_rebuilds"] += 1
            old = self._epochs
            self._epochs = EpochManager(
                self._base, drain_timeout=self.config.drain_timeout
            )
            old.close()

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
        a write; the service then re-seeds its epoch store from the new
        primary's database so subsequent reads and writes flow through it.
        """
        from repro.errors import ReplicationError

        if self._replication is None:
            raise ReplicationError("service has no replication cluster")
        with self._writer_lock:
            node = self._replication.promote(node_id)
            self.primary = node.durable
            self._base = node.durable.db
            old = self._epochs
            self._epochs = EpochManager(
                self._base, drain_timeout=self.config.drain_timeout
            )
            if old is not None:
                old.close()
        return node

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
            if self._sharded:
                report = self._sample_sharded()
            else:
                report = self._monitor.sample(self._base)
        self._last_pressure = report
        return report

    def _sample_sharded(self) -> PressureReport:
        """Per-shard pressure, merged: worst level governs, plans concatenate.

        Each shard's log is sampled from its own O(1) trackers.  Repack
        plans carry lattice sids, which the sharded
        dispatcher routes to the owning shard; a compact anywhere collapses
        to one global compact (the coordinator compacts every shard).
        """
        merged = PressureReport(segments=0, depth=0, fanout=0)
        want_compact = False
        for shard, db in enumerate(self.primary.shards):
            report = self._monitor.sample(getattr(db, "db", db))
            merged.segments += report.segments
            merged.depth = max(merged.depth, report.depth)
            merged.fanout = max(merged.fanout, report.fanout)
            if _LEVEL_ORDER[report.level] > _LEVEL_ORDER[merged.level]:
                merged.level = report.level
            merged.reasons.extend(
                f"shard {shard}: {reason}" for reason in report.reasons
            )
            for op in report.plan:
                if op["op"] == "compact":
                    want_compact = True
                else:
                    merged.plan.append(op)
        if want_compact:
            merged.plan.append({"op": "compact"})
        return merged

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
        log_stats = self._base.stats()
        epochs = self._epochs.metrics() if self._epochs is not None else None
        payload = {
            "status": status,
            "durable": self._durable,
            "segments": self._base.segment_count,
            "elements": self._base.element_count,
            "document_length": self._base.document_length,
            "log_bytes": log_stats.total_bytes,
            "pressure": last.as_dict() if last is not None else None,
            "breaker": self._breaker.metrics(),
            "admission": self._admission.metrics(),
            "epochs": epochs,
            # The published replica's compiled read-path cache — the one
            # read queries actually hit (reads run on pinned snapshots).
            "readpath": epochs.get("readpath") if epochs is not None else None,
            "counters": dict(self._counters),
        }
        if self._replication is not None:
            payload["replication"] = self._replication.status()
        if self._sharded:
            executor = self.primary.executor
            payload["shards"] = {
                "count": self.primary.n_shards,
                "executor": executor.kind,
                "documents": [
                    self.primary.docmap.docs_on(s)
                    for s in range(self.primary.n_shards)
                ],
                "workers_alive": [
                    executor.alive(s) for s in range(self.primary.n_shards)
                ],
            }
        return payload

    def stats(self) -> dict:
        """:meth:`health` minus derived status, plus the full metric
        snapshot and catalogue from the registry (CLI/shell ``stats``)."""
        health = self.health()
        health.pop("status", None)
        health["metrics"] = METRICS.snapshot()
        health["metric_catalogue"] = METRICS.catalogue()
        # Planner decisions (path + twig surfaces): strategy counts and
        # the most recent choices with their cost estimates, so a plan
        # regression shows up here instead of only in latency.
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
            self._epochs.close()
        if self._replication is not None:
            self._replication.close()
        elif self._durable or self._sharded:
            self.primary.close()

    def __enter__(self) -> "DatabaseService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
