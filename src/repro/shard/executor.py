"""Per-shard query executors: in-process and persistent worker processes.

Two executors share one request dispatcher (:func:`handle_request`), so a
query computes the same payload whichever executor runs it:

- :class:`InProcessExecutor` runs requests directly on the coordinator's
  authoritative shard databases — the N=1 / test / degraded path.  No
  processes, no serialization, no op forwarding (the authoritative shards
  already have every update).
- :class:`ProcessExecutor` keeps one persistent worker process per shard
  (per-worker shard affinity) connected over a pipe.  Each worker holds a
  full replica of its shard, seeded with a :func:`repro.storage.dumps`
  snapshot and kept current by **lazy op forwarding**: committed ops are
  queued per shard and shipped with the next query message, where the
  worker replays them through the same :func:`repro.durability.recovery.
  apply_op` dispatcher crash recovery uses — replica state is
  bit-identical to the authoritative shard, and a worker that never gets
  queried never pays for updates it would not read (laziness as a virtue,
  once more).

Failure model: a worker that dies mid-query fails that query fast with a
typed :class:`~repro.errors.WorkerLost`; the executor marks the worker
dead and later requests for that shard run *degraded* — in-process on the
authoritative shard — until :meth:`ProcessExecutor.respawn` reseeds a
fresh process.  A worker that is merely slow raises its own
:class:`~repro.errors.DeadlineExceeded` (the query deadline travels in
the request), which keeps the pipe protocol in sync; the coordinator only
declares the worker lost after a grace period past the deadline.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict

from repro import storage
from repro.core.join import JoinStatistics
from repro.durability.recovery import apply_op
from repro.errors import ReproError, WorkerLost, error_class
from repro.obs.metrics import METRICS
from repro.service.commands import span_row
from repro.service.context import QueryContext

__all__ = ["InProcessExecutor", "ProcessExecutor", "handle_request"]

_M_DEGRADED = METRICS.counter(
    "shard.degraded_queries",
    unit="requests",
    site="ProcessExecutor (dead worker, in-process fallback)",
)
_M_WORKER_LOST = METRICS.counter(
    "shard.worker_losses", unit="workers", site="ProcessExecutor._gather"
)

#: Pending forwarded ops per shard before an eager flush (a ping carrying
#: the backlog) bounds coordinator-side memory.
_FLUSH_THRESHOLD = 1024

#: Extra seconds past a request's own deadline before the coordinator
#: declares a silent worker lost rather than slow.
_DEADLINE_GRACE = 0.5

#: Poll granularity while gathering without any deadline.
_IDLE_POLL = 0.25


# ----------------------------------------------------------------------
# shared request dispatch (worker process, in-process executor, fallback)


def _rows(db, records):
    """Reply rows ``(start, end, gstart, gend, sid, level)``: each
    record's shard-local span, then its :func:`span_row`.

    Global spans are shard-local here; the coordinator rebases them into
    virtual-global coordinates with the document map.
    """
    return [(r.start, r.end, *span_row(db, r)) for r in records]


def handle_request(db, verb: str, args: tuple):
    """Execute one shard-local request against ``db``; returns the payload.

    ``db`` is one shard, a :class:`~repro.core.database.LazyXMLDatabase`.
    """
    if verb == "join":
        tag_a, tag_d, axis, algorithm, timeout = args
        context = QueryContext(timeout=timeout) if timeout is not None else None
        stats = JoinStatistics()
        pairs = db.structural_join(
            tag_a, tag_d, axis, algorithm=algorithm, stats=stats, context=context
        )
        a_rows = _rows(db, [a for a, _ in pairs])
        d_rows = _rows(db, [d for _, d in pairs])
        return {
            "stats": asdict(stats),
            "pairs": [a + d for a, d in zip(a_rows, d_rows)],
        }
    if verb == "elements":
        (tag,) = args
        return [
            (e.record.start, e.record.end, e.start, e.end, e.record.sid, e.level)
            for e in db.global_elements(tag)
        ]
    if verb == "path":
        expression, timeout = args
        context = QueryContext(timeout=timeout) if timeout is not None else None
        return _rows(db, db.path_query(expression, context=context))
    if verb == "twig":
        expression, strategy, timeout = args
        context = QueryContext(timeout=timeout) if timeout is not None else None
        return _rows(
            db, db.twig_query(expression, strategy=strategy, context=context)
        )
    if verb == "ping":
        return "pong"
    raise ValueError(f"unknown shard request verb {verb!r}")


# ----------------------------------------------------------------------
# worker process side


def _worker_main(conn, payload: str) -> None:  # pragma: no cover - subprocess
    """Loop of one shard worker: replay forwarded ops, answer requests."""
    db = storage.loads(payload)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        req_id, verb, ops, args = message
        try:
            for op in ops:
                apply_op(db, op)
            if verb == "stop":
                conn.send((req_id, "ok", None))
                break
            result = handle_request(db, verb, args)
        except BaseException as exc:  # noqa: BLE001 - ships the error home
            conn.send((req_id, "error", type(exc).__name__, str(exc)))
        else:
            conn.send((req_id, "ok", result))
    conn.close()


# ----------------------------------------------------------------------
# executors


class InProcessExecutor:
    """Runs every request synchronously on the authoritative shards."""

    def __init__(self, shards):
        self._shards = shards

    @property
    def kind(self) -> str:
        return "inprocess"

    def forward(self, shard: int, op: dict) -> None:
        """No-op: the authoritative shard already applied the op."""

    def alive(self, shard: int) -> bool:
        return True

    def query(self, shard: int, verb: str, args: tuple):
        return handle_request(self._shards[shard], verb, args)

    def scatter(self, requests, *, timeout: float | None = None):
        """Sequential fan-out: ``requests`` is ``[(shard, verb, args)]``."""
        return [self.query(shard, verb, args) for shard, verb, args in requests]

    def close(self) -> None:
        pass


class _Worker:
    """Book-keeping for one shard's worker process."""

    __slots__ = ("process", "conn", "pending", "dead", "next_req")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.pending: list[dict] = []
        self.dead = False
        self.next_req = 0


class ProcessExecutor:
    """One persistent worker process per shard, scatter-gather over pipes.

    ``shards`` are the coordinator's authoritative databases: snapshots
    seed (re)spawned workers, and a dead worker's shard falls back to them
    in-process (degraded mode) so queries keep answering.
    """

    def __init__(self, shards):
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._shards = shards
        self._workers: list[_Worker] = [
            self._spawn(shard) for shard in range(len(shards))
        ]

    @property
    def kind(self) -> str:
        return "process"

    def _snapshot(self, shard: int) -> str:
        return storage.dumps(self._shards[shard])

    def _spawn(self, shard: int) -> _Worker:
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child, self._snapshot(shard)),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        process.start()
        child.close()
        return _Worker(process, parent)

    # ------------------------------------------------------------------
    # update forwarding (lazy: shipped with the next query)

    def forward(self, shard: int, op: dict) -> None:
        worker = self._workers[shard]
        if worker.dead:
            return  # respawn reseeds from the authoritative snapshot
        worker.pending.append(op)
        if len(worker.pending) >= _FLUSH_THRESHOLD:
            try:
                self.query(shard, "ping", ())
            except WorkerLost:
                pass  # marked dead; later queries degrade

    # ------------------------------------------------------------------
    # health / lifecycle

    def alive(self, shard: int) -> bool:
        worker = self._workers[shard]
        return not worker.dead and worker.process.is_alive()

    def _mark_lost(self, shard: int) -> None:
        worker = self._workers[shard]
        if worker.dead:
            return
        worker.dead = True
        worker.pending.clear()
        if METRICS.enabled:
            _M_WORKER_LOST.inc()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if worker.process.is_alive():
            worker.process.terminate()

    def kill(self, shard: int) -> None:
        """Forcibly kill one worker (fault drills); queries then degrade."""
        worker = self._workers[shard]
        if worker.process.is_alive():
            kill = getattr(worker.process, "kill", worker.process.terminate)
            kill()
            worker.process.join(timeout=5)
        self._mark_lost(shard)

    def respawn(self, shard: int) -> None:
        """Replace a dead worker with a fresh one seeded from the
        authoritative shard snapshot (which already holds every op)."""
        old = self._workers[shard]
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5)
        self._workers[shard] = self._spawn(shard)

    def close(self) -> None:
        for shard, worker in enumerate(self._workers):
            if worker.dead or not worker.process.is_alive():
                continue
            try:
                self._request(shard, "stop", (), timeout=5.0)
            except (WorkerLost, ReproError):
                pass
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=5)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass

    # ------------------------------------------------------------------
    # request/reply

    def _request(self, shard: int, verb: str, args: tuple, *, timeout=None):
        self._send(shard, verb, args)
        return self._gather_one(shard, timeout)

    def _send(self, shard: int, verb: str, args: tuple) -> None:
        worker = self._workers[shard]
        worker.next_req += 1
        ops, worker.pending = worker.pending, []
        try:
            worker.conn.send((worker.next_req, verb, ops, args))
        except (OSError, ValueError, BrokenPipeError) as exc:
            self._mark_lost(shard)
            raise WorkerLost(f"shard {shard} worker pipe broke: {exc}") from exc

    def _gather_one(self, shard: int, timeout: float | None):
        worker = self._workers[shard]
        deadline_grace = (
            None if timeout is None else max(timeout, 0.0) + _DEADLINE_GRACE
        )
        while True:
            wait = _IDLE_POLL if deadline_grace is None else deadline_grace
            try:
                ready = worker.conn.poll(wait)
            except (OSError, EOFError) as exc:
                self._mark_lost(shard)
                raise WorkerLost(
                    f"shard {shard} worker pipe broke: {exc}"
                ) from exc
            if ready:
                break
            if not worker.process.is_alive():
                self._mark_lost(shard)
                raise WorkerLost(f"shard {shard} worker died mid-query")
            if deadline_grace is not None:
                # Alive but silent past deadline + grace: the pipe can no
                # longer be trusted to stay in sync — declare it lost.
                self._mark_lost(shard)
                raise WorkerLost(
                    f"shard {shard} worker unresponsive past deadline"
                )
        try:
            req_id, status, *rest = worker.conn.recv()
        except (EOFError, OSError) as exc:
            self._mark_lost(shard)
            raise WorkerLost(f"shard {shard} worker died mid-reply: {exc}") from exc
        if req_id < worker.next_req:
            # Reply to a request whose gather was abandoned (an earlier
            # scatter raised mid-batch); discard and keep reading.
            return self._gather_one(shard, timeout)
        if req_id > worker.next_req:
            self._mark_lost(shard)
            raise WorkerLost(f"shard {shard} worker desynced (reply {req_id})")
        if status == "error":
            # The worker's exception, rebuilt as its typed local
            # counterpart; anything else means the worker itself failed.
            type_name, message = rest
            exc_type = error_class(type_name)
            if exc_type is None:
                raise WorkerLost(
                    f"shard {shard} worker failed: {type_name}: {message}"
                )
            raise exc_type(message)
        return rest[0]

    def query(self, shard: int, verb: str, args: tuple):
        if self._workers[shard].dead:
            if METRICS.enabled:
                _M_DEGRADED.inc()
            return handle_request(self._shards[shard], verb, args)
        return self._request(shard, verb, args)

    def scatter(self, requests, *, timeout: float | None = None):
        """Fan a batch of ``(shard, verb, args)`` out and gather in order.

        Sends to every live worker first so the per-shard computations
        overlap; dead shards run in-process (degraded).  Results are
        returned in request order; the first failure propagates after its
        send already happened — queries are read-only, so abandoning the
        other replies is safe (each is matched by request id later).
        """
        degraded: dict[int, object] = {}
        sent: list[int] = []
        for index, (shard, verb, args) in enumerate(requests):
            if self._workers[shard].dead:
                if METRICS.enabled:
                    _M_DEGRADED.inc()
                degraded[index] = handle_request(self._shards[shard], verb, args)
            else:
                self._send(shard, verb, args)
                sent.append(index)
        results: list[object] = [None] * len(requests)
        for index, value in degraded.items():
            results[index] = value
        for index in sent:
            shard = requests[index][0]
            results[index] = self._gather_one(shard, timeout)
        return results
