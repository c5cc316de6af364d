"""Epoch-based snapshot isolation: single writer, many readers.

The paper's structures are mutated in place, so a reader that overlaps a
half-applied insert/remove could observe an inconsistent index.  This
module gives readers a *pinned, immutable* view instead, RCU-style:

- The manager owns read **buffers** — full database replicas built with
  :func:`repro.storage.clone`.  Exactly one buffer is *published* at any
  instant; readers :meth:`~EpochManager.pin` it (one locked refcount
  increment) and run arbitrary queries against it.  A published buffer is
  never mutated, so a pinned snapshot stays internally consistent for as
  long as it is held — that is the whole isolation argument.
- The single writer applies each committed operation to the authoritative
  database, then calls :meth:`~EpochManager.publish` with the op records.
  Publish replays the ops onto a *spare* buffer and atomically swaps it in
  as the next epoch.  Replay goes through the deterministic dispatcher
  crash recovery uses, so replica state is bit-identical to the primary,
  and costs what the ops cost less the parse: an insert replays from the
  primary's parse (kept beside the op), a whole-segment remove reads no
  text at all once the replica trusts the document (a clone keeps its
  source's marks; see DESIGN.md §4, "Removal validation").  Readers
  arriving after the swap see the new epoch; readers still holding the
  old one are undisturbed.
- The previous buffer becomes the next spare once its pin count drains to
  zero (the RCU grace period).  A reader that holds a pin past
  ``drain_timeout`` cannot wedge the writer: publish abandons the stuck
  buffer to its readers and clones a fresh one from the published state
  (counted in :meth:`metrics` as ``clone_fallbacks``; the stuck reader's
  pin still counts in ``active_pins`` until it is released).

Writers therefore never block readers, and readers delay the writer only
by at most one grace-period wait — and never indefinitely.

The epoch discipline is also what lets replicas keep a **warm compiled
read path** (:mod:`repro.core.readpath`) across publishes: a buffer is
only mutated while private (op replay on the spare), each replayed op
bumps exactly the version counters of the structures it touched, and once
published the buffer is immutable — so compiled push lists, span
columns and join chunks stay valid for untouched structures from epoch
to epoch, and
invalidation cost tracks the op stream, not the database size.
:meth:`EpochManager.metrics` surfaces the published replica's cache
hit/miss counters as ``readpath``.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro import storage
from repro.core.database import LazyXMLDatabase
from repro.durability.recovery import apply_op
from repro.errors import ServiceClosed

__all__ = ["EpochManager", "Snapshot"]


class _Buffer:
    """One read replica: a database plus epoch/pin bookkeeping."""

    __slots__ = ("db", "applied_upto", "epoch", "pins")

    def __init__(self, db: LazyXMLDatabase, applied_upto: int):
        self.db = db
        self.applied_upto = applied_upto  # absolute index into the op history
        self.epoch = 0
        self.pins = 0


class Snapshot:
    """A pinned, consistent read-only view of the database at one epoch.

    Use as a context manager (or call :meth:`release`); queries run against
    :attr:`db`.  The underlying buffer is guaranteed not to change until
    every pin on it is released.
    """

    __slots__ = ("db", "epoch", "_manager", "_buffer", "_released")

    def __init__(self, manager: "EpochManager", buffer: _Buffer):
        self._manager = manager
        self._buffer = buffer
        self.db = buffer.db
        self.epoch = buffer.epoch
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._manager._unpin(self._buffer)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Snapshot epoch={self.epoch} released={self._released}>"


class EpochManager:
    """Publishes database epochs to readers; owned by a single writer.

    Parameters
    ----------
    seed:
        The authoritative database's current state; the first published
        buffer is a clone of it.
    drain_timeout:
        Seconds :meth:`publish` waits for the retiring buffer's pins to
        drain before abandoning it and cloning a fresh replica instead.

    Every buffer is a :func:`repro.storage.clone`, so a replica is a
    query-ready LD database whatever the seed's mode.
    """

    def __init__(self, seed: LazyXMLDatabase, *, drain_timeout: float = 5.0):
        self._drain_timeout = drain_timeout
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        # Absolute op history of (op, parse) pairs; ops before _ops_base
        # have been replayed by every tracked buffer and are dropped.
        self._ops: deque[tuple[dict, object]] = deque()
        self._ops_base = 0
        self._ops_total = 0
        first = _Buffer(storage.clone(seed), applied_upto=0)
        self._current: _Buffer | None = first
        self._spares: deque[_Buffer] = deque()
        # Buffers publish gave up on, kept until their last pin goes so
        # `active_pins` still counts the readers that hold them.
        self._abandoned: set[_Buffer] = set()
        self._clones = 1
        self._publishes = 0
        self._drain_waits = 0
        self._clone_fallbacks = 0

    # ------------------------------------------------------------------
    # reader side

    def pin(self) -> Snapshot:
        """Pin the currently published epoch; cheap (one locked refcount)."""
        with self._lock:
            if self._current is None:
                raise ServiceClosed("epoch manager is closed")
            self._current.pins += 1
            return Snapshot(self, self._current)

    def _unpin(self, buffer: _Buffer) -> None:
        with self._lock:
            buffer.pins -= 1
            if buffer.pins == 0:
                self._abandoned.discard(buffer)
                self._drained.notify_all()

    # ------------------------------------------------------------------
    # writer side (single writer assumed; the service serializes writes)

    @property
    def current_epoch(self) -> int:
        with self._lock:
            if self._current is None:
                raise ServiceClosed("epoch manager is closed")
            return self._current.epoch

    def publish(self, ops: list[dict], parsed: list | None = None) -> int:
        """Replay committed ``ops`` onto a spare buffer and swap it in.

        Returns the new epoch number.  Must be called by the (single)
        writer after the authoritative database has applied ``ops``.
        Replicas replay from ``parsed``, each op's ``parse_op``, if given.
        """
        with self._lock:
            if self._current is None:
                raise ServiceClosed("epoch manager is closed")
            self._ops.extend(zip(ops, parsed or [None] * len(ops)))
            self._ops_total += len(ops)
            spare = self._take_spare_locked()
        if spare is None:
            spare = self._clone_current()
        # The spare is private now (zero pins, not published): replay the
        # ops it has not seen.  apply_op is the recovery dispatcher, so the
        # replica's history is identical to the primary's.
        while spare.applied_upto < self._ops_total:
            apply_op(spare.db, *self._ops_at(spare.applied_upto))
            spare.applied_upto += 1
        with self._lock:
            if self._current is None:
                raise ServiceClosed("epoch manager is closed")
            retiring = self._current
            spare.epoch = retiring.epoch + 1
            self._current = spare
            self._spares.append(retiring)
            self._publishes += 1
            self._truncate_ops_locked()
            return spare.epoch

    def spare_ready(self) -> bool:
        """True when the next :meth:`publish` would wait for nothing: a
        spare is there and no reader holds it, so neither a drain wait
        nor a clone is due.  Only publish makes a buffer a spare and
        readers pin only the current one, so the single writer's answer
        holds until it publishes."""
        with self._lock:
            return bool(self._spares) and self._spares[0].pins == 0

    def _take_spare_locked(self) -> _Buffer | None:
        """Pop a spare whose readers have drained; None → caller clones."""
        if not self._spares:
            return None
        spare = self._spares.popleft()
        if spare.pins == 0:
            return spare
        self._drain_waits += 1
        deadline = time.monotonic() + self._drain_timeout
        while spare.pins:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # A stuck reader owns that buffer now; abandon it (kept
                # in `_abandoned` until the reader releases) and report
                # that a fresh clone is needed.
                self._clone_fallbacks += 1
                self._abandoned.add(spare)
                return None
            self._drained.wait(remaining)
        return spare

    def _clone_current(self) -> _Buffer:
        """Build a new buffer from the published state (reader-safe: the
        published buffer is never mutated)."""
        with self._lock:
            if self._current is None:
                raise ServiceClosed("epoch manager is closed")
            source = self._current
        buffer = _Buffer(storage.clone(source.db), applied_upto=source.applied_upto)
        self._clones += 1
        return buffer

    def _ops_at(self, index: int) -> tuple[dict, object]:
        return self._ops[index - self._ops_base]

    def _truncate_ops_locked(self) -> None:
        tracked = [self._current] + list(self._spares)
        floor = min(buffer.applied_upto for buffer in tracked)
        while self._ops_base < floor:
            self._ops.popleft()
            self._ops_base += 1

    # ------------------------------------------------------------------
    # lifecycle / introspection

    def close(self) -> None:
        """Refuse further pins and publishes; outstanding pins stay valid."""
        with self._lock:
            self._current = None
            self._spares.clear()
            self._ops.clear()

    def metrics(self) -> dict:
        """Counters describing snapshot turnover (shape is part of the
        service's health output)."""
        with self._lock:
            current = self._current
            readpath = getattr(current.db, "readpath", None) if current is not None else None
            return {
                "epoch": current.epoch if current is not None else None,
                "active_pins": (current.pins if current is not None else 0)
                + sum(buffer.pins for buffer in self._spares)
                + sum(buffer.pins for buffer in self._abandoned),
                "publishes": self._publishes,
                "replica_clones": self._clones,
                "drain_waits": self._drain_waits,
                "clone_fallbacks": self._clone_fallbacks,
                "pending_ops": len(self._ops),
                "readpath": readpath.stats() if readpath is not None else None,
            }
