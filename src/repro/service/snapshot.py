"""Epoch-based snapshot isolation: single writer, many readers.

The paper's structures are mutated in place, so a reader that overlaps a
half-applied insert/remove could observe an inconsistent index.  This
module gives readers a *pinned, immutable* view instead, RCU-style, over
two **buffers** — full databases, the second one built once with
:func:`repro.storage.clone`:

- The **published** buffer is what readers :meth:`~EpochManager.pin`
  (one locked refcount increment) and run arbitrary queries against.  A
  published buffer is never mutated, so a pinned snapshot stays
  internally consistent for as long as it is held — that is the whole
  isolation argument.
- The **writer** buffer is the authoritative database.  The single
  writer takes it from :meth:`~EpochManager.writer` before it commits,
  commits its ops to it (a durable primary journals first, as ever), and
  calls :meth:`~EpochManager.publish` with the op records, which swaps it
  in as the next epoch.  The retired buffer becomes the next writer
  buffer, one publish behind.
- :meth:`~EpochManager.writer` brings that buffer up to date first: it
  waits for the pins readers took while it was published to drain (the
  RCU grace period), then replays the ops it missed through the
  deterministic dispatcher crash recovery uses — so both buffers hold
  the same history, bit for bit — at what the ops cost less the parse:
  an insert replays from the parse kept beside its op, a whole-segment
  remove reads no text at all once the buffer trusts the document (a
  clone keeps its source's marks; see DESIGN.md §4, "Removal
  validation").  A write therefore applies its op twice: once as the
  commit, once as the catch-up.
- :meth:`~EpochManager.settle` runs that catch-up ahead of the next
  write, when it waits for nothing: the TCP front end calls it once a
  write's reply has left, so the second application runs in the idle
  time between frames instead of inside the next write's latency.  A
  settle that would wait (a reader holds the buffer, another writer is
  busy, the store is closed) does nothing, and :meth:`~EpochManager.writer`
  catches up at the next write as before.

A reader that holds a pin past ``drain_timeout`` cannot wedge the
writer: :meth:`~EpochManager.writer` abandons the stuck buffer to its
readers and clones a fresh writer buffer from the published one (counted
in :meth:`~EpochManager.metrics` as ``clone_fallbacks``; the stuck
reader's pin still counts in ``active_pins`` until it is released).  A
catch-up replay that fails leaves a buffer nobody can trust; it is
dropped and cloned the same way (``replica_rebuilds``).  The published
buffer holds every committed op, so a clone of it is always current.

Writers therefore never block readers, and readers delay the writer only
by at most one grace-period wait — and never indefinitely.

The epoch discipline is also what lets both buffers keep a **warm
compiled read path** (:mod:`repro.core.readpath`) across publishes: a
buffer is only mutated while private (the catch-up and the commit), each
op names the segments it wrote in the element index's write journal, and
once published the buffer is immutable — so compiled push lists, span
columns and memo chunks stay valid for unwritten segments from epoch to
epoch, and invalidation cost tracks the op stream, not the database
size.  :meth:`EpochManager.metrics` surfaces the published buffer's
cache hit/miss counters as ``readpath``.
"""

from __future__ import annotations

import threading
import time

from repro import storage
from repro.core.database import LazyXMLDatabase
from repro.durability.recovery import apply_op
from repro.errors import ServiceClosed

__all__ = ["EpochManager", "Snapshot"]


class _Buffer:
    """One database plus epoch/pin bookkeeping."""

    __slots__ = ("db", "epoch", "pins")

    def __init__(self, db: LazyXMLDatabase):
        self.db = db
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
        The authoritative LD database (every loader returns one; an LS
        buffer would not be query-ready once published).  It becomes the
        writer buffer as it is; the first published buffer is a clone of
        it, the one clone a manager makes unless a reader is stuck.
    drain_timeout:
        Seconds :meth:`writer` waits for the writer buffer's pins to
        drain before abandoning it and cloning a fresh one instead.
    """

    def __init__(self, seed: LazyXMLDatabase, *, drain_timeout: float = 5.0):
        self._drain_timeout = drain_timeout
        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        # Held across a catch-up and a swap, so two callers of writer()
        # never replay the same op twice.
        self._writing = threading.Lock()
        self._writer = _Buffer(seed)
        self._published = _Buffer(storage.clone(seed))
        # The (op, parse) pairs the writer buffer has not applied yet:
        # those of the last publish, which swapped it out.
        self._owed: list[tuple[dict, object]] = []
        # Buffers the writer gave up on, kept until their last pin goes
        # so `active_pins` still counts the readers that hold them.
        self._abandoned: set[_Buffer] = set()
        self._closed = False
        self._clones = 1
        self._publishes = 0
        self._drain_waits = 0
        self._clone_fallbacks = 0
        self._rebuilds = 0
        self._idle_catch_ups = 0

    # ------------------------------------------------------------------
    # reader side

    def pin(self) -> Snapshot:
        """Pin the currently published epoch; cheap (one locked refcount)."""
        with self._lock:
            if self._closed:
                raise ServiceClosed("epoch manager is closed")
            self._published.pins += 1
            return Snapshot(self, self._published)

    def _unpin(self, buffer: _Buffer) -> None:
        with self._lock:
            buffer.pins -= 1
            if buffer.pins == 0:
                self._abandoned.discard(buffer)
                self._drained.notify_all()

    # ------------------------------------------------------------------
    # writer side (single writer assumed; the service serializes writes)

    def writer(self) -> LazyXMLDatabase:
        """The writer buffer, brought up to date: the authoritative
        database, to commit to and then :meth:`publish`.

        Waits for the pins readers took while it was published to drain
        and replays the ops it missed; a no-op once it is current.  Still
        answers after :meth:`close`, so the final state can be saved.
        """
        with self._writing:
            if self._owed or self._writer.pins:
                self._catch_up()
            return self._writer.db

    def settle(self) -> bool:
        """Catch the writer buffer up now if that waits for nothing: no
        other caller holds the writer side, no reader holds the buffer,
        and the store is open.  Returns whether it replayed ops; when it
        does not, :meth:`writer` catches up at the next write instead."""
        if not self._writing.acquire(blocking=False):
            return False
        try:
            with self._lock:
                if self._closed or self._writer.pins or not self._owed:
                    return False
                self._idle_catch_ups += 1
            self._catch_up()
            return True
        finally:
            self._writing.release()

    def writer_ready(self) -> bool:
        """True when :meth:`writer` would wait for nothing and clone
        nothing: no reader holds the writer buffer.  Readers pin only the
        published buffer, so the single writer's answer holds until it
        publishes."""
        with self._lock:
            return self._writer.pins == 0

    def _catch_up(self) -> None:
        """Under ``_writing``: drain the writer buffer's pins, replay what
        it owes; a stuck reader or a failed replay costs a clone of the
        published buffer instead."""
        buffer: _Buffer | None = self._writer
        with self._lock:
            if buffer.pins:
                self._drain_waits += 1
                deadline = time.monotonic() + self._drain_timeout
                while buffer.pins:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # A stuck reader owns that buffer now; abandon it
                        # (kept in `_abandoned` until the reader releases).
                        self._clone_fallbacks += 1
                        self._abandoned.add(buffer)
                        buffer = None
                        break
                    self._drained.wait(remaining)
        if buffer is not None:
            # Private now (no pins, not published).  apply_op is the
            # recovery dispatcher, so the history matches the published
            # buffer's exactly.
            try:
                for op, parsed in self._owed:
                    apply_op(buffer.db, op, parsed)
            except Exception:
                # The buffer diverged midway (an injected fault): the
                # ops are committed, so drop it and start from a clone.
                self._rebuilds += 1
                buffer = None
        if buffer is None:
            # The published buffer is never mutated: reader-safe to clone.
            buffer = _Buffer(storage.clone(self._published.db))
            self._clones += 1
        self._writer = buffer
        self._owed = []

    def publish(self, ops: list[dict], parsed: list | None = None) -> int:
        """Swap in the writer buffer, which has committed ``ops``.

        Returns the new epoch number.  Must be called by the (single)
        writer after committing ``ops`` to :meth:`writer`'s database; the
        retired buffer replays them at the next :meth:`writer`, from
        ``parsed``, each op's ``parse_op``, if given.
        """
        with self._writing:
            if self._owed:
                raise RuntimeError(
                    "publish without writer(): ops were committed to a "
                    "buffer that was not up to date"
                )
            with self._lock:
                if self._closed:
                    raise ServiceClosed("epoch manager is closed")
                retiring, buffer = self._published, self._writer
                buffer.epoch = retiring.epoch + 1
                self._published, self._writer = buffer, retiring
                self._publishes += 1
            self._owed = list(zip(ops, parsed or [None] * len(ops)))
            return buffer.epoch

    # ------------------------------------------------------------------
    # lifecycle / introspection

    def close(self) -> None:
        """Refuse further pins and publishes; outstanding pins stay valid.

        Unless a reader still holds the writer buffer, it catches up now
        and the published buffer is let go (a reader holding it keeps
        it), so a closed store holds one database, the final state.
        :meth:`writer` returns it still, catching up first if it could
        not here.
        """
        with self._writing:
            with self._lock:
                self._closed = True
                if self._writer.pins or self._published is None:
                    return
            self._catch_up()
            with self._lock:
                if self._published.pins:
                    self._abandoned.add(self._published)
                self._published = None

    def metrics(self) -> dict:
        """Counters describing snapshot turnover (shape is part of the
        service's health output)."""
        with self._lock:
            published = self._published
            return {
                "epoch": None if self._closed else published.epoch,
                "active_pins": sum(
                    buffer.pins
                    for buffer in {published, self._writer, *self._abandoned}
                    if buffer is not None
                ),
                "publishes": self._publishes,
                "replica_clones": self._clones,
                "drain_waits": self._drain_waits,
                "clone_fallbacks": self._clone_fallbacks,
                "replica_rebuilds": self._rebuilds,
                "idle_catch_ups": self._idle_catch_ups,
                "pending_ops": len(self._owed),
                "readpath": None if published is None
                else published.db.readpath.stats(),
            }
