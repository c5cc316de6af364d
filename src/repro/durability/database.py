"""`DurableDatabase` — a journaled, crash-recoverable LazyXMLDatabase.

Every structural operation follows the same commit protocol:

1. **validate** — :func:`~repro.durability.recovery.validate_op` runs the
   operation's full precondition check against the current state, so
   nothing unreplayable ever reaches the journal;
2. **journal** — the op record is appended and fsynced
   (:meth:`~repro.durability.wal.Journal.append`); only now is the update
   considered committed;
3. **apply** — the op mutates the in-memory database through the exact
   dispatcher recovery replays with, keeping live and replayed histories
   identical, from what the validation found (the parse and the verdict,
   never journaled): each check runs once per op.

A crash at any point leaves the directory describing either the pre-op
state (journal record absent or torn) or the post-op state (record fully
durable); recovery never reconstructs anything else — the fault-injection
suite (``tests/test_durability_failpoints.py``) kills the write at every
boundary and asserts exactly that.

Checkpoints fold the journal into an atomic snapshot: write the checkpoint
(carrying ``last_seq``), then truncate the journal.  A crash between the
two steps leaves stale journal records, which recovery skips by sequence
number.

Read-side API (joins, path queries, stats, ``text`` …) is delegated to the
wrapped :class:`~repro.core.database.LazyXMLDatabase` via attribute
forwarding; only the five structural ops are intercepted.
"""

from __future__ import annotations

from pathlib import Path

from repro.durability import hooks
from repro.durability.atomic import fsync_directory
from repro.durability.checkpoint import write_checkpoint
from repro.durability.recovery import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    apply_op,
    recover,
    validate_op,
)
from repro.durability.wal import Journal
from repro.errors import JournalError

__all__ = ["DurableDatabase"]


class DurableDatabase:
    """A :class:`LazyXMLDatabase` whose updates survive process death.

    Parameters
    ----------
    directory:
        Holds ``checkpoint.json`` and ``journal.wal``.  Created (with
        parents) when missing; an existing directory is opened through
        crash recovery, which always yields a query-ready LD database.
        A checkpoint is taken when :meth:`checkpoint` is called, never
        behind the caller's back.
    """

    def __init__(self, directory: str | Path):
        self._epochs = None
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._db, self.recovery_report = recover(self.directory)
        self._last_seq = self.recovery_report.last_seq
        self._checkpoint_seq = self.recovery_report.checkpoint_seq
        journal_path = self.directory / JOURNAL_NAME
        journal_existed = journal_path.exists()
        # Physically trim a torn tail before appending past it: O_APPEND
        # would otherwise strand new records behind an invalid one.
        self._journal = Journal(
            journal_path,
            truncate_to=(
                self.recovery_report.journal_valid_bytes
                if self.recovery_report.torn_tail
                else None
            ),
        )
        if not journal_existed:
            fsync_directory(self.directory)
        self._poisoned: str | None = None

    @property
    def db(self):
        """The database this handle journals for: the recovered one, or,
        once :meth:`attach_epochs` ran, the epoch store's writer buffer
        brought up to date."""
        epochs = self._epochs
        return self._db if epochs is None else epochs.writer()

    def attach_epochs(self, epochs) -> None:
        """Commit to ``epochs``'s writer buffer from now on: an
        :class:`~repro.service.snapshot.EpochManager` seeded with
        :attr:`db`, whose published buffer serves the reads."""
        self._epochs = epochs
        self._db = None  # the store owns it now, and may drop it

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    def open(cls, directory: str | Path) -> "DurableDatabase":
        """Open (or create) a durable directory; alias of the constructor."""
        return cls(directory)

    def close(self) -> None:
        """Release the journal file descriptor (no implicit checkpoint)."""
        self._journal.close()

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the commit protocol

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently committed operation."""
        return self._last_seq

    @property
    def checkpoint_seq(self) -> int:
        """Sequence number folded into the current checkpoint (0 = none).

        A replication follower uses this as a journal-generation marker:
        every checkpoint truncates the journal, so when the primary's
        ``checkpoint_seq`` changes, the follower's cached tail offset is
        stale and must be reset to 0.
        """
        return self._checkpoint_seq

    @property
    def journal_size(self) -> int:
        """Current journal length in bytes."""
        return self._journal.size()

    @property
    def journal_path(self) -> Path:
        """Path of the journal file (for replication tail shipping)."""
        return self.directory / JOURNAL_NAME

    @property
    def checkpoint_path(self) -> Path:
        """Path of the current checkpoint file (for replica full resync)."""
        return self.directory / CHECKPOINT_NAME

    def _commit(self, op: dict, parsed=None):
        """Validate → journal → apply ``op``, from ``parse_op(op)`` if given."""
        if self._poisoned is not None:
            raise JournalError(
                f"database is read-only after a journal failure "
                f"({self._poisoned}); reopen {self.directory} to recover"
            )
        db = self.db
        checked = validate_op(db, op, parsed)
        seq = self._last_seq + 1
        try:
            self._journal.append(seq, op)
        except Exception as exc:
            # The record may be partially on disk; in-memory state is still
            # pre-op and recovery will discard the torn tail, but *this*
            # handle can no longer prove durability for further writes.
            self._poisoned = f"append of seq {seq} failed: {exc}"
            raise
        self._last_seq = seq
        return apply_op(db, op, checked)

    def checkpoint(self) -> None:
        """Fold the journal into an atomic snapshot, then truncate it."""
        write_checkpoint(self.db, self.checkpoint_path, self._last_seq)
        self._checkpoint_seq = self._last_seq
        self._journal.truncate()
        hooks.fire("checkpoint.after_truncate")

    # ------------------------------------------------------------------
    # journaled structural operations

    def commit(self, op: dict, parsed=None):
        """Journal and apply one op record (the replication entry point),
        from its parse ``parsed`` (``parse_op``) if given.

        A follower re-commits each shipped record through this, so its own
        journal mirrors the primary's with aligned sequence numbers; the op
        passes the same validate → journal → apply protocol as a local call.
        """
        return self._commit(dict(op), parsed)

    def insert(self, fragment: str, position: int | None = None):
        """Journaled :meth:`LazyXMLDatabase.insert`."""
        if position is None:
            position = self.db.document_length
        return self._commit(
            {"op": "insert", "fragment": fragment, "position": position}
        )

    def remove(self, position: int, length: int):
        """Journaled :meth:`LazyXMLDatabase.remove`."""
        return self._commit({"op": "remove", "position": position, "length": length})

    def remove_segment(self, sid: int):
        """Journaled :meth:`LazyXMLDatabase.remove_segment`."""
        return self._commit({"op": "remove_segment", "sid": sid})

    def repack(self, sid: int):
        """Journaled :meth:`LazyXMLDatabase.repack`."""
        return self._commit({"op": "repack", "sid": sid})

    def compact(self):
        """Journaled :meth:`LazyXMLDatabase.compact`."""
        return self._commit({"op": "compact"})

    def apply_batch(self, ops: list[dict]) -> list:
        """Journal and apply several structural ops as **one** commit.

        The whole batch is a single CRC-framed journal record appended and
        fsynced once — the fsync is the only commit point, so a crash
        anywhere leaves either none of the batch durable (record absent or
        torn) or all of it (record complete): recovery can never observe a
        partially committed batch.  Sub-ops apply in order through the
        recovery dispatcher; one whose preconditions fail mid-batch is
        skipped (``None`` in the returned result list), identically live
        and in replay.
        """
        return self._commit(
            {"op": "batch", "ops": [dict(sub) for sub in ops]}
        )

    # ------------------------------------------------------------------
    # read-side delegation

    def __getattr__(self, name: str):
        # Only called for attributes not found on DurableDatabase itself,
        # so the journaled ops above always win over the raw ones.
        return getattr(self.db, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DurableDatabase {self.directory} seq={self._last_seq} "
            f"segments={self.db.segment_count}>"
        )
