"""Crash recovery: checkpoint load + journal-tail replay.

Recovery reconstructs the database a durable directory describes:

1. load the checkpoint if one exists (verified by its embedded checksum,
   with the document marks it was written with), otherwise start from an
   empty database;
2. scan the journal, silently discarding a torn final record (the
   signature of a crash mid-append);
3. replay every record with ``seq`` greater than the checkpoint's
   ``last_seq`` — older records are leftovers of a crash between the
   checkpoint replace and the journal truncation and must not be
   double-applied;
4. finish with ``check_invariants()``.

Replay uses the same operation dispatcher (:func:`apply_op`) the live
:class:`~repro.durability.database.DurableDatabase` uses, so a replayed
history is bit-identical to the directly applied one (the replay-
equivalence property tests assert exactly this), applying each record
from what its validation found (parse and verdict), so it is checked
once.  A record whose pre-validation fails during
replay corresponds to a live call that raised before mutating anything; it
is skipped, reproducing the live outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.database import InsertCheck, LazyXMLDatabase
from repro.core.maintenance import require_repackable
from repro.durability import hooks
from repro.durability.checkpoint import CHECKPOINT_NAME, read_checkpoint
from repro.durability.wal import JournalScan, read_journal
from repro.errors import (
    InvalidSegmentError,
    RecoveryError,
    ReproError,
)
from repro.xml.parser import parse_flat

__all__ = [
    "CHECKPOINT_NAME",
    "JOURNAL_NAME",
    "BATCH_KIND",
    "OP_KINDS",
    "RecoveryReport",
    "recover",
    "apply_op",
    "parse_op",
    "validate_op",
    "validate_batch_ops",
]

JOURNAL_NAME = "journal.wal"

#: What an older version wrote at the top of a directory it split into
#: several databases; :func:`recover` refuses such a directory.
MANIFEST_NAME = "manifest.json"

#: What an older version wrote in each node directory of a replicated
#: group; :func:`recover` refuses such a directory too.
REPLICA_MANIFEST_NAME = "replication.json"

#: Operation kinds a journal record may carry as a single record.
OP_KINDS = ("insert", "remove", "remove_segment", "repack", "compact")

#: The batched-record kind: one journal record carrying a list of
#: :data:`OP_KINDS` sub-ops, committed by a single fsync and applied under
#: one version-bump epoch.  Batches never nest.
BATCH_KIND = "batch"


@dataclass
class RecoveryReport:
    """What recovery found and did."""

    directory: str
    checkpoint_found: bool = False
    checkpoint_seq: int = 0  # last_seq folded into the checkpoint (0 = none)
    last_seq: int = 0
    ops_replayed: int = 0
    ops_skipped: int = 0  # records replay rejected (live call raised pre-mutation)
    torn_tail: bool = False
    journal_valid_bytes: int = 0
    skipped_details: list[str] = field(default_factory=list)

    def describe(self) -> str:
        parts = [
            f"checkpoint={'yes' if self.checkpoint_found else 'no'}",
            f"last_seq={self.last_seq}",
            f"replayed={self.ops_replayed}",
        ]
        if self.ops_skipped:
            parts.append(f"skipped={self.ops_skipped}")
        if self.torn_tail:
            parts.append("torn_tail=discarded")
        return ", ".join(parts)


def parse_op(op: dict, doc_len: int):
    """``op``'s parse (an insert's, or a batch's list after its
    :func:`validate_batch_ops` checks), which :func:`validate_op` and
    :func:`apply_op` take as ``parsed``; never part of the record itself."""
    kind = op.get("op")
    if kind == BATCH_KIND:
        return validate_batch_ops(op.get("ops"), doc_len)
    return parse_flat(op["fragment"]) if kind == "insert" else None


def validate_op(db: LazyXMLDatabase, op: dict, parsed=None):
    """Raise (without mutating anything) if ``op`` cannot apply to ``db``;
    else return what :func:`apply_op` takes to apply it to ``db`` as it
    stands: an insert's or a remove's verdict (what its ``check_*`` method
    returned, the parse included), which the apply then does not check
    again, or a batch's sub-op parses (``parsed`` when given, else those
    these checks made).

    This runs *before* the journal append in the live write path, so the
    journal only ever records operations that will succeed; replay applies
    the same checks, keeping the two paths in lockstep.  Inserts and
    removes go through :meth:`LazyXMLDatabase.check_insert`,
    :meth:`~LazyXMLDatabase.check_removal` and
    :meth:`~LazyXMLDatabase.check_segment_removal`, the checks ``insert``,
    ``remove`` and ``remove_segment`` run, so a splice that would not
    parse, or a mid-tag or boundary-crossing span, is refused here, not
    after the fsync.  (Batch sub-ops are checked at apply time, where a
    refused one is skipped identically live and in replay; journals
    written before these checks existed may hold refused single inserts
    and removes, and replay skips those the same way.  Such a journal's
    ``validate`` field is ignored.)
    """
    kind = op.get("op")
    if kind == BATCH_KIND:
        return validate_batch_ops(op.get("ops"), db.document_length, parsed)
    if kind not in OP_KINDS:
        raise RecoveryError(f"unknown journal operation {kind!r}")
    if kind == "insert":
        # An omitted position means append (as insert() does; batch sub-ops
        # rely on it: the append point shifts with every earlier sub-op).
        # Parsed flat, to keep: apply_op inserts from this parse.
        fragment = parse_flat(op["fragment"]) if parsed is None else parsed
        return db.check_insert(fragment, op.get("position"))
    if kind == "remove":
        return db.check_removal(op["position"], op["length"])
    if kind == "remove_segment":
        # Raises SegmentNotFoundError when the sid is absent.
        return db.check_segment_removal(op["sid"])
    if kind == "repack":
        require_repackable(db, op["sid"])
    return None


def validate_batch_ops(ops, doc_len: int, parsed=None) -> list:
    """A batch record's pre-journal checks: those that can run against
    pre-batch state (shape, sub-kinds, fragment syntax, splice bounds
    against the simulated document length ``doc_len``; sub-ops apply in
    order, so later bounds depend on earlier effects).  Checks that need
    state only the application produces (sids minted mid-batch,
    repackability after an earlier sub-op) run at apply time, where a
    failing sub-op is skipped identically live and in replay.  Every layer
    that takes a batch runs these checks first, so a malformed batch is
    rejected *whole*.  Returns ``parsed``, or the
    sub-ops' parses made here (:func:`parse_op`)."""
    if not isinstance(ops, list) or not ops:
        raise RecoveryError("batch record must carry a non-empty ops list")
    documents = parsed or [None] * len(ops)
    for index, sub in enumerate(ops):
        if not isinstance(sub, dict):
            raise RecoveryError(f"batch op {index} is not an op record")
        sub_kind = sub.get("op")
        if sub_kind not in OP_KINDS:
            # Unknown kinds and nested batches alike: never journaled.
            raise RecoveryError(
                f"batch op {index}: invalid operation {sub_kind!r} "
                f"(must be one of {OP_KINDS})"
            )
        if sub_kind == "insert":
            fragment = sub.get("fragment")
            if not isinstance(fragment, str):
                raise RecoveryError(
                    f"batch op {index}: insert needs a string 'fragment'"
                )
            position = sub.get("position")
            if position is None:
                position = doc_len  # omitted position = append
            elif not isinstance(position, int):
                raise RecoveryError(
                    f"batch op {index}: insert 'position' must be an integer"
                )
            if documents[index] is None:
                documents[index] = parse_flat(fragment)
            if not 0 <= position <= doc_len:
                raise InvalidSegmentError(
                    f"batch op {index}: insert position {position} outside "
                    f"super document [0, {doc_len}]"
                )
            doc_len += len(fragment)
        elif sub_kind == "remove":
            position, length = sub.get("position"), sub.get("length")
            if not isinstance(position, int) or not isinstance(length, int):
                raise RecoveryError(
                    f"batch op {index}: remove needs integer 'position' "
                    f"and 'length'"
                )
            if length <= 0:
                raise InvalidSegmentError(
                    f"batch op {index}: removal length must be positive, "
                    f"got {length}"
                )
            if position < 0 or position + length > doc_len:
                raise InvalidSegmentError(
                    f"batch op {index}: removal span "
                    f"[{position}, {position + length}) outside super "
                    f"document [0, {doc_len})"
                )
            doc_len -= length
        elif sub_kind in ("remove_segment", "repack"):
            if not isinstance(sub.get("sid"), int):
                raise RecoveryError(
                    f"batch op {index}: {sub_kind} needs an integer 'sid'"
                )
    return documents


def _apply_batch(db: LazyXMLDatabase, op: dict, parsed) -> list:
    """Apply a batch record's sub-ops in order; returns per-op results.

    This is the *only* application path for batches — the live commit and
    crash replay both dispatch here, so a sub-op that fails its apply-time
    validation is skipped identically in both histories (its result slot
    is ``None``).  The ``batch.*`` failpoints bracket the in-memory
    application: by the time the first fires, the record is already
    durable, so every crash drill must recover to the post-batch state.
    """
    hooks.fire("batch.before_apply")
    results: list = []
    for index, sub in enumerate(op["ops"]):
        if index == 1:
            hooks.fire("batch.mid_apply")
        try:
            # No validate_op pre-pass: every op method validates its own
            # preconditions before the first mutation (insert additionally
            # rolls back), so a failing sub-op raises the same typed error
            # without leaving partial state.
            results.append(apply_op(db, sub, parsed and parsed[index]))
        except RecoveryError:
            raise
        except ReproError:
            # The sub-op's preconditions failed against mid-batch state;
            # the skip is deterministic because this same dispatcher runs
            # during replay against the same mid-batch state.
            results.append(None)
    hooks.fire("batch.after_apply")
    return results


def apply_op(db: LazyXMLDatabase, op: dict, parsed=None):
    """Apply one journal operation to ``db``; returns the op's result.

    ``parsed`` is what :func:`validate_op` returned for ``op`` on ``db``
    as it stands (an insert or a remove then checks nothing again), or
    the op's parse (:func:`parse_op`), or ``None``: an op that brings no
    verdict (an epoch catch-up, a batch sub-op, a bare call) is checked
    as it applies."""
    kind = op.get("op")
    if kind == BATCH_KIND:
        return _apply_batch(db, op, parsed)
    if kind == "insert":
        if isinstance(parsed, InsertCheck):
            return db.insert(op["fragment"], op.get("position"), parsed)
        fragment = op["fragment"] if parsed is None else parsed
        return db.insert(fragment, op.get("position"))
    # A removal's verdict is a (sid, trusted) pair, never None.
    checked = () if parsed is None else (parsed,)
    if kind == "remove":
        return db.remove(op["position"], op["length"], *checked)
    if kind == "remove_segment":
        return db.remove_segment(op["sid"], *checked)
    if kind == "repack":
        return db.repack(op["sid"])
    if kind == "compact":
        return db.compact()
    raise RecoveryError(f"unknown journal operation {kind!r}")


def recover(directory: str | Path) -> tuple[LazyXMLDatabase, RecoveryReport]:
    """Reconstruct the database stored in ``directory``.

    The result is a query-ready LD database: the checkpoint's
    (:func:`repro.storage.loads` builds LD whatever mode it names), or a
    fresh one when there is none yet.
    Raises :class:`RecoveryError` (via :class:`CheckpointError`) when the
    checkpoint itself is corrupt — losing the base state is not a condition
    replay can paper over — on post-replay invariant violations, and on a
    directory an older version wrote as several databases (it holds
    :data:`MANIFEST_NAME`) or as one node of a group (it holds
    :data:`REPLICA_MANIFEST_NAME`), which this one neither reads nor
    overwrites.  A deposed primary's journal may hold acknowledged writes
    no other node has; opened as one database it would keep them without
    saying so.
    """
    directory = Path(directory)
    if (directory / MANIFEST_NAME).exists():
        raise RecoveryError(
            f"{directory} holds {MANIFEST_NAME}: it was written as a sharded "
            "directory, and this version serves one database"
        )
    if (directory / REPLICA_MANIFEST_NAME).exists():
        raise RecoveryError(
            f"{directory} holds {REPLICA_MANIFEST_NAME}: it was written as a "
            "replication node, and this version serves one database"
        )
    report = RecoveryReport(directory=str(directory))
    checkpoint_path = directory / CHECKPOINT_NAME
    if checkpoint_path.exists():
        db, last_seq = read_checkpoint(checkpoint_path)
        report.checkpoint_found = True
        report.checkpoint_seq = last_seq
        report.last_seq = last_seq
    else:
        db = LazyXMLDatabase()
    scan: JournalScan = read_journal(directory / JOURNAL_NAME)
    report.torn_tail = scan.torn_tail
    report.journal_valid_bytes = scan.valid_bytes
    for record in scan.records:
        seq = record["seq"]
        if seq <= report.last_seq:
            continue  # folded into the checkpoint already
        op = {key: value for key, value in record.items() if key != "seq"}
        try:
            apply_op(db, op, validate_op(db, op))
        except RecoveryError:
            raise
        except ReproError as exc:
            # The live call raised before mutating anything; skipping the
            # record reproduces the live outcome exactly.
            report.ops_skipped += 1
            report.skipped_details.append(f"seq {seq}: {exc}")
        else:
            report.ops_replayed += 1
        report.last_seq = seq
    try:
        db.check_invariants()
    except AssertionError as exc:
        raise RecoveryError(
            f"recovered database fails invariants ({report.describe()}): {exc}"
        ) from exc
    return db, report
