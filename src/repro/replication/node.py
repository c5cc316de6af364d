"""A replication node: durable database + term/role + epoch-pinned reads.

One :class:`ReplicaNode` is one participant in a replication group, wrapping:

- a :class:`~repro.durability.database.DurableDatabase` — the node's own
  journal and checkpoint (a follower *re-commits* every shipped record
  through the normal validate → journal-fsync → apply protocol, so its
  on-disk history mirrors the primary's with aligned sequence numbers and
  survives its own crashes);
- a replication manifest (:mod:`repro.replication.manifest`) persisting
  the node's fencing ``term`` and ``role``;
- an :class:`~repro.service.snapshot.EpochManager` whose writer buffer is
  the durable database itself (``durable.db`` follows it), publishing each
  applied record as a new epoch, so reads are pinned snapshots tied to a
  replicated sequence number (``seq_at(epoch)``) — the read-consistency
  guarantee is "this answer is the state at primary seq N", not "whatever
  the follower happened to hold".  A record costs two applies: the
  commit, and the catch-up of the buffer the publish retired.

**Catch-up** (:meth:`catch_up`) is incremental: the node tails the
primary's journal from a cached byte offset
(:func:`~repro.durability.wal.tail_journal`), doing O(new records) work
per poll.  The offset cache is keyed by the primary's ``checkpoint_seq``
— a checkpoint truncates the journal, so a changed ``checkpoint_seq``
invalidates the offset (reset to 0).  A follower that fell behind a
checkpoint (``last_seq < checkpoint_seq``) cannot be served by any
journal tail and performs a **full resync**: discard the local journal,
atomically install a copy of the primary's checkpoint, reopen through
recovery, then tail the rest.  The journal is removed *first* — in the
rejoin path it can hold records with seqs past the installed
checkpoint's, which recovery would otherwise replay on top of it,
silently resurrecting the very writes the rejoin report discarded.

**Fencing**: every inbound message carries the sender's term.  A lower
term is refused with :class:`~repro.errors.FencedError` *before* the
record touches the journal; a higher term is adopted and persisted (a
deposed primary demotes itself to follower on the spot).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.durability.checkpoint import CHECKPOINT_NAME, copy_checkpoint
from repro.durability.database import DurableDatabase
from repro.durability.recovery import JOURNAL_NAME
from repro.durability.wal import read_journal, tail_journal
from repro.errors import (
    ChannelCut,
    FencedError,
    LaggingReplica,
    ReplicaDiverged,
)
from repro.obs.metrics import METRICS
from repro.replication.manifest import (
    advance_term,
    read_replication_manifest,
    write_replication_manifest,
)
from repro.service.retry import BackoffPolicy, retry_with_backoff
from repro.service.snapshot import EpochManager, Snapshot

__all__ = ["ReplicaNode", "RejoinReport"]

_M_LOST = METRICS.counter(
    "repl.lost_writes", unit="records", site="ReplicaNode.rejoin"
)

#: Epoch→seq entries kept per node (old epochs' pins drain quickly).
_EPOCH_MAP_KEEP = 64


@dataclass
class RejoinReport:
    """What a deposed primary found when rejoining under a new term.

    ``lost_seqs``/``lost_ops`` are the acknowledged-but-unreplicated
    writes: records the old primary journaled (and acked to its client)
    that the new primary's history provably does not contain — either
    past the new primary's ``last_seq``, or conflicting at a matching
    seq in its journal.

    ``indeterminate_seqs``/``indeterminate_ops`` are own records whose
    seqs the new primary has folded into its checkpoint (journal
    truncated) and that lie above this node's fully-replicated watermark
    (``replicated_seq``): they can no longer be verified record-by-record,
    so they are reported rather than silently presumed replicated — the
    new primary may have committed its *own* conflicting history at those
    seqs before checkpointing.

    Detection is the contract; both classes are reported, then discarded
    by the resync.  ``reported_seqs`` unions them.
    """

    node: int
    new_term: int
    lost_seqs: list[int] = field(default_factory=list)
    lost_ops: list[dict] = field(default_factory=list)
    indeterminate_seqs: list[int] = field(default_factory=list)
    indeterminate_ops: list[dict] = field(default_factory=list)
    resynced: bool = False

    @property
    def reported_seqs(self) -> list[int]:
        """Every seq the rejoin could not prove replicated (lost ∪ indeterminate)."""
        return sorted({*self.lost_seqs, *self.indeterminate_seqs})


class ReplicaNode:
    """One replication participant (see module docstring).

    Any object with ``journal_path``, ``checkpoint_path``,
    ``checkpoint_seq``, ``last_seq`` and ``term`` attributes can serve as
    the *primary view* for :meth:`catch_up`/:meth:`rejoin` — a live
    :class:`ReplicaNode` qualifies.
    """

    def __init__(
        self,
        directory: str | Path,
        node_id: int,
        *,
        role: str = "follower",
        term: int = 0,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.node_id = node_id
        manifest = read_replication_manifest(self.directory)
        if manifest is None:
            manifest = write_replication_manifest(
                self.directory, node=node_id, term=term, role=role
            )
        self.term: int = manifest["term"]
        self.role: str = manifest["role"]
        self.replicated_seq: int = manifest["replicated_seq"]
        self._fenced = False
        self.durable = DurableDatabase(self.directory)
        self._tail_offset = 0
        self._tail_ckpt_seq: int | None = None
        self.heartbeats = 0
        self.reconnects = 0
        self.resyncs = 0
        self.fenced_appends = 0
        self._build_epochs()

    def _build_epochs(self) -> None:
        self.epochs = EpochManager(self.durable.db)
        self.durable.attach_epochs(self.epochs)
        self._epoch_seqs: dict[int, int] = {
            self.epochs.current_epoch: self.durable.last_seq
        }
        self._published_seq = self.durable.last_seq

    # ------------------------------------------------------------------
    # durable-state passthrough (the primary-view protocol)

    @property
    def last_seq(self) -> int:
        return self.durable.last_seq

    @property
    def checkpoint_seq(self) -> int:
        return self.durable.checkpoint_seq

    @property
    def journal_path(self) -> Path:
        return self.durable.journal_path

    @property
    def checkpoint_path(self) -> Path:
        return self.durable.checkpoint_path

    @property
    def fenced(self) -> bool:
        return self._fenced

    # ------------------------------------------------------------------
    # primary side

    def local_commit(self, op: dict, parsed=None):
        """Commit ``op`` locally as the primary (journal + apply + publish),
        from its parse ``parsed`` (``parse_op``) if given.

        Refused with :class:`~repro.errors.FencedError` — before touching
        the journal — once the node is fenced or is not the primary.
        """
        if self._fenced or self.role != "primary":
            err = FencedError(
                f"node {self.node_id} (term {self.term}, role {self.role}"
                f"{', fenced' if self._fenced else ''}) cannot accept writes"
            )
            err.term = self.term
            raise err
        result = self.durable.commit(op, parsed)
        self._publish([op], [parsed])
        return result

    def fence(self, observed_term: int | None = None) -> None:
        """Stop accepting writes: a higher term exists somewhere."""
        self._fenced = True
        if observed_term is not None and observed_term > self.term:
            # Learn (in memory) of the term that fenced us; the durable
            # manifest is rewritten at rejoin, as a follower.
            self.term = observed_term

    def note_replicated(self, seq: int) -> None:
        """Advance the persisted fully-replicated watermark to ``seq``.

        Called by the shipping layer once every other group member has
        confirmed durably applying everything up to ``seq``.  Monotone
        and conservative: a missed advance only widens the indeterminate
        band a later :meth:`rejoin` reports, never hides a lost write.
        """
        if seq <= self.replicated_seq:
            return
        self.replicated_seq = seq
        write_replication_manifest(
            self.directory,
            node=self.node_id,
            term=self.term,
            role=self.role,
            replicated_seq=seq,
        )

    def promote(self, new_term: int) -> None:
        """Become primary at ``new_term`` — persisted before any write.

        The durable manifest write is the promotion commit point:
        :func:`~repro.replication.manifest.advance_term` refuses a term
        that does not exceed the persisted one, so two racing promotions
        cannot both lead.
        """
        advance_term(
            self.directory, node=self.node_id, new_term=new_term, role="primary"
        )
        self.term = new_term
        self.role = "primary"
        self._fenced = False

    # ------------------------------------------------------------------
    # follower side: the channel handler

    def handle(self, message: dict) -> dict:
        """Handle one replication message (bound to a channel).

        Term check first: a stale sender is refused with
        :class:`~repro.errors.FencedError` regardless of message kind, a
        newer term is adopted (and persisted) on the spot.
        """
        sender_term = message.get("term", 0)
        if sender_term < self.term:
            self.fenced_appends += 1
            err = FencedError(
                f"node {self.node_id} refuses {message.get('kind')} from "
                f"term {sender_term}: current term is {self.term}"
            )
            err.term = self.term
            raise err
        if sender_term > self.term:
            self.term = sender_term
            if self.role == "primary":
                self.role = "follower"  # deposed: a newer leader exists
            self._fenced = False
            write_replication_manifest(
                self.directory, node=self.node_id, term=self.term, role=self.role
            )
        kind = message.get("kind")
        if kind == "heartbeat":
            self.heartbeats += 1
            return {
                "status": "ok",
                "term": self.term,
                "last_seq": self.last_seq,
                "checkpoint_seq": self.checkpoint_seq,
            }
        if kind == "append":
            return self._apply_record(message["record"])
        raise ReplicaDiverged(f"unknown replication message kind {kind!r}")

    def _apply_record(self, record: dict) -> dict:
        seq = record["seq"]
        if seq <= self.durable.last_seq:
            return {"status": "duplicate", "last_seq": self.last_seq}
        if seq != self.durable.last_seq + 1:
            # Records were lost on the way (cut channel, missed while
            # down): refuse to apply out of order, ask for catch-up.
            return {"status": "gap", "last_seq": self.last_seq}
        op = record["op"]
        self.durable.commit(op)
        self._publish([op])
        return {"status": "applied", "last_seq": self.last_seq}

    # ------------------------------------------------------------------
    # epoch-pinned reads

    def _publish(self, ops: list[dict], parsed: list | None = None) -> int:
        epoch = self.epochs.publish([dict(op) for op in ops], parsed)
        self._epoch_seqs[epoch] = self.durable.last_seq
        self._published_seq = self.durable.last_seq
        while len(self._epoch_seqs) > _EPOCH_MAP_KEEP:
            del self._epoch_seqs[min(self._epoch_seqs)]
        return epoch

    def pin(self, min_seq: int | None = None) -> Snapshot:
        """Pin a read snapshot, optionally demanding replicated seq ≥ N.

        Raises :class:`~repro.errors.LaggingReplica` when the node has not
        published ``min_seq`` yet — the caller retries after catch-up
        rather than silently reading stale state.
        """
        if min_seq is not None and self._published_seq < min_seq:
            raise LaggingReplica(
                f"node {self.node_id} has published seq {self._published_seq}"
                f" < required {min_seq}; catch up and retry"
            )
        return self.epochs.pin()

    def seq_at(self, epoch: int) -> int | None:
        """The replicated seq a published epoch corresponds to."""
        return self._epoch_seqs.get(epoch)

    # ------------------------------------------------------------------
    # catch-up

    def catch_up(self, view) -> int:
        """Apply the primary's journal tail; returns records applied.

        ``view`` is any primary-view object (see class docstring).  Work
        is O(new records): the journal is read from the cached byte
        offset, which is reset whenever the primary's ``checkpoint_seq``
        changes (its journal was truncated).
        """
        ckpt_seq = view.checkpoint_seq
        if self.durable.last_seq < ckpt_seq:
            self._full_resync(view)
            ckpt_seq = view.checkpoint_seq
        if self._tail_ckpt_seq != ckpt_seq:
            self._tail_offset = 0
            self._tail_ckpt_seq = ckpt_seq
        scan = tail_journal(view.journal_path, self._tail_offset)
        applied = 0
        ops: list[dict] = []
        for record in scan.records:
            seq = record["seq"]
            if seq <= self.durable.last_seq:
                continue
            if seq != self.durable.last_seq + 1:
                raise ReplicaDiverged(
                    f"node {self.node_id} at seq {self.durable.last_seq} "
                    f"cannot apply journal record seq {seq}: history hole"
                )
            op = {key: value for key, value in record.items() if key != "seq"}
            self.durable.commit(op)
            ops.append(op)
            applied += 1
        self._tail_offset = scan.valid_bytes
        if ops:
            self._publish(ops)
        return applied

    def _full_resync(self, view) -> None:
        """Discard local history, install the primary's checkpoint, reopen.

        The local journal is unlinked *before* the checkpoint install: in
        the rejoin path it holds the discarded fork — records whose seqs
        can run past the installed checkpoint's ``last_seq`` — and a
        reopen with both in place would replay that fork on top of the
        new checkpoint, silently resurrecting the writes the rejoin
        report just declared lost (and pushing ``last_seq`` past the
        primary's, so catch-up would mistake real future records for
        duplicates).  Crash-safe ordering: a crash between the unlink and
        the install leaves the node on its own previous checkpoint — a
        clean older state whose next catch-up simply resyncs again.  The
        post-reopen local checkpoint folds the installed state and
        recreates an empty journal.
        """
        self.resyncs += 1
        self.epochs.close()
        self.durable.close()
        (self.directory / JOURNAL_NAME).unlink(missing_ok=True)
        ckpt_path = Path(view.checkpoint_path)
        if ckpt_path.exists():
            copy_checkpoint(ckpt_path, self.directory / CHECKPOINT_NAME)
        else:
            # The primary has no checkpoint: start over from scratch.
            (self.directory / CHECKPOINT_NAME).unlink(missing_ok=True)
        self.durable = DurableDatabase(self.directory)
        self.durable.checkpoint()
        self._tail_offset = 0
        self._tail_ckpt_seq = None
        self._build_epochs()

    # ------------------------------------------------------------------
    # heartbeat / reconnect

    def heartbeat(
        self,
        channel,
        *,
        policy: BackoffPolicy | None = None,
        sleep=time.sleep,
    ) -> dict:
        """Send one heartbeat over ``channel``, reconnecting through cuts.

        A cut channel is retried with capped-jittered backoff
        (:class:`~repro.service.admission.BackoffPolicy`); the final
        :class:`~repro.errors.ChannelCut` propagates when the policy is
        exhausted.  Adopts a higher term from the reply.
        """
        tries = 0

        def attempt() -> dict:
            nonlocal tries
            tries += 1
            return channel.call(
                {"kind": "heartbeat", "term": self.term, "node": self.node_id}
            )

        reply = retry_with_backoff(
            attempt, policy=policy, retry_on=(ChannelCut,), sleep=sleep
        )
        self.reconnects += tries - 1
        self.heartbeats += 1
        peer_term = reply.get("term", 0)
        if peer_term > self.term:
            self.term = peer_term
            if self.role == "primary":
                self.role = "follower"
            write_replication_manifest(
                self.directory, node=self.node_id, term=self.term, role=self.role
            )
        return reply

    # ------------------------------------------------------------------
    # rejoin after deposition

    def rejoin(self, view) -> RejoinReport:
        """Rejoin under a newer primary, reporting lost acked writes.

        Classifies every record in the node's own journal against the new
        primary's history:

        - **kept** — it matches the primary's journal at the same seq, or
          its seq is at or below this node's persisted fully-replicated
          watermark (``replicated_seq``): the write provably reached the
          whole group, including whichever node now leads;
        - **lost** — it lies past the primary's ``last_seq``, or conflicts
          with the primary's record at a shared seq: acknowledged here,
          never replicated;
        - **indeterminate** — its seq was folded into the primary's
          checkpoint (journal truncated) while above the watermark, so it
          cannot be verified record-by-record — the new primary may have
          committed its own conflicting history there before
          checkpointing.

        Lost and indeterminate records are **reported** (never silently
        dropped), then the local history is discarded by a full resync.
        """
        theirs = {
            record["seq"]: {
                key: value for key, value in record.items() if key != "seq"
            }
            for record in read_journal(view.journal_path).records
        }
        lost_seqs: list[int] = []
        lost_ops: list[dict] = []
        indeterminate_seqs: list[int] = []
        indeterminate_ops: list[dict] = []
        for record in read_journal(self.durable.journal_path).records:
            seq = record["seq"]
            op = {key: value for key, value in record.items() if key != "seq"}
            if seq in theirs:
                if theirs[seq] != op:
                    lost_seqs.append(seq)
                    lost_ops.append(op)
            elif seq > view.last_seq:
                lost_seqs.append(seq)
                lost_ops.append(op)
            elif seq > self.replicated_seq:
                # Folded into the primary's checkpoint: unverifiable.
                indeterminate_seqs.append(seq)
                indeterminate_ops.append(op)
        if METRICS.enabled:
            _M_LOST.inc(len(lost_seqs))
        self.role = "follower"
        self.term = max(self.term, view.term)
        self._fenced = False
        write_replication_manifest(
            self.directory, node=self.node_id, term=self.term, role=self.role
        )
        self._full_resync(view)
        self.catch_up(view)
        return RejoinReport(
            node=self.node_id,
            new_term=view.term,
            lost_seqs=lost_seqs,
            lost_ops=lost_ops,
            indeterminate_seqs=indeterminate_seqs,
            indeterminate_ops=indeterminate_ops,
            resynced=True,
        )

    def diverges_from(self, view) -> bool:
        """True when this node's journal conflicts with ``view``'s history.

        Catches forks invisible to seq comparison alone — in particular a
        node whose ``last_seq`` *equals* the primary's but whose records
        differ (it caught up from a stale primary that wrote the same
        number of records as the new one).  A record past the view's
        ``last_seq`` or a differing op at a shared seq is a fork; records
        already folded into the view's checkpoint are not comparable here
        (:meth:`rejoin` classifies those as indeterminate).
        """
        theirs = {
            record["seq"]: {
                key: value for key, value in record.items() if key != "seq"
            }
            for record in read_journal(view.journal_path).records
        }
        for record in read_journal(self.durable.journal_path).records:
            seq = record["seq"]
            if seq > view.last_seq:
                return True
            op = {key: value for key, value in record.items() if key != "seq"}
            if seq in theirs and theirs[seq] != op:
                return True
        return False

    # ------------------------------------------------------------------
    # lifecycle

    def crash(self) -> None:
        """Simulate process death: drop file handles, no checkpoint."""
        self.epochs.close()
        self.durable.close()

    def close(self) -> None:
        self.epochs.close()
        self.durable.close()

    def status(self) -> dict:
        return {
            "node": self.node_id,
            "role": self.role,
            "term": self.term,
            "fenced": self._fenced,
            "last_seq": self.last_seq,
            "checkpoint_seq": self.checkpoint_seq,
            "replicated_seq": self.replicated_seq,
            "published_seq": self._published_seq,
            "heartbeats": self.heartbeats,
            "reconnects": self.reconnects,
            "resyncs": self.resyncs,
            "fenced_appends": self.fenced_appends,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicaNode {self.node_id} {self.role} term={self.term} "
            f"seq={self.last_seq}{' FENCED' if self._fenced else ''}>"
        )
