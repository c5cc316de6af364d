"""The replication cluster: one primary, N followers, fenced failover.

:class:`ReplicationCluster` wires :class:`~repro.replication.node
.ReplicaNode` directories under one root (``node-0`` … ``node-N``) with
:class:`~repro.replication.channel.InProcessChannel` pairs, and exposes
the familiar write API (``insert`` / ``remove`` / ``remove_segment`` /
``repack`` / ``compact``) plus the failover verbs.

**Write path.**  The primary commits locally (validate → journal fsync →
apply → publish), then ships ``{"term", "seq", "op"}`` to every live
follower synchronously:

- ``applied`` / ``duplicate`` — the follower is current;
- ``gap`` — the follower missed records (healed partition): it catches
  up directly from the primary's journal tail, which contains the very
  record that was just shipped;
- :class:`~repro.errors.ChannelCut` — the record is *acked but
  unreplicated to that follower*; its seq is tracked in the per-follower
  ``missed`` set (visible in :meth:`status`) until catch-up drains it;
  once **every** follower has confirmed a seq, the primary persists it as
  its fully-replicated watermark (``replicated_seq`` in the manifest),
  which bounds the indeterminate band a later rejoin must report;
- :class:`~repro.errors.FencedError` — the follower has seen a higher
  term: the stale primary **self-fences** (refusing all further writes
  before touching its journal) and the error propagates to the caller.

**Failover.**  :meth:`promote` picks ``max(term over all nodes) + 1`` and
persists it on the target *before* it accepts a single write; the old
primary object is deliberately left untouched, so the stale-primary race
is real — its next write dies on the first follower it reaches.  When the
deposed node is restarted it :meth:`~repro.replication.node.ReplicaNode
.rejoin`\\ s: acked-but-unreplicated writes are detected by journal
comparison and *reported* (:class:`~repro.replication.node.RejoinReport`),
never silently dropped, then its history is resynced from the new primary.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.errors import ChannelCut, FencedError, ReplicationError
from repro.replication.channel import InProcessChannel
from repro.replication.manifest import read_replication_manifest
from repro.replication.node import RejoinReport, ReplicaNode
from repro.service.retry import BackoffPolicy

__all__ = ["ReplicationCluster"]


def _node_dirname(node_id: int) -> str:
    return f"node-{node_id}"


class ReplicationCluster:
    """A primary plus N followers under one root directory.

    Parameters
    ----------
    root:
        Holds one ``node-<i>`` durable directory per participant.  A
        fresh root seeds node 0 as primary at term 1; an existing root is
        reopened from the nodes' replication manifests (the highest
        persisted primary term leads).
    n_followers:
        Follower count for a fresh root (reopen infers it from disk).
    primary_dir:
        Optional existing durable directory to use as node 0's home
        (``python -m repro serve DIR --replicas N`` points this at the
        served durable directory, so the followers bootstrap from its
        checkpoint); defaults to ``root/node-0``.
    heartbeat_policy, sleep:
        Backoff policy and sleep function for follower heartbeats
        (injectable so drills run instantaneously).
    """

    def __init__(
        self,
        root: str | Path,
        n_followers: int = 2,
        *,
        primary_dir: str | Path | None = None,
        heartbeat_policy: BackoffPolicy | None = None,
        sleep=time.sleep,
    ):
        if n_followers < 0:
            raise ValueError("n_followers must be >= 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._primary_dir = Path(primary_dir) if primary_dir is not None else None
        self._heartbeat_policy = heartbeat_policy
        self._sleep = sleep
        existing = sorted(
            int(path.name.split("-", 1)[1])
            for path in self.root.glob("node-*")
            if path.is_dir() and read_replication_manifest(path) is not None
        )
        if (
            0 not in existing
            and self._primary_dir is not None
            and read_replication_manifest(self._primary_dir) is not None
        ):
            existing = sorted([0, *existing])
        self.nodes: dict[int, ReplicaNode] = {}
        if not existing:
            node_ids = list(range(1 + n_followers))
        else:
            node_ids = existing
        for node_id in node_ids:
            role = "primary" if (not existing and node_id == 0) else "follower"
            term = 1 if (not existing and node_id == 0) else 0
            self.nodes[node_id] = ReplicaNode(
                self._node_dir(node_id),
                node_id,
                role=role,
                term=term,
            )
        primaries = [
            n for n in self.nodes.values() if n.role == "primary" and not n.fenced
        ]
        if not primaries:
            raise ReplicationError(
                f"no primary found under {self.root}; promote a node first"
            )
        self.primary_id = max(primaries, key=lambda n: n.term).node_id
        self._dead: set[int] = set()
        self.missed: dict[int, set[int]] = {nid: set() for nid in self.nodes}
        # One append channel into every node (any sender may use it) and
        # one heartbeat channel from every node to the current primary's
        # handler — rebound on promote.
        self.append_channels: dict[int, InProcessChannel] = {
            nid: InProcessChannel(f"append->{nid}").bind(node.handle)
            for nid, node in self.nodes.items()
        }
        self.heartbeat_channels: dict[int, InProcessChannel] = {
            nid: InProcessChannel(f"hb:{nid}->primary")
            for nid in self.nodes
        }
        self._rebind_heartbeats()
        for nid in self.follower_ids():
            self.nodes[nid].catch_up(self.primary)
        # Highest seq each node has confirmed durably applying (of the
        # current primary's lineage) — the min over the others is the
        # primary's fully-replicated watermark.
        self._acked: dict[int, int] = {
            nid: node.last_seq for nid, node in self.nodes.items()
        }

    # ------------------------------------------------------------------
    # topology

    def _node_dir(self, node_id: int) -> Path:
        if node_id == 0 and self._primary_dir is not None:
            return self._primary_dir
        return self.root / _node_dirname(node_id)

    @property
    def primary(self) -> ReplicaNode:
        return self.nodes[self.primary_id]

    def follower_ids(self) -> list[int]:
        return [
            nid
            for nid in sorted(self.nodes)
            if nid != self.primary_id and nid not in self._dead
        ]

    def _rebind_heartbeats(self) -> None:
        handler = self.primary.handle
        for channel in self.heartbeat_channels.values():
            channel.bind(handler)

    # ------------------------------------------------------------------
    # write API (mirrors DurableDatabase's journaled operations)

    def insert(self, fragment: str, position: int | None = None):
        if position is None:
            position = self.primary.durable.db.document_length
        return self._commit(
            {"op": "insert", "fragment": fragment, "position": position}
        )

    def remove(self, position: int, length: int):
        return self._commit({"op": "remove", "position": position, "length": length})

    def remove_segment(self, sid: int):
        return self._commit({"op": "remove_segment", "sid": sid})

    def repack(self, sid: int):
        return self._commit({"op": "repack", "sid": sid})

    def compact(self):
        return self._commit({"op": "compact"})

    def _commit(self, op: dict):
        return self.commit_from(self.primary_id, op)

    def commit_from(self, node_id: int, op: dict, parsed=None):
        """Commit + ship ``op`` from ``node_id``'s point of view, from its
        parse ``parsed`` (``parse_op``) if given.

        The normal write path uses the current primary; the fault drills
        call this on a deposed node to race a stale primary against the
        new term.
        """
        sender = self.nodes[node_id]
        result = sender.local_commit(op, parsed)
        seq = sender.last_seq
        message = {
            "kind": "append",
            "term": sender.term,
            "node": node_id,
            "record": {"seq": seq, "op": dict(op)},
        }
        for other_id, channel in self.append_channels.items():
            if other_id == node_id or other_id in self._dead:
                continue
            try:
                reply = channel.call(message)
            except ChannelCut:
                self.missed[other_id].add(seq)
                continue
            except FencedError as exc:
                sender.fence(getattr(exc, "term", None))
                raise
            if reply["status"] == "gap":
                # Healed partition: the tail (including this record) is in
                # the sender's journal; pull it directly.
                self.nodes[other_id].catch_up(sender)
            applied_upto = self.nodes[other_id].last_seq
            self._note_acked(other_id, applied_upto)
            self.missed[other_id] = {
                s for s in self.missed[other_id] if s > applied_upto
            }
        if node_id == self.primary_id:
            # The ack map only tracks the current primary's lineage, so a
            # stale sender must never advance its watermark from it.
            watermark = min(
                (self._acked.get(o, 0) for o in self.nodes if o != node_id),
                default=seq,
            )
            sender.note_replicated(min(watermark, seq))
        return result

    def _note_acked(self, node_id: int, seq: int) -> None:
        previous = self._acked.get(node_id, 0)
        if seq > previous:
            self._acked[node_id] = seq

    # ------------------------------------------------------------------
    # failover / fault verbs

    def promote(self, node_id: int) -> ReplicaNode:
        """Promote ``node_id`` to primary under a strictly higher term."""
        if node_id in self._dead:
            raise ReplicationError(f"cannot promote dead node {node_id}")
        node = self.nodes[node_id]
        new_term = max(n.term for n in self.nodes.values()) + 1
        if node_id != self.primary_id and self.primary_id not in self._dead:
            # Best-effort catch-up from the outgoing primary so committed,
            # replicated history survives the switch.
            try:
                node.catch_up(self.primary)
            except ReplicationError:
                pass
        node.promote(new_term)
        self.primary_id = node_id
        # Acks and missed seqs recorded past the new primary's tail
        # belong to the old lineage; clamp so they can never advance the
        # new watermark or linger as phantom unreplicated entries.
        for nid in self._acked:
            self._acked[nid] = min(self._acked[nid], node.last_seq)
        for nid in self.missed:
            self.missed[nid] = {s for s in self.missed[nid] if s <= node.last_seq}
        self._rebind_heartbeats()
        return node

    def kill(self, node_id: int) -> None:
        """Simulate process death of a node (no checkpoint, fds dropped)."""
        self.nodes[node_id].crash()
        self._dead.add(node_id)
        self.append_channels[node_id].cut()
        self.heartbeat_channels[node_id].cut()

    def restart(self, node_id: int) -> RejoinReport | None:
        """Recover a killed node from its directory and re-join the group.

        A restarted deposed primary — or any node whose journal runs past
        the current primary's *or conflicts with it at a shared seq*
        (``diverges_from`` compares record content, catching a fork whose
        ``last_seq`` happens to equal the primary's) — goes through
        :meth:`~repro.replication.node.ReplicaNode.rejoin`, returning the
        lost-write report; a plain lagging follower just catches up
        (returns ``None``).
        """
        if node_id not in self._dead:
            raise ReplicationError(f"node {node_id} is not down")
        node = ReplicaNode(self._node_dir(node_id), node_id)
        self.nodes[node_id] = node
        self._dead.discard(node_id)
        self.append_channels[node_id] = InProcessChannel(
            f"append->{node_id}"
        ).bind(node.handle)
        self.heartbeat_channels[node_id] = InProcessChannel(
            f"hb:{node_id}->primary"
        ).bind(self.primary.handle)
        report: RejoinReport | None = None
        if node_id == self.primary_id:
            # The primary came back and was never deposed.
            self._rebind_heartbeats()
        elif self.primary_id in self._dead:
            # No live primary to compare against: the node comes back
            # as-is and converges after the next promote/heal — its
            # journal must not be read off a crashed primary's disk.
            pass
        elif (
            node.role == "primary"
            or node.last_seq > self.primary.last_seq
            or node.diverges_from(self.primary)
        ):
            report = node.rejoin(self.primary)
            self._note_acked(node_id, node.last_seq)
        else:
            node.catch_up(self.primary)
            self._note_acked(node_id, node.last_seq)
        self.missed[node_id] = {
            s for s in self.missed.get(node_id, set()) if s > node.last_seq
        }
        return report

    def partition(self, node_id: int, after: int | None = None) -> None:
        """Cut the append stream to ``node_id`` (optionally after N more
        deliveries — a partition at an exact record boundary)."""
        channel = self.append_channels[node_id]
        if after is None:
            channel.cut()
        else:
            channel.cut_after(after)
        self.heartbeat_channels[node_id].cut()

    def heal(self, node_id: int) -> None:
        """Heal the partition and let the follower catch up.

        Catch-up is skipped while the primary is down: it reads the
        primary's journal file directly, which a real transport could not
        do off a crashed process — pulling acked-but-unreplicated records
        from a dead primary's disk would mask lost-write scenarios.  The
        follower converges after the next promote/restart instead.
        """
        self.append_channels[node_id].heal()
        self.heartbeat_channels[node_id].heal()
        if (
            node_id not in self._dead
            and node_id != self.primary_id
            and self.primary_id not in self._dead
        ):
            node = self.nodes[node_id]
            node.catch_up(self.primary)
            self._note_acked(node_id, node.last_seq)
            self.missed[node_id] = {
                s for s in self.missed[node_id] if s > node.last_seq
            }

    def heartbeat_all(self) -> dict[int, dict]:
        """Each live follower heartbeats the primary (backoff through
        cuts), then catches up if the reply shows it is behind."""
        replies: dict[int, dict] = {}
        for nid in self.follower_ids():
            node = self.nodes[nid]
            reply = node.heartbeat(
                self.heartbeat_channels[nid],
                policy=self._heartbeat_policy,
                sleep=self._sleep,
            )
            if reply["last_seq"] > node.last_seq and self.primary_id not in self._dead:
                node.catch_up(self.primary)
                self._note_acked(nid, node.last_seq)
                self.missed[nid] = {
                    s for s in self.missed[nid] if s > node.last_seq
                }
            replies[nid] = reply
        return replies

    # ------------------------------------------------------------------
    # introspection / lifecycle

    def status(self) -> dict:
        primary = self.primary
        lags = {
            nid: primary.last_seq - self.nodes[nid].last_seq
            for nid in self.nodes
            if nid != self.primary_id
        }
        return {
            "primary": self.primary_id,
            "term": primary.term,
            "last_seq": primary.last_seq,
            "dead": sorted(self._dead),
            "lag": lags,
            "unreplicated": {
                nid: sorted(seqs) for nid, seqs in self.missed.items() if seqs
            },
            "nodes": {nid: node.status() for nid, node in self.nodes.items()},
        }

    def checkpoint(self) -> None:
        """Checkpoint the primary (followers fold their own journals on
        resync)."""
        self.primary.durable.checkpoint()

    def close(self) -> None:
        for nid, node in self.nodes.items():
            if nid not in self._dead:
                node.close()

    def __enter__(self) -> "ReplicationCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
