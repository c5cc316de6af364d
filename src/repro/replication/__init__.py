"""Replication: WAL shipping, epoch-pinned follower reads, fenced failover.

The lazy update log *is* a replayable operation stream — the same insight
that makes crash recovery a journal replay makes replication a journal
shipment.  A primary streams its committed ``{"term", "seq", "op"}``
records to N followers; each follower re-commits them through its own
durable journal and serves epoch-pinned reads tied to a replicated
sequence number.  Failover is a monotonically fenced term persisted in a
replication manifest before the new primary accepts a write; a stale
primary's appends die with a typed :class:`~repro.errors.FencedError`,
and its acknowledged-but-unreplicated writes are detected and reported at
rejoin — never silently lost *or* silently kept.

Layers:

- :mod:`~repro.replication.manifest` — the durable ``(node, term, role)``
  record and its never-decreasing-term invariant;
- :mod:`~repro.replication.channel` — the record transport, with
  partition fault injection at exact record boundaries;
- :mod:`~repro.replication.node` — one participant: durable database,
  catch-up from checkpoint + journal tail, heartbeat/reconnect, rejoin;
- :mod:`~repro.replication.cluster` — the wiring: write fan-out, fencing
  on ship, promote/kill/restart/partition verbs, status.
"""

from repro.replication.channel import InProcessChannel
from repro.replication.cluster import ReplicationCluster
from repro.replication.manifest import (
    REPLICATION_MANIFEST_NAME,
    advance_term,
    read_replication_manifest,
    write_replication_manifest,
)
from repro.replication.node import RejoinReport, ReplicaNode

__all__ = [
    "InProcessChannel",
    "ReplicationCluster",
    "ReplicaNode",
    "RejoinReport",
    "REPLICATION_MANIFEST_NAME",
    "read_replication_manifest",
    "write_replication_manifest",
    "advance_term",
]
