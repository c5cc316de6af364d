"""The replication manifest: durable node identity, term, and role.

Each replication node directory holds a ``replication.json`` next to its
checkpoint and journal::

    {"format": "repro-replication-manifest", "version": 1,
     "node": 2, "term": 4, "role": "primary", "replicated_seq": 17}

The **term** is the fencing epoch of the failover protocol.  The single
invariant everything else rests on: *a node's persisted term never
decreases*.  Promotion writes ``role="primary"`` with a strictly higher
term — durably, before the node accepts a single write — so after any
crash/restart interleaving there is exactly one highest term, and an
append stamped with a lower term is refused with
:class:`~repro.errors.FencedError` by whoever sees it.  A stale primary
cannot "win back" leadership by restarting: its manifest still carries the
old term, and :func:`advance_term` refuses to move it backwards.

**replicated_seq** is the node's fully-replicated watermark: the highest
sequence number it has, *as primary*, confirmed durably applied by every
other group member.  It only matters after deposition — a rejoining
node's own journal records at or below its watermark provably reached
the whole group (including whichever follower now leads), so they need
no record-by-record verification against a journal the new primary may
have since truncated.  The watermark is conservative by construction: it
advances only on confirmed acks and is never required to be current, so
a stale value yields extra ``indeterminate`` entries in a rejoin report,
never a silently-kept lost write.

The manifest is written with the same atomic replace + directory fsync
discipline as checkpoints, so a crash mid-write leaves the old manifest
intact — a half-promoted node comes back as whatever it durably was.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.durability.atomic import atomic_write
from repro.errors import FencedError, ReplicationError

__all__ = [
    "REPLICATION_MANIFEST_NAME",
    "read_replication_manifest",
    "write_replication_manifest",
    "advance_term",
]

REPLICATION_MANIFEST_NAME = "replication.json"
MANIFEST_FORMAT = "repro-replication-manifest"
MANIFEST_VERSION = 1

_ROLES = ("primary", "follower")


def read_replication_manifest(directory: str | Path) -> dict | None:
    """Load and validate ``replication.json`` (None when absent)."""
    path = Path(directory) / REPLICATION_MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReplicationError(
            f"unreadable replication manifest {path}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ReplicationError(f"{path} is not a replication manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ReplicationError(
            f"unsupported replication manifest version {manifest.get('version')!r}"
        )
    if (
        not isinstance(manifest.get("node"), int)
        or not isinstance(manifest.get("term"), int)
        or manifest["term"] < 0
        or manifest.get("role") not in _ROLES
    ):
        raise ReplicationError(f"replication manifest {path} has ill-typed fields")
    watermark = manifest.setdefault("replicated_seq", 0)
    if not isinstance(watermark, int) or watermark < 0:
        raise ReplicationError(f"replication manifest {path} has ill-typed fields")
    return manifest


def write_replication_manifest(
    directory: str | Path,
    *,
    node: int,
    term: int,
    role: str,
    replicated_seq: int | None = None,
) -> dict:
    """Atomically persist the node's ``(term, role)``; returns the manifest.

    Refuses to move the persisted term backwards (the fencing invariant) —
    use :func:`advance_term` when the intent is an explicit promotion.
    ``replicated_seq`` left as ``None`` preserves the persisted watermark
    (0 on a fresh manifest); it is never moved backwards either.
    """
    if role not in _ROLES:
        raise ReplicationError(f"unknown replication role {role!r}")
    existing = read_replication_manifest(directory)
    if existing is not None and term < existing["term"]:
        raise FencedError(
            f"refusing to lower persisted term {existing['term']} -> {term} "
            f"for node {node} (fencing invariant)"
        )
    persisted_watermark = existing["replicated_seq"] if existing is not None else 0
    if replicated_seq is None:
        replicated_seq = persisted_watermark
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "node": node,
        "term": term,
        "role": role,
        "replicated_seq": max(replicated_seq, persisted_watermark),
    }
    atomic_write(
        Path(directory) / REPLICATION_MANIFEST_NAME,
        json.dumps(manifest).encode("utf-8"),
    )
    return manifest


def advance_term(directory: str | Path, *, node: int, new_term: int, role: str) -> dict:
    """Persist a *strictly higher* term (the promotion commit point).

    Raises :class:`~repro.errors.FencedError` when ``new_term`` does not
    exceed the persisted one: a concurrent promotion already claimed an
    equal or higher term, so this node lost the race and must not lead.
    """
    existing = read_replication_manifest(directory)
    current = existing["term"] if existing is not None else 0
    if new_term <= current:
        err = FencedError(
            f"cannot advance node {node} to term {new_term}: persisted term "
            f"is already {current}"
        )
        err.term = current
        raise err
    return write_replication_manifest(directory, node=node, term=new_term, role=role)
