"""Atomic checkpoints: a checksummed snapshot plus the journal seq it covers.

A checkpoint file is a JSON envelope around :func:`repro.storage.dumps`
output:

    {"format": "repro-checkpoint", "version": 1,
     "last_seq": <highest journal seq folded into the snapshot>,
     "crc32": <crc32 of the UTF-8 payload bytes>,
     "payload": "<storage.dumps string>"}

The envelope is written with :func:`repro.durability.atomic
.atomic_write_text`, so the checkpoint path always holds a complete old or
complete new checkpoint.  ``last_seq`` makes checkpointing idempotent with
respect to the journal: if the process dies after the checkpoint replace
but before the journal truncation, recovery skips every journal record
with ``seq <= last_seq`` instead of double-applying it.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.core.database import LazyXMLDatabase
from repro.durability import hooks
from repro.durability.atomic import atomic_write_text
from repro.errors import CheckpointError

__all__ = ["CHECKPOINT_FORMAT", "CHECKPOINT_VERSION", "write_checkpoint", "read_checkpoint"]

CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 1


def write_checkpoint(db: LazyXMLDatabase, path: str | Path, last_seq: int) -> None:
    """Atomically write a checkpoint of ``db`` covering journal ``last_seq``."""
    from repro.storage import dumps

    payload = dumps(db)
    envelope = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "last_seq": last_seq,
            "crc32": zlib.crc32(payload.encode("utf-8")),
            "payload": payload,
        }
    )
    hooks.fire("checkpoint.before_write")
    atomic_write_text(path, envelope)
    hooks.fire("checkpoint.after_write")


def read_checkpoint(path: str | Path) -> tuple[LazyXMLDatabase, int]:
    """Load a checkpoint, verifying structure and checksum.

    Returns ``(database, last_seq)``.  Raises :class:`CheckpointError` on
    any malformation — an unreadable envelope, wrong format/version tags,
    ill-typed fields, a checksum mismatch, or a payload the snapshot codec
    rejects.
    """
    from repro.storage import SnapshotError, loads

    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # Byte-level corruption can land mid-codepoint and fail the decode
        # before the checksum ever runs; that is still "corrupt checkpoint".
        raise CheckpointError(f"checkpoint {path} is not valid UTF-8: {exc}") from exc
    try:
        envelope = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    if envelope.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version: {envelope.get('version')!r}"
        )
    payload = envelope.get("payload")
    crc = envelope.get("crc32")
    last_seq = envelope.get("last_seq")
    if not isinstance(payload, str) or not isinstance(crc, int):
        raise CheckpointError(f"checkpoint {path} has ill-typed payload/crc32 fields")
    if not isinstance(last_seq, int) or last_seq < 0:
        raise CheckpointError(f"checkpoint {path} has an invalid last_seq")
    if zlib.crc32(payload.encode("utf-8")) != crc:
        raise CheckpointError(
            f"checkpoint {path} failed its checksum (stored {crc})"
        )
    try:
        db = loads(payload)
    except SnapshotError as exc:
        raise CheckpointError(f"checkpoint {path} payload rejected: {exc}") from exc
    return db, last_seq
