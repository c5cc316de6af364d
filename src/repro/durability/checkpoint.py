"""Atomic checkpoints: a compressed, checksummed snapshot plus the journal
seq it covers.

A checkpoint file (version 2) is one JSON header line followed by a zlib
stream (level :data:`COMPRESS_LEVEL`) of its body:

    {"format": "repro-checkpoint", "version": 2,
     "last_seq": <highest journal seq folded into the snapshot>,
     "crc32": <crc32 of the uncompressed body>}\\n
    <zlib stream of the body>

The body is two parts, UTF-8: the database's document marks as one JSON
line, ``{"trusted": [sids], "unbalanced": [sids]}``, then the
:func:`repro.storage.dumps` snapshot.  The checksum covers both, so a
reopened database takes the marks back as the checkpointed one held them
(``LazyXMLDatabase._trusted`` / ``_unbalanced``) and its first insert
does not scan every document again; a plain snapshot file carries none
and earns them back.  Only this module parses the file:
:func:`read_checkpoint_header` gives ``last_seq`` without a decompress,
and :func:`copy_checkpoint` installs one as bytes.

Version 1, the JSON envelope ``{"format", "version": 1, "last_seq",
"crc32", "payload": "<dumps string>"}`` (crc32 of the UTF-8 payload), is
still read: directories written before version 2 hold one.  It carries no
marks, so such a database starts with every document unknown, as a loaded
snapshot does.

The file is written with :func:`repro.durability.atomic.atomic_write`, so
the checkpoint path always holds a complete old or complete new
checkpoint.  ``last_seq`` makes checkpointing idempotent with respect to
the journal: if the process dies after the checkpoint replace but before
the journal truncation, recovery skips every journal record with
``seq <= last_seq`` instead of double-applying it.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from time import perf_counter

from repro.core.database import LazyXMLDatabase
from repro.durability import hooks
from repro.durability.atomic import atomic_write
from repro.errors import CheckpointError
from repro.obs.metrics import METRICS

__all__ = [
    "CHECKPOINT_NAME",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "COMPRESS_LEVEL",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoint_header",
    "copy_checkpoint",
]

#: The checkpoint's file name in a durable directory (both versions).
CHECKPOINT_NAME = "checkpoint.json"
CHECKPOINT_FORMAT = "repro-checkpoint"
CHECKPOINT_VERSION = 2
#: zlib level of the body.  Level 1 stores a snapshot in about a tenth of
#: its bytes; JSON encoding and decoding cost far more than it does.
COMPRESS_LEVEL = 1
_VERSIONS = (1, CHECKPOINT_VERSION)

_H_SECONDS = METRICS.histogram(
    "durability.checkpoint.seconds", unit="seconds", site="write_checkpoint"
)
_M_BLOCKS = METRICS.counter(
    "durability.checkpoint.blocks_encoded", unit="blocks", site="write_checkpoint"
)


def write_checkpoint(db: LazyXMLDatabase, path: str | Path, last_seq: int) -> None:
    """Atomically write a checkpoint of ``db`` covering journal ``last_seq``.

    The snapshot reuses every block's kept encoding
    (:func:`repro.storage.encode`), so a checkpoint encodes the records of
    the blocks written since the last one and no others; its bytes are
    what a from-scratch ``json.dumps`` of the payload would give.
    """
    from repro.storage import encode

    started = perf_counter()
    marks = json.dumps(
        {"trusted": sorted(db._trusted), "unbalanced": sorted(db._unbalanced)}
    )
    snapshot, encoded = encode(db)
    body = f"{marks}\n{snapshot}".encode("utf-8")
    header = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "last_seq": last_seq,
            "crc32": zlib.crc32(body),
        }
    )
    data = header.encode("utf-8") + b"\n" + zlib.compress(body, COMPRESS_LEVEL)
    hooks.fire("checkpoint.before_write")
    atomic_write(path, data)
    hooks.fire("checkpoint.after_write")
    if METRICS.enabled:
        _M_BLOCKS.inc(encoded)
        _H_SECONDS.observe(perf_counter() - started)


def read_checkpoint_header(path: str | Path) -> dict:
    """The checkpoint's header, checked: ``format``, ``version``,
    ``last_seq`` and ``crc32``, read from its first line alone (a version
    1 file is one line: its whole envelope).  Raises
    :class:`CheckpointError` when the file cannot be read or the header
    is malformed."""
    try:
        with open(path, "rb") as handle:
            line = handle.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return _header(path, line)


def read_checkpoint(path: str | Path) -> tuple[LazyXMLDatabase, int]:
    """Load a checkpoint of either version, verifying structure and checksum.

    Returns ``(database, last_seq)``; a version 2 checkpoint's database
    holds the document marks it was written with.  Raises
    :class:`CheckpointError` on any malformation — an unreadable header,
    wrong format/version tags, ill-typed fields, a body that does not
    decompress or is truncated, a checksum mismatch, malformed marks, or
    a snapshot the codec rejects.
    """
    from repro.storage import SnapshotError, loads

    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    line, newline, rest = data.partition(b"\n")
    header = _header(path, line)
    if header["version"] == 1:
        payload = header.get("payload")
        if not isinstance(payload, str):
            raise CheckpointError(f"checkpoint {path} has an ill-typed payload field")
        if rest.strip():
            raise CheckpointError(f"checkpoint {path} has bytes after its envelope")
        body = payload.encode("utf-8")
    elif not newline:
        raise CheckpointError(f"checkpoint {path} is truncated: no body")
    else:
        body = _inflate(path, rest)
    if zlib.crc32(body) != header["crc32"]:
        raise CheckpointError(
            f"checkpoint {path} failed its checksum (stored {header['crc32']})"
        )
    marks = None
    if header["version"] != 1:
        marks, _, body = body.partition(b"\n")
    try:
        db = loads(body.decode("utf-8"))
    except (SnapshotError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"checkpoint {path} payload rejected: {exc}") from exc
    if marks is not None:
        _restore_marks(path, db, marks)
    return db, header["last_seq"]


def copy_checkpoint(source: str | Path, target: str | Path) -> None:
    """Atomically install a copy of checkpoint ``source`` at ``target``,
    byte for byte (the reopen that follows verifies it)."""
    try:
        data = Path(source).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {source}: {exc}") from exc
    atomic_write(target, data)


def _header(path, line: bytes) -> dict:
    """The checked header of ``line``, a checkpoint's first line."""
    try:
        header = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # Byte-level corruption can land mid-codepoint and fail the decode
        # before the checksum ever runs; that is still "corrupt checkpoint".
        raise CheckpointError(f"checkpoint {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a repro checkpoint")
    version = header.get("version")
    if not _is_int(version) or version not in _VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version: {version!r}"
        )
    if not _is_int(header.get("crc32")):
        raise CheckpointError(f"checkpoint {path} has an ill-typed crc32 field")
    if not _is_int(header.get("last_seq")) or header["last_seq"] < 0:
        raise CheckpointError(f"checkpoint {path} has an invalid last_seq")
    return header


def _inflate(path, stream: bytes) -> bytes:
    """The body a version 2 checkpoint's zlib ``stream`` holds, whole."""
    inflater = zlib.decompressobj()
    try:
        body = inflater.decompress(stream)
    except zlib.error as exc:
        raise CheckpointError(f"checkpoint {path} body does not decompress: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise CheckpointError(f"checkpoint {path} body is truncated or overlong")
    return body


def _restore_marks(path, db: LazyXMLDatabase, line: bytes) -> None:
    """Give ``db`` the document marks of a version 2 body's first line:
    disjoint lists of live top-level sids."""
    try:
        marks = json.loads(line)
    except ValueError:
        marks = None
    trusted = marks.get("trusted") if isinstance(marks, dict) else None
    unbalanced = marks.get("unbalanced") if isinstance(marks, dict) else None
    tops = {top.sid for top in db.log.ertree.root.children}
    if not all(
        isinstance(sids, list) and all(map(_is_int, sids)) and set(sids) <= tops
        for sids in (trusted, unbalanced)
    ) or set(trusted) & set(unbalanced):
        raise CheckpointError(f"checkpoint {path} has malformed document marks")
    db._trusted = set(trusted)
    db._unbalanced = set(unbalanced)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
