"""Append-only write-ahead journal of structural operations.

On-disk format: a flat sequence of records, each

    +----------------+----------------+------------------------+
    | length (u32 BE) | crc32 (u32 BE) | payload: UTF-8 JSON    |
    +----------------+----------------+------------------------+

The payload is a JSON object carrying a monotonically increasing ``seq``
plus the operation fields (see :func:`repro.durability.recovery.apply_op`).
The CRC covers the payload bytes, so a record torn by a crash mid-append —
a header without its payload, a short payload, or a payload whose bytes
never all reached disk — fails verification and is discarded by
:func:`read_journal`.  Only the *tail* of the journal can legally be torn:
scanning stops at the first invalid record and reports everything after it
as non-replayable.

Appends go through a single file descriptor opened with ``O_APPEND``; each
record is written header-then-payload and fsynced before the append
returns, which is what lets :class:`~repro.durability.database
.DurableDatabase` acknowledge an update as committed.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

from time import perf_counter

from repro.durability import hooks
from repro.errors import JournalError
from repro.obs.metrics import METRICS

__all__ = [
    "Journal",
    "JournalScan",
    "read_journal",
    "RECORD_HEADER",
]

_H_FSYNC = METRICS.histogram(
    "wal.fsync.seconds", unit="seconds", site="Journal.append"
)

#: (payload length, payload crc32), big-endian.
RECORD_HEADER = struct.Struct(">II")


class JournalScan(NamedTuple):
    """Result of scanning a journal file."""

    records: list[dict]  # every valid record, in append order
    valid_bytes: int  # offset of the first invalid byte (== file size if clean)
    torn_tail: bool  # True when bytes past ``valid_bytes`` were discarded


def read_journal(path: str | Path) -> JournalScan:
    """Scan a journal file, returning valid records and torn-tail status.

    Never raises on torn or trailing-garbage data: a crash mid-append is an
    expected state, and recovery's contract is to keep every record that
    was fully acknowledged and drop the one that was not.  Scanning stops
    at the first record whose framing, CRC or JSON does not check.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return JournalScan([], 0, False)
    records: list[dict] = []
    offset = 0
    while offset + RECORD_HEADER.size <= len(data):
        length, crc = RECORD_HEADER.unpack_from(data, offset)
        start = offset + RECORD_HEADER.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict) or not isinstance(record.get("seq"), int):
            break
        records.append(record)
        offset = end
    return JournalScan(records, offset, offset < len(data))


class Journal:
    """An open journal file accepting durable appends.

    ``truncate_to`` trims the file on open — recovery passes the scan's
    ``valid_bytes`` so a torn tail is physically removed before new records
    are appended after it (O_APPEND would otherwise write past the garbage
    and strand every later record behind an invalid one).
    """

    def __init__(self, path: str | Path, *, truncate_to: int | None = None):
        self.path = Path(path)
        self._fd: int | None = os.open(
            str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        if truncate_to is not None and truncate_to < os.fstat(self._fd).st_size:
            os.ftruncate(self._fd, truncate_to)
            os.fsync(self._fd)

    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._fd is None

    def _require_open(self) -> int:
        if self._fd is None:
            raise JournalError(f"journal {self.path} is closed")
        return self._fd

    def append(self, seq: int, op: dict) -> None:
        """Durably append one operation record; returns only once fsynced."""
        fd = self._require_open()
        body = dict(op)
        body["seq"] = seq
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
        header = RECORD_HEADER.pack(len(payload), zlib.crc32(payload))
        hooks.fire("wal.append.before_write")
        os.write(fd, header)
        hooks.fire("wal.append.mid_write")
        os.write(fd, payload)
        hooks.fire("wal.append.after_write")
        if METRICS.enabled:
            fsync_start = perf_counter()
            os.fsync(fd)
            _H_FSYNC.observe(perf_counter() - fsync_start)
        else:
            os.fsync(fd)
        hooks.fire("wal.append.after_fsync")

    def truncate(self) -> None:
        """Discard every record (after a successful checkpoint)."""
        fd = self._require_open()
        hooks.fire("wal.truncate.before")
        os.ftruncate(fd, 0)
        os.fsync(fd)
        hooks.fire("wal.truncate.after")

    def size(self) -> int:
        """Current journal size in bytes."""
        return os.fstat(self._require_open()).st_size

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    # ------------------------------------------------------------------

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<Journal {self.path} ({state})>"
