"""Durability subsystem: write-ahead journal, checkpoints, crash recovery.

The paper treats the update log as an in-memory structure that can be
rebuilt "during maintenance hours"; a production service cannot afford to
lose committed updates or corrupt its only snapshot when the process dies.
This package adds the missing durability layer:

- :mod:`repro.durability.wal` — an append-only journal of structural
  operations (insert / remove / remove_segment / repack / compact), each
  record length-prefixed and CRC32-checksummed, fsynced before the update
  is acknowledged;
- :mod:`repro.durability.checkpoint` — atomic snapshots (tmp file + fsync +
  ``os.replace`` + directory fsync): a JSON header line with the journal
  sequence number covered and a checksum, then the zlib-compressed
  :func:`repro.storage.dumps` output and the document marks;
- :mod:`repro.durability.recovery` — loads the latest valid checkpoint,
  replays the journal tail, discards a torn final record, and finishes with
  ``check_invariants()``;
- :mod:`repro.durability.database` — :class:`DurableDatabase`, the facade
  that journals every structural op before applying it in memory;
- :mod:`repro.durability.hooks` — monkeypatchable failpoints at every
  fsync/write/rename boundary, driven by the fault-injection harness in
  ``tests/failpoints.py``.

Attribute access is lazy so that :mod:`repro.storage` can import
:mod:`repro.durability.atomic` without creating an import cycle through
:mod:`repro.durability.database` (which itself imports the storage codec).
"""

from __future__ import annotations

__all__ = [
    "DurableDatabase",
    "Journal",
    "JournalScan",
    "read_journal",
    "write_checkpoint",
    "read_checkpoint",
    "recover",
    "RecoveryReport",
    "apply_op",
    "validate_op",
    "atomic_write",
]

_EXPORTS = {
    "DurableDatabase": ("repro.durability.database", "DurableDatabase"),
    "Journal": ("repro.durability.wal", "Journal"),
    "JournalScan": ("repro.durability.wal", "JournalScan"),
    "read_journal": ("repro.durability.wal", "read_journal"),
    "write_checkpoint": ("repro.durability.checkpoint", "write_checkpoint"),
    "read_checkpoint": ("repro.durability.checkpoint", "read_checkpoint"),
    "recover": ("repro.durability.recovery", "recover"),
    "RecoveryReport": ("repro.durability.recovery", "RecoveryReport"),
    "apply_op": ("repro.durability.recovery", "apply_op"),
    "validate_op": ("repro.durability.recovery", "validate_op"),
    "atomic_write": ("repro.durability.atomic", "atomic_write"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
