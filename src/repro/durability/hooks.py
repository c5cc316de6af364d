"""Failpoints: monkeypatchable hooks in the durability write path.

Every boundary that matters for crash consistency — buffer writes, fsyncs,
renames, truncations — calls :func:`fire` with a well-known name.  In
production nothing is registered and a fire is a single dict lookup; the
fault-injection harness (``tests/failpoints.py``) registers callbacks that
raise a simulated crash at a chosen boundary, after which the test discards
the in-memory database (the "process died") and runs recovery against
whatever reached the filesystem.

The registry is intentionally global and flat: a failpoint name maps to one
callback, and the set of legal names is closed (:data:`FAILPOINT_NAMES`) so
a typo in a test fails loudly instead of silently never firing.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "FAILPOINT_NAMES",
    "fire",
    "set_failpoint",
    "clear_failpoint",
    "clear_all_failpoints",
]

#: Every failpoint the write path declares, in rough execution order.
FAILPOINT_NAMES = frozenset(
    {
        # Journal append: header write, payload write, fsync, acknowledge.
        "wal.append.before_write",
        "wal.append.mid_write",  # header on disk, payload missing -> torn record
        "wal.append.after_write",  # record complete but not yet fsynced
        "wal.append.after_fsync",  # record durable, op not yet applied in memory
        # Journal truncation (runs after a successful checkpoint).
        "wal.truncate.before",
        "wal.truncate.after",
        # Atomic file replacement (storage.save and checkpoints).
        "atomic.before_tmp_write",
        "atomic.after_tmp_write",  # tmp file written, not fsynced
        "atomic.after_tmp_fsync",  # tmp durable, target not yet replaced
        "atomic.after_replace",  # target replaced, directory not fsynced
        "atomic.after_dir_fsync",
        # Checkpoint: file write then journal truncation.
        "checkpoint.before_write",
        "checkpoint.after_write",  # checkpoint durable, journal not truncated
        "checkpoint.after_truncate",
        # Batched apply: the batch record is already durable (the journal
        # fsync is the single commit point), these bracket the in-memory
        # application of its sub-ops.  A crash at any of them must recover
        # to the *post*-batch state — never a partially applied one.
        "batch.before_apply",  # record durable, no sub-op applied yet
        "batch.mid_apply",  # first sub-op applied, the rest pending
        "batch.after_apply",  # every sub-op applied in memory
    }
)

_active: dict[str, Callable[[str], None]] = {}


def fire(name: str) -> None:
    """Invoke the callback registered for ``name``, if any.

    Called from the write path; must stay cheap when nothing is registered.
    """
    callback = _active.get(name)
    if callback is not None:
        callback(name)


def set_failpoint(name: str, callback: Callable[[str], None]) -> None:
    """Register ``callback`` to run whenever failpoint ``name`` is reached."""
    if name not in FAILPOINT_NAMES:
        raise ValueError(
            f"unknown failpoint {name!r}; valid names: {sorted(FAILPOINT_NAMES)}"
        )
    _active[name] = callback


def clear_failpoint(name: str) -> None:
    """Remove the callback for ``name`` (no-op when none is registered)."""
    _active.pop(name, None)


def clear_all_failpoints() -> None:
    """Remove every registered callback."""
    _active.clear()
