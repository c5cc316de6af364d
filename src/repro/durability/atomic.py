"""Crash-safe file replacement: tmp file + fsync + ``os.replace`` + dir fsync.

The sequence guarantees that at every instant the target path holds either
the complete previous content or the complete new content — never a prefix
of either.  A crash before the rename leaves the old file untouched (plus a
stale ``*.tmp`` sibling, which the next write overwrites); a crash after
the rename leaves the new file in place.  The final directory fsync makes
the rename itself durable on filesystems that defer directory updates.

It writes bytes: a checkpoint's header line and zlib body
(:mod:`repro.durability.checkpoint`), a snapshot file's or a replication
manifest's UTF-8 JSON (their callers encode).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.durability import hooks

__all__ = ["atomic_write", "fsync_directory"]


def atomic_write(path: str | Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    hooks.fire("atomic.before_tmp_write")
    fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        hooks.fire("atomic.after_tmp_write")
        os.fsync(fd)
    finally:
        os.close(fd)
    hooks.fire("atomic.after_tmp_fsync")
    os.replace(str(tmp), str(target))
    hooks.fire("atomic.after_replace")
    fsync_directory(target.parent)
    hooks.fire("atomic.after_dir_fsync")


def fsync_directory(directory: str | Path) -> None:
    """Fsync a directory so renames/creations inside it are durable.

    Best-effort: some platforms/filesystems refuse to open or fsync a
    directory; crash-consistency then degrades to what the OS provides.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
