"""Snapshot persistence for :class:`~repro.core.database.LazyXMLDatabase`.

The update log is an in-memory structure; the paper's deployment story has
the administrator rebuilding it during maintenance windows.  For a usable
library we also want to *close and reopen* a database without replaying the
whole update history, so this module serializes the complete state — tag
registry, segment tree (including tombstones), element records and the
optional text mirror — to a single JSON document, and restores it
losslessly.

The format is versioned and deliberately simple (ints and strings only), so
snapshots are diffable and future-proof.

    >>> from repro import LazyXMLDatabase
    >>> from repro.storage import dumps, loads
    >>> db = LazyXMLDatabase()
    >>> _ = db.insert("<a><b/></a>")
    >>> copy = loads(dumps(db))
    >>> copy.text == db.text
    True
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.database import LazyXMLDatabase
from repro.core.ertree import ERNode
from repro.core.segment import DUMMY_ROOT_SID
from repro.errors import ReproError

__all__ = [
    "FORMAT_VERSION",
    "dumps",
    "loads",
    "save",
    "load",
    "clone",
    "SnapshotError",
]

FORMAT_VERSION = 1


class SnapshotError(ReproError):
    """Raised when a snapshot cannot be decoded."""


def dumps(db: LazyXMLDatabase) -> str:
    """Serialize the database to a JSON string."""
    segments = []
    for node in db.log.ertree.nodes():
        entry = {
            "sid": node.sid,
            "parent": node.parent.sid if node.parent is not None else None,
            "gp": node.gp,
            "length": node.length,
            "lp": node.lp,
            "tombstones": [list(t) for t in node.tombstones()],
            "records": [list(row) for row in db.index.block(node.sid).rows()],
        }
        segments.append(entry)
    payload = {
        "format": FORMAT_VERSION,
        # Every loaded database is LD (see :func:`loads`); the field stays
        # so the format, and snapshots written before, keep their bytes.
        "mode": "dynamic",
        "keep_text": db._keep_text,
        "text": db._text if db._keep_text else None,
        "tags": [db.log.tags.name_of(tid) for tid in range(len(db.log.tags))],
        "next_sid": db.log.ertree._next_sid,
        "segments": segments,
    }
    # Sid-namespace keys are emitted only when non-default so snapshots
    # from unsharded databases stay byte-compatible with older readers.
    if db.log.ertree.sid_start != 1 or db.log.ertree.sid_stride != 1:
        payload["sid_start"] = db.log.ertree.sid_start
        payload["sid_stride"] = db.log.ertree.sid_stride
    return json.dumps(payload)


def clone(db: LazyXMLDatabase) -> LazyXMLDatabase:
    """A deep, structurally independent copy of ``db``.

    A serialization round-trip: every structure the snapshot format covers
    (which is all of them) is rebuilt from scratch, so the copy shares no
    mutable state with the original — the property the concurrent access
    layer (:mod:`repro.service.snapshot`) relies on when seeding read
    replicas.
    """
    return loads(dumps(db))


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotError(f"malformed snapshot: {message}")


def _validate_payload(payload: dict) -> None:
    """Structural validation so decoding never leaks raw KeyError/TypeError.

    Checks presence and types of every field the reconstruction below
    touches; anything off raises :class:`SnapshotError` with a message that
    names the offending field.
    """
    for key in ("mode", "keep_text", "text", "tags", "next_sid", "segments"):
        _expect(key in payload, f"missing key {key!r}")
    _expect(
        payload["mode"] in ("dynamic", "static"),
        f"mode must be 'dynamic' or 'static', got {payload['mode']!r}",
    )
    _expect(isinstance(payload["keep_text"], bool), "keep_text must be a bool")
    _expect(
        payload["text"] is None or isinstance(payload["text"], str),
        "text must be a string or null",
    )
    tags = payload["tags"]
    _expect(
        isinstance(tags, list) and all(isinstance(t, str) for t in tags),
        "tags must be a list of strings",
    )
    _expect(
        isinstance(payload["next_sid"], int) and not isinstance(payload["next_sid"], bool),
        "next_sid must be an integer",
    )
    for key in ("sid_start", "sid_stride"):
        if key in payload:
            _expect(
                isinstance(payload[key], int)
                and not isinstance(payload[key], bool)
                and payload[key] >= 1,
                f"{key} must be a positive integer",
            )
    _expect(isinstance(payload["segments"], list), "segments must be a list")
    for index, entry in enumerate(payload["segments"]):
        where = f"segments[{index}]"
        _expect(isinstance(entry, dict), f"{where} must be an object")
        for key in ("sid", "parent", "gp", "length", "lp", "tombstones", "records"):
            _expect(key in entry, f"{where} missing key {key!r}")
        _expect(
            isinstance(entry["sid"], int) and not isinstance(entry["sid"], bool),
            f"{where}.sid must be an integer",
        )
        _expect(
            entry["parent"] is None or isinstance(entry["parent"], int),
            f"{where}.parent must be an integer or null",
        )
        for key in ("gp", "length", "lp"):
            _expect(
                isinstance(entry[key], int) and not isinstance(entry[key], bool),
                f"{where}.{key} must be an integer",
            )
        _expect(
            isinstance(entry["tombstones"], list)
            and all(
                isinstance(t, list)
                and len(t) == 2
                and all(isinstance(v, int) for v in t)
                for t in entry["tombstones"]
            ),
            f"{where}.tombstones must be a list of [start, end] integer pairs",
        )
        _expect(
            isinstance(entry["records"], list)
            and all(
                isinstance(record, list)
                and len(record) == 4
                and all(isinstance(v, int) for v in record)
                for record in entry["records"]
            ),
            f"{where}.records must be a list of [tid, start, end, level] quadruples",
        )
        tag_count = len(tags)
        _expect(
            all(0 <= record[0] < tag_count for record in entry["records"]),
            f"{where}.records reference tag ids outside the tag table",
        )
    # The next insert mints ``next_sid``: it must be a fresh sid on this
    # database's lattice, or the database would reuse a live sid (or, as
    # a shard, mint one its sibling owns).
    start = payload.get("sid_start", 1)
    stride = payload.get("sid_stride", 1)
    next_sid = payload["next_sid"]
    _expect(start <= stride, f"sid_start {start} exceeds sid_stride {stride}")
    _expect(
        next_sid >= start and (next_sid - start) % stride == 0,
        f"next_sid {next_sid} is not on the sid lattice {start} + k*{stride}",
    )
    top = max((entry["sid"] for entry in payload["segments"]), default=0)
    _expect(next_sid > top, f"next_sid {next_sid} does not exceed stored sid {top}")


def loads(data: str) -> LazyXMLDatabase:
    """Reconstruct a database from :func:`dumps` output.

    Any structural defect in the payload — missing or ill-typed keys, bad
    record arity, dangling parent references — raises :class:`SnapshotError`
    rather than a raw ``KeyError``/``TypeError``/``ValueError``.

    The result is an LD database ready for queries, whatever ``mode`` the
    snapshot names: loading rebuilds every tag list in order, so an LS
    snapshot has nothing left to defer.
    """
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_VERSION:
        found = payload.get("format") if isinstance(payload, dict) else type(payload).__name__
        raise SnapshotError(f"unsupported snapshot format: {found!r}")
    _validate_payload(payload)
    db = LazyXMLDatabase(
        keep_text=payload["keep_text"],
        sid_start=payload.get("sid_start", 1),
        sid_stride=payload.get("sid_stride", 1),
    )
    if db._keep_text:
        db._text = payload["text"] or ""
    for name in payload["tags"]:
        db.log.tags.intern(name)

    ertree = db.log.ertree
    nodes = ertree._nodes
    seen_sids: set[int] = set()
    # Segments arrive in pre-order (parents first) from dumps().
    for entry in payload["segments"]:
        sid = entry["sid"]
        if sid in seen_sids:
            raise SnapshotError(f"malformed snapshot: duplicate segment id {sid}")
        seen_sids.add(sid)
        if sid == DUMMY_ROOT_SID:
            ertree.root.length = entry["length"]
            ertree.root._tombstones = [tuple(t) for t in entry["tombstones"]]
            ertree.root._touch()
            continue
        parent = nodes.get(entry["parent"])
        if parent is None:
            raise SnapshotError(
                f"segment {sid} references unknown parent {entry['parent']}"
            )
        node = ERNode(
            sid,
            gp=entry["gp"],
            length=entry["length"],
            lp=entry["lp"],
            parent=parent,
        )
        node._tombstones = [tuple(t) for t in entry["tombstones"]]
        parent.children.append(node)
        parent._touch()
        nodes[sid] = node
        ertree._track_add(node)
        # Stored levels are absolute already.
        counts = db.index.insert_segment(sid, entry["records"], base_level=0)
        for tid, count in counts.items():
            db.log.taglist.add_segment(tid, node, count)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.gp)
    ertree._next_sid = payload["next_sid"]
    return db


def save(db: LazyXMLDatabase, path: str | Path) -> None:
    """Atomically write a snapshot to ``path``.

    Goes through tmp file + fsync + ``os.replace`` + directory fsync
    (:func:`repro.durability.atomic.atomic_write_text`), so a crash
    mid-save can never truncate or tear an existing snapshot: the path
    holds either the complete old snapshot or the complete new one.
    """
    from repro.durability.atomic import atomic_write_text

    atomic_write_text(path, dumps(db))


def load(path: str | Path) -> LazyXMLDatabase:
    """Read a snapshot from ``path``."""
    return loads(Path(path).read_text(encoding="utf-8"))
