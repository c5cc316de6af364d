"""Snapshot persistence for :class:`~repro.core.database.LazyXMLDatabase`.

The update log is an in-memory structure; the paper's deployment story has
the administrator rebuilding it during maintenance windows.  For a usable
library we also want to *close and reopen* a database without replaying the
whole update history, so this module serializes the complete state — tag
registry, segment tree (including tombstones), element records and the
super-document text — to a single JSON document, and restores it
losslessly: the text is sliced back into the segments' fragments.

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
from collections import Counter
from pathlib import Path

from repro.core.database import LazyXMLDatabase
from repro.core.element_index import block_columns
from repro.core.ertree import ERNode
from repro.core.segment import DUMMY_ROOT_SID
from repro.errors import ReproError

__all__ = [
    "FORMAT_VERSION",
    "dumps",
    "encode",
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
    """Serialize the database to a JSON string.

    The text is ``json.dumps`` of the snapshot payload, byte for byte,
    assembled here so that each segment's element records come from its
    block's kept encoding (:meth:`~repro.core.element_index.SegmentBlock.
    records_json`): only the blocks written since the last call are
    encoded, and the rest of a segment entry (``gp`` and ``length`` do
    move) is one format per ER-node.
    """
    return encode(db)[0]


def encode(db: LazyXMLDatabase) -> tuple[str, int]:
    """:func:`dumps`' text, and how many blocks' records it encoded (the
    others reused the encoding their block keeps)."""
    blocks, encoded, segments = db.index.block, 0, []
    for node in db.log.ertree.nodes():
        block = blocks(node.sid)
        encoded += not block.encoded
        parent, stones = node.parent, node.tombstones()
        segments.append(
            f'{{"sid": {node.sid}, '
            f'"parent": {"null" if parent is None else parent.sid}, '
            f'"gp": {node.gp}, "length": {node.length}, "lp": {node.lp}, '
            f'"tombstones": {json.dumps(stones) if stones else "[]"}, '
            f'"records": {block.records_json()}}}'
        )
    tags = db.log.tags
    ertree = db.log.ertree
    # Every loaded database is LD (see :func:`loads`), and every database
    # has its text: ``mode`` and ``keep_text`` stay so the format, and
    # snapshots written before, keep their bytes.
    head = (
        f'{{"format": {FORMAT_VERSION}, "mode": "dynamic", "keep_text": true, '
        f'"text": {json.dumps(db.text)}, '
        f'"tags": {json.dumps([tags.name_of(tid) for tid in range(len(tags))])}, '
        f'"next_sid": {ertree._next_sid}, "segments": ['
    )
    # Sid-namespace keys are emitted only when non-default so snapshots
    # from unsharded databases stay byte-compatible with older readers.
    tail = "]}"
    if ertree.sid_start != 1 or ertree.sid_stride != 1:
        tail = f'], "sid_start": {ertree.sid_start}, "sid_stride": {ertree.sid_stride}}}'
    return head + ", ".join(segments) + tail, encoded


def clone(db: LazyXMLDatabase) -> LazyXMLDatabase:
    """A deep, structurally independent copy of ``db``.

    A serialization round-trip: every structure the snapshot format covers
    (which is all of them) is rebuilt from scratch, so the copy shares no
    mutable state with the original — the property the concurrent access
    layer (:mod:`repro.service.snapshot`) relies on when seeding read
    replicas.  The copy keeps the source's document marks (which a
    snapshot does not hold), so a replica does not scan a document to
    earn back what its source knew.
    """
    copy = loads(dumps(db))
    copy._trusted = set(db._trusted)
    copy._unbalanced = set(db._unbalanced)
    return copy


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
    _expect(isinstance(payload["text"], str), "text must be a string")
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
    snapshot has nothing left to defer.  Each segment's fragment is sliced
    from the text; its tombstoned ranges, which no reader visits, are
    filled with spaces.  No document is marked: the first insert scans
    each once (see ``LazyXMLDatabase._validate_insert``).
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
        sid_start=payload.get("sid_start", 1),
        sid_stride=payload.get("sid_stride", 1),
    )
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
        # Stored levels are absolute already.
        columns = block_columns(entry["records"])
        db.index.insert_segment(sid, *columns)
        db.log.taglist.add_segment(node, Counter(columns[0]))
    for node in nodes.values():
        node.children.sort(key=lambda child: child.gp)
    ertree._next_sid = payload["next_sid"]
    text = payload["text"]
    if len(text) != ertree.root.length:
        raise SnapshotError(
            f"malformed snapshot: text holds {len(text)} characters, "
            f"the segment tree {ertree.root.length}"
        )
    for node in nodes.values():
        if node is not ertree.root:
            node.fragment = _fragment(node, text)
    db._unbalanced = {top.sid for top in ertree.root.children}
    return db


def _fragment(node: ERNode, text: str) -> str:
    """``node``'s own text sliced out of the super-document ``text``."""
    parts, actual, virtual = [], node.gp, 0
    events = node._compiled()[0] if node.children or node._tombstones else ()
    for position, _, size, child in events:
        parts.append(text[actual : actual + position - virtual])
        actual += position - virtual
        virtual = position
        if child is None:
            parts.append(" " * size)
            virtual += size
        else:
            actual += size
    parts.append(text[actual : node.end])
    fragment = "".join(parts)
    if len(fragment) != node.virtual_own_length():
        raise SnapshotError(
            f"malformed snapshot: segment {node.sid} does not fit the text"
        )
    return fragment


def save(db: LazyXMLDatabase, path: str | Path) -> None:
    """Atomically write a snapshot to ``path``.

    Goes through tmp file + fsync + ``os.replace`` + directory fsync
    (:func:`repro.durability.atomic.atomic_write`), so a crash
    mid-save can never truncate or tear an existing snapshot: the path
    holds either the complete old snapshot or the complete new one.  The
    file is plain UTF-8 JSON, diffable; only a durable directory's
    checkpoint compresses its snapshot (:mod:`repro.durability.checkpoint`).
    """
    from repro.durability.atomic import atomic_write

    atomic_write(path, dumps(db).encode("utf-8"))


def load(path: str | Path) -> LazyXMLDatabase:
    """Read a snapshot from ``path``."""
    try:
        return loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"snapshot is not UTF-8 text: {exc}") from exc
