"""A snapshot reuses each block's kept encoding, and its bytes do not move.

:func:`repro.storage.dumps` assembles the snapshot text from every
segment block's kept ``records`` encoding (made the first time a snapshot
reads the block, never invalidated, since a write installs a new block)
plus one format per ER-node.  The property: after every op of a random
history, its text equals :func:`tests.helpers.reference_dumps`, the
from-scratch ``json.dumps`` of the whole payload, byte for byte.  The
histories mix top-level and nested inserts, raw partial removes (which
tombstone a segment's text), whole-segment removes, batches, ``repack``,
``compact`` and checkpoint → reopen → continue, on the default sid
lattice (through :class:`DurableDatabase`, so every op is journaled) and
on a ``sid_start=2, sid_stride=3`` database (checkpointed with
:func:`write_checkpoint`).  Each checkpoint recovers to the string-splice
oracle's text.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import LazyXMLDatabase
from repro.durability.checkpoint import write_checkpoint
from repro.durability.database import DurableDatabase
from repro.durability.recovery import CHECKPOINT_NAME, recover
from repro.errors import ReproError
from repro.storage import dumps, encode
from tests.helpers import reference_dumps
from tests.oracle import ReferenceDatabase

FRAGMENTS = (
    "<a><b>x</b></a>",
    "<b>y<c/></b>",
    "<c><a>z</a><b/>w</c>",
    "<a/>",
    '<b k="é&amp;"><b><a>v "q"</a></b></b>',
)

_OPS = st.tuples(
    st.sampled_from(
        ["top", "top", "nested", "nested", "remove_element", "remove_any",
         "remove_segment", "batch", "repack", "compact", "checkpoint"]
    ),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
)


class _Durable:
    """The default lattice, every op journaled; a checkpoint closes the
    directory and reopens it."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.writer = DurableDatabase(directory)

    @property
    def db(self) -> LazyXMLDatabase:
        return self.writer.db

    def checkpoint(self) -> LazyXMLDatabase:
        self.writer.checkpoint()
        self.writer.close()
        recovered, _ = recover(self.directory)
        self.writer = DurableDatabase(self.directory)
        return recovered

    def close(self) -> None:
        self.writer.close()


class _Lattice:
    """A ``sid_start=2, sid_stride=3`` database, checkpointed by hand; the
    history continues on what recovery gives back."""

    def __init__(self, directory: Path):
        directory.mkdir()
        self.directory = directory
        self.writer = LazyXMLDatabase(sid_start=2, sid_stride=3)
        self.checkpoints = 0

    @property
    def db(self) -> LazyXMLDatabase:
        return self.writer

    def checkpoint(self) -> LazyXMLDatabase:
        self.checkpoints += 1
        write_checkpoint(
            self.writer, self.directory / CHECKPOINT_NAME, self.checkpoints
        )
        self.writer, _ = recover(self.directory)
        return self.writer

    def close(self) -> None:
        pass


def _attempt(call) -> bool:
    """Run ``call()``; whether it went through (a refusal changes
    nothing, which the text check after it confirms)."""
    try:
        call()
    except ReproError:
        return False
    return True


def _step(target, oracle: ReferenceDatabase, kind: str, a: int, b: int) -> None:
    """One op of the alphabet on ``target`` and, where it went through,
    the same splice on ``oracle``."""
    writer, db = target.writer, target.db
    fragment = FRAGMENTS[a % len(FRAGMENTS)]
    live = list(db.log.ertree.nodes())[1:]
    if kind == "top":
        writer.insert(fragment)
        oracle.insert(fragment)
    elif kind == "nested":
        position = b % (db.document_length + 1)
        if _attempt(lambda: writer.insert(fragment, position)):
            oracle.insert(fragment, position)
    elif kind == "remove_element" and live:
        # An element's span inside one segment: a partial remove, which
        # tombstones the segment's text and installs a new block.
        node = live[a % len(live)]
        rows = list(db.index.block(node.sid).rows())
        if rows:
            _tid, start, end, _level = rows[b % len(rows)]
            lo = node.to_global(start)
            hi = node.to_global(end, count_ties=False)
            if _attempt(lambda: writer.remove(lo, hi - lo)):
                oracle.remove(lo, hi - lo)
    elif kind == "remove_any" and db.document_length:
        position, length = b % db.document_length, 1 + a % 9
        if _attempt(lambda: writer.remove(position, length)):
            oracle.remove(position, length)
    elif kind == "remove_segment" and live:
        node = live[a % len(live)]
        gp, length = node.gp, node.length
        writer.remove_segment(node.sid)
        oracle.remove(gp, length)
    elif kind == "batch":
        position = b % (db.document_length + 1)
        ops = [
            {"op": "insert", "fragment": fragment, "position": position},
            {"op": "insert", "fragment": FRAGMENTS[b % len(FRAGMENTS)]},
            {"op": "remove", "position": position, "length": 1 + a % 6},
        ]
        try:
            results = writer.apply_batch(ops)
        except ReproError:
            return  # refused whole
        for sub, result in zip(ops, results):
            if result is None:
                continue  # skipped mid-batch
            if sub["op"] == "insert":
                oracle.insert(sub["fragment"], sub.get("position"))
            else:
                oracle.remove(sub["position"], sub["length"])
    elif kind == "repack" and live:
        writer.repack(live[a % len(live)].sid)
    elif kind == "compact":
        writer.compact()
    elif kind == "checkpoint":
        recovered = target.checkpoint()
        assert recovered.text == oracle.text
        assert dumps(recovered) == reference_dumps(recovered)


def _replay(make_target, ops) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        target = make_target(Path(scratch) / "state")
        oracle = ReferenceDatabase()
        try:
            for kind, a, b in ops:
                _step(target, oracle, kind, a, b)
                db = target.db
                assert db.text == oracle.text, (kind, a, b)
                assert dumps(db) == reference_dumps(db), (kind, a, b)
                # Nothing was written since: every block's encoding is kept.
                assert encode(db)[1] == 0
            target.checkpoint()
            assert target.db.text == oracle.text
            target.db.check_invariants()
        finally:
            target.close()


@settings(max_examples=40, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=16))
def test_durable_history_snapshots_are_byte_identical(ops):
    _replay(_Durable, ops)


@settings(max_examples=40, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=16))
def test_sid_lattice_history_snapshots_are_byte_identical(ops):
    _replay(_Lattice, ops)


def test_kept_encoding_is_reused_and_bytes_hold():
    """Seeded: a second snapshot encodes no block, a partial remove
    encodes its segment's new block and nothing else, and the text a
    JSON reader sees escapes as ``json.dumps`` does."""
    db = LazyXMLDatabase(sid_start=2, sid_stride=3)
    for fragment in FRAGMENTS:
        db.insert(fragment)
    text, encoded = encode(db)
    assert encoded == len(FRAGMENTS) and text == reference_dumps(db)
    assert encode(db) == (text, 0)
    element = "<b>x</b>"
    db.remove(db.text.index(element), len(element))
    text, encoded = encode(db)
    assert encoded == 1 and text == reference_dumps(db)
    assert "\\u00e9" in text and '\\"q\\"' in text
