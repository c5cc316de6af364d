"""The element index of Section 3.4, as write-once per-segment blocks.

The paper's index is one B+-tree keyed ``(tid, sid, start, end, level)``;
its access pattern is "all elements of tag *t* in segment *s*", found by a
``log(NE)`` descent.  Labels are segment-local and never rewritten, so the
same answers come from a plainer layout: one immutable
:class:`SegmentBlock` per segment, addressed by sid (the descent becomes a
dictionary probe, for Lazy-Join and the baselines alike), holding the
segment's elements once — every tag, in document order — as four
``array('q')`` columns:

- ``tids`` — tag id;
- ``starts``/``ends`` — the element's *local* span inside the segment's
  original text (end-exclusive here; the containment tests are unaffected);
- ``levels`` — the element's absolute depth in the super document.

``(sid, start)`` uniquely identifies an element, and — the whole point of
the lazy scheme — no stored label is ever rewritten by an update: an
insertion writes a block, a whole removal drops one, a partial removal
replaces one.  The per-tag directory is the tag-list (Section 3.2), which
already names the segments holding each tag.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import compress, repeat
from operator import itemgetter
from typing import NamedTuple

from repro.obs.metrics import METRICS

__all__ = ["ElementRecord", "CompiledElements", "SegmentBlock", "ElementIndex"]

_M_READS = METRICS.counter(
    "index.reads", unit="views", site="SegmentBlock.tag"
)

# Block order.  Filtered to one tag it is the ``(start, end, level)`` order
# joins consume; unfiltered it is document order with ties (possible only
# after repacking a document an update split mid-token) broken by tag id.
_ROW_ORDER = itemgetter(1, 0, 2, 3)

#: Writes the element index's journal remembers.  Once it holds twice this
#: many sids the oldest ``JOURNAL_KEPT`` go; a reader further behind than
#: what is left learns nothing from it (a join memo that old is a miss).
JOURNAL_KEPT = 4096


class ElementRecord(NamedTuple):
    """An element as the index sees it: local span plus absolute level."""

    sid: int
    start: int
    end: int
    level: int


class CompiledElements:
    """Elements of one segment — one tag's, or every tag's — as flat columns.

    ``records`` is the :class:`ElementRecord` tuple (what join results
    are made of); ``starts``/``ends``/``levels`` are parallel
    ``array('q')`` columns sorted by start — local coordinates, which are
    immutable, so an instance never goes stale from *other* segments'
    updates.  The instance is also a start-ordered sequence of its records
    (``len``/index/iterate), which is how Stack-Tree-Desc consumes it; the
    column kernel defers record access until emission, then resolves
    ``.records`` once and indexes the plain tuple.
    """

    __slots__ = ("records", "starts", "ends", "levels")

    def __init__(self, records, starts, ends, levels):
        self.records = records
        self.starts = starts
        self.ends = ends
        self.levels = levels

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self):
        return iter(self.records)


class SegmentBlock:
    """One segment's elements, written once.

    The columns are the segment's rows in block order (see ``_ROW_ORDER``)
    and are never edited.  :meth:`tag` cuts the :class:`CompiledElements`
    view of one tag (``None``: every tag) on first read and keeps it for
    the block's lifetime — a segment holds many tags and most are never
    queried, so nothing per tag exists until a reader asks.  Readers of a
    pinned replica may cut the same view twice; either object is valid.
    """

    __slots__ = ("sid", "tids", "starts", "ends", "levels", "_views")

    def __init__(self, sid: int, rows=()):
        """``rows`` are ``(tid, start, end, level)`` in block order."""
        self.sid = sid
        tids, starts, ends, levels = zip(*rows) if rows else ((), (), (), ())
        self.tids = array("q", tids)
        self.starts = array("q", starts)
        self.ends = array("q", ends)
        self.levels = array("q", levels)
        self._views: dict[int | None, CompiledElements] = {}

    def __len__(self) -> int:
        return len(self.tids)

    def rows(self) -> Iterator[tuple[int, int, int, int]]:
        """``(tid, start, end, level)`` per element, in block order — the
        ``records`` list of the snapshot format."""
        return zip(self.tids, self.starts, self.ends, self.levels)

    def tag(self, tid: int | None) -> CompiledElements:
        """The elements of tag ``tid`` (``None``: of every tag) as columns."""
        view = self._views.get(tid)
        if view is None:
            view = self._views[tid] = self._cut(tid)
        return view

    def _cut(self, tid: int | None) -> CompiledElements:
        columns = (self.starts, self.ends, self.levels)
        if tid is not None:
            keep = [held == tid for held in self.tids]
            if all(keep):
                # A one-tag segment (or an empty one): the all-tags view.
                return self.tag(None)
            columns = [array("q", compress(column, keep)) for column in columns]
        records = tuple(map(ElementRecord, repeat(self.sid), *columns))
        if METRICS.enabled:
            _M_READS.inc()
        return CompiledElements(records, *columns)


_NO_ELEMENTS = SegmentBlock(0)


class ElementIndex:
    """``{sid: block}`` — the single home of element data."""

    def __init__(self):
        self._blocks: dict[int, SegmentBlock] = {}
        self._size = 0
        # Read-path version keys: one counter per segment, bumped exactly
        # when that segment's recorded elements change.  What is compiled
        # from a block *and* an ER-node (repro.core.readpath) keys on
        # these, so invalidation is O(touched segments), never a flush.
        self._versions: dict[int, int] = {}
        # The write journal: every sid written, oldest first,
        # ``_journal[0]`` being write number ``_journal_start``.  What a
        # join memo reads to learn which D-segments moved since it was
        # built, instead of comparing every chunk's version.
        self._journal: list[int] = []
        self._journal_start = 0

    @property
    def journal_position(self) -> int:
        """How many writes this index has seen: where the next one goes."""
        return self._journal_start + len(self._journal)

    def written_since(self, position: int) -> list[int] | None:
        """The sids written at or after journal ``position`` (repeats
        possible), or ``None`` when the journal no longer reaches back
        that far."""
        offset = position - self._journal_start
        return None if offset < 0 else self._journal[offset:]

    def version(self, sid: int) -> int:
        """Monotone counter of observable changes to ``sid``'s records."""
        return self._versions.get(sid, 0)

    def _bump(self, sid: int) -> None:
        """Record a write of ``sid``: its version and the journal."""
        self._versions[sid] = self._versions.get(sid, 0) + 1
        journal = self._journal
        journal.append(sid)
        if len(journal) >= 2 * JOURNAL_KEPT:
            del journal[:JOURNAL_KEPT]
            self._journal_start += JOURNAL_KEPT

    def _install(self, sid: int, block: SegmentBlock) -> None:
        """Make ``block`` (when empty: nothing) what ``sid`` holds."""
        self._size += len(block) - len(self._blocks.pop(sid, ()))
        if block:
            self._blocks[sid] = block
        self._bump(sid)

    def __len__(self) -> int:
        return self._size

    def sids(self) -> Iterator[int]:
        """The segments that hold at least one element."""
        return iter(self._blocks)

    def block(self, sid: int) -> SegmentBlock:
        """Segment ``sid``'s block; an empty one when it holds no element."""
        return self._blocks.get(sid, _NO_ELEMENTS)

    # ------------------------------------------------------------------
    # updates

    def insert_segment(
        self,
        sid: int,
        records: Iterable[tuple[int, int, int, int]],
        base_level: int = 0,
    ) -> Counter:
        """Write a freshly inserted segment's block.

        ``records`` are ``(tid, start, end, level)`` tuples with segment-local
        spans and 1-based in-segment levels; ``base_level`` is the absolute
        depth of the insertion point, so stored levels are absolute.

        Returns the per-tid occurrence counts, which the caller feeds into
        the tag-list.
        """
        block = SegmentBlock(
            sid,
            sorted(
                (
                    (tid, start, end, base_level + level)
                    for tid, start, end, level in records
                ),
                key=_ROW_ORDER,
            ),
        )
        if block:
            self._install(sid, block)
        return Counter(block.tids)

    def remove_segment(self, sid: int) -> Counter:
        """Drop segment ``sid``'s block.

        Returns per-tid removal counts — the bookkeeping Section 3.4 calls
        out as needed to decide tag-list path removal.  A segment without
        elements contributes nothing and is harmless.
        """
        return self._keep(sid, [])

    def remove_local_range(
        self, sid: int, local_start: int, local_end: int
    ) -> Counter:
        """Replace ``sid``'s block by one without the records lying entirely
        inside a local interval.

        Used for partially affected segments in a removal: an element whose
        ``[start, end)`` span falls within ``[local_start, local_end)`` was
        textually removed.  Elements that merely *contain* the removed
        interval survive (their labels stay order-consistent).  Returns
        per-tid removal counts.
        """
        return self._keep(
            sid,
            [
                row for row in self.block(sid).rows()
                if row[1] < local_start or row[2] > local_end
            ],
        )

    def _keep(self, sid: int, rows: list) -> Counter:
        """Leave ``sid`` only ``rows`` of its block; count what left by tid."""
        block = self.block(sid)
        if len(rows) == len(block):
            return Counter()
        survivors = SegmentBlock(sid, rows)
        self._install(sid, survivors)
        counts = Counter(block.tids)
        counts.subtract(survivors.tids)
        return +counts

    # ------------------------------------------------------------------
    # accounting

    def approximate_bytes(self) -> int:
        """Estimated in-memory size: 8 bytes per stored scalar (the write
        journal's sids included)."""
        total = 8 * len(self._journal)
        for block in self._blocks.values():
            total += 8 * 4 * len(block)
            for view in {id(v): v for v in block._views.values()}.values():
                # Record references; a filtered view's own three columns.
                total += 8 * len(view) * (1 if view.starts is block.starts else 4)
        return total

    def check_invariants(self) -> None:
        """Every block non-empty and in block order; the size in step."""
        for sid, block in self._blocks.items():
            assert block and block.sid == sid, f"block {sid} empty or misfiled"
            rows = list(map(_ROW_ORDER, block.rows()))
            assert rows == sorted(rows), f"block {sid} is out of order"
        assert self._size == sum(map(len, self._blocks.values()))
