"""The element index of Section 3.4.

A B+-tree whose keys are ``(tid, sid, start, end, level)``:

- ``tid`` — tag id;
- ``sid`` — the segment the element arrived in;
- ``start``/``end`` — the element's *local* span inside that segment's
  original text (end-exclusive here; the containment tests are unaffected);
- ``level`` — the element's absolute depth in the super document.

``(sid, start)`` uniquely identifies an element, and — the whole point of
the lazy scheme — no existing key is ever rewritten by an update: insertions
only add keys, removals only delete keys.

The key order makes "all elements of tag *t* in segment *s*" one contiguous
leaf scan, which is the access pattern Lazy-Join's cost model charges as
``log(NE) + p_A``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator
from operator import itemgetter
from typing import NamedTuple

from repro.btree import BPlusTree
from repro.obs.metrics import METRICS

__all__ = ["ElementRecord", "ElementIndex", "records_from_keys"]

_ORDER = 64

# Mutation-path instruments honor ElementIndex.observed (replica replay
# guard); the read counters are query-path and ignore it.
_M_INSERTED = METRICS.counter(
    "index.records_inserted", unit="records", site="ElementIndex.insert_segment"
)
_M_REMOVED = METRICS.counter(
    "index.records_removed", unit="records", site="ElementIndex.remove_*"
)
_M_READS = METRICS.counter(
    "index.reads", unit="calls", site="ElementIndex.elements_list"
)
_M_RECORDS_READ = METRICS.counter(
    "index.records_read", unit="records", site="ElementIndex.elements_list"
)


class ElementRecord(NamedTuple):
    """An element as the index sees it: local span plus absolute level."""

    sid: int
    start: int
    end: int
    level: int


# Index keys are ``(tid, record)`` two-tuples.  A NamedTuple compares
# elementwise like any tuple, so the tree order is identical to the flat
# ``(tid, sid, start, end, level)`` layout — but the stored record IS the
# join-facing :class:`ElementRecord`, so "materializing" a segment's
# records is one C-level ``itemgetter`` pass over stored objects with
# zero per-element allocation.  Range bounds use tuple prefixes:
# ``(tid, (sid,))`` sorts before every ``(tid, (sid, start, ...))``.
_KEY_REC = itemgetter(1)
_REC_START = itemgetter(1)
_REC_END = itemgetter(2)
_REC_LEVEL = itemgetter(3)


def records_from_keys(keys) -> tuple[ElementRecord, ...]:
    """Extract the stored :class:`ElementRecord` objects from index keys.

    Records live inside the ``(tid, record)`` keys, so this is a single
    reference-copying pass — no per-element tuple construction.  Building
    record objects used to be the single most expensive step of compiling
    a segment's elements; storing them in the key makes the compile path
    column-extraction plus pointer copies.
    """
    return tuple(map(_KEY_REC, keys))


class ElementIndex:
    """B+-tree element index with per-removal occurrence accounting."""

    def __init__(self, order: int = _ORDER):
        self._tree = BPlusTree(order=order)
        #: See ERTree.observed — cleared on EpochManager read replicas.
        self.observed = True
        # Read-path version keys: one counter per segment, bumped exactly
        # when that segment's recorded elements change.  The compiled
        # element-array cache (repro.core.readpath) keys on these, so
        # invalidation is O(touched segments), never a global flush.
        self._versions: dict[int, int] = {}

    def version(self, sid: int) -> int:
        """Monotone counter of observable changes to ``sid``'s records."""
        return self._versions.get(sid, 0)

    def _bump(self, sid: int) -> None:
        self._versions[sid] = self._versions.get(sid, 0) + 1

    def __len__(self) -> int:
        return len(self._tree)

    # ------------------------------------------------------------------
    # insertion

    def insert_segment(
        self,
        sid: int,
        records: Iterable[tuple[int, int, int, int]],
        base_level: int = 0,
    ) -> Counter:
        """Add a freshly inserted segment's elements.

        ``records`` are ``(tid, start, end, level)`` tuples with segment-local
        spans and 1-based in-segment levels; ``base_level`` is the absolute
        depth of the insertion point, so stored levels are absolute.

        Returns the per-tid occurrence counts, which the caller feeds into
        the tag-list.
        """
        counts: Counter = Counter()
        inserted = 0
        for tid, start, end, level in records:
            self._tree.insert(
                (tid, ElementRecord(sid, start, end, base_level + level)),
                None,
            )
            counts[tid] += 1
            inserted += 1
        if inserted:
            self._bump(sid)
        if METRICS.enabled and self.observed:
            _M_INSERTED.inc(inserted)
        return counts

    # ------------------------------------------------------------------
    # lookups

    def elements(self, tid: int, sid: int) -> Iterator[ElementRecord]:
        """Elements of tag ``tid`` in segment ``sid``, ascending by start."""
        for key, _ in self._tree.range((tid, (sid,)), (tid, (sid + 1,))):
            yield key[1]

    def elements_list(self, tid: int, sid: int) -> list[ElementRecord]:
        """:meth:`elements`, materialized."""
        records = list(self.elements(tid, sid))
        if METRICS.enabled:
            _M_READS.inc()
            _M_RECORDS_READ.inc(len(records))
        return records

    def segment_columns(
        self, tid: int, sid: int
    ) -> tuple[tuple[ElementRecord, ...], array, array, array]:
        """Column-at-a-time form of :meth:`elements_list`.

        Returns ``(records, starts, ends, levels)`` — the records tuple plus
        the parallel ``array('q')`` columns the compiled read path serves,
        extracted with bulk leaf slicing and C-level ``map`` passes instead
        of a per-element generator.  The records are the NamedTuples stored
        inside the ``(tid, record)`` index keys — reference copies, no
        per-element construction.  Same contents and order as
        :meth:`elements_list`.
        """
        keys = self._tree.range_keys((tid, (sid,)), (tid, (sid + 1,)))
        records = records_from_keys(keys)
        starts = array("q", map(_REC_START, records))
        ends = array("q", map(_REC_END, records))
        levels = array("q", map(_REC_LEVEL, records))
        if METRICS.enabled:
            _M_READS.inc()
            _M_RECORDS_READ.inc(len(records))
        return records, starts, ends, levels

    def tag_columns(
        self, tid: int
    ) -> dict[int, tuple[list, array, array, array]]:
        """Whole-tag bulk form of :meth:`segment_columns` — one pass.

        Returns ``{sid: (keys, starts, ends, levels)}`` for *every*
        segment holding at least one ``tid`` element, each entry's
        columns byte-identical to the matching :meth:`segment_columns`
        call (``keys`` are the raw index keys; records materialize
        lazily via :func:`records_from_keys`).  The tag's leaves are
        sliced once (:meth:`BPlusTree.leaf_slices` under
        :meth:`~repro.btree.BPlusTree.range_keys`), the whole-tag columns
        are built with single C-level passes, and per-segment views are
        cut out with C-level slices located by tuple-prefix bisects — so
        the cost is one tree descent plus O(elements) column work for the
        entire tag, instead of one descent and one pass per ``(tid, sid)``.
        """
        keys = self._tree.range_keys((tid,), (tid + 1,))
        out: dict[int, tuple] = {}
        n = len(keys)
        if not n:
            return out
        records = records_from_keys(keys)
        _, starts_t, ends_t, levels_t = zip(*records)
        starts_all = array("q", starts_t)
        ends_all = array("q", ends_t)
        levels_all = array("q", levels_t)
        lo = 0
        while lo < n:
            sid = records[lo][0]
            # ``(sid + 1,)`` compares below every record of the next
            # segment and above every record of this one — the same
            # prefix bound the per-segment range lookups use.
            hi = bisect_left(records, (sid + 1,), lo, n)
            out[sid] = (
                records[lo:hi],
                starts_all[lo:hi],
                ends_all[lo:hi],
                levels_all[lo:hi],
            )
            lo = hi
        if METRICS.enabled:
            _M_READS.inc()
            _M_RECORDS_READ.inc(n)
        return out

    def all_elements(self, tid: int) -> Iterator[ElementRecord]:
        """Every element of tag ``tid`` across all segments.

        Ordered by ``(sid, start)`` — the STD baseline re-sorts these by
        derived global position before joining.
        """
        for key, _ in self._tree.range((tid,), (tid + 1,)):
            yield key[1]

    def count(self, tid: int, sid: int) -> int:
        """Number of ``tid`` elements recorded for segment ``sid``."""
        return self._tree.count_range((tid, (sid,)), (tid, (sid + 1,)))

    def has_segment_tag(self, tid: int, sid: int) -> bool:
        """True when segment ``sid`` holds at least one ``tid`` element."""
        return (
            next(iter(self._tree.range((tid, (sid,)), (tid, (sid + 1,)))), None)
            is not None
        )

    # ------------------------------------------------------------------
    # removal

    def remove_segment(self, sid: int, tids: Iterable[int]) -> Counter:
        """Delete every record of segment ``sid`` for the given tag ids.

        Returns per-tid removal counts — the bookkeeping Section 3.4 calls
        out as needed to decide tag-list path removal.  ``tids`` comes from
        the tag-list (the segment's recorded tags); tags not actually present
        contribute zero and are harmless.
        """
        counts: Counter = Counter()
        for tid in tids:
            keys = [
                key
                for key, _ in self._tree.range((tid, (sid,)), (tid, (sid + 1,)))
            ]
            for key in keys:
                self._tree.delete(key)
            if keys:
                counts[tid] = len(keys)
        if counts:
            self._bump(sid)
        if METRICS.enabled and self.observed:
            _M_REMOVED.inc(sum(counts.values()))
        return counts

    def remove_local_range(
        self, sid: int, local_start: int, local_end: int, tids: Iterable[int]
    ) -> Counter:
        """Delete records of ``sid`` lying entirely inside a local interval.

        Used for partially affected segments in a removal: an element whose
        ``[start, end)`` span falls within ``[local_start, local_end)`` was
        textually removed.  Elements that merely *contain* the removed
        interval survive (their labels stay order-consistent).  Returns
        per-tid removal counts.
        """
        counts: Counter = Counter()
        for tid in tids:
            doomed = []
            for key, _ in self._tree.range(
                (tid, (sid, local_start)), (tid, (sid, local_end))
            ):
                if key[1].end <= local_end:
                    doomed.append(key)
            for key in doomed:
                self._tree.delete(key)
            if doomed:
                counts[tid] = len(doomed)
        if counts:
            self._bump(sid)
        if METRICS.enabled and self.observed:
            _M_REMOVED.inc(sum(counts.values()))
        return counts

    # ------------------------------------------------------------------
    # accounting

    def approximate_bytes(self) -> int:
        """Estimated in-memory size of the index."""
        return self._tree.approximate_bytes()

    def check_invariants(self) -> None:
        """Delegate structural checking to the underlying B+-tree."""
        self._tree.check_invariants()
