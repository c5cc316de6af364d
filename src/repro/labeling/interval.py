"""Traditional interval labeling with relabel-on-update (Fig. 16 comparator).

The "traditional approach" of Section 5.4: every element is labeled by its
*global* ``(start, end, level)`` interval and the labels are the B+-tree
keys.  Queries are fast (plain Stack-Tree-Desc over integers), but a
structural update must rewrite the label of every element at or after the
edit point — delete + reinsert of O(NE) index records — which is exactly the
cost blow-up Fig. 16 shows.

The class intentionally mirrors the lazy database's insert/remove interface
so the benchmark harness can drive both identically.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

from repro.btree import BPlusTree
from repro.core.taglist import TagRegistry
from repro.errors import InvalidSegmentError
from repro.xml.parser import parse_flat

__all__ = ["IntervalElement", "IntervalLabelingIndex"]

_ORDER = 64


class IntervalElement(NamedTuple):
    """A globally labeled element: ``[start, end)`` span plus depth."""

    start: int
    end: int
    level: int


class IntervalLabelingIndex:
    """Global-interval element index with relabeling updates."""

    def __init__(self):
        # Keys: (tid, start, end, level).  Values unused.
        self._tree = BPlusTree(order=_ORDER)
        self.tags = TagRegistry()
        self._document_length = 0
        self._relabelled_last_update = 0

    # ------------------------------------------------------------------
    # properties

    def __len__(self) -> int:
        return len(self._tree)

    @property
    def document_length(self) -> int:
        return self._document_length

    @property
    def relabelled_last_update(self) -> int:
        """Index records rewritten by the most recent update (cost meter)."""
        return self._relabelled_last_update

    # ------------------------------------------------------------------
    # updates

    def insert_fragment(self, fragment: str, position: int | None = None) -> int:
        """Insert an XML fragment at ``position``; relabel what follows.

        Every existing element whose span starts at/after ``position`` is
        shifted right by the fragment length; enclosing elements' ends are
        extended.  All changed keys are deleted and reinserted.  Into an
        empty index the fragment is loaded, not inserted: the tree is
        bulk-built from its sorted keys.  Returns the number of elements
        the fragment added.
        """
        if position is None:
            position = self._document_length
        if not (0 <= position <= self._document_length):
            raise InvalidSegmentError(
                f"insert position {position} outside document "
                f"[0, {self._document_length}]"
            )
        document = parse_flat(fragment)
        length = len(fragment)

        base_level = self._depth_at(position)
        keys = [
            (
                self.tags.intern(element.tag),
                position + element.start,
                position + element.end,
                base_level + element.level,
            )
            for element in document.elements
        ]
        if self._tree:
            self._shift_for_insert(position, length)
            for key in keys:
                self._tree.insert(key, None)
        else:
            self._tree = BPlusTree.bulk_load(
                [(key, None) for key in sorted(keys)], order=_ORDER
            )
            self._relabelled_last_update = 0
        self._document_length += length
        return len(document.elements)

    def _depth_at(self, position: int) -> int:
        """Depth of the innermost element strictly containing ``position``."""
        best = 0
        for tid, start, end, level in self._tree.keys():
            if start < position < end and level > best:
                best = level
        return best

    def _shift_for_insert(self, position: int, length: int) -> None:
        """Rewrite the labels of every element affected by an insertion."""
        changed: list[tuple[tuple, tuple]] = []
        for key in self._tree.keys():
            tid, start, end, level = key
            new_start = start + length if start >= position else start
            new_end = end + length if end > position else end
            if new_start != start or new_end != end:
                changed.append((key, (tid, new_start, new_end, level)))
        for old_key, _ in changed:
            self._tree.delete(old_key)
        for _, new_key in changed:
            self._tree.insert(new_key, None)
        self._relabelled_last_update = len(changed)

    def remove_span(self, position: int, length: int) -> Counter:
        """Remove a character span; drop covered elements, relabel the rest.

        Elements entirely inside the span are deleted; elements after it
        shift left; enclosing elements shrink.  Returns per-tid removal
        counts (mirroring the lazy database's bookkeeping).
        """
        end = position + length
        if position < 0 or end > self._document_length:
            raise InvalidSegmentError(
                f"removal span [{position}, {end}) outside document "
                f"[0, {self._document_length})"
            )
        removed: Counter = Counter()
        doomed: list[tuple] = []
        changed: list[tuple[tuple, tuple]] = []
        for key in self._tree.keys():
            tid, start, elem_end, level = key
            if start >= position and elem_end <= end:
                doomed.append(key)
                removed[tid] += 1
                continue
            new_start = start - length if start >= end else start
            new_end = elem_end - length if elem_end >= end else elem_end
            if start < position < elem_end and elem_end < end:
                # Right part clipped off (non-well-formed edit); shrink.
                new_end = position
            if new_start != start or new_end != elem_end:
                changed.append((key, (tid, new_start, new_end, level)))
        for key in doomed:
            self._tree.delete(key)
        for old_key, _ in changed:
            self._tree.delete(old_key)
        for _, new_key in changed:
            self._tree.insert(new_key, None)
        self._relabelled_last_update = len(changed)
        self._document_length -= length
        return removed

    # ------------------------------------------------------------------
    # queries

    def elements(self, tag: str) -> list[IntervalElement]:
        """All elements of ``tag``, sorted by global start (join input)."""
        tid = self.tags.tid_of(tag)
        if tid is None:
            return []
        out = [
            IntervalElement(start, end, level)
            for (_, start, end, level), _ in self._tree.range((tid,), (tid + 1,))
        ]
        out.sort(key=lambda e: e.start)
        return out

    def all_records(self) -> Iterator[tuple[int, int, int, int]]:
        """Every (tid, start, end, level) key, index order."""
        return self._tree.keys()

    def check_invariants(self) -> None:
        """Structural checks: tree invariants plus span sanity."""
        self._tree.check_invariants()
        for tid, start, end, level in self._tree.keys():
            assert 0 <= start < end <= self._document_length, (
                f"element span [{start}, {end}) escapes document"
            )
            assert level >= 1
