"""The twig memo: a twig query after an update costs what the update touched.

Per parsed pattern the read path keeps a :class:`~repro.core.readpath
.PathMemo` (keyed by :func:`memo_key`): one level per pattern node, per
segment the elements that survive there — a branch node's *witnesses*
(the node's predicates hold and each of its branches has a witness
below), a trunk step's elements with a surviving element one trunk edge
up and a witness below for each branch.  A path is a pattern with no
branch.  The answer chains the output node's level in sid order,
uncopied: ``(sid, start)`` order without a sort.

After an update the memo is refreshed, not rebuilt (DESIGN.md §4e): the
segments the element index's journal wrote since the memo's position are
recomputed, vanished ones leave, and Proposition 3 says what else can
have moved — in a written segment's ER-ancestors only the *spine*, the
elements holding its branch point, is re-checked upward; a changed trunk
element dirties what lies inside it downward; value and positional
predicates re-check the spine and the spine's children.  No memo, or a
journal trimmed past it, computes every segment with the same code.

Containment is read from local labels, never from global positions:
inside one segment from the labels — a trunk step's rows are merged once
against the level above's entry for the segment — and the block's parent
rows (:meth:`~repro.core.readpath.ReadPathCache.parent_rows`), across
segments by Proposition 3 — element ``a`` of segment ``S`` holds segment
``T`` iff ``a.start < P_T^S < a.end``, ``P_T^S`` the local position of
``T``'s way into ``S``.  Only a value predicate reads text — its
element's window, off the element's segment — and a positional one
global starts, element by element.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress, count
from operator import attrgetter
from typing import NamedTuple

from repro.core.element_index import ElementRecord
from repro.core.join import JoinAnswer
from repro.core.readpath import PathMemo, patch_level
from repro.core.segment import DUMMY_ROOT_SID
from repro.joins.stack_tree import AXIS_CHILD

__all__ = ["memo_key", "memo_matches", "inner_text"]


def inner_text(segment, start: int, end: int) -> str:
    """What lies between the start tag and the end tag of the element at
    global ``[start, end)`` of ``segment``: raw, no normalization."""
    element = segment.read(start, end)
    open_end = element.find(">")
    close_start = element.rfind("<")
    return element[open_end + 1:close_start] if 0 <= open_end < close_start else ""


_INF = sys.maxsize
_LP = attrgetter("lp")


def memo_key(query, tags) -> tuple:
    """The pattern's preorder, one ``(tid, axis, position, value, shape)``
    per node: tid ``None`` is the wildcard, the shape is the node's branch
    count and whether a trunk step follows it."""
    return tuple(
        (
            None if node.is_wildcard else tags.tid_of(node.tag),
            node.axis,
            node.position,
            node.value,
            (len(node.branches), node.child is not None),
        )
        for node in query.nodes
    )


class _Layout(NamedTuple):
    """What a refresh reads off the pattern alone."""

    order: list  #: every node after its branches, the trunk top down
    above: dict  #: node index -> pattern parent
    trunk_prev: dict  #: trunk node index -> the trunk step above it


@lru_cache(maxsize=256)
def _layout(query) -> _Layout:
    """The refresh order and links of a (shared, never mutated) query:
    each level a node reads is current when the node's turn comes."""
    order = []

    def below_first(node):
        for branch in node.branches:
            below_first(branch)
        order.append(node)

    for node in query.trunk:
        below_first(node)
    return _Layout(
        order,
        {child.index: parent for parent, child in query.edges()},
        {node.index: prev for prev, node in zip(query.trunk, query.trunk[1:])},
    )


def memo_matches(db, query, context):
    """The pattern's twig memo brought up to date: ``(key, memo, served)``,
    ``served`` being ``(how, refreshed, spine)`` — ``"hit"``, ``"refresh"``
    or ``"cold"``, the segment entries recomputed and the spine elements
    looked at.  Unless ``how`` is ``"hit"`` the memo is not published
    yet: the caller stores it under ``key`` with one assignment once its
    answer is charged, so an abort publishes nothing."""
    rp = db.readpath
    key = memo_key(query, db.log.tags)
    old = rp.memo(key)
    written = None if old is None else db.index.written_since(old.position)
    if written == []:
        rp.hits += 1
        return key, old, ("hit", 0, 0)
    rp.misses += 1
    position = db.index.journal_position
    refresh = _Refresh(db, query, old, written, context)
    memo = PathMemo(position, refresh.levels, refresh.run())
    return key, memo, (refresh.how, refresh.refreshed, len(refresh.spine_rows))


class _Refresh:
    """One bring-up-to-date of a twig memo (DESIGN.md §4e).

    With no memo, a journal trimmed past it or a written sid whose place
    is forgotten, every segment holding a node's tag is computed (``how``
    ``"cold"``).  Otherwise (``"refresh"``) a level recomputes the
    written segments still alive, drops the vanished ones, and re-checks
    what :meth:`_dirty` says the levels it reads changed.
    """

    def __init__(self, db, query, old, written, context):
        self.tree = db.log.ertree
        self.index = db.index
        self.rp = db.readpath
        self.taglist = db.log.taglist
        self.context = context
        self.query = query
        self.old = old
        tid_of = db.log.tags.tid_of
        self.tids = [None if n.is_wildcard else tid_of(n.tag) for n in query.nodes]
        self.layout = layout = _layout(query)
        self.above = layout.above
        self.trunk_prev = layout.trunk_prev
        self.levels: list = [None] * len(query.nodes)
        # per level, {sid: the records whose membership flipped}
        self.changes: list = [None] * len(query.nodes)
        self.refreshed = 0
        self.spine_rows: set = set()
        self._spines: dict = {}
        self._ancestry: dict = {}
        self._outer: dict = {}
        self._base: dict = {}
        self._kids: dict = {}
        self._base_dirty: dict = {}
        self.live = self.gone = None
        if written is not None:
            self._origins(written)
        self.how = "cold" if self.live is None else "refresh"

    def _origins(self, written) -> None:
        live, gone = [], []
        for sid in sorted(set(written)):
            if sid in self.tree:
                live.append(sid)
            elif self._ancestors(sid) is None:
                return  # forgotten: the refresh runs cold
            else:
                gone.append(sid)
        self.live, self.gone = live, gone

    def run(self) -> JoinAnswer:
        last = self.query.output.index
        cold = self.live is None
        length = 0 if cold else len(self.old.answer)
        for node in self.layout.order:
            if self.context is not None:
                self.context.check_deadline()
            if cold:
                self._cold(node)
            else:
                delta = self._refresh(node)
                if node.index == last:
                    length += delta
        entries = self.levels[last][1]
        return JoinAnswer(entries, sum(map(len, entries)) if cold else length)

    # ------------------------------------------------------------------
    # levels

    def _cold(self, node) -> None:
        tid = self.tids[node.index]
        sids = self.index.sids() if tid is None else self.taglist.counts(tid)
        held, entries = array("q"), []
        for sid in sorted(sids):
            entry = self._entry(node, sid)
            if entry:
                held.append(sid)
                entries.append(entry)
        self.levels[node.index] = (held, entries)

    def _refresh(self, node) -> int:
        """Bring ``node``'s level up to date; the change in its rows."""
        n = node.index
        sids, entries = (held[:] for held in self.old.levels[n])
        self.levels[n] = (sids, entries)
        changes = self.changes[n] = {}
        delta = 0
        for sid in self.gone:
            old = patch_level(sids, entries, sid, ())
            if old:
                changes[sid] = old
                delta -= len(old)
        full, part = self._dirty(node)
        for sid in sorted(full):
            new = self._entry(node, sid)
            old = patch_level(sids, entries, sid, new)
            if old != new:
                changes[sid] = set(old).symmetric_difference(new)
                delta += len(new) - len(old)
        tid = self.tids[n]
        for sid, rows in part.items():
            if sid in full:
                continue
            block = self.index.block(sid)
            entry = self._entry_of(n, sid)
            flipped = []
            for row in sorted(rows):
                if tid is not None and block.tids[row] != tid:
                    continue
                record = ElementRecord(
                    sid, block.starts[row], block.ends[row], block.levels[row]
                )
                i = bisect_left(entry, record)
                held = i < len(entry) and entry[i] == record
                if self._member(node, sid, row) != held:
                    flipped.append(record)
            if flipped:
                new = tuple(sorted(set(entry).symmetric_difference(flipped)))
                patch_level(sids, entries, sid, new)
                changes[sid] = flipped
                delta += len(new) - len(entry)
        return delta

    def _entry(self, node, sid) -> tuple:
        """Segment ``sid``'s entry at ``node``, computed afresh."""
        tid = self.tids[node.index]
        block = self.index.block(sid)
        if not block or (tid is not None and sid not in self.taglist.counts(tid)):
            return ()
        self.refreshed += 1
        if self.context is not None:
            self.context.tick()
        # A start alone names no element: two may share one.  The tag's
        # records are its rows in block order, which is record order for
        # one tag; the wildcard's ties are ordered by tag, so it sorts.
        rows = zip(
            range(len(block)) if tid is None else compress(
                count(), map(tid.__eq__, block.tids)
            ),
            block.tag(tid).records,
        )
        prev = self.trunk_prev.get(node.index)
        if prev is not None:
            rows = self._under(prev.index, node.axis, sid, rows)
        entry = tuple(
            record for row, record in rows if self._passes(node, sid, row)
        )
        return entry if tid is not None else tuple(sorted(entry))

    def _under(self, n: int, axis: str, sid: int, rows):
        """The ``(row, record)`` of ``rows`` (start order) with an element
        of level ``n`` one trunk edge up: one merge against level ``n``'s
        entry for the segment, Stack-Tree-Desc's in-segment test — the
        holder starts strictly before the row and ends at or after it, and
        on the child axis the innermost holder is one level up.  Only a
        row with no holder in its segment looks outside it."""
        holders = self._entry_of(n, sid)
        child = axis == AXIS_CHILD
        stack: list = []
        i = 0
        for row, record in rows:
            start = record.start
            while i < len(holders) and holders[i].start < start:
                stack.append(holders[i])
                i += 1
            while stack and stack[-1].end <= start:
                stack.pop()
            if stack:
                top = stack[-1]
                if record.end <= top.end and (
                    not child or top.level == record.level - 1
                ):
                    yield row, record
            elif (
                self._has_above(n, axis, sid, row) if child
                else self._held_outside(n, sid)
            ):
                yield row, record

    def _entry_of(self, n: int, sid: int) -> tuple:
        sids, entries = self.levels[n]
        i = bisect_left(sids, sid)
        return entries[i] if i < len(sids) and sids[i] == sid else ()

    def _holds(self, n: int, sid: int, row: int) -> bool:
        """Whether row ``row`` of segment ``sid`` is in level ``n``."""
        entry = self._entry_of(n, sid)
        block = self.index.block(sid)
        record = ElementRecord(
            sid, block.starts[row], block.ends[row], block.levels[row]
        )
        i = bisect_left(entry, record)
        return i < len(entry) and entry[i] == record

    # ------------------------------------------------------------------
    # what a level must look at again

    def _dirty(self, node):
        """``(full, part)``: the live segments to recompute at ``node``
        and, per segment, the rows to re-check.

        - The written segments are recomputed.
        - Upward: where a branch's entry for segment ``T`` changed, the
          elements of ``T`` around a changed one, and in each ER-ancestor
          the spine — its elements holding ``T``'s branch point.
        - Downward: where the trunk step above changed in segment ``S``,
          the elements of ``S`` inside a changed one, and every segment
          whose branch point lies inside it.
        - Predicates: :meth:`_dirty_base`.
        """
        n = node.index
        tree, index = self.tree, self.index
        full = set(self.live)
        part: dict = {}
        for branch in node.branches:
            for sid, records in self.changes[branch.index].items():
                if sid in tree and sid not in full:
                    starts = index.block(sid).starts
                    parents = self.rp.parent_rows(sid)
                    rows = part.setdefault(sid, set())
                    for record in records:
                        up = parents[bisect_left(starts, record.start)]
                        while up >= 0:
                            rows.add(up)
                            up = parents[up]
                self._add_spines(sid, part)
        prev = self.trunk_prev.get(n)
        if prev is not None:
            for sid, records in self.changes[prev.index].items():
                if sid not in tree:
                    continue
                starts = index.block(sid).starts
                rows = part.setdefault(sid, set())
                for record in records:
                    lo = bisect_right(starts, record.start)
                    rows.update(range(lo, bisect_left(starts, record.end, lo)))
                    for child in self._inside(sid, record.start, record.end):
                        full.update(seg.sid for seg in child.iter_subtree())
        if node.value is not None or node.position is not None:
            more_full, more_part = self._dirty_base(node)
            full |= more_full
            for sid, rows in more_part.items():
                part.setdefault(sid, set()).update(rows)
        return full, part

    def _dirty_base(self, node):
        """``(full, part)`` holding every element whose predicates may
        have turned: for a value predicate the spines (a written segment
        is inside an element whose text changed); for ``[n]`` the
        same-tag children of every spine element and of every element
        whose own predicates may have turned, and every segment inside
        those elements — an insert shifts its siblings' ordinals."""
        n = node.index
        held = self._base_dirty.get(n)
        if held is not None:
            return held
        full = set(self.live)
        part: dict = {}
        origins = self.live + self.gone
        if node.value is not None:
            for sid in origins:
                self._add_spines(sid, part)
        if node.position is not None:
            parent = self.above[n]
            inner = set(self.live)
            outer: dict = {}
            for sid in origins:
                self._add_spines(sid, outer)
            if parent.value is not None or parent.position is not None:
                more_full, more_part = self._dirty_base(parent)
                inner |= more_full
                for sid, rows in more_part.items():
                    outer.setdefault(sid, set()).update(rows)
            for sid in inner:
                full.update(seg.sid for seg in self.tree.node(sid).iter_subtree())
            ptid = self.tids[parent.index]
            for sid, rows in outer.items():
                block = self.index.block(sid)
                starts, ends, levels = block.starts, block.ends, block.levels
                kids = part.setdefault(sid, set())
                for row in rows:
                    if ptid is not None and block.tids[row] != ptid:
                        continue
                    want = levels[row] + 1
                    hi = bisect_left(starts, ends[row], row + 1)
                    kids.update(k for k in range(row + 1, hi) if levels[k] == want)
                    for child in self._inside(sid, starts[row], ends[row]):
                        full.update(seg.sid for seg in child.iter_subtree())
        held = self._base_dirty[n] = (full, part)
        return held

    # ------------------------------------------------------------------
    # ER-tree geometry

    def _ancestors(self, sid: int):
        """``[(ancestor sid, branch point)]`` for ``sid``'s live
        ER-ancestors, nearest first — a vanished segment's place is the
        read path's note of it — or ``None`` when that is forgotten."""
        if sid in self._ancestry:
            return self._ancestry[sid]
        out = []
        at = sid
        while True:
            if at in self.tree:
                seg = self.tree.node(at)
                parent, lp = seg.parent.sid, seg.lp
            else:
                place = self.rp.vanished(at)
                if place is None:
                    out = None
                    break
                parent, lp = place
            if parent == DUMMY_ROOT_SID:
                break
            if parent in self.tree:
                out.append((parent, lp))
            at = parent
        self._ancestry[sid] = out
        return out

    def _spine(self, sid: int, point: int) -> list:
        """The rows of segment ``sid`` holding local position ``point``
        (``start < point < end``), innermost first: from the last row
        starting before it, up the parent rows."""
        rows = self._spines.get((sid, point))
        if rows is None:
            block = self.index.block(sid)
            parents = self.rp.parent_rows(sid)
            ends = block.ends
            row = bisect_left(block.starts, point) - 1
            while row >= 0 and ends[row] <= point:
                row = parents[row]
            rows = []
            while row >= 0:
                rows.append(row)
                row = parents[row]
            self._spines[(sid, point)] = rows
            self.spine_rows.update((sid, row) for row in rows)
        return rows

    def _add_spines(self, sid: int, part: dict) -> None:
        for outer, point in self._ancestors(sid):
            part.setdefault(outer, set()).update(self._spine(outer, point))

    def _inside(self, sid: int, start: int, end: int) -> list:
        """The child segments of ``sid`` whose branch point lies inside
        the local span ``(start, end)``."""
        children = self.tree.node(sid).children
        lo = bisect_right(children, start, key=_LP)
        return children[lo:bisect_left(children, end, lo, key=_LP)]

    def _parent_element(self, sid: int, row: int):
        """``(sid, row)`` of the innermost element around row ``row`` of
        segment ``sid``, or ``None``."""
        up = self.rp.parent_rows(sid)[row]
        if up >= 0:
            return sid, up
        for outer, point in self._ancestors(sid):
            rows = self._spine(outer, point)
            if rows:
                return outer, rows[0]
        return None

    # ------------------------------------------------------------------
    # membership

    def _member(self, node, sid: int, row: int) -> bool:
        """Whether row ``row`` of segment ``sid`` (of ``node``'s tag)
        survives at ``node``, the levels it reads being current."""
        prev = self.trunk_prev.get(node.index)
        if prev is not None and not self._has_above(prev.index, node.axis, sid, row):
            return False
        return self._passes(node, sid, row)

    def _passes(self, node, sid: int, row: int) -> bool:
        """The row's own predicates hold at ``node`` and each branch has a
        witness below it."""
        if (node.value is not None or node.position is not None) and not (
            self._predicates(node, sid, row)
        ):
            return False
        return all(
            self._has_below(branch.index, branch.axis, sid, row)
            for branch in node.branches
        )

    def _has_above(self, n: int, axis: str, sid: int, row: int) -> bool:
        """Level ``n`` holds the element's parent (child axis) or one of
        its ancestors."""
        if axis == AXIS_CHILD:
            found = self._parent_element(sid, row)
            if found is None:
                return False
            outer, up = found
            level = self.index.block(sid).levels[row]
            return (
                self.index.block(outer).levels[up] == level - 1
                and self._holds(n, outer, up)
            )
        parents = self.rp.parent_rows(sid)
        up = parents[row]
        while up >= 0:
            if self._holds(n, sid, up):
                return True
            up = parents[up]
        return self._held_outside(n, sid)

    def _held_outside(self, n: int, sid: int) -> bool:
        """Level ``n`` holds an element of an ER-ancestor around segment
        ``sid``: a spine element (memoised per level and segment)."""
        key = (n, sid)
        held = self._outer.get(key)
        if held is None:
            held = self._outer[key] = any(
                self._holds(n, outer, spine_row)
                for outer, point in self._ancestors(sid)
                for spine_row in self._spine(outer, point)
            )
        return held

    def _has_below(self, n: int, axis: str, sid: int, row: int) -> bool:
        """Level ``n`` holds a child (child axis) or a descendant of the
        element: in its own segment, or in a segment inside it."""
        block = self.index.block(sid)
        start, end = block.starts[row], block.ends[row]
        want = block.levels[row] + 1 if axis == AXIS_CHILD else None
        entry = self._entry_of(n, sid)
        i = bisect_right(entry, (sid, start, _INF))
        while i < len(entry) and entry[i].start < end:
            if want is None or entry[i].level == want:
                return True
            i += 1
        for child in self._inside(sid, start, end):
            for seg in child.iter_subtree():
                held = self._entry_of(n, seg.sid)
                if held and (want is None or any(r.level == want for r in held)):
                    return True
        return False

    def _predicates(self, node, sid: int, row: int) -> bool:
        """The node's value and positional predicates (memoised per
        element: a parent's are asked again for every sibling)."""
        key = (node.index, sid, row)
        held = self._base.get(key)
        if held is None:
            held = self._base[key] = self._check_predicates(node, sid, row)
        return held

    def _check_predicates(self, node, sid: int, row: int) -> bool:
        block = self.index.block(sid)
        if node.value is not None:
            seg = self.tree.node(sid)
            start = seg.to_global(block.starts[row])
            end = seg.to_global(block.ends[row], count_ties=False)
            if inner_text(seg, start, end) != node.value:
                return False
        if node.position is None:
            return True
        found = self._parent_element(sid, row)
        if found is None:
            return False
        parent = self.above[node.index]
        outer, up = found
        ptid = self.tids[parent.index]
        if ptid is not None and self.index.block(outer).tids[up] != ptid:
            return False
        if (parent.value is not None or parent.position is not None) and not (
            self._predicates(parent, outer, up)
        ):
            return False
        kids = self._children(outer, up, self.tids[node.index])
        return len(kids) >= node.position and kids[node.position - 1] == (sid, row)

    def _children(self, sid: int, row: int, tid) -> list:
        """``(sid, row)`` of the element's children of tag ``tid`` (any
        tag: ``None``), in document order."""
        key = (sid, row, tid)
        kids = self._kids.get(key)
        if kids is None:
            block = self.index.block(sid)
            starts, ends, levels = block.starts, block.ends, block.levels
            want = levels[row] + 1
            seg = self.tree.node(sid)
            lo = bisect_right(starts, starts[row], row + 1)  # strictly inside
            found = [
                (seg.to_global(starts[k]), sid, k)
                for k in range(lo, bisect_left(starts, ends[row], lo))
                if levels[k] == want and (tid is None or block.tids[k] == tid)
            ]
            for child in self._inside(sid, starts[row], ends[row]):
                for inner in child.iter_subtree():
                    held = self.index.block(inner.sid)
                    found.extend(
                        (inner.to_global(held.starts[k]), inner.sid, k)
                        for k in range(len(held))
                        if held.levels[k] == want
                        and (tid is None or held.tids[k] == tid)
                    )
            found.sort()
            kids = self._kids[key] = [(at, k) for _, at, k in found]
        return kids
