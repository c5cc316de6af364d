"""`LazyXMLDatabase` — the user-facing facade over the whole system.

Ties together the paper's pieces end to end:

- text-level updates: :meth:`LazyXMLDatabase.insert` / :meth:`remove` take an
  XML fragment / a ``(position, length)`` span, exactly the interface Section
  3.3 assumes ("only the start location ... and the length ... are available
  to us"), and keep the update log and element index consistent;
- queries: :meth:`structural_join` runs Lazy-Join; the STD baseline over
  derived global labels is :func:`repro.joins.stack_tree.std_join`;
- global-position reconstruction: element labels are local and immutable, but
  global spans are always derivable from the ER-tree (:meth:`global_span`) —
  the core invariant of the lazy approach.

Each segment keeps the fragment it was inserted with, and
:attr:`LazyXMLDatabase.text` reads the super document off the ER-tree; the
test suite reparses it as ground truth for every index-derived answer.
Every insert and remove is checked against the text (DESIGN.md §4).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import NamedTuple

from repro.core.element_index import ElementIndex, ElementRecord
from repro.core.ertree import ERNode, RemovalReport
from repro.core.join import JoinPair, JoinStatistics, LazyJoiner
from repro.core.readpath import ReadPathCache
from repro.core.segment import DUMMY_ROOT_SID, SpanRelation, relate
from repro.core.update_log import InsertReceipt, LogStats, UpdateLog
from repro.errors import InvalidSegmentError, XMLSyntaxError
from repro.joins.stack_tree import AXIS_DESCENDANT, gc_paused
from repro.xml.model import FlatDocument
from repro.xml.parser import parse_flat, parse_fragment
from repro.xml.wellformed import Audit, reaches_cleanly, well_formed

__all__ = ["LazyXMLDatabase", "GlobalElement", "InsertCheck", "RemovalOutcome"]

_segment_gp = attrgetter("gp")


class GlobalElement(NamedTuple):
    """An element with derived global span, as the STD baseline consumes it.

    ``record`` preserves the element's identity ``(sid, start)`` so results
    can be compared across algorithms.
    """

    start: int
    end: int
    level: int
    record: ElementRecord


class InsertCheck(NamedTuple):
    """What :meth:`LazyXMLDatabase.check_insert` found: all the insert
    needs, on the state the check ran on."""

    position: int
    document: FlatDocument
    parent: ERNode
    base_level: int
    trusted: bool | None


@dataclass
class RemovalOutcome:
    """What a text-span removal did to the database."""

    report: RemovalReport
    elements_removed: int


class LazyXMLDatabase:
    """An updatable XML database with lazy (segment-local) element labels.

    Parameters
    ----------
    mode:
        ``"dynamic"`` (LD — update log fully maintained per update) or
        ``"static"`` (LS — tag-list sorting deferred to
        :meth:`prepare_for_query`).
    sid_start, sid_stride:
        The sid lattice this database allocates from (shards use disjoint
        ones).
    """

    def __init__(self, mode: str = "dynamic", *, sid_start: int = 1,
                 sid_stride: int = 1):
        self.log = UpdateLog(mode=mode, sid_start=sid_start,
                             sid_stride=sid_stride)
        self.index = ElementIndex()
        # The compiled read path (version-keyed push lists and span
        # columns, the answer memos) is shared by every query executor on
        # this database.
        self.readpath = ReadPathCache(self.log, self.index)
        self._joiner = LazyJoiner(self.log, self.index, self.readpath)
        # The twig subsystem's view of the tag catalog: tag totals (the
        # plan rule's absent-tag prune) and the segments holding a tag,
        # read live (lazy import keeps the package graph acyclic —
        # repro.twig never loads unless used).
        from repro.twig.summary import PathSummary

        self.path_summary = PathSummary(self.log, self.index)
        # Sids of the top-level documents known to be well-formed with every
        # segment and element record matching the text (DESIGN.md §4,
        # "Removal validation").  A durable checkpoint keeps both marks
        # (repro.durability.checkpoint); a loaded snapshot starts with none
        # and earns them back one scan at a time.
        self._trusted: set[int] = set()
        # Sids of the top-level documents not known to parse as element
        # content (the insert verdict needs that of all it does not touch).
        self._unbalanced: set[int] = set()

    # ------------------------------------------------------------------
    # properties

    @property
    def mode(self) -> str:
        """``"dynamic"`` (LD) or ``"static"`` (LS)."""
        return self.log.mode

    @property
    def text(self) -> str:
        """The super-document text, read off the segments' fragments."""
        root = self.log.ertree.root
        return root.read(0, root.length)

    @property
    def document_length(self) -> int:
        """Super-document length in characters."""
        return self.log.document_length

    @property
    def segment_count(self) -> int:
        """Number of live segments (dummy root excluded)."""
        return self.log.segment_count

    @property
    def element_count(self) -> int:
        """Number of element records in the element index."""
        return len(self.index)

    def stats(self) -> LogStats:
        """Update-log size snapshot (Fig. 11(a) series)."""
        return self.log.stats()

    # ------------------------------------------------------------------
    # updates

    def insert(
        self, fragment: str | FlatDocument, position: int | None = None,
        checked: InsertCheck | None = None,
    ) -> InsertReceipt:
        """Insert a well-formed XML ``fragment`` at character ``position``.

        ``position`` defaults to the end of the super document (appending a
        new top-level document, the DBLP-style batch-update case).  The
        insert is refused (:class:`~repro.errors.InvalidSegmentError`)
        unless the super document with the fragment spliced in still
        parses (:meth:`_validate_insert`).  ``fragment`` may be its parse
        (:func:`~repro.xml.parser.parse_flat`), which is then reused.
        ``checked`` is :meth:`check_insert`'s answer for this very insert
        on this very state (the journal's validation made it): given, the
        insert checks nothing again.

        Returns the :class:`~repro.core.update_log.InsertReceipt` with the
        new segment's sid, path and local position.

        Exception safety: every input check — fragment parse, position
        bounds, the splice verdict — runs before the first structure is
        touched, and the index maintenance after the update-log insertion
        is guarded by a rollback, so a failing insert always leaves
        ``check_invariants()`` green.
        """
        if checked is None:
            checked = self.check_insert(fragment, position)
        position, document, parent, base_level, trusted = checked
        # One pass from the parse: the element columns, each tag interned
        # once, and the tag counts the tag-list takes in one call.
        tags, starts, ends, levels = tuple(zip(*document.elements)) or ((),) * 4
        tids = list(map(self.log.tags.intern, tags))
        tag_counts = Counter(tids)
        receipt = self.log.insert_segment(
            position, len(document.text), tag_counts, parent
        )
        self.log.node(receipt.sid).fragment = document.text
        top_sid = parent.path[1] if parent.sid != DUMMY_ROOT_SID else receipt.sid
        try:
            if tids:
                self.index.insert_segment(
                    receipt.sid, tids, starts, ends, levels, base_level, tag_counts
                )
            else:
                self.index.note_text_write(receipt.sid)  # text, no element
        except BaseException:
            self._trusted.discard(top_sid)
            self._rollback_insert(receipt, tag_counts)
            raise
        self._mark(top_sid, trusted)
        return receipt

    def check_insert(
        self, fragment: str | FlatDocument, position: int | None = None
    ) -> InsertCheck:
        """Raise, changing nothing, when ``insert(fragment, position)`` would
        (as :meth:`check_removal` does for removes); else return what the
        insert needs, which :meth:`insert` takes as ``checked``."""
        if position is None:
            position = self.log.document_length
        document = parse_flat(fragment) if isinstance(fragment, str) else fragment
        if not 0 <= position <= self.log.document_length:
            raise InvalidSegmentError(
                f"insert position {position} outside super document "
                f"[0, {self.log.document_length}]"
            )
        parent = self.log.ertree.innermost_segment(position)
        base_level, anchor = self._depth_at(parent, position)
        trusted = self._validate_insert(
            document.text, position, document, parent, base_level, anchor
        )
        return InsertCheck(position, document, parent, base_level, trusted)

    def _validate_insert(
        self, fragment: str, position: int, document, parent: ERNode,
        base_level: int, anchor: int,
    ) -> bool | None:
        """Refuse an insert unless the super document, with ``fragment``
        spliced in at ``position``, parses as element content.

        The touched document decides once every other one is known to parse
        (the ``_unbalanced`` ones are scanned first, and learnt): in a
        trusted document inside an element, the gap from ``anchor`` (a
        fragment is a balanced run of whole tokens); otherwise an audited
        scan of it spliced.  Where a document fails alone, the text after it
        could finish its last token, so the text from the first such
        document on decides (DESIGN.md §4).  Returns what the touched or new
        document is afterwards (:meth:`_mark`).
        """
        top = self.log.node(parent.path[1]) if parent.sid != DUMMY_ROOT_SID else None
        others = [sid for sid in self._unbalanced if top is None or sid != top.sid]
        for sid in others:
            node = self.log.node(sid)
            if well_formed(node.pieces(node.gp, node.end, []), wrapped=True):
                self._unbalanced.discard(sid)
        trusted: bool | None = True
        if top is not None and not (
            top.sid in self._trusted
            and base_level > 0
            and reaches_cleanly(parent.pieces(anchor, position, []))
        ):
            spliced = top.pieces(top.gp, position, [])
            spliced.append((fragment, 0, len(fragment)))
            top.pieces(position, top.end, spliced)
            audit = self._audit(top, added=(parent, position, document))
            if well_formed(spliced, audit=audit):
                trusted = audit.confirmed
            else:
                trusted = False if well_formed(spliced, wrapped=True) else None
        starts = [self.log.node(sid).gp for sid in others if sid in self._unbalanced]
        if trusted is None:
            starts.append(top.gp)
        if starts:
            first, root = min(starts), self.log.ertree.root
            rest = root.pieces(first, max(first, position), [])
            if position >= first:
                rest.append((fragment, 0, len(fragment)))
            root.pieces(max(first, position), root.length, rest)
            if not well_formed(rest, wrapped=True):
                raise InvalidSegmentError(
                    f"insertion at {position} would produce malformed XML"
                )
        return trusted

    def _rollback_insert(self, receipt: InsertReceipt, tag_counts: Counter) -> None:
        """Undo a segment insertion whose index maintenance failed midway.

        Reverses the structures in dependency order: the element-index
        block (if it landed), the ER-tree node, and finally the
        tag-list occurrences the update-log insertion registered.
        Removing the exact just-inserted span restores every surviving
        segment's global position and ancestor lengths and leaves no
        tombstone (the span aligns with the fresh node's boundaries).
        """
        self.index.remove_segment(receipt.sid)
        self.readpath.drop_segment(self.log.node(receipt.sid))
        report = self.log.remove_span(receipt.gp, receipt.length)
        self.log.apply_removal_counts({receipt.sid: tag_counts}, report)

    def _depth_at(self, parent: ERNode, position: int) -> tuple[int, int]:
        """Absolute depth of the innermost element containing ``position``,
        and the nearest record boundary at or before it.

        ``parent`` is the deepest segment whose span contains the position.
        The innermost containing element usually belongs to it; when the
        position falls in a region of the parent outside its root element
        (prolog/trailing material), the walk continues up the ancestor
        chain.  The depth is 0 when no element contains the position
        (top-level insertion under the dummy root).

        The boundary is a global offset: the start of an element of
        ``parent`` open at the position, the end of one closed before it,
        the end of a child segment before it, or ``parent``'s own start —
        whichever is nearest.  In a trusted document each of these lies
        between tokens, which is what lets :meth:`insert` scan only the gap.

        Per segment this is a bisect and a walk up the parent rows
        (:meth:`~repro.core.readpath.ReadPathCache.parent_rows`) from the
        last row starting before the position: rows nest or are disjoint,
        so the rows that contain the position are that row's enclosing
        chain, and the walk stops at the first of them.  Rows sharing a
        start (a repack can leave them) are one step of the walk, since the
        parent rows skip them.
        """
        node = parent
        anchor = position
        while node.sid != DUMMY_ROOT_SID:
            local = node.to_local(position)
            best = boundary = 0
            block = self.index.block(node.sid)
            starts, ends, levels = block.starts, block.ends, block.levels
            row = bisect_left(starts, local) - 1
            if row >= 0:
                parents = self.readpath.parent_rows(node.sid)
                while row >= 0:
                    start = starts[row]
                    tie = row
                    while True:
                        end = ends[tie]
                        if end > local:
                            if levels[tie] > best:
                                best = levels[tie]
                            if start > boundary:
                                boundary = start
                        elif end > boundary:
                            boundary = end
                        tie -= 1
                        if tie < 0 or starts[tie] != start:
                            break
                    if best:
                        break
                    row = parents[row]
            if node is parent:
                # Children inserted at the boundary's own offset follow it.
                anchor = node.to_global(boundary, count_ties=False)
                before = bisect_left(node.children, position, key=_segment_gp)
                if before:
                    anchor = max(anchor, node.children[before - 1].end)
            if best:
                return best, anchor
            node = node.parent
        return 0, anchor

    def remove(
        self, position: int, length: int,
        checked: tuple[int | None, bool | None] | None = None,
    ) -> RemovalOutcome:
        """Remove ``length`` characters starting at ``position``.

        Runs Fig. 7 on the update log, deletes the affected element records
        (whole segments and partially-removed local ranges), and folds the
        per-(tid, sid) removal counts back into the tag-list — the exact
        maintenance ordering Section 3.3 prescribes.

        Exception safety: the span is validated here, before the first
        mutation; once the ER-tree removal has run, the remaining index and
        tag-list maintenance operates only on data the report proves
        present, so an invalid request never leaves partial mutations.
        ``checked`` is :meth:`check_removal`'s answer for this very span on
        this very state (the journal's validation made it): given, the
        span is not checked again.
        """
        verdict = self.check_removal(position, length) if checked is None else checked
        return self._removed(self.log.remove_span(position, length), verdict)

    def _removed(self, report: RemovalReport, verdict) -> RemovalOutcome:
        """The index and tag-list maintenance after the ER-tree removal
        ``report``, then the ``verdict``'s marks (Section 3.3's order)."""
        per_segment_counts: dict[int, Counter] = {}
        removed_elements = 0
        for node in report.removed:
            sid = node.sid
            if sid == DUMMY_ROOT_SID:
                continue
            counts = self.index.remove_segment(sid)
            if not counts:
                self.index.note_text_write(sid)
            per_segment_counts[sid] = counts
            removed_elements += sum(counts.values())
            # Version keys already make stale compiled entries unreachable;
            # the eager drop reclaims their memory (sids never return) and
            # notes where the segment hung, for the twig memo's refresh.
            self.readpath.drop_segment(node)
        for partial in report.partials:
            if partial.sid == DUMMY_ROOT_SID:
                continue
            counts = self.index.remove_local_range(
                partial.sid, partial.local_start, partial.local_end
            )
            if not counts:
                self.index.note_text_write(partial.sid)
            per_segment_counts[partial.sid] = counts
            removed_elements += sum(counts.values())
        self._trusted.difference_update(report.removed_sids)
        self._unbalanced.difference_update(report.removed_sids)
        self.log.apply_removal_counts(per_segment_counts, report)
        if verdict is not None:
            self._mark(*verdict)
        return RemovalOutcome(report=report, elements_removed=removed_elements)

    def _mark(self, top_sid: int | None, trusted: bool | None) -> None:
        """Record what an update's check learnt of top-level document
        ``top_sid``: trusted (``True``), parsing as element content
        (``False``), or neither known (``None``).  No document (``None``):
        nothing to record."""
        if top_sid is None:
            return
        if trusted:
            self._trusted.add(top_sid)
        else:
            self._trusted.discard(top_sid)
        if trusted is None:
            self._unbalanced.add(top_sid)
        else:
            self._unbalanced.discard(top_sid)

    def check_removal(
        self, position: int, length: int
    ) -> tuple[int | None, bool | None]:
        """Raise, changing nothing, when ``remove(position, length)`` would:
        the journal (:func:`repro.durability.recovery.validate_op`) refuses
        exactly the spans the apply would.  Beyond bounds, two shapes:

        - a span **crossing a segment boundary** — Fig. 7's clipping cases
          would remove one segment's tail and its neighbour's head, leaving
          both with unbalanced tags.  A read-only ER-tree walk mirroring
          Fig. 7's span classification refuses any ``LEFT_INTERSECT``/
          ``RIGHT_INTERSECT`` against a live segment;
        - a span **landing mid-tag** inside one top-level document:
          refused iff that document parses now and would not parse with
          the span excised.  A document that is already malformed (one
          with two roots, say) is never refused, and spans covering whole
          top-level documents are not text-checked;
        - a span **cutting an element** — taking one of its tags and
          leaving the other (``</b><b>`` fuses two siblings and still
          parses) — in a document that parses now: the element index
          would keep both records, which no longer describe the text.

        The text check costs what the span costs.  In a *trusted* document
        (see ``_trusted``) a span that is exactly one live segment's extent
        is a balanced run of whole tokens inside an element, and taking it
        out cannot change how the rest parses: nothing is read.  Any other
        case scans the document once with the span excised — no copy, no
        tree — and scans it as it stands only if that fails, or parses it
        if it is not trusted (:meth:`_cuts_element`).

        Returns ``(top-level sid, trusted afterwards)`` for :meth:`remove`
        to record once the span is gone (:meth:`_mark`), ``(None, None)``
        when the span lies in no single document: never ``None``, so the
        answer can travel to :meth:`remove` as its ``checked``.
        """
        if length <= 0:
            raise InvalidSegmentError(
                f"removal length must be positive, got {length}"
            )
        end = position + length
        if position < 0 or end > self.log.document_length:
            raise InvalidSegmentError(
                f"removal span [{position}, {end}) outside "
                f"super document [0, {self.log.document_length})"
            )
        # Descend to the deepest segment strictly containing the span.
        top: ERNode | None = None
        node = self.log.ertree.root
        whole_segment = False
        while True:
            inner = None
            children = node.children
            # Children are disjoint and sorted: only those from the last one
            # starting at or before the span up to its end can touch it.
            first = max(0, bisect_right(children, position, key=_segment_gp) - 1)
            for child in islice(children, first, None):
                if child.gp >= end:
                    break
                rel = relate(position, length, child.gp, child.length)
                if rel is SpanRelation.CONTAINED:
                    inner = child
                    break
                if rel is SpanRelation.CONTAINS:
                    whole_segment = child.gp == position and child.end == end
                elif rel in (
                    SpanRelation.LEFT_INTERSECT, SpanRelation.RIGHT_INTERSECT
                ):
                    raise InvalidSegmentError(
                        f"removal span [{position}, {end}) crosses "
                        f"the boundary of segment {child.sid} "
                        f"[{child.gp}, {child.end}); remove whole segments or "
                        "spans inside one segment"
                    )
            if inner is None:
                break
            node = inner
            if top is None:
                top = inner
        if top is None:
            return None, None
        if whole_segment and top.sid in self._trusted:
            return top.sid, True
        audit = self._audit(top, lost=(node, position, end))
        excised = top.pieces(top.gp, position, [])
        top.pieces(end, top.end, excised)
        if well_formed(excised, audit=audit):
            if self._cuts_element(top, node, position, end):
                raise InvalidSegmentError(
                    f"removal span [{position}, {end}) takes one tag of an "
                    "element and leaves the other; remove whole elements "
                    "or spans inside one"
                )
            return top.sid, audit.confirmed
        if well_formed(top.pieces(top.gp, top.end, [])):
            raise InvalidSegmentError(
                f"removal span [{position}, {end}) lands "
                "mid-tag: the surviving document would not be "
                "well-formed"
            )
        return top.sid, None

    def _cuts_element(self, top: ERNode, holder: ERNode, position: int, end: int):
        """Whether the span takes one tag of an element and leaves the
        other, in a document that parses now: an element starting in it
        and ending past it, or one around its start ending in it.

        In a trusted document the elements are segment ``holder``'s
        records (those of other segments hold the holder or lie wholly
        inside or outside the span): a bisect, the elements starting in
        the span, and the parent rows from the last one before it to the
        innermost one around its start.  Any other document's records
        need not be its elements (a segment inserted into a comment has
        records, and no elements), so it is parsed."""
        if top.sid not in self._trusted:
            try:
                elements = parse_flat(top.read(top.gp, top.end)).elements
            except XMLSyntaxError:
                return False
            lo, hi = position - top.gp, end - top.gp
            return any(
                lo <= e.start < hi < e.end or e.start < lo < e.end <= hi
                for e in elements
            )
        lo, hi = holder.to_local(position), holder.to_local(end)
        block = self.index.block(holder.sid)
        starts, ends = block.starts, block.ends
        first = bisect_left(starts, lo)
        if any(map(hi.__lt__, ends[first:bisect_left(starts, hi, first)])):
            return True
        parents = self.readpath.parent_rows(holder.sid)
        row = first - 1
        while row >= 0 and ends[row] <= lo:
            row = parents[row]
        return row >= 0 and ends[row] <= hi

    def _audit(self, top: ERNode, *, lost=None, added=None) -> Audit:
        """What must hold in ``top``'s document after an update for it to be
        trusted: every segment under ``top`` a balanced run of whole tokens
        inside an element, every element record an element of the text.

        The update takes ``lost = (holder, position, end)`` out of segment
        ``holder`` (with the children and records inside it) or puts the
        parsed ``document`` into ``parent`` at ``position``, ``added =
        (parent, position, document)``.  Offsets count from ``top``'s
        start in the updated text, as the scan of its pieces does.
        """
        base = top.gp
        ranges: list[tuple[int, bool]] = []
        elements: set[tuple[int, int]] = set()
        if lost is not None:
            holder, position, end = lost
            lost_from, lost_to = holder.to_local(position), holder.to_local(end)

            def moved(offset: int, closing: bool) -> int:
                if offset <= position:
                    return offset
                return max(position, offset - (end - position))
        else:
            parent, position, document = added
            length = len(document.text)

            def moved(offset: int, closing: bool) -> int:
                # An end at the insert point stays before the new text.
                if offset > position or (offset == position and not closing):
                    return offset + length
                return offset
        pending: list[tuple[ERNode | None, bool]] = [(top, True)]
        while pending:
            node, entering = pending.pop()
            if node is None:  # the inserted segment
                at = position - base
                ranges.append((at, True))
                elements.update((at + e.start, at + e.end) for e in document.elements)
                ranges.append((at + length, False))
                continue
            if not entering:
                ranges.append((moved(node.end, True) - base, False))
                continue
            if node is not top:
                ranges.append((moved(node.gp, False) - base, True))
                pending.append((node, False))
            to_global = node.to_global
            block = self.index.block(node.sid)
            for start, stop in zip(block.starts, block.ends):
                # remove() drops the holder's records inside the span.
                if lost is not None and node is holder and (
                    start >= lost_from and stop <= lost_to
                ):
                    continue
                elements.add((
                    moved(to_global(start), False) - base,
                    moved(to_global(stop, count_ties=False), True) - base,
                ))
            children: list[ERNode | None] = list(node.children)
            if lost is not None:
                # Children inside the span go with it.
                children = [
                    child for child in children
                    if not (position <= child.gp and child.end <= end)
                ]
            elif node is parent:
                children.insert(bisect_left(children, position, key=_segment_gp), None)
            pending.extend((child, True) for child in reversed(children))
        return Audit(ranges, elements)

    def remove_segment(
        self, sid: int, checked: tuple[int | None, bool | None] | None = None
    ) -> RemovalOutcome:
        """Remove exactly the span segment ``sid`` currently occupies, as
        :meth:`remove` of that span would, by unlinking its ER-tree node
        (:meth:`~repro.core.ertree.ERTree.remove_node`).  ``checked`` is
        :meth:`check_segment_removal`'s answer on this very state."""
        node = self.log.ertree.outermost(sid)
        verdict = self.check_segment_removal(sid) if checked is None else checked
        if node.parent is None:  # the dummy root: every document
            return self.remove(node.gp, node.length, verdict)
        return self._removed(self.log.ertree.remove_node(node), verdict)

    def check_segment_removal(self, sid: int) -> tuple[int | None, bool | None]:
        """:meth:`check_removal` of segment ``sid``'s span, read off its
        node: a top-level segment (a whole document) and one in a trusted
        document read nothing, and any other runs that check."""
        node = self.log.ertree.outermost(sid)
        if node.depth == 1:
            return None, None
        if node.depth > 1 and node.path[1] in self._trusted:
            return node.path[1], True
        return self.check_removal(node.gp, node.length)

    def prepare_for_query(self) -> None:
        """Finalize deferred LS-mode maintenance; no-op beyond that in LD."""
        self.log.prepare_for_query()

    # ------------------------------------------------------------------
    # queries

    def structural_join(
        self,
        tag_a: str,
        tag_d: str,
        axis: str = AXIS_DESCENDANT,
        *,
        stats: JoinStatistics | None = None,
        context=None,
    ) -> Sequence[JoinPair]:
        """Lazy-Join ``tag_a // tag_d`` (or ``/`` with ``axis="child"``).

        Returns pairs of :class:`~repro.core.element_index.ElementRecord`
        grouped by descendant segment, in ascending sid.  ``stats``
        collects :class:`JoinStatistics` and runs the from-scratch merge
        instead of the join memo, grouped in Fig. 9's ascending segment
        gp; the memo's answer comes back uncopied: read it, never mutate it.

        ``context`` (a :class:`~repro.service.context.QueryContext`) adds
        cooperative deadline/row enforcement; the join is read-only, so a
        typed abort leaves the database untouched.
        """
        with gc_paused:
            return self._joiner.join(tag_a, tag_d, axis, stats=stats, context=context)

    def global_elements(self, tag: str, *, context=None) -> list[GlobalElement]:
        """All elements of ``tag`` with derived global spans, sorted by start.

        This is the materialization step the paper describes for running
        traditional join algorithms on top of the lazy store: for each
        segment the tag-list names, shift the local spans of its elements
        by the segment's global position and child-segment lengths.
        ``context`` makes the materialization loop a cancellation
        checkpoint.
        """
        self.log.require_query_ready()
        tid = self.log.tags.tid_of(tag)
        if tid is None:
            return []
        out: list[GlobalElement] = []
        for node in self.log.taglist.nodes(tid):
            to_global = node.to_global
            for record in self.index.block(node.sid).tag(tid).records:
                if context is not None:
                    context.tick()
                gstart = to_global(record.start)
                gend = to_global(record.end, count_ties=False)
                out.append(GlobalElement(gstart, gend, record.level, record))
        out.sort(key=lambda e: e.start)
        return out

    def global_span(self, record: ElementRecord) -> tuple[int, int]:
        """Derive the current global ``(start, end)`` of one element."""
        node = self.log.node(record.sid)
        return (
            node.to_global(record.start),
            node.to_global(record.end, count_ties=False),
        )

    def path_query(self, expression: str, *, bindings: bool = False, context=None):
        """Evaluate a pattern (``"person//profile/interest"``,
        ``"person[phone]"``): :meth:`twig_query` with its default
        executor, the twig memo."""
        return self.twig_query(expression, bindings=bindings, context=context)

    def twig_query(
        self,
        expression: str,
        *,
        bindings: bool = False,
        strategy: str = "auto",
        context=None,
    ):
        """Evaluate a branching twig pattern (``"person[profile]//phone"``).

        See :func:`repro.twig.evaluate.evaluate_twig`: the holistic
        executor, answered from the pattern's twig memo (``"twig"``, and
        ``"auto"``, which is the same), or the pairwise decomposition
        (``"pairwise"``).  ``context`` threads the shared deadline/row
        budget.
        """
        from repro.twig.evaluate import evaluate_twig

        return evaluate_twig(
            self,
            expression,
            bindings=bindings,
            strategy=strategy,
            context=context,
        )

    # ------------------------------------------------------------------
    # maintenance

    def repack(self, sid: int):
        """Collapse segment ``sid``'s subtree into one fresh segment.

        See :func:`repro.core.maintenance.repack_segment`.  Re-labels the
        affected elements; previously obtained records for them are invalid.
        """
        from repro.core.maintenance import repack_segment

        return repack_segment(self, sid)

    def compact(self):
        """Rebuild the index: one segment per top-level document.

        See :func:`repro.core.maintenance.compact_database` — the paper's
        "maintenance hours" update-log reset.
        """
        from repro.core.maintenance import compact_database

        return compact_database(self)

    def apply_batch(self, ops: list[dict]) -> list:
        """Apply several structural op records in order; per-op results.

        The in-memory face of the batched ingestion path: op records use
        the journal dialect (``{"op": "insert", "fragment": ..., ...}``)
        and run through the recovery dispatcher, so the non-durable and
        durable databases batch identically (minus the journal record).  A
        sub-op whose preconditions fail mid-batch yields ``None`` in its
        result slot instead of aborting the rest.
        """
        # Local import: repro.durability.recovery imports this module.
        from repro.durability.recovery import apply_op, validate_op

        record = {"op": "batch", "ops": [dict(sub) for sub in ops]}
        return apply_op(self, record, validate_op(self, record))

    # ------------------------------------------------------------------
    # verification helpers (used heavily by the test suite)

    def check_invariants(self) -> None:
        """Cross-structure consistency, including every segment's text."""
        self.log.check_invariants()
        self.index.check_invariants()
        # The tag-list's incrementally maintained occurrence counts (what
        # join planning reads, and the directory every per-tag read walks)
        # must agree with the element index's blocks, both ways.
        taglist = self.log.taglist
        listed = {
            (tid, sid): count
            for tid in taglist.tids()
            for sid, count in taglist.counts(tid).items()
        }
        indexed = {
            (tid, sid): count
            for sid in self.index.sids()
            for tid, count in Counter(self.index.block(sid).tids).items()
        }
        assert listed == indexed, (
            "tag-list counts and element-index blocks disagree on (tid, sid): "
            f"{sorted(set(listed.items()) ^ set(indexed.items()))}"
        )
        for node in list(self.log.ertree.nodes())[1:]:
            assert len(node.fragment) == node.virtual_own_length(), (
                f"segment {node.sid}: fragment and ER-tree disagree on length"
            )
        tops = {top.sid for top in self.log.ertree.root.children}
        assert self._trusted | self._unbalanced <= tops, (
            "document mark on something that is not a live top-level document"
        )
        assert not self._trusted & self._unbalanced, "trusted and unbalanced at once"

    def oracle_join(
        self, tag_a: str, tag_d: str, axis: str = AXIS_DESCENDANT
    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Ground-truth join computed by re-parsing :attr:`text`.

        Returns global-span pairs; compare against
        ``[(global_span(a), global_span(d)) for a, d in structural_join(...)]``.
        """
        text = self.text
        if not text.strip():
            return []
        wrapper = f"<__dummy_root__>{text}</__dummy_root__>"
        document = parse_fragment(wrapper)
        shift = len("<__dummy_root__>")
        pairs: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for anc in document.elements:
            if anc.tag != tag_a:
                continue
            targets = anc.descendants() if axis == AXIS_DESCENDANT else anc.children
            for desc in targets:
                if desc.tag == tag_d:
                    pairs.append(
                        (
                            (anc.start - shift, anc.end - shift),
                            (desc.start - shift, desc.end - shift),
                        )
                    )
        return pairs
