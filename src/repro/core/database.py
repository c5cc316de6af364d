"""`LazyXMLDatabase` — the user-facing facade over the whole system.

Ties together the paper's pieces end to end:

- text-level updates: :meth:`LazyXMLDatabase.insert` / :meth:`remove` take an
  XML fragment / a ``(position, length)`` span, exactly the interface Section
  3.3 assumes ("only the start location ... and the length ... are available
  to us"), and keep the update log and element index consistent;
- queries: :meth:`structural_join` runs Lazy-Join (``algorithm="lazy"``) or
  Stack-Tree-Desc over derived global labels (``"std"``);
- global-position reconstruction: element labels are local and immutable, but
  global spans are always derivable from the ER-tree (:meth:`global_span`) —
  the core invariant of the lazy approach.

The database optionally mirrors the super document *text* (``keep_text``),
which the benchmarks disable (the paper measures index maintenance, not file
I/O) and the test suite uses as ground truth: reparsing the mirrored text
must agree with every index-derived answer.
"""

from __future__ import annotations

import gc
import threading
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
from repro.errors import InvalidSegmentError, QueryError
from repro.joins.stack_tree import AXIS_DESCENDANT, stack_tree_desc
from repro.xml.parser import parse_fragment
from repro.xml.wellformed import Audit, reaches_cleanly, well_formed

__all__ = ["LazyXMLDatabase", "GlobalElement", "RemovalOutcome"]

_ALGORITHMS = ("lazy", "std")

_segment_gp = attrgetter("gp")

# A join allocates tens of thousands of result tuples that all *survive*
# into the returned list, so every generation-0 collection triggered by
# that allocation burst scans live data and frees nothing — pure overhead,
# measured at ~25% of a large cold join.  Both join algorithms (lazy and
# std: one regime, so the figures compare merges and not collectors)
# therefore run with automatic collection paused — nesting-safe across
# threads; the pause window is bounded by one join and restores the
# caller's GC state.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


class _GcPaused:
    """Scoped pause of automatic garbage collection (see the note above)."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _gc_depth, _gc_was_enabled
        with _gc_lock:
            if _gc_depth == 0:
                _gc_was_enabled = gc.isenabled()
                if _gc_was_enabled:
                    gc.disable()
            _gc_depth += 1

    def __exit__(self, *exc_info) -> None:
        global _gc_depth
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


_gc_paused = _GcPaused()  # stateless: one serves every join


class GlobalElement(NamedTuple):
    """An element with derived global span, as the STD baseline consumes it.

    ``record`` preserves the element's identity ``(sid, start)`` so results
    can be compared across algorithms.
    """

    start: int
    end: int
    level: int
    record: ElementRecord


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
    keep_text:
        Mirror the super-document text in memory.  Needed for
        ``validate="full"`` and for the test-suite ground truth; benchmarks
        switch it off.
    """

    def __init__(self, mode: str = "dynamic", *, keep_text: bool = True,
                 sid_start: int = 1, sid_stride: int = 1):
        self.log = UpdateLog(mode=mode, sid_start=sid_start,
                             sid_stride=sid_stride)
        self.index = ElementIndex()
        # The compiled read path (version-keyed push lists and span
        # columns, the join memo) is shared by every query executor on
        # this database.
        self.readpath = ReadPathCache(self.log, self.index)
        self._joiner = LazyJoiner(self.log, self.index, self.readpath)
        # The twig subsystem's structural synopsis: per-edge feasibility
        # and selectivity off the tag catalog alone, memoized under the
        # same version counters as the read path (lazy import keeps the
        # package graph acyclic — repro.twig never loads unless used).
        from repro.twig.summary import PathSummary

        self.path_summary = PathSummary(self.log)
        self._keep_text = keep_text
        self._text: str = ""
        # Sids of the top-level documents known to be well-formed with every
        # segment and element record matching the text (DESIGN.md §4,
        # "Removal validation").  Derived and never persisted: a loaded
        # database starts with none and earns them back one scan at a time.
        self._trusted: set[int] = set()

    # ------------------------------------------------------------------
    # properties

    @property
    def mode(self) -> str:
        """``"dynamic"`` (LD) or ``"static"`` (LS)."""
        return self.log.mode

    @property
    def text(self) -> str:
        """The mirrored super-document text (requires ``keep_text``)."""
        if not self._keep_text:
            raise QueryError("database was created with keep_text=False")
        return self._text

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
        self, fragment: str, position: int | None = None, *, validate: str = "fragment"
    ) -> InsertReceipt:
        """Insert a well-formed XML ``fragment`` at character ``position``.

        ``position`` defaults to the end of the super document (appending a
        new top-level document, the DBLP-style batch-update case).

        ``validate`` is ``"fragment"`` (parse the fragment only — the
        paper's assumption that segments are valid) or ``"full"`` (also
        re-parse the whole mirrored text afterwards; requires ``keep_text``).

        Returns the :class:`~repro.core.update_log.InsertReceipt` with the
        new segment's sid, path and local position.

        Exception safety: every input check — fragment parse, position
        bounds, optional full-document validation — runs before the first
        structure is touched, and the index maintenance after the update-log
        insertion is guarded by a rollback, so a failing insert always
        leaves ``check_invariants()`` green.
        """
        if position is None:
            position = self.log.document_length
        document = parse_fragment(fragment)
        if not 0 <= position <= self.log.document_length:
            raise InvalidSegmentError(
                f"insert position {position} outside super document "
                f"[0, {self.log.document_length}]"
            )
        if validate == "full":
            if not self._keep_text:
                raise QueryError('validate="full" requires keep_text=True')
            self._validate_splice(fragment, position)
        parent = self.log.ertree.innermost_segment(position)
        base_level, anchor = self._depth_at(parent, position)
        # A fragment is a balanced run of whole tokens, so a trusted
        # document stays trusted when the fragment lands inside an element
        # and between tokens; the scan from the nearest record boundary
        # decides the latter, before anything is touched.
        top_sid = parent.path[1] if parent.sid != DUMMY_ROOT_SID else None
        stays_trusted = (
            top_sid in self._trusted
            and base_level > 0
            and reaches_cleanly(
                self._text, anchor, position, self.log.node(top_sid).end
            )
        )

        tag_counts: Counter = Counter(e.tag for e in document.elements)
        receipt = self.log.insert_segment(position, len(fragment), tag_counts)
        try:
            records = [
                (self.log.tags.intern(e.tag), e.start, e.end, e.level)
                for e in document.elements
            ]
            self.index.insert_segment(receipt.sid, records, base_level)
            if self._keep_text:
                self._text = self._text[:position] + fragment + self._text[position:]
        except BaseException:
            self._trusted.discard(top_sid)
            self._rollback_insert(receipt, tag_counts)
            raise
        if top_sid is None:
            if self._keep_text:
                self._trusted.add(receipt.sid)  # a parsed fragment, alone
        elif not stays_trusted:
            self._trusted.discard(top_sid)
        return receipt

    def _rollback_insert(self, receipt: InsertReceipt, tag_counts: Counter) -> None:
        """Undo a segment insertion whose index maintenance failed midway.

        Reverses the structures in dependency order: the element-index
        block (if it landed), the ER-tree node, and finally the
        tag-list occurrences the update-log insertion registered.
        Removing the exact just-inserted span restores every surviving
        segment's global position and ancestor lengths and leaves no
        tombstone (the span aligns with the fresh node's boundaries).
        """
        counts = {self.log.tags.tid_of(name): n for name, n in tag_counts.items()}
        self.index.remove_segment(receipt.sid)
        self.readpath.drop_segment(receipt.sid)
        report = self.log.remove_span(receipt.gp, receipt.length)
        self.log.apply_removal_counts({receipt.sid: counts}, report)

    def _validate_splice(self, fragment: str, position: int) -> None:
        """Reject an insertion that would leave the super document malformed.

        Scans the mirror with the fragment spliced in logically — no
        would-be text is built — before any structure is touched, so a
        failed full validation leaves the database unchanged.
        """
        text = self._text
        spliced = [
            (text, 0, position),
            (fragment, 0, len(fragment)),
            (text, position, len(text)),
        ]
        if not well_formed(spliced, wrapped=True):
            raise InvalidSegmentError(
                f"insertion at {position} would produce malformed XML"
            )

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
        """
        node = parent
        anchor = position
        while node.sid != DUMMY_ROOT_SID:
            local = node.to_local(position)
            best = boundary = 0
            block = self.index.block(node.sid)
            for start, end, level in zip(block.starts, block.ends, block.levels):
                if start >= local:
                    break
                if local < end:
                    if level > best:
                        best = level
                    if start > boundary:
                        boundary = start
                elif end > boundary:
                    boundary = end
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

    def remove(self, position: int, length: int) -> RemovalOutcome:
        """Remove ``length`` characters starting at ``position``.

        Runs Fig. 7 on the update log, deletes the affected element records
        (whole segments and partially-removed local ranges), and folds the
        per-(tid, sid) removal counts back into the tag-list — the exact
        maintenance ordering Section 3.3 prescribes.

        Exception safety: the span is validated here, before the first
        mutation; once the ER-tree removal has run, the remaining index and
        tag-list maintenance operates only on data the report proves
        present, so an invalid request never leaves partial mutations.
        """
        verdict = self._validate_removal_span(position, length)
        report = self.log.remove_span(position, length)
        per_segment_counts: dict[int, Counter] = {}
        removed_elements = 0
        for sid in report.removed_sids:
            if sid == DUMMY_ROOT_SID:
                continue
            counts = self.index.remove_segment(sid)
            per_segment_counts[sid] = counts
            removed_elements += sum(counts.values())
            self._trusted.discard(sid)
            # Version keys already make stale compiled entries unreachable;
            # the eager drop just reclaims their memory (sids never return).
            self.readpath.drop_segment(sid)
        for partial in report.partials:
            if partial.sid == DUMMY_ROOT_SID:
                continue
            counts = self.index.remove_local_range(
                partial.sid, partial.local_start, partial.local_end
            )
            per_segment_counts[partial.sid] = counts
            removed_elements += sum(counts.values())
        self.log.apply_removal_counts(per_segment_counts, report)
        if self._keep_text:
            self._text = self._text[:position] + self._text[position + length :]
        if verdict is not None:
            top_sid, trusted = verdict
            if trusted:
                self._trusted.add(top_sid)
            else:
                self._trusted.discard(top_sid)
        return RemovalOutcome(report=report, elements_removed=removed_elements)

    def check_removal(self, position: int, length: int) -> None:
        """Raise, changing nothing, when ``remove(position, length)`` would.

        The whole pre-mutation check of :meth:`remove` as a read-only call,
        so a caller that must commit to an operation before applying it (the
        journal: :func:`repro.durability.recovery.validate_op`) refuses
        exactly the spans the apply would refuse.
        """
        self._validate_removal_span(position, length)

    def _validate_removal_span(
        self, position: int, length: int
    ) -> tuple[int, bool] | None:
        """Reject spans that would corrupt structure, before any mutation.

        Beyond bounds, two shapes are refused:

        - a span **crossing a segment boundary** — Fig. 7's clipping cases
          would remove one segment's tail and its neighbour's head, leaving
          both with unbalanced tags.  A read-only ER-tree walk mirroring
          Fig. 7's span classification refuses any ``LEFT_INTERSECT``/
          ``RIGHT_INTERSECT`` against a live segment;
        - a span **landing mid-tag** inside one top-level document
          (text-mirror databases only): refused iff that document parses
          now and would not parse with the span excised.  A mirror that is
          already malformed (fragment-validated mid-text inserts) is never
          refused, and spans covering whole top-level documents are not
          text-checked.

        The text check costs what the span costs.  In a *trusted* document
        (see ``_trusted``) a span that is exactly one live segment's extent
        is a balanced run of whole tokens inside an element, and taking it
        out cannot change how the rest parses: nothing is read.  Any other
        case scans the document once with the span excised — no copy, no
        tree — and scans it as it stands only if that fails.

        Returns ``(top-level sid, trusted afterwards)`` for :meth:`remove`
        to record once the span is gone, or ``None`` when the span lies in
        no single document.  Read-only.
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
        if not self._keep_text or top is None:
            return None
        if whole_segment and top.sid in self._trusted:
            return top.sid, True
        text = self._text
        audit = self._audit_after_removal(top, node, position, end)
        excised = [(text, top.gp, position), (text, end, top.end)]
        if not well_formed(excised, audit=audit) and well_formed(
            [(text, top.gp, top.end)]
        ):
            raise InvalidSegmentError(
                f"removal span [{position}, {end}) lands "
                "mid-tag: the surviving document would not be "
                "well-formed"
            )
        return top.sid, audit.confirmed

    def _audit_after_removal(
        self, top: ERNode, holder: ERNode, position: int, end: int
    ) -> Audit:
        """What must hold in ``top``'s document, once ``[position, end)`` is
        gone from segment ``holder``, for the document to be trusted: every
        surviving segment under ``top`` a balanced run of whole tokens
        inside an element, every surviving element record an element of the
        text.  Offsets are pre-removal globals, as the excised scan sees
        them."""
        ranges: list[tuple[int, bool]] = []
        elements: set[tuple[int, int]] = set()
        lost_from = holder.to_local(position)
        lost_to = holder.to_local(end)
        pending: list[tuple[ERNode, bool]] = [(top, True)]
        while pending:
            node, entering = pending.pop()
            if not entering:
                ranges.append((node.end, False))
                continue
            if node is not top:
                ranges.append((node.gp, True))
                pending.append((node, False))
            to_global = node.to_global
            block = self.index.block(node.sid)
            for start, stop in zip(block.starts, block.ends):
                # remove() drops the holder's records inside the span.
                if node is holder and start >= lost_from and stop <= lost_to:
                    continue
                elements.add((to_global(start), to_global(stop, count_ties=False)))
            pending.extend(
                (child, True)
                for child in reversed(node.children)
                # Children inside the span go with it.
                if not (position <= child.gp and child.end <= end)
            )
        return Audit(ranges, elements)

    def remove_segment(self, sid: int) -> RemovalOutcome:
        """Remove exactly the span segment ``sid`` currently occupies."""
        node = self.log.node(sid)
        return self.remove(node.gp, node.length)

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
        algorithm: str = "lazy",
        stats: JoinStatistics | None = None,
        context=None,
    ) -> Sequence[JoinPair]:
        """Answer ``tag_a // tag_d`` (or ``/`` with ``axis="child"``).

        ``algorithm`` selects Lazy-Join (``"lazy"``) or Stack-Tree-Desc over
        derived global labels (``"std"``).  Both return the same pairs of
        :class:`~repro.core.element_index.ElementRecord`; ordering differs
        (lazy: by descendant segment; std: by global descendant position).
        ``stats`` (Lazy-Join only) collects :class:`JoinStatistics` and runs
        the from-scratch merge instead of the join memo, whose answer comes
        back uncopied: read it, never mutate it.

        ``context`` (a :class:`~repro.service.context.QueryContext`) adds
        cooperative deadline/row/depth enforcement to every algorithm; the
        join is read-only, so a typed abort leaves the database untouched.
        """
        if algorithm not in _ALGORITHMS:
            raise QueryError(
                f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}"
            )
        with _gc_paused:
            if algorithm == "lazy":
                return self._joiner.join(
                    tag_a, tag_d, axis, stats=stats, context=context
                )
            self.log.require_query_ready()
            trace = context.trace if context is not None else None
            if trace is None:
                return self._std_join(tag_a, tag_d, axis, context)
            with trace.span("std_join", a=tag_a, d=tag_d, axis=axis) as span:
                results = self._std_join(tag_a, tag_d, axis, context)
                span.annotate(pairs=len(results))
            return results

    def _std_join(
        self, tag_a: str, tag_d: str, axis: str, context
    ) -> list[JoinPair]:
        """The STD baseline: derive global labels, join on them."""
        a_globals = self.global_elements(tag_a, context=context)
        d_globals = self.global_elements(tag_d, context=context)
        pairs = stack_tree_desc(a_globals, d_globals, axis=axis, context=context)
        return [(a.record, d.record) for a, d in pairs]

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
        """Evaluate a path expression (``"person//profile/interest"``).

        See :func:`repro.core.query.evaluate_path`; one Lazy-Join per step.
        ``context`` threads a shared deadline/row budget through every step.
        """
        from repro.core.query import evaluate_path

        return evaluate_path(self, expression, bindings=bindings, context=context)

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
        stack executor over the compiled read path, the pairwise
        decomposition, or — ``strategy="auto"`` — whichever the
        :class:`~repro.twig.summary.PathSummary` planner estimates
        cheaper.  ``context`` threads the shared deadline/row budget.
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

        node = self.log.node(sid)
        if len(node.path) > 1:
            # Re-derived labels are not the parsed ones the mark vouches for.
            self._trusted.discard(node.path[1])
        return repack_segment(self, sid)

    def compact(self):
        """Rebuild the index: one segment per top-level document.

        See :func:`repro.core.maintenance.compact_database` — the paper's
        "maintenance hours" update-log reset.
        """
        from repro.core.maintenance import compact_database

        self._trusted.clear()
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
        validate_op(self, record)
        return apply_op(self, record)

    # ------------------------------------------------------------------
    # verification helpers (used heavily by the test suite)

    def check_invariants(self) -> None:
        """Cross-structure consistency, including the text mirror if kept."""
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
        if self._keep_text:
            assert len(self._text) == self.log.document_length, (
                "text mirror and ER-tree disagree on document length"
            )
        assert self._trusted <= {top.sid for top in self.log.ertree.root.children}, (
            "trusted mark on something that is not a live top-level document"
        )

    def oracle_join(
        self, tag_a: str, tag_d: str, axis: str = AXIS_DESCENDANT
    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Ground-truth join computed by re-parsing the mirrored text.

        Returns global-span pairs; compare against
        ``[(global_span(a), global_span(d)) for a, d in structural_join(...)]``.
        Requires ``keep_text``.
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
