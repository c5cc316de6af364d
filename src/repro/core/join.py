"""The Lazy-Join structural join algorithm (Section 4, Fig. 9).

Lazy-Join answers ``A//D`` (and ``A/D``) directly over the update log and
the element index — no global labels are ever materialized.  It merges the
two *segment* lists from the tag-list by global position, keeping a stack of
candidate ancestor segments, and splits the work per Proposition 3:

- **cross-segment joins**: an A-element ``a`` in a stack segment ``S`` joins
  *every* D-element of the current descendant segment ``T`` iff
  ``a.start < P_T^S < a.end``, where ``P_T^S`` is the local position of
  ``S``'s child segment on the path toward ``T`` — a single integer test
  instead of per-pair work;
- **in-segment joins**: when the same segment appears in both lists, its
  local element lists are joined with Stack-Tree-Desc (local labels are
  immutable, so this is always sound).

Of the two optimizations of Section 4.2, (i) is always on: only
A-elements that contain at least one child-segment insertion point are
pushed (no other element can ever satisfy Proposition 3(2)).  (ii) —
dropping top-frame elements that end before a newly pushed segment's
branch point — bought no time on any figure shape (EXPERIMENTS.md, E9) and
is not implemented: the frames below the top are frozen into its covered
prefix anyway, and the top frame's candidates are found by bisect.

The parent/child variant restricts cross joins to (parent segment of ``T``,
``T``) per Proposition 3(1) and filters on ``LevelNum``.

The merge runs over the tag list's segment lists (:meth:`TagList.nodes`),
the element index's per-segment column views and the **compiled read
path** (:mod:`repro.core.readpath`): push lists are version-keyed
compiled artifacts, so repeated joins between updates reuse them.  Two
skip-ahead moves exploit these layouts:

- **segment-list galloping** (Step 2): the A-segments between two
  consecutive D-segments form a run the merge previously scanned one entry
  at a time.  The segments in that run containing the D-segment are
  exactly its ER-tree ancestors (segments form a laminar family) — so one
  bisect finds the run's end and one position probe per ancestor finds
  the containing segments; everything else in the run is skipped without
  even a containment test;
- **element bisecting** (Step 3): a frame's compiled columns are sorted by
  start with a prefix-max-of-end column, so the candidates for
  ``start < P < end`` are found by one bisect, and a frame none of whose
  prefix maxima exceed ``P`` is dismissed with one comparison.  When no
  frame element joins and the segment has no in-segment work, the
  D-elements are never fetched at all.

The answer is memoised **per descendant segment**: one group of the
output depends only on ``SL_A`` and its D-segment, so the memo is a
one-level twig memo whose entry per D-segment is its pairs, and after an
update :meth:`LazyJoiner._refresh` asks the element index which segments
were written since the memo was built, runs the same loop over just
those D-segments and patches their entries in — work that follows the
update, not ``|SL_D|``.  The answer is returned as stored, not copied,
grouped by D-segment in ascending sid.  ``stats=`` runs the from-scratch
merge, its oracle, grouped in Fig. 9's ascending gp.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, product
from operator import attrgetter
from time import perf_counter

from repro.core.element_index import ElementIndex, ElementRecord
from repro.core.ertree import ERNode
from repro.core.readpath import PathMemo, ReadPathCache, join_key, patch_level
from repro.core.update_log import UpdateLog
from repro.joins.kernels import select_open
from repro.joins.stack_tree import (
    AXIS_CHILD,
    AXIS_DESCENDANT,
    check_axis,
    stack_tree_desc,
)
from repro.obs.metrics import METRICS

# The per-call JoinStatistics is folded into the registry once at join
# end — zero per-pair registry work.
_M_CALLS = METRICS.counter(
    "join.lazy.calls", unit="joins", site="LazyJoiner.join"
)
_M_PAIRS = METRICS.counter(
    "join.lazy.pairs", unit="pairs", site="LazyJoiner.join"
)
_M_CROSS = METRICS.counter(
    "join.lazy.cross_pairs", unit="pairs", site="LazyJoiner.join"
)
_M_IN_SEG = METRICS.counter(
    "join.lazy.in_segment_pairs", unit="pairs", site="LazyJoiner.join"
)
_H_SECONDS = METRICS.histogram(
    "join.lazy.seconds", unit="seconds", site="LazyJoiner.join"
)

__all__ = ["LazyJoiner", "JoinAnswer", "JoinPair", "JoinStatistics"]

_NO_SPAN = nullcontext()  # stateless, so one serves every untraced join
_node_gp = attrgetter("gp")


#: A join result: (ancestor element, descendant element), each an
#: :class:`~repro.core.element_index.ElementRecord` carrying (sid, local
#: start, local end, absolute level).
JoinPair = tuple[ElementRecord, ElementRecord]


class JoinAnswer(Sequence):
    """A memo's answer: its output level's entries, one after the other.

    What a memo hands out (an entry is a D-segment's pairs, or a
    segment's matches), uncopied: the entry list is the memo's own and is
    never mutated, iteration chains the entries at C level, and it compares
    equal to a list of the same rows (the from-scratch answer).  Indexing
    flattens once.
    """

    __slots__ = ("_chunks", "_length", "_flat")

    def __init__(self, chunks: list, length: int):
        self._chunks = chunks
        self._length = length
        self._flat = None

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return chain.from_iterable(self._chunks)

    def __getitem__(self, index):
        if self._flat is None:
            self._flat = list(self)
        return self._flat[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, JoinAnswer)):
            return len(other) == self._length and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"JoinAnswer({list(self)!r})"


@dataclass
class JoinStatistics:
    """Counters describing one Lazy-Join execution (used by benchmarks)."""

    segments_pushed: int = 0
    segments_skipped: int = 0
    #: Segments skipped by the Step 2 bisect without a containment test.
    segments_galloped: int = 0
    #: D-segments whose element fetch was avoided (stack present but no
    #: frame element joins, and no in-segment work).
    d_fetches_avoided: int = 0
    elements_pushed: int = 0
    cross_pairs: int = 0
    in_segment_pairs: int = 0
    max_stack_depth: int = 0

    @property
    def pairs(self) -> int:
        return self.cross_pairs + self.in_segment_pairs

    @property
    def cross_fraction(self) -> float:
        """Fraction of results that were cross-segment joins."""
        total = self.pairs
        return self.cross_pairs / total if total else 0.0


def _position(nodes: list[ERNode], node: ERNode, lo: int = 0) -> int | None:
    """Where ``node`` sits in a segment list at or after ``lo``, or
    ``None``: one bisect on gp, then a step over the ties — segments tie
    only where a head was cut back to its first child's start, a run no
    longer than the nesting depth."""
    gp = node.gp
    for i in range(bisect_left(nodes, gp, lo, key=_node_gp), len(nodes)):
        held = nodes[i]
        if held is node:
            return i
        if held.gp != gp:
            break
    return None


class _Frame:
    """One stack entry: a candidate ancestor segment and its pushed
    A-elements — the segment's compiled push list, read in place: parallel
    ``starts`` / ``ends`` / ``maxends`` (prefix max of ends) columns sorted
    by start, and ``records``, which the push list materializes only when
    the frame emits pairs (a pure-scan join stays on the integer columns).

    ``covered_prefix`` is the paper's auxiliary data structure (Section
    4.3), extended to the whole candidate cascade: while a frame is covered
    by a deeper frame, every descendant segment reaches it through the same
    child, so its branch position — and with its immutable columns, its
    matching elements — are fixed until the stack changes.  Each frame
    stores the concatenated matches of every frame strictly below it,
    computed incrementally at push time; the per-descendant-segment cascade
    then touches only the top frame instead of walking the whole stack.
    """

    __slots__ = ("node", "source", "starts", "ends", "maxends", "covered_prefix")

    def __init__(self, node: ERNode, source):
        self.node = node
        self.source = source
        self.starts = source.starts
        self.ends = source.ends
        self.maxends = source.maxends
        #: Concatenated cross-match candidates of every frame below this
        #: one (all covered, hence frozen); set at push time.
        self.covered_prefix: tuple = ()

    @property
    def records(self):
        return self.source.records


class LazyJoiner:
    """Executes Lazy-Join over an update log and element index."""

    def __init__(
        self,
        log: UpdateLog,
        index: ElementIndex,
        readpath: ReadPathCache | None = None,
    ):
        self._log = log
        self._index = index
        self._readpath = (
            ReadPathCache(log, index) if readpath is None else readpath
        )

    @property
    def readpath(self) -> ReadPathCache:
        """The compiled read-path cache this joiner runs over."""
        return self._readpath

    def join(
        self,
        tag_a: str,
        tag_d: str,
        axis: str = AXIS_DESCENDANT,
        *,
        stats: JoinStatistics | None = None,
        context=None,
    ) -> Sequence[JoinPair]:
        """Answer ``tag_a // tag_d`` (or ``/`` with ``axis="child"``).

        Results are grouped by descendant segment (cross-segment pairs for
        a segment first, then its in-segment pairs), the segments in
        ascending sid — in ascending global position, Fig. 9's order, when
        ``stats`` is passed; use :func:`sorted` with a global-position key
        for a total document order.  Pass a :class:`JoinStatistics` to
        collect execution counters.  The answer may be the join memo's own
        :class:`JoinAnswer`: read it, never mutate it.

        ``context`` is an optional
        :class:`~repro.service.context.QueryContext`: the descendant-segment
        loop is a cooperative cancellation checkpoint (deadline) and result
        rows are charged against its row budget.  Joins are read-only, so an abort at any checkpoint
        leaves every structure untouched.

        Requires a query-ready log (LD always is; LS must have had
        ``prepare_for_query()`` run).

        Calls without ``stats`` are answered from the read-path cache's
        per-descendant-segment join memo: the stored answer while no sid
        the write journal named since it was stored is a D-segment now or
        holds an entry, otherwise the entries of the other D-segments plus
        a merge of those (:meth:`_refresh`).  A
        ``context`` is charged for the whole answer either way, so a
        budget aborts a warm call exactly as it aborts a cold one.
        Statistics collection runs the from-scratch merge, which stays the
        memo's oracle.
        """
        trace = context.trace if context is not None else None
        with (
            _NO_SPAN if trace is None
            else trace.span("lazy_join", a=tag_a, d=tag_d, axis=axis)
        ) as span:
            return self._join(tag_a, tag_d, axis, stats, context, span)

    def _join(self, tag_a, tag_d, axis, stats, context, span) -> Sequence[JoinPair]:
        check_axis(axis)
        enabled = METRICS.enabled
        memo_key = None
        if stats is None and self._log.query_ready:
            tid_a = self._log.tags.tid_of(tag_a)
            tid_d = self._log.tags.tid_of(tag_d)
            if tid_a is not None and tid_d is not None:
                memo_key = join_key(tid_a, tid_d, axis)
                if context is not None:
                    context.check_deadline()
                old, stale = self._stale(memo_key)
                if stale == []:
                    self._readpath.hits += 1
                    pairs = old.answer
                    if context is not None:
                        context.charge_rows(len(pairs))
                    if span is not None:
                        span.annotate(pairs=len(pairs), memo="hit")
                    if enabled:
                        _M_CALLS.inc()
                        _M_PAIRS.inc(len(pairs))
                    position = self._index.journal_position
                    if old.position != position:
                        # Restamped: the next call reads only later writes.
                        self._readpath.store(
                            memo_key, old._replace(position=position)
                        )
                    return pairs
                self._readpath.misses += 1
        if stats is None:
            stats = JoinStatistics()
        start = perf_counter() if enabled else 0.0
        if memo_key is None:
            results = self._join_impl(tag_a, tag_d, axis, stats, context)
        else:
            results = self._refresh(memo_key, old, stale, tag_a, tag_d, stats, context)
        if span is not None:
            span.annotate(
                pairs=len(results),
                cross_pairs=stats.cross_pairs,
                in_segment_pairs=stats.in_segment_pairs,
                segments_pushed=stats.segments_pushed,
                max_stack_depth=stats.max_stack_depth,
            )
        if enabled:
            _M_CALLS.inc()
            _M_PAIRS.inc(len(results))
            _M_CROSS.inc(stats.cross_pairs)
            _M_IN_SEG.inc(stats.in_segment_pairs)
            _H_SECONDS.observe(perf_counter() - start)
        return results

    def _stale(self, memo_key) -> tuple[PathMemo | None, list[int] | None]:
        """The memo under ``memo_key`` and the sids written since its journal
        position that are a D-segment now or hold an entry, ascending (``[]``:
        a hit); ``None`` for no memo or a journal that no longer reaches it."""
        old = self._readpath.memo(memo_key)
        written = None if old is None else self._index.written_since(old.position)
        if not written:
            return old, written
        _, _, tid_d, _ = memo_key
        in_d, held = self._log.taglist.counts(tid_d), old.levels[0][0]
        return old, sorted({
            sid for sid in set(written) if sid in in_d
            or (i := bisect_left(held, sid)) < len(held) and held[i] == sid
        })

    def _refresh(self, memo_key, old, stale, tag_a, tag_d, stats, context):
        """Bring the join memo for ``memo_key`` up to date; answer from it.

        The ``stale`` sids (:meth:`_stale`; ``None``: all) still in ``SL_D``
        are found there by :func:`_position` and merged by the ordinary loop
        (correct for any gp-ascending subset), its output cut at their
        boundaries; :func:`patch_level` then gives every stale sid its new
        entry or none (DESIGN.md 4e).  The memo is published with one
        assignment, after any abort, so readers sharing a pinned replica
        each publish a complete entry."""
        _, _, tid_d, axis = memo_key
        position = self._index.journal_position
        nodes = self._log.taglist.nodes(tid_d)
        fresh = dict.fromkeys(stale or (), ())
        if stale is None:
            redo = range(len(nodes))
            sids, chunks, length = array("q"), [], 0
        else:
            sids, chunks = (held[:] for held in old.levels[0])
            length = len(old.answer)
            in_d = self._log.taglist.counts(tid_d)
            redo = sorted(
                _position(nodes, self._log.node(sid)) for sid in stale if sid in in_d
            )
        merged: list[JoinPair] = []
        if redo:
            cuts: list[int] = []
            subset = None if len(redo) == len(nodes) else [nodes[i] for i in redo]
            merged = self._join_impl(
                tag_a, tag_d, axis, stats, context, subset, cuts
            )
            # No cuts: a tag has no element left, the merge returned before
            # its loop, and every entry it was to redo is empty.
            cuts.append(len(merged))
            for i, lo, hi in zip(redo, cuts, cuts[1:]):
                if hi > lo:
                    fresh[nodes[i].sid] = tuple(merged[lo:hi])
        for sid, entry in sorted(fresh.items()):
            length += len(entry) - len(patch_level(sids, chunks, sid, entry))
        answer = JoinAnswer(chunks, length)
        if context is not None:
            # The merge charged what it produced; the reused entries are
            # charged here, so the budget sees the whole answer.
            context.charge_rows(length - len(merged))
            context.check_deadline()
        self._readpath.store(
            memo_key, PathMemo(position, [(sids, chunks)], answer)
        )
        return answer

    def _join_impl(
        self,
        tag_a: str,
        tag_d: str,
        axis: str,
        stats: JoinStatistics,
        context,
        d_nodes=None,
        cuts=None,
    ) -> list[JoinPair]:
        """The merge of Fig. 9; ``d_nodes`` restricts it to a gp-ascending
        subset of ``SL_D`` and ``cuts`` collects where each D-segment's
        output starts (both for :meth:`_refresh`)."""
        self._log.require_query_ready()
        tid_a = self._log.tags.tid_of(tag_a)
        tid_d = self._log.tags.tid_of(tag_d)
        if tid_a is None or tid_d is None:
            return []
        rp = self._readpath
        nodes_a = self._log.taglist.nodes(tid_a)
        nodes_d = self._log.taglist.nodes(tid_d)
        if not nodes_a or not nodes_d:
            return []
        get_elements = rp.elements
        get_push = rp.push_elements
        branch_of = self._branch_path

        child_only = axis == AXIS_CHILD
        results: list[JoinPair] = []
        stack: list[_Frame] = []
        ai = 0
        a_count = len(nodes_a)

        for sd in nodes_d if d_nodes is None else d_nodes:
            if context is not None:
                context.tick()
            if cuts is not None:
                cuts.append(len(results))
            # Step 1 — pop stack segments that end before sd starts: sorted
            # gps mean they cannot contain sd nor any later D-segment.
            while stack and sd.gp >= stack[-1].node.end:
                stack.pop()

            # Step 2 — push the A-segments preceding sd that contain it;
            # skip the rest.  Compiled skip-ahead: one bisect bounds the run
            # of A-segments with gp < sd.gp, and the ones containing sd are
            # exactly its ER-tree ancestors — its parent chain — so the
            # run's other members are galloped over untested.  Containment
            # is read off the chain, never off a gp comparison: a removal
            # can cut an ancestor's head back to sd's own gp (the ancestor
            # stays first in the list), and an answer that flipped on such
            # a tie would not be the one the memo holds for sd (DESIGN.md
            # §4e).
            if ai < a_count and nodes_a[ai].gp <= sd.gp:
                nxt = bisect_left(nodes_a, sd.gp, ai, a_count, key=_node_gp)
                # Ancestor positions increase with depth (SL_A is ER-tree
                # pre-order), so the run's candidates are the deepest
                # ancestors, and the walk up stops at the first whose gp
                # lies before the run's: it, and all above it, were
                # merged already.
                candidates = []
                floor = nodes_a[ai].gp
                ancestor = sd.parent
                while ancestor is not None and ancestor.gp >= floor:
                    idx = _position(nodes_a, ancestor, ai)
                    if idx is not None:
                        candidates.append(idx)
                    ancestor = ancestor.parent
                if candidates:
                    candidates.reverse()
                    # An ancestor tied with sd on gp lies past the bisect.
                    nxt = max(nxt, candidates[-1] + 1)
                pushed_in_run = 0
                for idx in candidates:
                    sa = nodes_a[idx]
                    source = get_push(tid_a, sa)
                    if len(source):
                        frame = _Frame(sa, source)
                        if stack:
                            # The covered frame's branch toward everything
                            # below the new top goes through the new top's
                            # chain — so its match set freezes here too,
                            # and the new frame's covered prefix is the
                            # old prefix plus that frozen set.
                            top = stack[-1]
                            branch = branch_of(top.node, sa)
                            hi = bisect_left(top.starts, branch)
                            if hi and top.maxends[hi - 1] > branch:
                                merged = list(top.covered_prefix)
                                select_open(
                                    top.records, top.ends, hi, branch, merged
                                )
                                frame.covered_prefix = tuple(merged)
                            else:
                                frame.covered_prefix = top.covered_prefix
                        stack.append(frame)
                        stats.segments_pushed += 1
                        stats.elements_pushed += len(source)
                        pushed_in_run += 1
                        if len(stack) > stats.max_stack_depth:
                            stats.max_stack_depth = len(stack)
                stats.segments_skipped += (nxt - ai) - pushed_in_run
                stats.segments_galloped += (nxt - ai) - len(candidates)
                ai = nxt
            # Step 3 — generate joins for sd.  Fetch sd's D-elements only
            # when some join can actually involve them — this is the
            # "segments that do not satisfy Proposition 3(1) are skipped"
            # effect (Section 5.3): a D-segment with an empty stack and no
            # A-elements of its own costs no element-index access at all.
            # The compiled columns sharpen it further: joining frame
            # elements are found by bisect first, and if none join (and
            # there is no in-segment work) the D-fetch is avoided too.
            # sd, if in SL_A, is no earlier than the run's end, and there
            # it ties with the first A-segment left.
            in_segment = (
                ai < a_count and nodes_a[ai].gp == sd.gp
                and _position(nodes_a, sd, ai) is not None
            )
            if not stack and not in_segment:
                stats.segments_skipped += 1
                continue
            if not stack:
                prefix: tuple = ()
                live: list = []
            elif child_only:
                prefix = ()
                live = self._cross_matches_child(stack, sd)
            else:
                prefix, live = self._cross_matches_descendant(stack, sd)
            n_matched = len(prefix) + len(live)
            if not n_matched and not in_segment:
                stats.d_fetches_avoided += 1
                continue
            d_compiled = get_elements(tid_d, sd.sid)
            n_d = len(d_compiled)
            cross_before = len(results)
            if n_d and n_matched:
                # Records materialize only here — on the emission path.
                # Pure-scan traversals (no joining pairs) stay column-only.
                d_records = d_compiled.records
                if child_only:
                    for a_elem in live:
                        for d_elem in d_records:
                            if d_elem.level == a_elem.level + 1:
                                results.append((a_elem, d_elem))
                                stats.cross_pairs += 1
                else:
                    # Two C-level cross products — ``product`` emits
                    # ancestor-major with descendants in document order,
                    # and the frozen prefix precedes the top frame's live
                    # matches, exactly the per-element loops' order.
                    if prefix:
                        results.extend(product(prefix, d_records))
                    if live:
                        results.extend(product(live, d_records))
                    stats.cross_pairs += n_matched * n_d
            if context is not None:
                context.charge_rows(len(results) - cross_before)
            if in_segment:
                # Same segment in both lists: in-segment join on local
                # positions (computed before the segment is ever pushed,
                # so no pairs are lost — Section 4.2).  The nested
                # Stack-Tree-Desc checkpoints and charges rows through the
                # same context; the compiled columns ride along so the
                # kernel skips re-deriving them.
                a_compiled = get_elements(tid_a, sd.sid)
                in_pairs = stack_tree_desc(
                    a_compiled,
                    d_compiled,
                    axis=axis,
                    context=context,
                    a_starts=a_compiled.starts,
                    a_ends=a_compiled.ends,
                    d_starts=d_compiled.starts,
                )
                results.extend(in_pairs)
                stats.in_segment_pairs += len(in_pairs)
        if context is not None:
            context.check_deadline()
        return results

    # ------------------------------------------------------------------
    # helpers

    def _branch_path(self, frame_node: ERNode, target: ERNode) -> int:
        """``P_target^frame`` (Section 4.1): the lp of the frame's child
        toward ``target`` — one path index plus one SB-tree lookup.

        This is what the tag-list stores paths *for*: the frame's sid sits
        at ``target.path[frame_node.depth]``, so the child on the branch is
        the next path component.
        """
        return self._log.node(target.path[frame_node.depth + 1]).lp

    def _cross_matches_descendant(
        self, stack: list[_Frame], sd: ERNode
    ) -> tuple[tuple, list]:
        """Step 3 cross candidates: frame A-elements joining segment ``sd``.

        Only the top frame is scanned live: every covered frame's matches
        are frozen into the top's ``covered_prefix`` at push time, so the
        cascade is one branch resolution, one bisect and one
        ``select_open`` column scan regardless of stack depth.  Candidates
        for ``a.start < P < a.end`` lie in the bisected prefix
        ``starts < P``; a top frame whose prefix-max end there does not
        exceed ``P`` contributes nothing beyond the frozen prefix.

        Returns ``(frozen_prefix, top_matches)`` — kept as two pieces so
        the caller can emit both cross products without concatenating per
        descendant segment; prefix pairs precede top pairs, matching the
        frame-then-element emission order of the uncompiled merge.
        """
        top = stack[-1]
        branch = self._branch_path(top.node, sd)
        hi = bisect_left(top.starts, branch)
        if hi == 0 or top.maxends[hi - 1] <= branch:
            return top.covered_prefix, []
        live: list[ElementRecord] = []
        select_open(top.records, top.ends, hi, branch, live)
        return top.covered_prefix, live

    def _cross_matches_child(
        self, stack: list[_Frame], sd: ERNode
    ) -> list[ElementRecord]:
        """Parent/child cross candidates: only ``sd``'s parent segment.

        Proposition 3(1): a parent element lives in the segment *directly*
        containing ``sd``; if that segment is on the stack it is the top
        frame.  The per-element ``d.level == a.level + 1`` filter is applied
        at emission time by the caller.
        """
        if not stack:
            return []
        top = stack[-1]
        assert sd.parent is not None
        if top.node.sid != sd.parent.sid:
            return []
        branch = sd.lp
        hi = bisect_left(top.starts, branch)
        if hi == 0 or top.maxends[hi - 1] <= branch:
            return []
        matched: list[ElementRecord] = []
        select_open(top.records, top.ends, hi, branch, matched)
        return matched

