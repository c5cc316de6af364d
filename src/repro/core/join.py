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

The answer is memoised **per descendant segment**: the output is grouped
by D-segment and one group depends only on ``SL_A`` and that segment, so
after an update :meth:`LazyJoiner._refresh` asks the element index which
segments were written since the memo was built, runs the same loop over
just those D-segments and splices their chunks into the rest — work that
follows the update, not ``|SL_D|``.  The answer is returned as stored, not
copied.  ``stats=`` runs the from-scratch merge, its oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, compress, product
from operator import attrgetter, itemgetter
from time import perf_counter

from repro.core.element_index import ElementIndex, ElementRecord
from repro.core.ertree import ERNode
from repro.core.readpath import JoinMemo, ReadPathCache
from repro.core.update_log import UpdateLog
from repro.errors import QueryError
from repro.joins.kernels import select_open
from repro.joins.stack_tree import AXIS_CHILD, AXIS_DESCENDANT, stack_tree_desc
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

_AXES = (AXIS_DESCENDANT, AXIS_CHILD)

_NO_SPAN = nullcontext()  # stateless, so one serves every untraced join
_node_gp = attrgetter("gp")
_chunk_pairs = itemgetter(0)
#: A memo chunk: one D-segment's ``(pairs, deepest stack charged)``.
_NO_CHUNK = ((), 0)


#: A join result: (ancestor element, descendant element), each an
#: :class:`~repro.core.element_index.ElementRecord` carrying (sid, local
#: start, local end, absolute level).
JoinPair = tuple[ElementRecord, ElementRecord]


class JoinAnswer(Sequence):
    """A memoised answer's rows: its chunks', one after the other.

    What the join memo hands out (a chunk is a D-segment's ``(pairs,
    depth)``, ``part`` picks the pairs) and the path memo (a chunk is a
    segment's matches), uncopied: the chunk list is the memo's own and is
    never mutated, iteration chains the chunks at C level, and it compares
    equal to a list of the same rows (the from-scratch answer).  Indexing
    flattens once.
    """

    __slots__ = ("_chunks", "_part", "_length", "_flat")

    def __init__(self, chunks: list, length: int, part=None):
        self._chunks = chunks
        self._part = part
        self._length = length
        self._flat = None

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        parts = self._chunks if self._part is None else map(self._part, self._chunks)
        return chain.from_iterable(parts)

    def segment_rows(self, nodes: list[ERNode], node: ERNode):
        """The rows of ``node``'s chunk, or ``()`` when ``node`` is not in
        ``nodes``, the segment list the chunks line up with."""
        i = _position(nodes, node)
        if i is None:
            return ()
        return self._chunks[i] if self._part is None else self._part(self._chunks[i])

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


class _ChunkMeter:
    """The ``context`` of a memoised merge (:meth:`LazyJoiner._refresh`).

    Forwards every checkpoint and charge to the caller's context, if any,
    so deadlines and budgets act on the merge as it runs, and records per
    merged D-segment where its output starts (``cuts``) and the deepest
    stack charged meanwhile (``depths``: segment stack and in-segment
    element stack alike) — what a warm call charges in the merge's place.
    """

    __slots__ = ("_context", "cuts", "depths")

    def __init__(self, context):
        self._context = context
        self.cuts: list[int] = []
        self.depths: list[int] = []

    def begin_segment(self, offset: int) -> None:
        self.cuts.append(offset)
        self.depths.append(0)

    def tick(self) -> None:
        if self._context is not None:
            self._context.tick()

    def check_deadline(self) -> None:
        if self._context is not None:
            self._context.check_deadline()

    def charge_rows(self, n: int) -> None:
        if self._context is not None:
            self._context.charge_rows(n)

    def charge_depth(self, depth: int) -> None:
        if depth > self.depths[-1]:
            self.depths[-1] = depth
        if self._context is not None:
            self._context.charge_depth(depth)


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

        Results are grouped by descendant segment in ascending global
        position (cross-segment pairs for a segment first, then its
        in-segment pairs); use :func:`sorted` with a global-position key for
        a total document order.  Pass a :class:`JoinStatistics` to collect
        execution counters.  The answer may be the join memo's own
        :class:`JoinAnswer`: read it, never mutate it.

        ``context`` is an optional
        :class:`~repro.service.context.QueryContext`: the descendant-segment
        loop is a cooperative cancellation checkpoint (deadline), result
        rows are charged against its row budget and stack pushes against its
        depth budget.  Joins are read-only, so an abort at any checkpoint
        leaves every structure untouched.

        Requires a query-ready log (LD always is; LS must have had
        ``prepare_for_query()`` run).

        Calls without ``stats`` are answered from the read-path cache's
        per-descendant-segment join memo: the stored answer while both
        tags are unchanged, otherwise the chunks of the unwritten
        D-segments plus a merge of the written ones (:meth:`_refresh`).  A
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
        enabled = METRICS.enabled
        memo_key = None
        if stats is None and axis in _AXES and self._log.query_ready:
            tid_a = self._log.tags.tid_of(tag_a)
            tid_d = self._log.tags.tid_of(tag_d)
            if tid_a is not None and tid_d is not None:
                memo_key = (tid_a, tid_d, axis)
                if context is not None:
                    context.check_deadline()
                memo = self._readpath.cached_join(tid_a, tid_d, axis)
                if memo is not None:
                    pairs = memo.answer
                    if context is not None:
                        context.charge_depth(memo.depth)
                        context.charge_rows(len(pairs))
                    if span is not None:
                        span.annotate(pairs=len(pairs), memo="hit")
                    if enabled:
                        _M_CALLS.inc()
                        _M_PAIRS.inc(len(pairs))
                    return pairs
        if stats is None:
            stats = JoinStatistics()
        start = perf_counter() if enabled else 0.0
        if memo_key is None:
            results = self._join_impl(tag_a, tag_d, axis, stats, context)
        else:
            results = self._refresh(memo_key, tag_a, tag_d, stats, context)
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

    def _refresh(
        self, memo_key, tag_a: str, tag_d: str, stats: JoinStatistics, context
    ) -> JoinAnswer:
        """Bring the join memo for ``memo_key`` up to date; answer from it.

        A chunk is good while its D-segment has not been written — the
        whole validity key, see DESIGN.md 4e.  The memo's chunks are
        aligned with ``SL_D`` as it stood, so the tag list's edits to
        ``SL_D`` since then realign them, a new D-segment getting an empty
        chunk; the element index's journal names the segments written
        since the memo's position, and the ordinary merge runs over those
        still in ``SL_D`` (the loop is correct for any gp-ascending
        subset), its output cut at their boundaries and put in their
        places.  No memo, or a journal or tag
        list that no longer reaches back to it, leaves every D-segment to
        merge.  The new memo is published with one assignment, so readers
        sharing a pinned replica each publish a complete entry, and an
        abort (deadline, budget, cancel) propagates before the publish.
        """
        tid_a, tid_d, axis = memo_key
        rp = self._readpath
        taglist = self._log.taglist
        position = self._index.journal_position
        old = rp.join_memo(tid_a, tid_d, axis)
        written = edits = None
        if old is not None:
            written = self._index.written_since(old.position)
            edits = taglist.edits_since(tid_d, old.version_d)
        nodes = taglist.nodes(tid_d)
        if written is None or edits is None:
            redo = range(len(nodes))
            chunks = [_NO_CHUNK] * len(nodes)
            counts = {0: len(nodes)}
            length = 0
        else:
            chunks = old.chunks.copy()
            counts = old.depth_counts.copy()
            length = len(old.answer)
            for edit in edits:
                if edit > 0:
                    chunks.insert(edit - 1, _NO_CHUNK)
                    counts[0] = counts.get(0, 0) + 1
                elif edit < 0:
                    pairs, depth = chunks.pop(-edit - 1)
                    counts[depth] -= 1
                    length -= len(pairs)
            ertree = self._log.ertree
            redo = sorted({
                i for sid in set(written) if sid in ertree
                and (i := _position(nodes, ertree.node(sid))) is not None
            })
        merged: list[JoinPair] = []
        if redo:
            meter = _ChunkMeter(context)
            subset = None if len(redo) == len(nodes) else [nodes[i] for i in redo]
            merged = self._join_impl(tag_a, tag_d, axis, stats, meter, subset, meter)
            # No cuts: a tag has no element left, the merge returned before
            # its loop, and every chunk it was to redo is empty.
            cuts = meter.cuts or [0] * len(redo)
            cuts.append(len(merged))
            for i, lo, hi, depth in zip(
                redo, cuts, cuts[1:], meter.depths or [0] * len(redo)
            ):
                pairs, was = chunks[i]
                counts[was] -= 1
                counts[depth] = counts.get(depth, 0) + 1
                length += hi - lo - len(pairs)
                chunks[i] = (tuple(merged[lo:hi]), depth)
        depth = max(compress(counts, counts.values()), default=0)
        answer = JoinAnswer(chunks, length, _chunk_pairs)
        if context is not None:
            # The merge charged what it produced; the reused chunks are
            # charged here, so the budget sees the whole answer.
            context.charge_depth(depth)
            context.charge_rows(length - len(merged))
            context.check_deadline()
        rp.store_join(tid_a, tid_d, axis, JoinMemo(
            taglist.version(tid_a), taglist.version(tid_d), position,
            chunks, counts, answer, depth,
        ))
        return answer

    def _join_impl(
        self,
        tag_a: str,
        tag_d: str,
        axis: str,
        stats: JoinStatistics,
        context,
        d_nodes=None,
        meter=None,
    ) -> list[JoinPair]:
        """The merge of Fig. 9; ``d_nodes`` restricts it to a gp-ascending
        subset of ``SL_D`` and ``meter`` learns where each D-segment's
        output starts (both for :meth:`_refresh`)."""
        if axis not in _AXES:
            raise QueryError(f"axis must be one of {_AXES}, got {axis!r}")
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
            if meter is not None:
                meter.begin_segment(len(results))
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
            # Charged per D-segment, not per push: the stack sd is merged
            # under is part of what its memo chunk must remember.
            if context is not None and stack:
                context.charge_depth(len(stack))

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

