"""Path-expression evaluation over structural joins.

The paper frames structural join as "a core operation in optimizing XML
path queries" whose outputs "are later used to evaluate other path query
expressions".  This module supplies that layer: a small path language —

    person//interest          descendant step
    person/profile/interest   child steps
    site//person/profile      mixed

— compiled to a left-to-right pipeline of Lazy-Joins with semi-join
filtering between steps.  Every step reuses the segment-aware machinery, so
a three-step path costs three structural joins, never a document scan.

Evaluation returns the matches of the *last* step by default;
``bindings=True`` returns full match tuples (one element per step).

Per call run the plan, one structural join per step (each from its join
memo) and a read of the element index's write journal.  Memoised are
:func:`parse_path` and, per parsed path, a :class:`~repro.core.readpath
.PathMemo`: for step ``k`` and segment ``s`` the elements of ``s``
matching the first ``k + 1`` steps, recomputed only once ``s`` is written
(DESIGN.md §4e).  The answer chains the last level in sid order,
uncopied: ``(sid, start)`` order without a sort.

Execution is *selectivity-ordered*: before any join runs, every step tag is
probed against the tag-list's O(1) occurrence totals
(:meth:`~repro.core.taglist.TagList.total_count`).  A path naming an absent
or element-free tag short-circuits to ``[]`` without touching the element
index, and the per-step structural joins are executed cheapest-estimate
first so that a step producing zero pairs aborts the query before its more
expensive siblings run.  (The element index's blocks remain the
authoritative source — ``check_invariants`` compares — while the planner
reads only the incrementally maintained totals.)
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

from repro.core.element_index import ElementRecord
from repro.core.join import JoinAnswer
from repro.core.readpath import PathMemo
from repro.errors import PathSyntaxError
from repro.joins.stack_tree import AXIS_CHILD, AXIS_DESCENDANT
from repro.obs.metrics import METRICS

__all__ = [
    "PathStep",
    "PathQuery",
    "PathPlan",
    "parse_path",
    "plan_path",
    "evaluate_path",
]

_NAME_RE = re.compile(r"[A-Za-z_:][\w:.\-]*$")

_M_PATH_CALLS = METRICS.counter(
    "query.path.calls", unit="queries", site="evaluate_path"
)
_H_PATH_SECONDS = METRICS.histogram(
    "query.path.seconds", unit="seconds", site="evaluate_path"
)


@dataclass(frozen=True)
class PathStep:
    """One step: the axis connecting it to the previous step, and a tag."""

    axis: str  #: "descendant" ("//") or "child" ("/")
    tag: str


@dataclass(frozen=True)
class PathQuery:
    """A parsed path expression: an entry tag plus subsequent steps."""

    entry: str
    steps: tuple[PathStep, ...]

    def __str__(self) -> str:
        out = [self.entry]
        for step in self.steps:
            out.append("//" if step.axis == AXIS_DESCENDANT else "/")
            out.append(step.tag)
        return "".join(out)


#: Tokens the linear surface rejects but the twig surface accepts.
_TWIG_ONLY = {
    "*": "wildcard steps",
    "[": "predicates and branching steps",
    "]": "predicates and branching steps",
    "=": "value predicates",
    '"': "value predicates",
    "'": "value predicates",
}

#: ``axis::`` step syntax — unsupported by *both* surfaces.
_AXIS_RE = re.compile(r"[A-Za-z-]+::")


def _reject_unsupported(text: str, expression: str) -> None:
    """Point at the first token this surface cannot parse.

    Twig-surface tokens get a redirecting diagnostic (use
    :func:`repro.twig.parse_twig` / the ``twig`` verb); ``axis::`` steps are
    named explicitly since no surface implements them yet.
    """
    axis = _AXIS_RE.search(text)
    for position, char in enumerate(text):
        if axis is not None and position == axis.start():
            raise PathSyntaxError(
                "axis steps are not supported by any query surface",
                token=axis.group(0),
                position=position,
            )
        if char in _TWIG_ONLY:
            raise PathSyntaxError(
                f"token unsupported in linear path expressions "
                f"({_TWIG_ONLY[char]} need the twig surface: "
                f"repro.twig.parse_twig or the `twig` verb)",
                token=char,
                position=position,
            )


@lru_cache(maxsize=256)
def parse_path(expression: str) -> PathQuery:
    """Parse ``a//b/c`` into a :class:`PathQuery`.

    The expression is relative (no leading separator): the first tag matches
    anywhere in the database, mirroring how the paper's experiments phrase
    queries (``person//phone``).  Memoised per string; a bad one raises on
    every call.  Raises
    :class:`~repro.errors.PathSyntaxError` (a :class:`~repro.errors
    .QueryError`) naming the offending token and position on syntax
    problems; tokens that belong to the richer twig surface (``*``,
    ``[...]``, value predicates) are named as such so the caller is
    pointed at :func:`repro.twig.parse_twig` instead of a generic
    failure.
    """
    text = expression.strip()
    if not text:
        raise PathSyntaxError("empty path expression")
    if text.startswith("/"):
        raise PathSyntaxError(
            f"path must be relative (no leading '/'): {expression!r}",
            token="/",
            position=expression.find("/"),
        )
    _reject_unsupported(text, expression)
    tokens = re.split(r"(//|/)", text)
    # tokens: tag, sep, tag, sep, tag ...
    names = tokens[0::2]
    separators = tokens[1::2]
    if len(names) != len(separators) + 1 or "" in names:
        sep = separators[-1] if separators else "/"
        raise PathSyntaxError(
            f"malformed path expression (empty step): {expression!r}",
            token=sep,
            position=text.rfind(sep),
        )
    offset = 0
    for i, name in enumerate(names):
        if not _NAME_RE.match(name):
            raise PathSyntaxError(
                f"invalid tag name in {expression!r}",
                token=name,
                position=text.index(name, offset),
            )
        offset += len(name) + (len(separators[i]) if i < len(separators) else 0)
    steps = tuple(
        PathStep(AXIS_DESCENDANT if sep == "//" else AXIS_CHILD, name)
        for sep, name in zip(separators, names[1:])
    )
    return PathQuery(entry=names[0], steps=steps)


@dataclass(frozen=True)
class PathPlan:
    """Selectivity estimates for one path query, from tag-list totals.

    ``tags`` lists the entry tag followed by each step tag; ``counts`` are
    the corresponding O(1) occurrence totals (0 for unknown tags).
    ``join_order`` gives the step indices sorted by estimated join cost
    (the product of the two participating tags' totals — an upper bound on
    output pairs): running the cheapest joins first lets a zero-pair step
    abort the query before the expensive ones execute.

    ``segment_counts`` are the per-tag segment-list lengths (empty when
    the log is not query-ready).  They break cost ties — the Lazy-Join
    merge's outer loop scales with segment counts, not element counts.
    """

    tags: tuple[str, ...]
    counts: tuple[int, ...]
    join_order: tuple[int, ...]
    segment_counts: tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        """True when some tag on the path has no elements at all."""
        return any(count == 0 for count in self.counts)

    def estimated_cost(self, step: int) -> int:
        """The cost estimate used to order step ``step``'s join."""
        return self.counts[step] * self.counts[step + 1]


def plan_path(db, query: PathQuery) -> PathPlan:
    """Plan ``query`` against ``db``'s tag-list selectivity totals."""
    tags = (query.entry,) + tuple(step.tag for step in query.steps)
    tids = []
    counts = []
    for tag in tags:
        tid = db.log.tags.tid_of(tag)
        tids.append(tid)
        counts.append(0 if tid is None else db.log.taglist.total_count(tid))
    counts = tuple(counts)
    segment_counts: tuple[int, ...] = ()
    if db.log.query_ready and all(counts):
        # Feed the planner the segment lists' lengths: the lists the joins
        # about to run merge, O(1) per tag.
        segment_counts = tuple(len(db.log.taglist.nodes(tid)) for tid in tids)
    n_steps = len(query.steps)
    if segment_counts:
        # Same primary cost; segment-count products break ties because
        # the merge's outer loop scales with segments, not elements.
        def cost(i: int) -> tuple[int, int]:
            return (
                counts[i] * counts[i + 1],
                segment_counts[i] * segment_counts[i + 1],
            )
    else:
        def cost(i: int) -> int:
            return counts[i] * counts[i + 1]
    join_order = tuple(sorted(range(n_steps), key=cost))
    return PathPlan(
        tags=tags,
        counts=counts,
        join_order=join_order,
        segment_counts=segment_counts,
    )


def evaluate_path(
    db,
    expression: str,
    *,
    bindings: bool = False,
    context=None,
):
    """Evaluate a path expression against a :class:`LazyXMLDatabase`.

    Returns the distinct matches of the final step in ``(sid, start)``
    order, or — with ``bindings=True`` — the full match tuples (one
    :class:`ElementRecord` per step, duplicates possible when intermediate
    elements fan out).  One Lazy-Join runs per step; the distinct matches
    come from the path memo (module docstring), a read-only sequence to
    read, never mutate.

    ``context`` is an optional
    :class:`~repro.service.context.QueryContext`, threaded into every
    per-step structural join and checked between steps, so a multi-step
    path query honors one shared deadline/row budget end to end.
    """
    query = expression if isinstance(expression, PathQuery) else parse_path(expression)
    enabled = METRICS.enabled
    start = perf_counter() if enabled else 0.0
    plan = plan_path(db, query)
    _record_plan(query, plan)
    trace = context.trace if context is not None else None
    if trace is None:
        result = _evaluate(db, query, plan, bindings, context)
    else:
        with trace.span("path_query", expr=str(query)) as span:
            result = _evaluate(db, query, plan, bindings, context)
            span.annotate(
                matches=len(result),
                strategy="pairwise",
                step_costs=[
                    plan.estimated_cost(i) for i in range(len(query.steps))
                ],
                join_order=list(plan.join_order),
            )
    if enabled:
        _M_PATH_CALLS.inc()
        _H_PATH_SECONDS.observe(perf_counter() - start)
    return result


def _record_plan(query: PathQuery, plan: PathPlan) -> None:
    """Feed the shared planner decision log (see :mod:`repro.twig.plan`).

    Linear path queries always execute pairwise; recording them next to
    the twig planner's twig/pairwise choices makes plan regressions
    observable from one place (``stats()["planner"]``).
    """
    from repro.twig.plan import PLAN_RECORDER

    PLAN_RECORDER.record(
        expression=str(query),
        strategy="pairwise",
        surface="path",
        cost_twig=None,
        cost_pairwise=sum(
            plan.estimated_cost(i) for i in range(len(plan.tags) - 1)
        ),
        pruned=plan.empty,
    )


def _evaluate(db, query: PathQuery, plan: PathPlan, bindings: bool, context):
    if plan.empty:
        # A tag with zero recorded elements anywhere on the path empties
        # the whole result: answer without touching the element index.
        return []
    tid_entry = db.log.tags.tid_of(query.entry)
    if tid_entry is None:
        return []
    # Run the per-step joins cheapest-estimate first (joins are read-only
    # and independent; only the semi-join *filtering* is sequential), so a
    # step with no pairs at all aborts before the expensive joins execute.
    step_pairs: list = [None] * len(query.steps)
    for i in plan.join_order:
        if context is not None:
            context.check_deadline()
        step = query.steps[i]
        pairs = db.structural_join(
            plan.tags[i], step.tag, axis=step.axis, context=context
        )
        if not pairs:
            return []
        step_pairs[i] = pairs
    steps = query.steps
    if not steps:
        db.log.require_query_ready()
        # Record order is ``(sid, start)`` order.
        records = sorted(
            record
            for node in db.log.taglist.nodes(tid_entry)
            for record in db.index.block(node.sid).tag(tid_entry).records
        )
        return [(record,) for record in records] if bindings else records
    if not bindings:
        return _path_matches(db, tid_entry, steps, step_pairs, context)
    # Seeded from the step-0 pairs: an entry element without one binds
    # nothing, and sorted records are the index's order.
    extend: dict[ElementRecord, list[ElementRecord]] = {}
    for anc, desc in step_pairs[0]:
        extend.setdefault(anc, []).append(desc)
    current: list[tuple[ElementRecord, ...]] = [
        (anc, desc) for anc in sorted(extend) for desc in extend[anc]
    ]
    for i in range(1, len(steps)):
        if not current:
            break
        if context is not None:
            context.check_deadline()
        survivors = {binding[-1] for binding in current}
        extend = {}
        for anc, desc in step_pairs[i]:
            if anc in survivors:
                extend.setdefault(anc, []).append(desc)
        current = [
            binding + (desc,)
            for binding in current
            for desc in extend.get(binding[-1], ())
        ]
    return current


def _path_matches(db, tid_entry: int, steps, answers: list, context):
    """The distinct final matches: the path memo, brought up to date.

    ``answers`` are the step joins' (each a join memo's
    :class:`JoinAnswer`), in step order.  The sids the journal wrote since
    the memo's position are recomputed level by level from each step
    join's rows for the segment; no memo, or a journal trimmed past it,
    recomputes every segment of each step tag's list.  Published with one
    assignment after the last level: an abort publishes nothing.
    """
    log, index, rp = db.log, db.index, db.readpath
    tids = [log.tags.tid_of(step.tag) for step in steps]
    key = (tid_entry, tuple(zip([step.axis for step in steps], tids)))
    old = rp.path_memo(key)
    written = None if old is None else index.written_since(old.position)
    if written == []:
        return old.answer
    position = index.journal_position
    if written is not None:
        tree = log.ertree
        touched = [(s, tree.node(s) if s in tree else None) for s in set(written)]
    last = len(steps) - 1
    length = 0 if written is None else len(old.answer)
    levels: list = []
    previous = None
    for k, pairs in enumerate(answers):
        if context is not None:
            context.check_deadline()
        nodes = log.taglist.nodes(tids[k])
        if written is None:
            sids, entries = array("q"), []
            redo = [(node.sid, node) for node in nodes]
        else:
            sids, entries = (held[:] for held in old.levels[k])
            redo = touched
        for sid, node in redo:
            rows = () if node is None else pairs.segment_rows(nodes, node)
            kept = _segment_matches(rows, previous) if rows else ()
            i = bisect_left(sids, sid)
            if i < len(sids) and sids[i] == sid:
                length -= len(entries[i]) if k == last else 0
                del sids[i], entries[i]
            if kept:
                length += len(kept) if k == last else 0
                sids.insert(i, sid)
                entries.insert(i, tuple(sorted(kept)) if k == last else kept)
        previous = (sids, entries)
        levels.append(previous)
    answer = JoinAnswer(previous[1], length)
    rp.store_path(key, PathMemo(position, levels, answer))
    return answer


def _segment_matches(rows, previous) -> set:
    """One segment's matches at one level: the descendants in ``rows``
    (a step join's pairs for the segment) whose ancestor matched the
    level before — ``previous``, that level's ``(sids, entries)``, or
    ``None`` at the first step, whose ancestors all match."""
    if previous is None:
        return {desc for _anc, desc in rows}
    sids, entries = previous
    held: dict = {}  # ancestor sid -> its entry at the level before
    kept = set()
    for anc, desc in rows:
        matched = held.get(anc.sid)
        if matched is None:
            i = bisect_left(sids, anc.sid)
            found = i < len(sids) and sids[i] == anc.sid
            matched = held[anc.sid] = entries[i] if found else ()
        if anc in matched:
            kept.add(desc)
    return kept
