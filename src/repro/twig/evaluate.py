"""Holistic twig evaluation over the compiled read path.

Two executors answer the same :class:`~repro.twig.pattern.TwigQuery`:

**Holistic** (``strategy="twig"``, TwigStack-style).  One global element
stream per pattern node — four parallel columns, assembled as
``node.gp + column`` from the read-path cache's gp-free span columns
(:meth:`~repro.core.readpath.ReadPathCache.span_columns`), so a query
after an update re-derives only the segments the update touched.  Stream
construction applies the Lazy-Join cross-segment test (Proposition 3) to
each pattern edge: a segment of the child tag whose ER-tree path holds no
segment of the parent tag cannot contribute a match and is skipped before
a single element is emitted — for child axes only the segment itself and
its direct parent segment qualify (Prop 3(1)).  The trunk is then reduced
top-down: each step keeps its elements with a surviving ancestor one edge
up, and the survivors meet the step's branches as per-edge *existence
semi-joins* over the columns (two bisects per parent element find the
children inside it — never a pair list).  The whole evaluation is linear
in stream size plus output and no root-to-leaf chain is ever enumerated.
Only ``bindings=True`` (which must *return* the chains) materializes
them, via the chained per-step stacks of
:func:`~repro.joins.path_stack.path_stack`.

**Pairwise** (``strategy="pairwise"``).  The classic decomposition the
holistic algorithm exists to beat: one Stack-Tree-Desc join per pattern
edge, materializing intermediate pair lists, followed by semi-join
filtering and chain assembly.  Plain chains (no twig-only features)
instead fall back to the existing selectivity-ordered
:func:`~repro.core.query.evaluate_path` pipeline, which reuses the
read-path join memo.  Both executors share stream construction and the
predicate filters, so the parity suite checks exactly the matching
logic.

Results are byte-identical across executors by construction of a
canonical output order: distinct output-step records in ``(sid, start)``
order, or — with ``bindings=True`` — trunk chains sorted by their
record coordinates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress, islice
from operator import itemgetter
from time import perf_counter

from repro.core.database import GlobalElement
from repro.errors import QueryError
from repro.joins.path_stack import path_stack
from repro.joins.stack_tree import AXIS_CHILD, stack_tree_desc
from repro.obs.metrics import METRICS
from repro.twig.pattern import WILDCARD, TwigQuery, parse_twig
from repro.twig.plan import PLAN_RECORDER, plan_twig
from repro.twig.summary import PathSummary

__all__ = ["evaluate_twig"]

_STRATEGIES = ("auto", "twig", "pairwise")

_PIECE_LEVELS = itemgetter(3)
_PIECE_RECORDS = itemgetter(4)

_H_SECONDS = METRICS.histogram(
    "twig.seconds", unit="seconds", site="evaluate_twig"
)


def evaluate_twig(
    db,
    expression,
    *,
    bindings: bool = False,
    strategy: str = "auto",
    context=None,
    summary: PathSummary | None = None,
):
    """Evaluate a twig pattern against a :class:`LazyXMLDatabase`.

    Returns the distinct matches of the *output* step (the last trunk
    step) in ``(sid, start)`` order, or — with ``bindings=True`` — the
    trunk match chains (one :class:`~repro.core.element_index
    .ElementRecord` per trunk step; branch steps are existential and not
    returned).

    ``strategy`` pins an executor (``"twig"`` / ``"pairwise"``) or lets
    the path-summary planner choose (``"auto"``).  ``context`` threads
    the usual deadline/row budgets; ``summary`` overrides the database's
    own :class:`PathSummary` (tests).
    """
    query = expression if isinstance(expression, TwigQuery) else parse_twig(expression)
    if strategy not in _STRATEGIES:
        raise QueryError(
            f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
        )
    db.log.require_query_ready()
    enabled = METRICS.enabled
    start = perf_counter() if enabled else 0.0
    if summary is None:
        summary = db.path_summary
    plan = plan_twig(query, summary)
    chosen = plan.strategy if strategy == "auto" else strategy
    PLAN_RECORDER.record(
        expression=str(query),
        strategy=chosen,
        surface="twig",
        cost_twig=plan.cost_twig,
        cost_pairwise=plan.cost_pairwise,
        pruned=plan.empty,
    )
    trace = context.trace if context is not None else None
    if trace is None:
        result = _execute(db, query, plan, chosen, bindings, context, summary)
    else:
        with trace.span(
            "twig_query", expr=str(query), strategy=chosen
        ) as span:
            result = _execute(
                db, query, plan, chosen, bindings, context, summary
            )
            span.annotate(
                matches=len(result),
                pruned=plan.empty,
                cost_twig=plan.cost_twig,
                cost_pairwise=plan.cost_pairwise,
                edge_costs=[list(edge) for edge in plan.edge_costs],
            )
    if enabled:
        _H_SECONDS.observe(perf_counter() - start)
    return result


def _execute(db, query, plan, chosen, bindings, context, summary):
    if plan.empty:
        return []
    if chosen == "pairwise" and query.is_plain:
        # The existing selectivity-ordered Lazy-Join pipeline (with its
        # read-path join memo) is the pairwise executor for plain chains.
        from repro.core.query import evaluate_path

        result = evaluate_path(
            db, query.to_path_query(), bindings=bindings, context=context
        )
        if bindings:
            result = sorted(result, key=_chain_record_key)
        return result
    streams = _build_streams(db, query, summary, context)
    if chosen == "twig":
        trunk = _reduced_trunk(query, streams)
        if not bindings:
            # After the reduction an output element matches iff it
            # survived: existence, not enumeration.  (sid, start) names
            # an element, so plain record order is the canonical order.
            matches = trunk[-1][_RECORDS]
            if context is not None:
                context.check_deadline()
                context.charge_rows(len(matches))
            return sorted(matches)
        chains = path_stack(
            [_elements(stream) for stream in trunk],
            [node.axis for node in query.trunk],
        )
    else:
        chains = _pairwise(
            query, [_elements(stream) for stream in streams], context
        )
    if context is not None:
        context.check_deadline()
        context.charge_rows(len(chains))
    if bindings:
        return sorted(
            (tuple(e.record for e in chain) for chain in chains),
            key=_chain_record_key,
        )
    return sorted({chain[-1].record for chain in chains})


def _chain_record_key(chain):
    return tuple((r.sid, r.start, r.end, r.level) for r in chain)


# ----------------------------------------------------------------------
# stream construction (shared by both executors)
#
# A stream is four parallel lists — global starts, global ends, levels,
# records — in start order.  The semi-joins and predicate filters read the
# integer columns; GlobalElement objects exist only where an API hands
# them out (`_elements`).

_STARTS, _ENDS, _LEVELS, _RECORDS = range(4)


def _take(stream, keep):
    """The rows of ``stream`` whose ``keep`` flag is set."""
    return tuple(list(compress(column, keep)) for column in stream)


def _elements(stream):
    """The stream as :class:`GlobalElement` objects (``path_stack`` and
    ``stack_tree_desc`` take and return elements, not columns)."""
    return list(map(GlobalElement, *stream))


def _build_streams(db, query, summary, context):
    """One predicate-filtered global stream per pattern node, preorder.

    Preorder guarantees a node's pattern parent is built first, which the
    positional filter needs (it counts same-tag children under elements
    of the parent's *final* stream).
    """
    parents = {child.index: parent for parent, child in query.edges()}
    streams: list[tuple | None] = [None] * len(query.nodes)
    for node in query.nodes:
        parent = parents.get(node.index)
        keep_sids = None
        if parent is not None and not parent.is_wildcard:
            keep_sids = summary.segment_sids(parent.tag)
        stream = _tag_stream(db, node.tag, node.axis, keep_sids, context)
        if node.position is not None:
            stream = _take(
                stream,
                _nth_child(streams[parent.index], stream, node.position),
            )
        if node.value is not None:
            stream = _take(stream, _value_matches(db, stream, node.value))
        streams[node.index] = stream
    return streams


def _tag_stream(db, tag, axis, keep_sids, context):
    """One tag's elements in global coordinates: ``node.gp + column``.

    The read path keeps each segment's spans minus its ``gp``
    (:meth:`~repro.core.readpath.ReadPathCache.span_columns`; a wildcard
    reads the all-tags columns of every segment), so after an update
    only the segments it touched are re-derived and the rest is one
    addition per element.

    ``keep_sids`` — the segments holding the pattern-parent's tag — is
    the Lazy-Join cross-segment test applied at stream-build time: a
    segment whose ER-tree path misses every parent segment (for child
    axes: whose own sid and direct parent sid both miss, Prop 3(1))
    cannot contribute a match and is skipped wholesale.

    Segments arrive in ER-tree pre-order, and a segment nested inside an
    earlier one sits in a gap of that one's elements; so the earlier
    segment is emitted up to the gap (one bisect on its starts column),
    the nested one goes in, and the rest follows — start order, no sort.
    """
    readpath = db.readpath
    if tag == WILDCARD:
        tid = None
        nodes = islice(db.log.ertree.nodes(), 1, None)  # not the dummy root
    else:
        tid = db.log.tags.tid_of(tag)
        nodes = () if tid is None else db.log.taglist.nodes(tid)
    span_columns = readpath.span_columns
    child_axis = axis == AXIS_CHILD
    # Column pieces in start order: (gp, starts, ends, levels, records).
    pieces: list[tuple] = []
    # Segments whose tail is still to come, outermost first:
    # [columns, gp, rows emitted, segment end].
    enclosing: list[list] = []
    for node in nodes:
        if keep_sids is not None:
            path = node.path
            if child_axis:
                if path[-1] not in keep_sids and (
                    len(path) < 2 or path[-2] not in keep_sids
                ):
                    continue
            elif keep_sids.isdisjoint(path):
                continue
        columns = span_columns(tid, node)
        if not columns.starts:
            continue
        if context is not None:
            context.tick()
        gp = node.gp
        while enclosing:
            outer = enclosing[-1]
            if outer[3] <= gp:
                pieces.append(_piece(enclosing.pop(), None))
                continue
            gap = bisect_left(outer[0].starts, gp - outer[1], outer[2])
            if gap > outer[2]:
                pieces.append(_piece(outer, gap))
                outer[2] = gap
            break
        enclosing.append([columns, gp, 0, gp + node.length])
    while enclosing:
        pieces.append(_piece(enclosing.pop(), None))
    return (
        [gp + offset for gp, column, _, _, _ in pieces for offset in column],
        [gp + offset for gp, _, column, _, _ in pieces for offset in column],
        list(chain.from_iterable(map(_PIECE_LEVELS, pieces))),
        list(chain.from_iterable(map(_PIECE_RECORDS, pieces))),
    )


def _piece(enclosing, hi):
    """The not yet emitted rows below ``hi`` of an ``enclosing`` entry."""
    columns, gp, lo, _ = enclosing
    if lo == 0 and hi is None:
        return gp, columns.starts, columns.ends, columns.levels, columns.records
    return (
        gp,
        columns.starts[lo:hi],
        columns.ends[lo:hi],
        columns.levels[lo:hi],
        columns.records[lo:hi],
    )


# ----------------------------------------------------------------------
# predicate filters (shared by both executors)


def _value_matches(db, stream, value):
    """Which elements' raw inner text equals ``value``.

    Inner text is the slice between the start tag's ``>`` and the end
    tag's ``<`` of the element's global span — raw, no normalization.
    Requires the database to keep its text.
    """
    try:
        text = db.text
    except QueryError as exc:
        raise QueryError(
            "value predicates require the database text "
            "(open with keep_text=True)"
        ) from exc
    keep = []
    for start, end in zip(stream[_STARTS], stream[_ENDS]):
        s = text[start:end]
        open_end = s.find(">")
        close_start = s.rfind("<")
        inner = s[open_end + 1:close_start] if 0 <= open_end < close_start else ""
        keep.append(inner == value)
    return keep


def _child_runs(parents, children):
    """Per parent element, ``(lo, hi, level + 1)``: the run of ``children``
    rows starting inside its span and the level its own children have.

    Two bisects on the children's starts column per parent, so children
    outside every parent are never looked at.  Elements of one forest
    nest or are disjoint, which makes "starts inside" the same as
    "contained"; of the contained ones, exactly those one level down are
    the parent's children.
    """
    c_starts = children[_STARTS]
    for start, end, level in zip(*parents[:_RECORDS]):
        lo = bisect_right(c_starts, start)
        yield lo, bisect_left(c_starts, end, lo), level + 1


def _nth_child(parents, children, n):
    """Which children are the ``n``-th same-tag child of their parent.

    The element parent of a child-axis match is the unique containing
    element one level up; a child whose element parent is absent from
    ``parents`` (the parent step's stream) cannot match.  Ordinals count
    *all* same-tag children of that parent in document order,
    independent of other predicates.
    """
    keep = [False] * len(children[_STARTS])
    c_levels = children[_LEVELS]
    for lo, hi, want in _child_runs(parents, children):
        seen = 0
        for row in range(lo, hi):
            if c_levels[row] == want:
                seen += 1
                if seen == n:
                    keep[row] = True
                    break
    return keep


# ----------------------------------------------------------------------
# the holistic executor


def _edge_satisfied(parents, children, axis):
    """Existence semi-join: which parent elements have a qualifying child.

    A descendant-axis parent qualifies when its run of contained
    children is not empty, a child-axis parent when the run holds an
    element one level down.  No pair is ever materialized.
    """
    if axis != AXIS_CHILD:
        return [lo < hi for lo, hi, _ in _child_runs(parents, children)]
    c_levels = children[_LEVELS]
    return [
        want in c_levels[lo:hi]
        for lo, hi, want in _child_runs(parents, children)
    ]


def _has_ancestor(parents, children, axis):
    """Downward semi-join: which child elements have a qualifying parent.

    The dual of :func:`_edge_satisfied` over the same runs: every child
    in a descendant-axis parent's run qualifies, and of a child-axis
    parent's run the elements one level down.  Parents come in start
    order, so a parent nested in an earlier one adds nothing to a
    descendant-axis answer and its run is skipped.
    """
    keep = [False] * len(children[_STARTS])
    if axis != AXIS_CHILD:
        done = 0  # rows below this are settled
        for lo, hi, _ in _child_runs(parents, children):
            if hi > done:
                lo = max(lo, done)
                keep[lo:hi] = [True] * (hi - lo)
                done = hi
        return keep
    c_levels = children[_LEVELS]
    for lo, hi, want in _child_runs(parents, children):
        for row in range(lo, hi):
            if c_levels[row] == want:
                keep[row] = True
    return keep


def _with_branches(node, stream, streams):
    """``stream`` (rows of ``node``) cut to the rows every branch of
    ``node`` has a witness under."""
    for branch in node.branches:
        if not stream[_STARTS]:
            break
        witnesses = _with_branches(branch, streams[branch.index], streams)
        stream = _take(stream, _edge_satisfied(stream, witnesses, branch.axis))
    return stream


def _reduced_trunk(query, streams):
    """The trunk streams with every constraint semi-joined in.

    Top-down: a step is first cut to the elements with a surviving
    ancestor one edge up, and only those meet the step's branches — so a
    selective ancestor shrinks every semi-join below it.  The survivors
    of the last step *are* the answer; the chains ``bindings=True`` wants
    run through the survivors of every step.
    """
    trunk = []
    for node in query.trunk:
        stream = streams[node.index]
        if trunk:
            stream = _take(stream, _has_ancestor(trunk[-1], stream, node.axis))
        trunk.append(_with_branches(node, stream, streams))
    return trunk


# ----------------------------------------------------------------------
# the pairwise decomposition executor (the baseline holistic beats)


def _pairwise(query, streams, context):
    """One Stack-Tree join per edge, pair lists and all."""

    def alive(node):
        elements = streams[node.index]
        alive_set = set(elements)
        for branch in node.branches:
            if not alive_set:
                break
            branch_alive = alive(branch)
            branch_stream = [
                e for e in streams[branch.index] if e in branch_alive
            ]
            pairs = stack_tree_desc(
                elements, branch_stream, axis=branch.axis, context=context
            )
            alive_set &= {a for a, _ in pairs}
        return alive_set

    trunk = query.trunk
    entry_alive = alive(trunk[0])
    chains = [(e,) for e in streams[trunk[0].index] if e in entry_alive]
    for node in trunk[1:]:
        if not chains:
            break
        node_alive = alive(node)
        node_stream = [e for e in streams[node.index] if e in node_alive]
        tails = {chain[-1] for chain in chains}
        parent_stream = [
            e for e in streams[_trunk_parent(query, node).index] if e in tails
        ]
        pairs = stack_tree_desc(
            parent_stream, node_stream, axis=node.axis, context=context
        )
        extend: dict = {}
        for a, d in pairs:
            extend.setdefault(a, []).append(d)
        chains = [
            chain + (d,)
            for chain in chains
            for d in extend.get(chain[-1], ())
        ]
    return chains


def _trunk_parent(query, node):
    return query.trunk[query.trunk.index(node) - 1]
