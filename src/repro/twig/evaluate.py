"""Twig evaluation over the compiled read path.

Two executors answer the same :class:`~repro.twig.pattern.TwigQuery`:

**Holistic** (``strategy="twig"``, and ``"auto"``, which is the same).
Its answer comes from the pattern's twig memo (:mod:`repro.twig.memo`):
per pattern node and segment the elements that survive, refreshed after
an update where the journal and Proposition 3 say something can have
moved, so a query after an update costs what the update touched.  The
distinct output matches are the memo's own read-only sequence, in
``(sid, start)`` order.  With ``bindings=True`` (which must *return* the
chains) each trunk step's global element stream is cut to the elements
its memo level holds, and :func:`~repro.joins.stack_tree.path_chains`
strings the chains edge by edge, as the pairwise executor does: every
survivor has a surviving element one trunk edge up, so no chain
dead-ends.

**Pairwise** (``strategy="pairwise"``).  The classic decomposition the
holistic algorithm exists to beat: one Stack-Tree-Desc join per pattern
edge over whole global streams, materializing intermediate pair lists,
followed by semi-join filtering and the same chain assembly — plain
chains included, so it is the independent reading of a path too.  Stream
construction and the predicate filters serve the pairwise executor and
the holistic chains; the memo shares none of it, so the parity suite
holds it to an independent reading of the pattern.

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
from repro.joins.stack_tree import AXIS_CHILD, path_chains, stack_tree_desc
from repro.obs.metrics import METRICS
from repro.twig.memo import inner_text, memo_matches
from repro.twig.pattern import WILDCARD, TwigQuery, parse_twig
from repro.twig.plan import PLAN_RECORDER, plan_twig

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
):
    """Evaluate a twig pattern against a :class:`LazyXMLDatabase`.

    Returns the distinct matches of the *output* step (the last trunk
    step) in ``(sid, start)`` order, or — with ``bindings=True`` — the
    trunk match chains (one :class:`~repro.core.element_index
    .ElementRecord` per trunk step; branch steps are existential and not
    returned).  The holistic executor's matches are its twig memo's own
    read-only sequence: read it, never mutate it.  With a trace, the
    ``twig_query`` span says how the memo served the query (``memo``:
    ``hit``, ``refresh`` or ``cold``; ``refreshed`` segment entries;
    ``spine`` elements looked at).

    ``strategy`` pins an executor (``"twig"`` / ``"pairwise"``);
    ``"auto"`` is the holistic one.  ``context`` threads the usual
    deadline/row budgets.
    """
    query = expression if isinstance(expression, TwigQuery) else parse_twig(expression)
    if strategy not in _STRATEGIES:
        raise QueryError(
            f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
        )
    db.log.require_query_ready()
    enabled = METRICS.enabled
    start = perf_counter() if enabled else 0.0
    plan = plan_twig(query, db.path_summary)
    chosen = "twig" if strategy == "auto" else strategy
    PLAN_RECORDER.record(query, strategy=chosen, pruned=plan.empty)
    trace = context.trace if context is not None else None
    if trace is None:
        result, _ = _execute(db, query, plan.empty, chosen, bindings, context)
    else:
        with trace.span(
            "twig_query", expr=str(query), strategy=chosen
        ) as span:
            result, served = _execute(
                db, query, plan.empty, chosen, bindings, context
            )
            span.annotate(matches=len(result), pruned=plan.empty)
            if served is not None:
                span.annotate(
                    memo=served[0], refreshed=served[1], spine=served[2]
                )
    if enabled:
        _H_SECONDS.observe(perf_counter() - start)
    return result


def _execute(db, query, empty, chosen, bindings, context):
    """The answer, and how the twig memo served it (``None``: not used)."""
    if empty:
        return [], None
    if chosen == "pairwise":
        return _pairwise_execute(db, query, bindings, context), None
    key, memo, served = memo_matches(db, query, context)
    result = (
        _bindings(_memo_chains(db, query, memo.levels, context)) if bindings
        else memo.answer
    )
    if context is not None:
        context.check_deadline()
        context.charge_rows(len(result))
    if served[0] != "hit":
        # Published once the answer is charged: an abort publishes nothing.
        db.readpath.store(key, memo)
    return result, served


def _memo_chains(db, query, levels, context):
    """The trunk chains, each step's stream cut to its memo level."""
    streams = []
    for node in query.trunk:
        held = set(chain.from_iterable(levels[node.index][1]))
        stream = _tag_stream(db, node.tag, node.axis, None, context)
        streams.append(
            _elements(_take(stream, [r in held for r in stream[_RECORDS]]))
        )
    return path_chains(streams, [node.axis for node in query.trunk])


def _pairwise_execute(db, query, bindings, context):
    """The pairwise decomposition, the baseline holistic beats: one
    Stack-Tree join per edge over whole global streams, pair lists and all."""
    streams = [_elements(stream) for stream in _build_streams(db, query, context)]

    def alive(node):
        """The node's stream, cut to the elements every branch matches."""
        elements = streams[node.index]
        alive_set = set(elements)
        for branch in node.branches:
            if not alive_set:
                break
            pairs = stack_tree_desc(
                elements, alive(branch), axis=branch.axis, context=context
            )
            alive_set &= {a for a, _ in pairs}
        return [e for e in elements if e in alive_set]

    trunk = query.trunk
    chains = path_chains(
        [alive(node) for node in trunk], [node.axis for node in trunk], context=context
    )
    if context is not None:
        context.check_deadline()
        context.charge_rows(len(chains))
    if bindings:
        return _bindings(chains)
    return sorted({chain[-1].record for chain in chains})


def _bindings(chains):
    """The chains as record tuples, sorted by their records' coordinates."""
    return sorted(
        (tuple(e.record for e in chain) for chain in chains),
        key=lambda chain: tuple((r.sid, r.start, r.end, r.level) for r in chain),
    )


# ----------------------------------------------------------------------
# stream construction (the pairwise executor and the holistic chains)
#
# A stream is four parallel lists — global starts, global ends, levels,
# records — in start order.  The predicate filters read the integer
# columns; GlobalElement objects exist only where an API hands them out
# (`_elements`).

_STARTS, _ENDS, _LEVELS, _RECORDS = range(4)


def _take(stream, keep):
    """The rows of ``stream`` whose ``keep`` flag is set."""
    return tuple(list(compress(column, keep)) for column in stream)


def _elements(stream):
    """The stream as :class:`GlobalElement` objects (``path_chains`` and
    ``stack_tree_desc`` take and return elements, not columns)."""
    return list(map(GlobalElement, *stream))


def _build_streams(db, query, context):
    """One predicate-filtered global stream per pattern node, preorder.

    Preorder guarantees a node's pattern parent is built first, which the
    positional filter needs (it counts same-tag children under elements
    of the parent's *final* stream).
    """
    parents = {child.index: parent for parent, child in query.edges()}
    summary = db.path_summary
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
# predicate filters (the pairwise executor)


def _value_matches(db, stream, value):
    """Which elements' raw inner text equals ``value``.

    Inner text is the slice between the start tag's ``>`` and the end
    tag's ``<`` of the element's global span — raw, no normalization —
    read off the element's own segment.
    """
    node = db.log.node
    return [
        inner_text(node(record.sid), start, end) == value
        for start, end, record in zip(
            stream[_STARTS], stream[_ENDS], stream[_RECORDS]
        )
    ]


def _nth_child(parents, children, n):
    """Which children are the ``n``-th same-tag child of their parent.

    The element parent of a child-axis match is the unique containing
    element one level up; a child whose element parent is absent from
    ``parents`` (the parent step's stream) cannot match.  Ordinals count
    *all* same-tag children of that parent in document order,
    independent of other predicates.

    Two bisects on the children's starts column per parent find the run
    starting inside it, so children outside every parent are never looked
    at.  Elements of one forest nest or are disjoint, which makes "starts
    inside" the same as "contained"; of the contained ones, exactly those
    one level down are the parent's children.
    """
    c_starts, c_levels = children[_STARTS], children[_LEVELS]
    keep = [False] * len(c_starts)
    for start, end, level in zip(*parents[:_RECORDS]):
        lo = bisect_right(c_starts, start)
        seen = 0
        for row in range(lo, bisect_left(c_starts, end, lo)):
            if c_levels[row] == level + 1:
                seen += 1
                if seen == n:
                    keep[row] = True
                    break
    return keep

