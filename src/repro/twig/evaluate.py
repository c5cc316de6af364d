"""Holistic twig evaluation over the compiled read path.

Two executors answer the same :class:`~repro.twig.pattern.TwigQuery`:

**Holistic** (``strategy="twig"``, TwigStack-style).  One global element
stream per pattern node, built column-at-a-time from the read-path
cache's frozen columns (:meth:`~repro.core.readpath.ReadPathCache
.bulk_elements` + :meth:`~repro.core.readpath.ReadPathCache
.segment_list`) with the segment-local → global shift hoisted per
segment.  Stream construction applies the Lazy-Join cross-segment test
(Proposition 3) to each pattern edge: a segment of the child tag whose
ER-tree path holds no segment of the parent tag cannot contribute a
match and is skipped before a single element is emitted — for child
axes only the segment itself and its direct parent segment qualify
(Prop 3(1)).  Branch constraints are then folded into the trunk streams
by per-edge *stack semi-joins* (an open-ancestor watermark for
descendant edges, a level-targeted binary search for child edges —
never a pair list).  For the default record output the trunk itself is
then reduced the same way — successive downward semi-joins keep each
step's elements with a surviving ancestor one edge up, so the whole
evaluation is linear in stream size plus output and no root-to-leaf
chain is ever enumerated.  Only ``bindings=True`` (which must *return*
the chains) materializes them, via the chained per-step stacks of
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

from time import perf_counter

from repro.errors import QueryError
from repro.joins.path_stack import path_stack
from repro.joins.stack_tree import AXIS_CHILD, stack_tree_desc
from repro.obs.metrics import LATENCY_BUCKETS, METRICS
from repro.twig.pattern import WILDCARD, TwigQuery, parse_twig
from repro.twig.plan import PLAN_RECORDER, plan_twig
from repro.twig.summary import PathSummary

__all__ = ["evaluate_twig"]

_STRATEGIES = ("auto", "twig", "pairwise")

_M_CALLS = METRICS.counter(
    "twig.queries", unit="queries", site="evaluate_twig"
)
_M_HOLISTIC = METRICS.counter(
    "twig.holistic", unit="queries", site="evaluate_twig (stack executor)"
)
_M_PAIRWISE = METRICS.counter(
    "twig.pairwise",
    unit="queries",
    site="evaluate_twig (edge-decomposition executor)",
)
_M_FALLBACK = METRICS.counter(
    "twig.fallback_path",
    unit="queries",
    site="evaluate_twig (delegated to the plan_path pipeline)",
)
_M_PRUNED = METRICS.counter(
    "twig.pruned",
    unit="queries",
    site="evaluate_twig (answered [] from the path summary alone)",
)
_H_SECONDS = METRICS.histogram(
    "twig.seconds",
    unit="seconds",
    site="evaluate_twig",
    boundaries=LATENCY_BUCKETS,
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
    if not db.log.query_ready:
        raise QueryError(
            "update log is not query-ready; call prepare_for_query() "
            "(required in LS mode)"
        )
    enabled = METRICS.enabled
    start = perf_counter() if enabled else 0.0
    if summary is None:
        summary = getattr(db, "path_summary", None)
        if summary is None:
            summary = PathSummary(db.log)
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
        _M_CALLS.inc()
        _H_SECONDS.observe(perf_counter() - start)
    return result


def _execute(db, query, plan, chosen, bindings, context, summary):
    if plan.empty:
        if METRICS.enabled:
            _M_PRUNED.inc()
        return []
    if chosen == "pairwise" and query.is_plain:
        # The existing selectivity-ordered Lazy-Join pipeline (with its
        # read-path join memo) is the pairwise executor for plain chains.
        from repro.core.query import evaluate_path

        if METRICS.enabled:
            _M_FALLBACK.inc()
        result = evaluate_path(
            db, query.to_path_query(), bindings=bindings, context=context
        )
        if bindings:
            result = sorted(result, key=_chain_record_key)
        return result
    streams = _build_streams(db, query, summary, context)
    if chosen == "twig":
        if METRICS.enabled:
            _M_HOLISTIC.inc()
        if not bindings:
            matches = _holistic_outputs(query, streams)
            if context is not None:
                context.check_deadline()
                context.charge_rows(len(matches))
            out = [e.record for e in matches]
            out.sort(key=lambda r: (r.sid, r.start))
            return out
        chains = _holistic_chains(query, streams)
    else:
        if METRICS.enabled:
            _M_PAIRWISE.inc()
        chains = _pairwise(query, streams, context)
    if context is not None:
        context.check_deadline()
        context.charge_rows(len(chains))
    if bindings:
        return sorted(
            (tuple(e.record for e in chain) for chain in chains),
            key=_chain_record_key,
        )
    seen = set()
    out = []
    for chain in chains:
        record = chain[-1].record
        if record not in seen:
            seen.add(record)
            out.append(record)
    out.sort(key=lambda r: (r.sid, r.start))
    return out


def _chain_record_key(chain):
    return tuple((r.sid, r.start, r.end, r.level) for r in chain)


# ----------------------------------------------------------------------
# stream construction (shared by both executors)


def _build_streams(db, query, summary, context):
    """One predicate-filtered global stream per pattern node, preorder.

    Preorder guarantees a node's pattern parent is built first, which the
    positional filter needs (it counts same-tag children under elements
    of the parent's *final* stream).
    """
    parents = {child.index: parent for parent, child in query.edges()}
    streams: list[list | None] = [None] * len(query.nodes)
    for node in query.nodes:
        parent = parents.get(node.index)
        keep_sids = None
        if parent is not None and not parent.is_wildcard and not node.is_wildcard:
            keep_sids = summary.segment_sids(parent.tag)
        stream = _tag_stream(
            db, node.tag, axis=node.axis, keep_sids=keep_sids, context=context
        )
        if node.position is not None:
            parent_stream = streams[parent.index] if parent is not None else []
            stream = _positional_filter(parent_stream, stream, node.position)
        if node.value is not None:
            stream = _value_filter(db, stream, node.value)
        streams[node.index] = stream
    return streams


def _tag_stream(db, tag, *, axis, keep_sids, context):
    if tag == WILDCARD:
        registry = db.log.tags
        out = []
        for tid in range(len(registry)):
            out.extend(_tid_stream(db, tid, None, axis, context))
    else:
        tid = db.log.tags.tid_of(tag)
        if tid is None:
            return []
        out = _tid_stream(db, tid, keep_sids, axis, context)
    # Segments interleave in global coordinates (a child segment's span
    # nests inside its parent's), so the concatenation needs one sort —
    # same contract as LazyXMLDatabase.global_elements.
    out.sort(key=lambda e: e.start)
    return out


def _tid_stream(db, tid, keep_sids, axis, context):
    """One tag's elements in global coordinates, off the frozen columns.

    ``keep_sids`` — the segments holding the pattern-parent's tag — is
    the Lazy-Join cross-segment test applied at stream-build time: a
    segment whose ER-tree path misses every parent segment (for child
    axes: whose own sid and direct parent sid both miss) cannot
    contribute a match and is skipped wholesale.
    """
    readpath = getattr(db, "readpath", None)
    if readpath is None:
        return list(db.global_elements(db.log.tags.name_of(tid), context=context))
    from repro.core.database import GlobalElement

    csl = readpath.segment_list(tid)
    columns = readpath.bulk_elements(tid)
    child_axis = axis == AXIS_CHILD
    out = []
    for entry, node in zip(csl.entries, csl.nodes):
        if keep_sids is not None:
            path = entry.path
            if child_axis:
                if path[-1] not in keep_sids and (
                    len(path) < 2 or path[-2] not in keep_sids
                ):
                    continue
            elif keep_sids.isdisjoint(path):
                continue
        compiled = columns.get(node.sid)
        if not compiled:
            continue
        if context is not None:
            context.tick()
        to_global = node.to_global
        for record in compiled.records:
            out.append(
                GlobalElement(
                    to_global(record.start),
                    to_global(record.end, count_ties=False),
                    record.level,
                    record,
                )
            )
    return out


# ----------------------------------------------------------------------
# predicate filters (shared by both executors)


def _value_filter(db, stream, value):
    """Keep elements whose raw inner text equals ``value``.

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
    out = []
    for e in stream:
        s = text[e.start:e.end]
        open_end = s.find(">")
        close_start = s.rfind("<")
        inner = s[open_end + 1:close_start] if 0 <= open_end < close_start else ""
        if inner == value:
            out.append(e)
    return out


def _positional_filter(parents, children, n):
    """Keep each child that is the ``n``-th same-tag child of its parent.

    The element parent of a child-axis match is the unique containing
    element one level up; a child whose element parent is absent from
    ``parents`` (the parent step's stream) cannot match and is dropped.
    Ordinals count *all* same-tag children of that parent in document
    order, independent of other predicates.
    """
    if not parents or not children:
        return []
    out = []
    counts: dict[int, int] = {}
    stack: list[tuple[int, int, int, int]] = []  # (start, end, level, index)
    pi = 0
    for d in children:
        while pi < len(parents) and parents[pi].start < d.start:
            p = parents[pi]
            while stack and stack[-1][1] <= p.start:
                stack.pop()
            stack.append((p.start, p.end, p.level, pi))
            pi += 1
        while stack and stack[-1][1] <= d.start:
            stack.pop()
        # Open parents nest, so levels increase bottom-to-top: binary
        # search for the (unique) one exactly one level up.
        target = d.level - 1
        lo, hi = 0, len(stack) - 1
        found = None
        while lo <= hi:
            mid = (lo + hi) // 2
            level = stack[mid][2]
            if level == target:
                found = mid
                break
            if level < target:
                lo = mid + 1
            else:
                hi = mid - 1
        if found is None:
            continue
        p_start, p_end, _, key = stack[found]
        if p_end < d.end:
            continue
        count = counts.get(key, 0) + 1
        counts[key] = count
        if count == n:
            out.append(d)
    return out


# ----------------------------------------------------------------------
# the holistic executor


def _edge_satisfied(parents, children, axis):
    """Existence semi-join: which parent elements have a qualifying child.

    One merge pass over the two start-sorted streams with a stack of
    open parent elements.  A descendant-axis child satisfies *every*
    open parent, recorded O(1) with a watermark (all entries below the
    watermark height are satisfied); a child-axis child satisfies only
    the open parent exactly one level up, found by binary search (open
    parents nest, so stack levels are strictly increasing).  No pair is
    ever materialized.
    """
    sat = [False] * len(parents)
    if not parents or not children:
        return sat
    child_axis = axis == AXIS_CHILD
    stack: list[int] = []  # indices into parents, innermost on top
    marked: list[bool] = []  # child-axis per-entry marks
    watermark = 0  # stack heights below this are satisfied

    def pop():
        nonlocal watermark
        index = stack.pop()
        flag = marked.pop()
        if flag or len(stack) < watermark:
            sat[index] = True
        if watermark > len(stack):
            watermark = len(stack)

    pi = 0
    for f in children:
        while pi < len(parents) and parents[pi].start < f.start:
            p = parents[pi]
            while stack and parents[stack[-1]].end <= p.start:
                pop()
            stack.append(pi)
            marked.append(False)
            pi += 1
        while stack and parents[stack[-1]].end <= f.start:
            pop()
        if not stack:
            continue
        if parents[stack[-1]].end < f.end:
            continue  # overlap without containment cannot happen in a
            # well-formed forest; guard anyway
        if child_axis:
            target = f.level - 1
            lo, hi = 0, len(stack) - 1
            while lo <= hi:
                mid = (lo + hi) // 2
                level = parents[stack[mid]].level
                if level == target:
                    marked[mid] = True
                    break
                if level < target:
                    lo = mid + 1
                else:
                    hi = mid - 1
        else:
            watermark = len(stack)
    while stack:
        pop()
    return sat


def _has_ancestor(parents, children, axis):
    """Downward semi-join: which child elements have a qualifying parent.

    The dual of :func:`_edge_satisfied` — same single merge pass over
    the start-sorted streams with a stack of open parents, but recording
    satisfaction on the *children*: a descendant-axis child qualifies
    when any parent is open around it, a child-axis child when the open
    parent exactly one level up exists (binary search; open parents
    nest, so stack levels are strictly increasing).
    """
    keep = [False] * len(children)
    if not parents or not children:
        return keep
    child_axis = axis == AXIS_CHILD
    stack: list = []  # open parent elements, innermost on top
    pi = 0
    for ci, d in enumerate(children):
        while pi < len(parents) and parents[pi].start < d.start:
            p = parents[pi]
            while stack and stack[-1].end <= p.start:
                stack.pop()
            stack.append(p)
            pi += 1
        while stack and stack[-1].end <= d.start:
            stack.pop()
        if not stack or stack[-1].end < d.end:
            continue
        if child_axis:
            target = d.level - 1
            lo, hi = 0, len(stack) - 1
            while lo <= hi:
                mid = (lo + hi) // 2
                level = stack[mid].level
                if level == target:
                    keep[ci] = True
                    break
                if level < target:
                    lo = mid + 1
                else:
                    hi = mid - 1
        else:
            keep[ci] = True
    return keep


def _branch_filtered_trunk(query, streams):
    """Trunk streams with every branch constraint semi-joined in."""

    def branch_filtered(node):
        stream = streams[node.index]
        for branch in node.branches:
            if not stream:
                break
            branch_stream = branch_filtered(branch)
            keep = _edge_satisfied(stream, branch_stream, branch.axis)
            stream = [e for e, k in zip(stream, keep) if k]
        return stream

    return [branch_filtered(node) for node in query.trunk]


def _holistic_outputs(query, streams):
    """Distinct output-step elements, no chain enumeration.

    After the branch folds, an output element matches iff an ancestor
    path through the trunk exists — existence, not enumeration, so each
    trunk edge is one downward semi-join and the survivors of the last
    step *are* the answer.  This is where the holistic executor beats
    the pairwise decomposition structurally: its work is linear in the
    streams while pair lists can be quadratic.
    """
    trunk_streams = _branch_filtered_trunk(query, streams)
    if any(not stream for stream in trunk_streams):
        return []
    current = trunk_streams[0]
    for node, stream in zip(query.trunk[1:], trunk_streams[1:]):
        keep = _has_ancestor(current, stream, node.axis)
        current = [e for e, k in zip(stream, keep) if k]
        if not current:
            return []
    return current


def _holistic_chains(query, streams):
    """Branch semi-joins bottom-up, then chained stacks over the trunk."""
    trunk_streams = _branch_filtered_trunk(query, streams)
    if any(not stream for stream in trunk_streams):
        return []
    axes = [node.axis for node in query.trunk]
    return path_stack(trunk_streams, axes)


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
