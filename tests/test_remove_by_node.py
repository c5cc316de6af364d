"""A removal by sid is the removal of its span.

``remove_segment(sid)`` unlinks the segment's ER-tree node — Fig. 5 run
backwards — and reads its verdict off the node
(``check_segment_removal``); ``remove(gp, length)`` of the same span runs
Fig. 7 and the span check.  Twin databases, built from one random history
(nested inserts, raw span removes that leave tombstones, repacks, compacts,
documents that stop parsing, segments that tie on gp), take one path each,
several times in a row, and must agree on everything: the verdict (or the
error), the ER-tree rows, the tag lists and their counts, the element
blocks, the trusted and unbalanced marks, the snapshot text, the removed
sids and the join and twig answers.  In LD and in LS.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import storage
from repro.core.database import LazyXMLDatabase
from repro.errors import ReproError
from tests.test_removal_validation import _fragments

_HISTORY = st.tuples(
    st.sampled_from(
        ["insert"] * 5
        + ["remove_tokens"] * 3
        + ["remove_any"] * 2
        + ["remove_segment", "repack", "compact", "tie"]
    ),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    _fragments(),
)

_TOKEN_EDGE = re.compile(r"<|(?<=>)")
_TAGS = ("a", "b")
_TWIGS = ("a//b", "a/b", "a[b]//a", "b[a]/b")


def _play(db: LazyXMLDatabase, kind: str, a: int, b: int, fragment: str) -> None:
    """One history op; a refused one changes nothing and is dropped."""
    text = db.text
    edges = [m.start() for m in _TOKEN_EDGE.finditer(text)] + [len(text)]
    sids = sorted(node.sid for node in db.log.ertree.nodes())[1:]
    try:
        if kind == "insert":
            position = a % (len(text) + 1)
            if b % 4:
                position = min(len(text), edges[a % len(edges)] + (b % 4 - 1) * 2)
            db.insert(fragment, position)
        elif kind == "remove_tokens":
            lo, hi = sorted((edges[a % len(edges)], edges[b % len(edges)]))
            if lo < hi:
                db.remove(lo, hi - lo)
        elif kind == "remove_any" and text:
            db.remove(a % len(text), 1 + b % 12)
        elif kind == "remove_segment" and sids:
            db.remove_segment(sids[a % len(sids)])
        elif kind == "repack" and sids:
            db.repack(sids[a % len(sids)])
        elif kind == "compact":
            db.compact()
        elif kind == "tie":
            # A second root ahead of a document's own stops it parsing, so
            # the prolog before that root can go: the document's segment
            # then starts where its child does — the two tie on gp.
            top = db.insert("<!--h--><t/>")
            db.insert(fragment, top.gp + len("<!--h-->"))
            db.remove(top.gp, len("<!--h-->"))
            if b % 2:
                # And the root after the child: the document's segment is
                # left with no character of its own, its span its child's.
                db.remove(db.log.node(top.sid).end - len("<t/>"), len("<t/>"))
    except ReproError:
        pass


def _state(db: LazyXMLDatabase) -> dict:
    """Everything the two removals must leave equal."""
    taglist, tags = db.log.taglist, db.log.tags
    rows = [
        (n.sid, n.parent and n.parent.sid, n.gp, n.length, n.lp, n.tombstones())
        for n in db.log.ertree.nodes()
    ]
    lists = {
        tags.name_of(tid): (
            [node.sid for node in taglist.nodes(tid)],
            dict(taglist.counts(tid)),
            taglist.total_count(tid),
            tid in taglist._unsorted,
        )
        for tid in taglist.tids()
    }
    blocks = {sid: list(db.index.block(sid).rows()) for sid in db.index.sids()}
    return {
        "rows": rows,
        "lists": lists,
        "blocks": blocks,
        "marks": (sorted(db._trusted), sorted(db._unbalanced)),
        "dumps": storage.dumps(db),  # the text and every segment's entry
    }


def _answers(db: LazyXMLDatabase) -> dict:
    """Join and twig answers, on the query-ready state (LS sorts here)."""
    db.prepare_for_query()
    joins = {
        (anc, desc): [
            (pair[0], pair[1]) for pair in db.structural_join(anc, desc)
        ]
        for anc in _TAGS
        for desc in _TAGS
    }
    twigs = {pattern: sorted(db.twig_query(pattern)) for pattern in _TWIGS}
    return {"joins": joins, "twigs": twigs}


def _outcome(call):
    """``call()``'s value, or its refusal as two databases can compare it."""
    try:
        return call()
    except ReproError as exc:
        message = str(exc)
        return type(exc), [m for m in ("mid-tag", "one tag", "crosses") if m in message]


def _removed(outcome) -> tuple:
    return outcome.report.removed_sids, outcome.elements_removed


def _twins(mode: str, history, picks) -> None:
    by_node, by_span = LazyXMLDatabase(mode), LazyXMLDatabase(mode)
    for op in history:
        _play(by_node, *op)
        _play(by_span, *op)
    assert _state(by_node) == _state(by_span)  # the history is deterministic
    for pick in picks:
        nodes = list(by_node.log.ertree.nodes())[1:]
        if not nodes:
            break
        # A third of the picks go to a nested segment and a third to one
        # with segments inside it, where there is one.
        pool = [
            nodes,
            [node for node in nodes if node.depth > 1],
            [node for node in nodes if node.children],
        ][pick % 3] or nodes
        sid = sorted(node.sid for node in pool)[pick % len(pool)]
        node = by_span.log.node(sid)
        gp, length = node.gp, node.length
        # The verdict read off the node is the span's, or the same refusal.
        assert _outcome(lambda: by_node.check_segment_removal(sid)) == _outcome(
            lambda: by_span.check_removal(gp, length)
        )
        assert _outcome(lambda: _removed(by_node.remove_segment(sid))) == _outcome(
            lambda: _removed(by_span.remove(gp, length))
        ), (sid, by_span.text)
        assert _state(by_node) == _state(by_span), (sid, by_span.text)
        by_node.check_invariants()
        by_span.check_invariants()
    assert _answers(by_node) == _answers(by_span)


_PICKS = st.lists(st.integers(0, 10_000), min_size=1, max_size=4)
_SETTINGS = settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_SETTINGS
@given(st.lists(_HISTORY, min_size=1, max_size=14), _PICKS)
def test_ld_remove_segment_is_remove_of_its_span(history, picks):
    _twins("dynamic", history, picks)


@_SETTINGS
@given(st.lists(_HISTORY, min_size=1, max_size=14), _PICKS)
def test_ls_remove_segment_is_remove_of_its_span(history, picks):
    _twins("static", history, picks)
