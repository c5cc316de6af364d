"""The compiled read path: correctness and invalidation guards.

Four concerns, mirroring the module's contract (``repro.core.readpath``):

- **parity** — cold (after ``clear()``), memo-hit and memo-bypassed
  (``stats=``, the from-scratch merge) joins must return identical pair
  lists (same pairs, same order);
- **invalidation** — version-keyed entries revalidate exactly when the
  underlying structure changed: hits on repeat lookups, one invalidation
  (not a flush) per touched structure, eager drops on segment removal;
- **span columns** — the gp-free global spans the twig engine assembles
  its streams from equal ``to_global`` record for record after every step
  of a random update history, the lookup after a lookup is a hit, and the
  twig after a one-segment update derives what the update touched;
- **version exactness** — the property the whole design leans on: a
  structure's version counter bumps *iff* its observable state changed.
  Never bumping on change means stale answers; always bumping (e.g. on
  every gp shift) means the cache never hits.  Driven by seeded random
  insert/remove/repack sequences via hypothesis.

The ``perf_smoke`` marked test is the CI perf-smoke gate: a small join
workload run twice must hit the cache on the second pass.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import readpath as readpath_module
from repro.core.database import LazyXMLDatabase
from repro.core.element_index import ElementRecord
from repro.core.ertree import DUMMY_ROOT_SID, ERNode
from repro.core.join import JoinStatistics
from repro.workloads.generator import generate_fragment, tag_pool
from repro.workloads.join_mix import build_join_mix, sweep_configs

from tests.helpers import normalized_join
from tests.oracle import (
    _random_removal,
    replay_random_sequence,
    safe_insert_positions,
)
from tests.test_join_chunks import _HISTORY, _replay
from tests.test_log_maintenance import _form, _loaded


def _mix_db(n_segments: int = 12, fraction: float = 0.5) -> LazyXMLDatabase:
    config = sweep_configs(n_segments, "nested", [fraction])[0]
    db = LazyXMLDatabase()
    build_join_mix(db, config)
    return db


def _ids(pairs):
    return [((a.sid, a.start), (d.sid, d.start)) for a, d in pairs]


# ----------------------------------------------------------------------
# parity: cold, warm and from-scratch return the same answer


def test_enabled_disabled_and_memo_parity():
    """Cold (``clear()``), warm (memo hit) and from-scratch (``stats=``)
    agree.  The name predates the removal of the cache's off switch:
    ``clear()`` is what "disabled" became."""
    db = _mix_db()
    first = db.structural_join("a", "d")          # compiles + stores memo
    warm = db.structural_join("a", "d")           # memo hit
    bypass = db.structural_join("a", "d", stats=JoinStatistics())
    db.readpath.clear()
    assert not any(db.readpath.stats()["entries"].values())
    misses = db.readpath.misses
    cold = db.structural_join("a", "d")           # recompiles everything
    assert db.readpath.misses > misses
    assert _ids(first) == _ids(bypass)
    assert _ids(warm) == _ids(bypass)
    assert _ids(cold) == _ids(bypass)
    # A memo hit hands back the stored answer itself, which has no
    # mutators, and it equals the from-scratch merge's list.
    assert warm is first and not hasattr(warm, "append")
    assert warm == bypass and bypass == warm


# ----------------------------------------------------------------------
# invalidation: hits on repeats, per-structure staleness, eager drops


def test_repeat_lookups_hit():
    db = _mix_db(8)
    rp = db.readpath
    tid = db.log.tags.tid_of("d")
    sid = db.log.taglist.nodes(tid)[0].sid
    first = rp.elements(tid, sid)
    hits = rp.hits
    assert rp.elements(tid, sid) is first
    node = db.log.node(sid)
    assert rp.push_elements(tid, node) is rp.push_elements(tid, node)
    assert rp.hits > hits


def test_elements_are_the_element_index_blocks_own_views():
    """One home for a segment's elements: the read path holds no copy (its
    ``elements`` is the block's view, not a cache of it) and neither does
    the database."""
    db = _mix_db(8)
    for tid in (db.log.tags.tid_of("a"), db.log.tags.tid_of("d"), None):
        for node in list(db.log.ertree.nodes())[1:]:
            view = db.readpath.elements(tid, node.sid)
            assert view is db.index.block(node.sid).tag(tid)
    assert not hasattr(db, "_segment_elements")
    assert not hasattr(db.readpath, "_elements")
    db.readpath.clear()  # derived state only: the views stand
    assert db.readpath.elements(tid, node.sid) is view


def test_update_invalidates_only_touched_structures():
    db = LazyXMLDatabase()
    db.insert("<a><d>one</d></a>")
    db.insert("<b><e>two</e></b>")
    rp = db.readpath
    tids = {tag: db.log.tags.tid_of(tag) for tag in "abde"}
    db.structural_join("a", "d")
    answer_b = db.structural_join("b", "e")
    nodes_a = db.log.taglist.nodes(tids["a"])
    # A new <a> document patches tag a's segment list where it stands and
    # must leave the b//e memo whole — invalidation is O(touched
    # structures), not a flush.
    db.insert("<a><d>three</d></a>")
    assert db.log.taglist.nodes(tids["a"]) is nodes_a and len(nodes_a) == 2
    misses = rp.misses
    assert db.structural_join("b", "e") is answer_b
    assert rp.misses == misses
    assert len(db.structural_join("a", "d")) == 2
    assert rp.misses == misses + 1


def test_element_arrays_invalidate_on_in_segment_removal():
    db = LazyXMLDatabase()
    db.insert("<a><d>x</d><d>y</d></a>")
    rp = db.readpath
    tid = db.log.tags.tid_of("d")
    sid = db.log.taglist.nodes(tid)[0].sid
    node = db.log.node(sid)
    before = rp.elements(tid, sid)
    assert len(before) == 2 and rp.span_columns(tid, node) is before
    d_first = db.global_elements("d")[0]
    db.remove(d_first.start, d_first.end - d_first.start)
    invalidations = rp.invalidations
    after = rp.elements(tid, sid)
    assert after is not before
    assert len(after) == 1 and len(before) == 2  # replaced, not edited
    # What was compiled from the old block is found stale, not served.
    assert rp.span_columns(tid, node).records == after.records
    assert rp.invalidations == invalidations + 1


def test_whole_segment_removal_drops_compiled_entries():
    db = LazyXMLDatabase()
    db.insert("<a><d>x</d></a>")
    db.insert("<a><d>y</d></a>")
    db.structural_join("a", "d")  # warm everything
    # ... the span columns too, per tag and all-tags (streams are built
    # for bindings; without them a twig reads its memo)
    db.twig_query("a/*", bindings=True)
    db.insert("<d>z</d>", len("<a>"))  # a child: a push list to hold
    db.structural_join("a", "d")
    db.twig_query("a/*", bindings=True)
    rp = db.readpath
    node = [
        n for n in db.log.ertree.nodes() if n.sid != DUMMY_ROOT_SID
    ][0]
    sid = node.sid
    held = len(rp._push[sid]) + len(rp._spans[sid])
    assert held >= 3 and None in rp._spans[sid]
    child = node.children[0].sid
    held += len(rp._spans[child])
    assert db.index.block(sid)
    invalidations = rp.invalidations
    db.remove(node.gp, node.length)
    for dead in (sid, child):
        assert dead not in rp._push and dead not in rp._spans
        assert not db.index.block(dead)  # the block, and its views with it
    # Every entry the segments held counts as one invalidation, no more.
    assert rp.invalidations == invalidations + held


def test_join_memo_invalidates_when_either_tag_changes():
    db = LazyXMLDatabase()
    db.insert("<a><d>x</d></a>")
    first = db.structural_join("a", "d")
    assert db.readpath.stats()["entries"]["memos"] == 1
    db.insert("<d>solo</d>")  # touches d only; memo for (a, d) is stale
    second = db.structural_join("a", "d")
    assert _ids(second) == _ids(first)  # the new top-level <d> joins nothing
    db.check_invariants()


def test_repack_invalidates_relabelled_tag():
    db = LazyXMLDatabase()
    db.insert("<a>outer</a>")
    inner = db.insert("<a><d>x</d></a>", position=len("<a>"))
    spans_before = sorted(
        (db.global_span(a), db.global_span(d))
        for a, d in db.structural_join("a", "d")
    )
    db.repack(inner.sid)  # relabels; the memoized answer holds stale records
    spans_after = sorted(
        (db.global_span(a), db.global_span(d))
        for a, d in db.structural_join("a", "d")
    )
    assert spans_after == spans_before
    db.check_invariants()


# ----------------------------------------------------------------------
# span columns: to_global minus gp, cached while nothing they read moved


def assert_span_columns_are_to_global(db: LazyXMLDatabase) -> None:
    """Every ``(tid, sid)`` and every all-tags ``(None, sid)``: the cached
    columns are ``to_global`` minus ``gp`` record for record, and the
    lookup after the lookup recompiles nothing."""
    rp = db.readpath
    for node in list(db.log.ertree.nodes())[1:]:
        per_tag = [
            (
                tid,
                [
                    ElementRecord(node.sid, start, end, level)
                    for held, start, end, level in db.index.block(node.sid).rows()
                    if held == tid
                ],
            )
            for tid in range(len(db.log.tags))
        ]
        everything = sorted(
            (r for _, records in per_tag for r in records), key=lambda r: r.start
        )
        for tid, records in (*per_tag, (None, everything)):
            columns = rp.span_columns(tid, node)
            assert list(columns.records) == records, (tid, node.sid)
            assert list(columns.levels) == [r.level for r in records]
            assert list(zip(columns.starts, columns.ends)) == [
                (
                    node.to_global(r.start) - node.gp,
                    node.to_global(r.end, count_ties=False) - node.gp,
                )
                for r in records
            ], (tid, node.sid)
            misses = rp.misses
            assert rp.span_columns(tid, node) is columns
            assert rp.misses == misses, (tid, node.sid)


@settings(max_examples=60, deadline=None)
@given(_HISTORY)
def test_ld_history_span_columns_equal_to_global(ops):
    _replay("dynamic", ops, assert_span_columns_are_to_global)


@settings(max_examples=40, deadline=None)
@given(_HISTORY)
def test_ls_history_span_columns_equal_to_global(ops):
    _replay("static", ops, assert_span_columns_are_to_global)


def test_span_columns_go_stale_when_touch_stops_bumping_the_version(monkeypatch):
    """The property above is what ``ERNode._touch`` buys: with the version
    bump gone (the coordinate memo still dropped, so ``to_global`` itself
    stays right) a child insertion leaves the parent's offsets stale."""
    ops = [("insert", 0, 0), ("insert", 3, 3)]  # <a><b>x</b></a>, <a/> inside it
    _replay("dynamic", ops, assert_span_columns_are_to_global)
    monkeypatch.setattr(ERNode, "_touch", lambda self: setattr(self, "_rp", None))
    with pytest.raises(AssertionError):
        _replay("dynamic", ops, assert_span_columns_are_to_global)


def test_span_columns_are_counted_and_cleared():
    db = LazyXMLDatabase()
    db.insert("<a><b>x</b></a>")
    db.insert("<b>y</b>", len("<a>"))  # nested: the outer labels shift
    rp = db.readpath
    # The columns its streams read (pairwise: no twig memo to count).
    db.twig_query("a/*", bindings=True, strategy="pairwise")
    entries = rp.stats()["entries"]
    # a and the all-tags columns of the outer segment, all-tags of the
    # inner one.  Element views are the element index's, not entries here.
    assert entries["span_columns"] == 3 and "elements" not in entries
    # 16 bytes a row for the outer segment's two sets of offset columns
    # (the inner segment's span columns are its block's view again), and
    # 8 a row for its parent rows, which the nested insert's depth probe
    # read.
    assert rp.approximate_bytes() == 16 * 3 + 8 * 2
    # The index counts the columns: 32 a row per block, 8 a row for each
    # all-tags view's records, 32 for the outer segment's one-row a view
    # (a one-tag segment's per-tag view is its all-tags one), 8 for each
    # of the two writes its journal holds, 16 for each tag count the
    # blocks keep from their inserts (a and b outside, b inside).
    assert db.index.approximate_bytes() == 32 * 3 + 8 * 3 + 32 + 8 * 2 + 16 * 3
    rp.clear()
    assert not any(rp.stats()["entries"].values())
    assert rp.approximate_bytes() == 0
    assert db.index.approximate_bytes() == 32 * 3 + 8 * 3 + 32 + 8 * 2 + 16 * 3


def test_joins_and_paths_share_one_memo_table():
    """One join and one path query: two memos of the one kind the read
    path keeps, a join's one level beside a path's two."""
    db = LazyXMLDatabase()
    db.insert("<a><b>x</b></a>")
    db.structural_join("a", "b")
    db.path_query("a/b")
    entries = db.readpath.stats()["entries"]
    assert [name for name in entries if name.startswith(("join", "path"))] == []
    assert (entries["memos"], entries["memo_entries"]) == (2, 3)


def test_join_memo_and_write_journal_are_counted():
    """The memo's entries and bytes follow its entry lists; the element
    index counts its journal's sids."""
    db = LazyXMLDatabase()
    for _ in range(3):
        db.insert("<a><b>x</b><b>y</b></a>")
    db.insert("<c/>")
    rp = db.readpath
    # 8 a sid a write, 16 a tag count the blocks keep (a and b thrice, c).
    assert db.index.approximate_bytes() == 32 * 10 + 8 * 4 + 16 * 7
    assert len(db.structural_join("a", "b")) == 6
    index_bytes = db.index.approximate_bytes()  # now with the views cut
    assert rp.stats()["entries"]["memo_entries"] == 3
    # 8 bytes a pair (its reference from its entry), 16 an entry (its sid
    # and its reference).
    assert rp.approximate_bytes() == 8 * 6 + 16 * 3
    receipt = db.insert("<a><b>z</b></a>")
    assert len(db.structural_join("a", "b")) == 7
    assert rp.stats()["entries"]["memo_entries"] == 4
    assert rp.approximate_bytes() == 8 * 7 + 16 * 4
    db.remove_segment(receipt.sid)
    db.structural_join("a", "b")
    assert rp.stats()["entries"]["memo_entries"] == 3
    assert rp.approximate_bytes() == 8 * 6 + 16 * 3
    assert db.index.approximate_bytes() == index_bytes + 8 * 2


#: Seven patterns over the ``_form`` corpus: branches, child and descendant
#: axes, a positional and a value predicate, a wildcard step under a child
#: axis, a wildcard entry step, and one the summary prunes.
_FORM_SUITE = (
    "form[f3]//f7",
    "form/f1",
    "form[id]/f2[1]",
    'form[f5="v7"]/id',
    "form/*",
    "*[f9]",
    "form[nosuch]//f1",
)
#: The trunk tags the suite names that a form holds (a binding chain
#: reads its branches off the twig memo, not off a stream); its wildcards
#: read the all-tags columns, one more key per segment.
_FORM_SUITE_KEYS = len({"form", "f7", "f1", "f2", "id"}) + 1


@pytest.mark.perf_smoke
def test_twig_after_update_derives_only_the_touched_segments(monkeypatch):
    """Counts, not seconds: span-column derivations (one per missed
    ``(tid, sid)`` key) of the seven-pattern suite's streams (built for
    its binding chains: without them a twig reads its memo,
    ``tests/test_twig_memo.py``) after a tail insert, after an insert
    inside that form, and after taking the form back."""
    derived = []
    real = readpath_module.span_offsets

    def counting(compiled, node):
        derived.append(node.sid)
        return real(compiled, node)

    monkeypatch.setattr(readpath_module, "span_offsets", counting)

    def suite_cost(db) -> int:
        del derived[:]
        for expression in _FORM_SUITE:
            db.twig_query(expression, bindings=True)
        return len(derived)

    shapes = []
    for forms in (250, 4_000):
        db, _rate = _loaded(forms)
        assert suite_cost(db) == forms * _FORM_SUITE_KEYS  # cold: everything
        assert suite_cost(db) == 0
        receipt = db.insert(_form(1_000_000))
        after_insert = suite_cost(db)
        db.insert("<f3>nested</f3>", receipt.gp + len("<form>"))
        after_nested = suite_cost(db)
        db.remove_segment(receipt.sid)
        shapes.append((after_insert, after_nested, suite_cost(db)))
    # Touched path segments x the keys the suite reads there: the new
    # segment alone; then the form again (its offsets moved) plus the
    # nested segment's all-tags columns (its one tag, f3, is a branch);
    # nothing after a whole-segment remove.  No term follows the corpus.
    assert shapes[0] == (_FORM_SUITE_KEYS, _FORM_SUITE_KEYS + 1, 0)
    assert shapes[0] == shapes[1]


@pytest.mark.perf_smoke
def test_join_after_update_cuts_only_the_views_it_reads():
    """Counts, not seconds: a form holds 18 tags and an ``a//b`` join reads
    two of them, so after a tail insert the new segment's block holds
    exactly those two views — per-tag columns are cut on demand, never at
    insert (eagerly they cost 8-14 % of ``peak_rss_mb``, DESIGN.md §5
    finding 13) — on 250 forms and on 4 000 alike."""
    shapes = []
    for forms in (250, 4_000):
        db, _rate = _loaded(forms)
        assert not any(db.index.block(sid)._views for sid in db.index.sids())
        db.structural_join("form", "f3")
        receipt = db.insert(_form(1_000_000))
        block = db.index.block(receipt.sid)
        assert len(set(block.tids)) == 18 and block._views == {}
        db.structural_join("form", "f3")
        held = [len(db.index.block(sid)._views) for sid in db.index.sids()]
        shapes.append((set(block._views), max(held), sum(held) - 2 * forms))
    read = {db.log.tags.tid_of("form"), db.log.tags.tid_of("f3")}
    assert shapes[0] == shapes[1] == (read, 2, 2)


# ----------------------------------------------------------------------
# version exactness: bump iff observable state changed


def _segment_states(db):
    versions, states = {}, {}
    for node in db.log.ertree.nodes():
        if node.sid == DUMMY_ROOT_SID:
            continue
        sid = node.sid
        versions[sid] = db.index.version(sid)
        states[sid] = tuple(db.index.block(sid).rows())
    return versions, states


def _node_states(db):
    states = {}
    for node in db.log.ertree.nodes():
        states[node.sid] = (
            node._version,
            tuple((c.sid, c.lp, c.length) for c in node.children),
        )
    return states


def _assert_version_exactness(before, after, what):
    versions_b, states_b = before
    versions_a, states_a = after
    for key in versions_b.keys() & versions_a.keys():
        bumped = versions_a[key] != versions_b[key]
        changed = states_a[key] != states_b[key]
        assert bumped == changed, (
            f"{what} {key}: version "
            f"{'bumped without' if bumped else 'stale despite'} an "
            "observable state change"
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_version_counters_bump_exactly_on_observable_change(seed):
    rng = random.Random(seed)
    tags = tag_pool(4)
    db = LazyXMLDatabase()
    db.insert(generate_fragment(5, tags, rng=rng, max_depth=3))
    for _ in range(6):
        seg_b = _segment_states(db)
        nodes_b = _node_states(db)
        roll = rng.random()
        if roll < 0.25 and db.document_length:
            removal = _random_removal(db, rng, tags)
            if removal is None:
                continue
            db.remove(*removal)
        elif roll < 0.35:
            live = [
                n.sid
                for n in db.log.ertree.nodes()
                if n.sid != DUMMY_ROOT_SID
            ]
            if not live:
                continue
            db.repack(rng.choice(live))
        else:
            fragment = generate_fragment(
                1 + rng.randrange(4), tags, rng=rng, max_depth=3
            )
            db.insert(fragment, rng.choice(safe_insert_positions(db.text)))
        _assert_version_exactness(seg_b, _segment_states(db), "segment")
        # ER-node compiled state: staleness is the fatal direction — any
        # observable child change must have touched the node.  (Spurious
        # touches are permitted: ancestors recompile when descendant
        # lengths shift even if their direct child tuple is unchanged.)
        nodes_a = _node_states(db)
        for sid in nodes_b.keys() & nodes_a.keys():
            vb, cb = nodes_b[sid]
            va, ca = nodes_a[sid]
            if cb != ca:
                assert va != vb, f"ER node {sid} stale after child change"
        db.check_invariants()


def test_queries_never_bump_versions():
    db = _mix_db(8)
    before_segs = _segment_states(db)[0]
    db.structural_join("a", "d")
    db.structural_join("a", "d", stats=JoinStatistics())
    db.structural_join("d", "a")
    assert _segment_states(db)[0] == before_segs


# ----------------------------------------------------------------------
# CI perf smoke: warm second pass


@pytest.mark.perf_smoke
def test_perf_smoke_second_pass_hits_and_envelope_validates():
    """The second pass hits.  The name predates the removal of the
    benchmark envelope this test also used to write and validate."""
    db = _mix_db(10)
    queries = [("a", "d"), ("d", "a")]
    for tag_a, tag_d in queries:
        db.structural_join(tag_a, tag_d)  # first pass: compile + store
    hits_before = db.readpath.hits
    for tag_a, tag_d in queries:
        db.structural_join(tag_a, tag_d)
    stats = db.readpath.stats()
    assert db.readpath.hits > hits_before, "second pass never hit the cache"
    assert stats["hit_rate"] > 0.0
    assert stats["entries"]["memos"] == len(queries)


# ----------------------------------------------------------------------
# memo exactness against the string-splice oracle: miss iff state changed


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_memos_miss_iff_state_changed(seed):
    """Interleaved updates/queries: invalidation is exact both ways.

    No update between two identical queries ⇒ zero new compile misses
    (the segment-list / element / join memos all revalidate as hits);
    an update between them ⇒ the next answers still match the oracle
    (nothing stale survived the version bumps).
    """
    result = replay_random_sequence(seed, n_ops=4)
    db, ref = result.db, result.reference
    rng = random.Random(seed + 1)
    tags = result.tags[:3]
    probes = [(a, d) for a in tags for d in tags if a != d]

    for _ in range(3):
        warm = {}
        for a, d in probes:
            warm[(a, d)] = normalized_join(db, db.structural_join(a, d))
            assert warm[(a, d)] == sorted(ref.join(a, d)), result.ops
        misses_before = db.readpath.misses
        for a, d in probes:
            assert normalized_join(db, db.structural_join(a, d)) == (
                warm[(a, d)]
            )
        assert db.readpath.misses == misses_before, (
            "repeated identical queries recompiled something: a memo "
            "invalidated without an observable state change"
        )

        removal = None
        if rng.random() < 0.4 and db.document_length:
            removal = _random_removal(db, rng, tags)
        if removal is not None:
            position, length = removal
            db.remove(position, length)
            ref.remove(position, length)
        else:
            fragment = generate_fragment(3, tags, rng=rng, max_depth=3)
            position = rng.choice(safe_insert_positions(ref.text))
            db.insert(fragment, position)
            ref.insert(fragment, position)

        for a, d in probes:
            got = normalized_join(db, db.structural_join(a, d))
            assert got == sorted(ref.join(a, d)), (
                "post-update answer diverged from the oracle: a memo "
                "served stale compiled state",
                result.ops,
            )


def test_lattice_memo_populates_and_survives_unrelated_updates():
    """The per-pair memo is the join memo now (the path lattice is gone):
    one memo per tag pair, one entry per D-segment holding a pair, a
    repeat reads it."""
    db = replay_random_sequence(7, n_ops=6).db
    tags = [db.log.tags.name_of(tid) for tid in range(len(db.log.tags))]
    live = [t for t in tags if db.log.tags.tid_of(t) is not None][:2]
    if len(live) < 2:
        pytest.skip("seed produced fewer than two live tags")
    a, d = live
    pairs = db.structural_join(a, d)
    entries = db.readpath.stats()["entries"]
    assert entries["memos"] == 1
    assert entries["memo_entries"] == len({pair[1].sid for pair in pairs})
    misses_before = db.readpath.misses
    db.structural_join(a, d)
    assert db.readpath.misses == misses_before
