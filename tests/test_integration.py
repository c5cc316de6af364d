"""System-level integration and property tests.

These exercise the whole stack — text-level updates through the update log
and element index down to structural joins — against the reparse oracle,
including the core invariants the paper claims:

1. element labels are never rewritten by updates (laziness);
2. Lazy-Join over the log equals a join over the reparsed text;
3. LD and LS modes are observationally equivalent after prepare_for_query.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import assert_join_matches_oracle, normalized_join
from repro.core.database import LazyXMLDatabase
from repro.core.element_index import ElementRecord
from repro.joins.stack_tree import std_join
from repro.workloads.generator import generate_fragment, tag_pool
from repro.workloads.scenarios import dblp_stream, registration_stream
from repro.workloads.xmark import XMARK_QUERIES, XMarkConfig, generate_site
from repro.workloads.chopper import chop_text


TAGS = tag_pool(5)
JOIN_PAIRS = [("t0", "t1"), ("t1", "t2"), ("t0", "t0"), ("t2", "t4")]


def random_workload(db: LazyXMLDatabase, rnd: random.Random, steps: int) -> None:
    """Apply a random mixed insert/remove stream of well-formed edits."""
    for step in range(steps):
        if db.segment_count and rnd.random() < 0.3:
            text = db.text
            # Remove a random element span (well-formed removal) ...
            spans = [
                (e.start, e.end)
                for e in _parse_all(text)
                if e.end - e.start < len(text)
            ]
            if spans:
                start, end = rnd.choice(spans)
                db.remove(start, end - start)
                continue
        fragment = generate_fragment(rnd.randint(2, 12), TAGS, seed=rnd.randrange(10**6))
        position = _random_insert_point(db, rnd)
        db.insert(fragment, position)


def _parse_all(text):
    """Element spans of ``text`` in document coordinates (wrapper removed)."""
    from repro.xml.parser import parse

    if not text.strip():
        return []
    shift = len("<w>")

    class _Span:
        __slots__ = ("start", "end")

        def __init__(self, start, end):
            self.start = start
            self.end = end

    return [
        _Span(e.start - shift, e.end - shift)
        for e in parse(f"<w>{text}</w>").elements[1:]
    ]


def _random_insert_point(db: LazyXMLDatabase, rnd: random.Random) -> int:
    text = db.text
    if not text:
        return 0
    # Valid points: document start/end or just after a '>' / before a '<'.
    candidates = [0, len(text)] + [m.end() for m in re.finditer(">", text)]
    return rnd.choice(candidates)


class TestRandomizedWorkloads:
    @pytest.mark.parametrize("seed", range(8))
    def test_joins_match_oracle_throughout(self, seed):
        rnd = random.Random(seed)
        db = LazyXMLDatabase()
        for batch in range(4):
            random_workload(db, rnd, steps=6)
            db.check_invariants()
            for tag_a, tag_d in JOIN_PAIRS:
                assert_join_matches_oracle(db, tag_a, tag_d)
            assert_join_matches_oracle(db, "t0", "t1", axis="child")

    @pytest.mark.parametrize("seed", range(4))
    def test_labels_never_rewritten(self, seed):
        """The core laziness claim: existing index keys survive updates."""
        rnd = random.Random(100 + seed)
        db = LazyXMLDatabase()
        random_workload(db, rnd, steps=8)
        def keys():
            return {
                (tid, ElementRecord(sid, start, end, level))
                for sid in db.index.sids()
                for tid, start, end, level in db.index.block(sid).rows()
            }

        keys_before = keys()
        blocks_before = {sid: db.index.block(sid) for sid in db.index.sids()}
        # Pure insertions: every pre-existing key must survive verbatim.
        for _ in range(5):
            fragment = generate_fragment(rnd.randint(2, 8), TAGS, seed=rnd.randrange(10**6))
            db.insert(fragment, _random_insert_point(db, rnd))
        assert keys_before <= keys()
        # ... in the very blocks that held them: an insertion writes one
        # block and touches no other.
        assert all(db.index.block(sid) is b for sid, b in blocks_before.items())

    @pytest.mark.parametrize("seed", range(4))
    def test_ld_ls_equivalence(self, seed):
        rnd_a = random.Random(200 + seed)
        rnd_b = random.Random(200 + seed)
        ld = LazyXMLDatabase()
        ls = LazyXMLDatabase(mode="static")
        random_workload(ld, rnd_a, steps=10)
        random_workload(ls, rnd_b, steps=10)
        ls.prepare_for_query()
        assert ld.text == ls.text
        for tag_a, tag_d in JOIN_PAIRS:
            assert sorted(ld.structural_join(tag_a, tag_d)) == sorted(
                ls.structural_join(tag_a, tag_d)
            )


class TestScenarioIntegration:
    def test_dblp_batch_updates(self):
        db = LazyXMLDatabase()
        sids = [db.insert(frag).sid for frag in dblp_stream(20)]
        assert_join_matches_oracle(db, "article", "author")
        assert_join_matches_oracle(db, "inproceedings", "booktitle")
        # retract half the entries, interleaved with new arrivals
        for sid in sids[::2]:
            db.remove_segment(sid)
        for frag in dblp_stream(5, seed=77):
            db.insert(frag)
        db.check_invariants()
        assert_join_matches_oracle(db, "article", "author")

    def test_registration_system_with_nested_amendments(self):
        db = LazyXMLDatabase()
        for frag in registration_stream(10):
            db.insert(frag)
        # amend some forms: add an extra interest inside existing
        # preferences blocks, re-locating after every insert (each insert
        # shifts later offsets)
        for _ in range(4):
            match = re.search("<preferences>", db.text)
            db.insert('<interest topic="added"/>', match.end())
        db.check_invariants()
        assert_join_matches_oracle(db, "registration", "interest")
        assert_join_matches_oracle(db, "preferences", "interest", axis="child")

    def test_xmark_chopped_all_queries(self, xmark_text):
        text = xmark_text(scale=0.01, seed=11)
        db, _ = chop_text(text, 20, "balanced", seed=3)
        for _, tag_a, tag_d in XMARK_QUERIES:
            assert_join_matches_oracle(db, tag_a, tag_d)

    def test_xmark_then_updates(self, xmark_text):
        text = xmark_text(scale=0.005, seed=12)
        db, _ = chop_text(text, 8, "balanced")
        # new person registers
        from repro.workloads.xmark import generate_person

        rnd = random.Random(1)
        person = generate_person(rnd, 9999, XMarkConfig()).to_xml()
        db.insert(person, db.text.index("</people>"))
        # someone leaves: remove an existing person element entirely
        first_person = re.search(r"<person [^>]*>.*?</person>", db.text)
        db.remove(first_person.start(), first_person.end() - first_person.start())
        db.check_invariants()
        for _, tag_a, tag_d in XMARK_QUERIES:
            assert_join_matches_oracle(db, tag_a, tag_d)


@st.composite
def workload_scripts(draw):
    seed = draw(st.integers(0, 10_000))
    steps = draw(st.integers(1, 15))
    return seed, steps


class TestHypothesisWorkloads:
    @settings(max_examples=20, deadline=None)
    @given(workload_scripts())
    def test_property_join_equals_oracle(self, script):
        seed, steps = script
        rnd = random.Random(seed)
        db = LazyXMLDatabase()
        random_workload(db, rnd, steps=steps)
        db.check_invariants()
        for tag_a, tag_d in JOIN_PAIRS[:2]:
            assert_join_matches_oracle(db, tag_a, tag_d)

    @settings(max_examples=20, deadline=None)
    @given(workload_scripts())
    def test_property_std_equals_lazy(self, script):
        seed, steps = script
        rnd = random.Random(seed)
        db = LazyXMLDatabase()
        random_workload(db, rnd, steps=steps)
        for tag_a, tag_d in JOIN_PAIRS[:2]:
            lazy = normalized_join(db, db.structural_join(tag_a, tag_d))
            std = normalized_join(db, std_join(db, tag_a, tag_d))
            assert lazy == std
