"""Tests for linear-path chains: :func:`~repro.joins.stack_tree.path_chains`,
one Stack-Tree-Desc per edge, which both twig executors string their
binding chains with.

Unit tests drive :func:`path_chains` on hand-built streams; the parity
class holds the twig executor's holistic strategy on plain chains to a
semi-join chain of from-scratch Lazy-Joins, and its bindings to the
pairwise executor's.
"""

from __future__ import annotations

import random

import pytest

from repro.core.database import LazyXMLDatabase
from repro.errors import QueryError
from repro.joins.stack_tree import path_chains
from repro.twig.evaluate import evaluate_twig
from repro.workloads.generator import GeneratorConfig, generate_tree
from repro.workloads.scenarios import registration_stream
from repro.xml.parser import parse
from tests.helpers import semi_join_path
from typing import NamedTuple


class Interval(NamedTuple):
    start: int
    end: int
    level: int


def streams_from_xml(text: str, tags: list[str]) -> list[list[Interval]]:
    doc = parse(text)
    return [
        [Interval(e.start, e.end, e.level) for e in doc.elements if e.tag == tag]
        for tag in tags
    ]


class TestPathStackUnit:
    def test_two_step_descendant(self):
        streams = streams_from_xml("<a><x><b/></x><b/></a>", ["a", "b"])
        chains = path_chains(streams, ["descendant", "descendant"])
        assert len(chains) == 2
        for anc, desc in chains:
            assert anc.start < desc.start and desc.end <= anc.end

    def test_three_step_chain(self):
        text = "<a><b><c/></b><b><c/><c/></b></a>"
        streams = streams_from_xml(text, ["a", "b", "c"])
        chains = path_chains(streams, ["descendant"] * 3)
        assert len(chains) == 3

    def test_shared_middle_element(self):
        # The b is the middle step of two chains, one per enclosing a.
        text = "<a><a><b><c/></b></a></a>"
        streams = streams_from_xml(text, ["a", "b", "c"])
        chains = path_chains(streams, ["descendant"] * 3)
        assert [anc.start for anc, _, _ in chains] == [0, 3]

    def test_child_axis_enforced(self):
        text = "<a><x><b/></x><b/></a>"
        streams = streams_from_xml(text, ["a", "b"])
        chains = path_chains(streams, ["descendant", "child"])
        assert len(chains) == 1

    def test_repeated_tag_no_self_chains(self):
        text = "<a><a><a/></a></a>"
        streams = streams_from_xml(text, ["a", "a"])
        chains = path_chains(streams, ["descendant", "descendant"])
        assert len(chains) == 3
        assert all(anc.start < desc.start for anc, desc in chains)

    def test_no_match(self):
        streams = streams_from_xml("<r><a/><b/></r>", ["a", "b"])
        assert path_chains(streams, ["descendant", "descendant"]) == []

    def test_single_step(self):
        streams = streams_from_xml("<a><a/></a>", ["a"])
        assert len(path_chains(streams, ["descendant"])) == 2

    def test_empty(self):
        assert path_chains([], []) == []

    def test_mismatched_axes_rejected(self):
        with pytest.raises(QueryError):
            path_chains([[], []], ["descendant"])

    def test_bad_axis_rejected(self):
        with pytest.raises(QueryError):
            path_chains([[]], ["cousin"])

    def test_emitted_in_leaf_order(self):
        # Nested ancestors: the outer a's chain to the last b comes after
        # the inner a's chain to the middle one.
        text = "<a><b/><a><b/></a><x><b/></x></a>"
        streams = streams_from_xml(text, ["a", "b"])
        chains = path_chains(streams, ["descendant", "descendant"])
        leaf_starts = [chain[-1].start for chain in chains]
        assert len(chains) == 4
        assert leaf_starts == sorted(leaf_starts)


class TestAgainstJoinPipeline:
    def spans(self, db, records):
        return sorted({db.global_span(r) for r in records})

    @pytest.mark.parametrize(
        "expression",
        [
            "registration//interest",
            "registration/preferences/interest",
            "registration//contact//city",
            "user/name/first",
            "registration//user//name",
        ],
    )
    def test_registration_paths(self, expression):
        db = LazyXMLDatabase()
        for fragment in registration_stream(6):
            db.insert(fragment)
        joins = self.spans(db, semi_join_path(db, expression))
        holistic = self.spans(db, evaluate_twig(db, expression, strategy="twig"))
        assert joins == holistic, expression

    @pytest.mark.parametrize("seed", range(8))
    def test_random_documents(self, seed):
        rnd = random.Random(seed)
        db = LazyXMLDatabase()
        text = generate_tree(
            GeneratorConfig(
                tags=["t0", "t1", "t2"],
                max_depth=7,
                fanout=(1, 3),
                seed=seed,
            )
        ).to_xml()
        db.insert(text)
        # a couple of nested amendments so chains cross segments
        for _ in range(3):
            idx = db.text.find("<t1>")
            if idx == -1:
                break
            db.insert("<t2><t1/></t2>", idx)
        for expression in ("t0//t1", "t0//t1//t2", "t0/t1", "t1//t2//t1"):
            joins = self.spans(db, semi_join_path(db, expression))
            holistic = self.spans(
                db, evaluate_twig(db, expression, strategy="twig")
            )
            assert joins == holistic, (seed, expression)

    def test_bindings_agree_as_multisets(self):
        db = LazyXMLDatabase()
        for fragment in registration_stream(4):
            db.insert(fragment)
        expression = "registration//preferences//interest"
        joins = sorted(
            tuple(db.global_span(r) for r in chain)
            for chain in evaluate_twig(
                db, expression, bindings=True, strategy="pairwise"
            )
        )
        holistic = sorted(
            tuple(db.global_span(r) for r in chain)
            for chain in evaluate_twig(
                db, expression, bindings=True, strategy="twig"
            )
        )
        assert joins == holistic
