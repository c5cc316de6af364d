"""Paths: patterns with no branch, parsed by the one pattern grammar
(:func:`~repro.twig.pattern.parse_twig`) and answered by ``path_query``."""

from __future__ import annotations

import pytest

from repro.core.database import LazyXMLDatabase
from repro.errors import PathSyntaxError, QueryError
from repro.twig.pattern import TwigNode, TwigQuery, parse_twig
from repro.workloads.scenarios import registration_stream
from repro.xml.parser import parse


def trunk_steps(expression):
    """``(entry tag, [(axis, tag) per later step])`` of a branch-free
    pattern."""
    trunk = parse_twig(expression).trunk
    assert all(not node.branches for node in trunk)
    return trunk[0].tag, [(node.axis, node.tag) for node in trunk[1:]]


class TestParse:
    def test_single_tag(self):
        assert trunk_steps("person") == ("person", [])

    def test_descendant_steps(self):
        entry, steps = trunk_steps("a//b//c")
        assert entry == "a"
        assert steps == [("descendant", "b"), ("descendant", "c")]

    def test_child_steps(self):
        _, steps = trunk_steps("a/b/c")
        assert [axis for axis, _ in steps] == ["child", "child"]

    def test_mixed(self):
        _, steps = trunk_steps("site//person/profile//interest")
        assert steps == [
            ("descendant", "person"),
            ("child", "profile"),
            ("descendant", "interest"),
        ]

    def test_str_roundtrip(self):
        for expression in ("a", "a//b", "a/b//c", "x//y/z"):
            assert str(parse_twig(expression)) == expression

    def test_whitespace_stripped(self):
        assert trunk_steps("  a//b ")[0] == "a"

    @pytest.mark.parametrize(
        "bad", ["", "  ", "/a", "//a", "a//", "a///b", "a//b//", "a b", "1tag", "a//2b"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(QueryError):
            parse_twig(bad)

    def test_memoised_per_expression_string(self):
        assert parse_twig("a//b/c") is parse_twig("a//b/c")
        for _ in range(2):  # an error is not cached: it raises every time
            with pytest.raises(PathSyntaxError):
                parse_twig("a///b")


def oracle_path(db, expression):
    """Text-reparse oracle: global spans of the final step's matches."""
    entry, steps = trunk_steps(expression)
    doc = parse(f"<w>{db.text}</w>")
    shift = len("<w>")
    matches = [e for e in doc.elements if e.tag == entry]
    for axis, tag in steps:
        next_matches = []
        for element in matches:
            pool = element.descendants() if axis == "descendant" else element.children
            next_matches.extend(x for x in pool if x.tag == tag)
        matches = next_matches
    return sorted({(e.start - shift, e.end - shift) for e in matches})


class TestEvaluate:
    @pytest.fixture
    def db(self):
        database = LazyXMLDatabase()
        for fragment in registration_stream(8):
            database.insert(fragment)
        # nested amendment so some steps cross segments
        database.insert(
            "<preferences><interest topic=\"extra\"/></preferences>",
            database.text.index("</registration>"),
        )
        return database

    def spans(self, db, records):
        return sorted({db.global_span(r) for r in records})

    @pytest.mark.parametrize(
        "expression",
        [
            "registration",
            "registration//interest",
            "registration/preferences/interest",
            "registration//preferences//interest",
            "registration/contact//city",
            "registration//user/name/first",
            "contact/address/country",
        ],
    )
    def test_matches_oracle(self, db, expression):
        got = self.spans(db, db.path_query(expression))
        assert got == oracle_path(db, expression), expression

    def test_unknown_entry_tag(self, db):
        assert db.path_query("nonexistent//interest") == []

    def test_unknown_step_tag(self, db):
        assert db.path_query("registration//nonexistent") == []

    def test_bindings_tuple_length(self, db):
        bindings = db.path_query("registration//preferences//interest", bindings=True)
        assert bindings
        assert all(len(binding) == 3 for binding in bindings)

    def test_bindings_are_nested(self, db):
        for reg, prefs, interest in db.path_query(
            "registration//preferences//interest", bindings=True
        ):
            reg_span = db.global_span(reg)
            prefs_span = db.global_span(prefs)
            interest_span = db.global_span(interest)
            assert reg_span[0] < prefs_span[0] <= interest_span[0]
            assert interest_span[1] <= prefs_span[1] < reg_span[1]

    def test_results_deduplicated_and_sorted(self, db):
        records = db.path_query("registration//interest")
        keys = [(r.sid, r.start) for r in records]
        assert keys == sorted(set(keys))

    def test_accepts_prebuilt_query(self, db):
        root = TwigNode("registration", "descendant")
        root.child = TwigNode("interest", "descendant")
        assert db.path_query(TwigQuery(root)) == db.path_query(
            "registration//interest"
        )

    def test_cross_segment_steps(self):
        db = LazyXMLDatabase()
        db.insert("<a><hook/></a>")
        db.insert("<b><hook2/></b>", position=db.text.index("<hook/>"))
        db.insert("<c/>", position=db.text.index("<hook2/>"))
        records = db.path_query("a//b//c")
        assert self_spans(db, records) == oracle_path(db, "a//b//c")

    def test_empty_database(self):
        db = LazyXMLDatabase()
        assert db.path_query("a//b") == []


def self_spans(db, records):
    return sorted({db.global_span(r) for r in records})
