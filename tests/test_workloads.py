"""Tests for the workload generators (synthetic, XMark, streams)."""

from __future__ import annotations

import random

import pytest

from repro.workloads.generator import (
    GeneratorConfig,
    generate_fragment,
    generate_tree,
    generate_uniform_fragment,
    tag_pool,
)
from repro.workloads.scenarios import (
    dblp_article,
    dblp_stream,
    registration_form,
    registration_stream,
)
from repro.workloads.xmark import XMARK_QUERIES, XMarkConfig, generate_person, generate_site
from repro.xml.parser import parse


class TestTagPool:
    def test_count_and_uniqueness(self):
        pool = tag_pool(10)
        assert len(pool) == len(set(pool)) == 10

    def test_prefix(self):
        assert tag_pool(2, prefix="q") == ["q0", "q1"]


class TestGenerateTree:
    def test_deterministic_by_seed(self):
        config = GeneratorConfig(seed=9)
        assert generate_tree(config).to_xml() == generate_tree(config).to_xml()

    def test_different_seeds_differ(self):
        a = generate_tree(GeneratorConfig(seed=1)).to_xml()
        b = generate_tree(GeneratorConfig(seed=2)).to_xml()
        assert a != b

    def test_depth_bounded(self):
        config = GeneratorConfig(max_depth=3, fanout=(2, 2), seed=0)
        doc = parse(generate_tree(config).to_xml())
        assert max(e.level for e in doc.elements) <= 3

    def test_tags_from_pool(self):
        config = GeneratorConfig(tags=["x", "y"], seed=4)
        doc = parse(generate_tree(config).to_xml())
        assert doc.tags() <= {"x", "y"}

    @pytest.mark.parametrize("target", [1, 2, 17, 100, 500])
    def test_target_elements_exact(self, target):
        config = GeneratorConfig(target_elements=target, max_depth=50, seed=3)
        doc = parse(generate_tree(config).to_xml())
        assert len(doc) == target


class TestGenerateFragment:
    @pytest.mark.parametrize("n", [1, 5, 64, 333])
    def test_exact_element_count(self, n):
        assert len(parse(generate_fragment(n, seed=n)).elements) == n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            generate_fragment(0)

    def test_well_formed(self):
        parse(generate_fragment(40, seed=1))


class TestUniformFragment:
    def test_wide_shape(self):
        doc = parse(generate_uniform_fragment(12, ["r", "s", "t"], shape="wide"))
        assert len(doc) == 12
        assert doc.root.tag == "r"
        assert max(e.level for e in doc.elements) == 2

    def test_deep_shape(self):
        doc = parse(generate_uniform_fragment(6, ["r", "s"], shape="deep"))
        assert max(e.level for e in doc.elements) == 6

    def test_all_tags_present(self):
        tags = tag_pool(7)
        doc = parse(generate_uniform_fragment(14, tags))
        assert doc.tags() == set(tags)

    def test_single_element(self):
        assert generate_uniform_fragment(1, ["only"]) == "<only/>"

    def test_errors(self):
        with pytest.raises(ValueError):
            generate_uniform_fragment(0, ["a"])
        with pytest.raises(ValueError):
            generate_uniform_fragment(3, [])
        with pytest.raises(ValueError):
            generate_uniform_fragment(3, ["a"], shape="spiral")


class TestXMark:
    def test_deterministic(self):
        config = XMarkConfig(scale=0.005, seed=2)
        assert generate_site(config).to_xml() == generate_site(config).to_xml()

    def test_schema_tags_present(self, xmark_text):
        doc = parse(xmark_text(scale=0.01, seed=1))
        tags = doc.tags()
        for needed in (
            "site", "regions", "people", "person", "profile", "watches",
            "categories", "open_auctions", "closed_auctions",
        ):
            assert needed in tags, needed

    def test_query_tags_meaningful(self, xmark_text):
        doc = parse(xmark_text(scale=0.02, seed=4))
        tags = doc.tags()
        for _, tag_a, tag_d in XMARK_QUERIES:
            assert tag_a in tags, tag_a
            assert tag_d in tags, tag_d

    def test_scale_monotonic(self):
        small = generate_site(XMarkConfig(scale=0.005, seed=1)).element_count()
        large = generate_site(XMarkConfig(scale=0.02, seed=1)).element_count()
        assert large > small * 2

    def test_person_structure(self):
        rng = random.Random(0)
        person = generate_person(rng, 0, XMarkConfig())
        doc = parse(person.to_xml())
        assert doc.root.tag == "person"
        child_tags = {c.tag for c in doc.root.children}
        assert {"name", "emailaddress", "address", "profile", "watches"} <= child_tags

    def test_auctions_optional(self):
        config = XMarkConfig(scale=0.005, seed=1, include_auctions=False)
        doc = parse(generate_site(config).to_xml())
        assert "open_auction" not in doc.tags()

    def test_queries_are_five(self):
        assert len(XMARK_QUERIES) == 5
        assert XMARK_QUERIES[0] == ("Q1", "person", "phone")


class TestScenarioStreams:
    def test_registration_form_size(self):
        rng = random.Random(0)
        for i in range(10):
            doc = parse(registration_form(rng, i))
            assert 15 <= len(doc.elements) <= 35

    def test_registration_stream_deterministic(self):
        assert list(registration_stream(5)) == list(registration_stream(5))

    def test_registration_stream_count(self):
        assert len(list(registration_stream(7))) == 7

    def test_dblp_article_well_formed(self):
        rng = random.Random(1)
        for i in range(10):
            doc = parse(dblp_article(rng, i))
            assert doc.root.tag in ("article", "inproceedings")
            assert "title" in doc.tags()

    def test_dblp_stream_deterministic(self):
        assert list(dblp_stream(4)) == list(dblp_stream(4))
