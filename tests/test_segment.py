"""Tests for span geometry (Definitions 1/2 support code)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment import DUMMY_ROOT_SID, SpanRelation, relate
from repro.xml.model import XMLElement


class TestRelate:
    # a = [10, 20) throughout; b varies.
    @pytest.mark.parametrize(
        "b_gp,b_len,expected",
        [
            (25, 5, SpanRelation.BEFORE),  # b fully after a
            (20, 5, SpanRelation.BEFORE),  # touching at a's end
            (0, 5, SpanRelation.AFTER),  # b fully before a
            (5, 5, SpanRelation.AFTER),  # touching at a's start
            (12, 3, SpanRelation.CONTAINS),  # b strictly inside a
            (10, 5, SpanRelation.CONTAINS),  # shares a's start
            (15, 5, SpanRelation.CONTAINS),  # shares a's end
            (10, 10, SpanRelation.CONTAINS),  # identical spans
            (5, 20, SpanRelation.CONTAINED),  # a strictly inside b
            (10, 15, SpanRelation.CONTAINED),  # shares start, b longer
            (5, 15, SpanRelation.CONTAINED),  # shares end, b longer
            (5, 10, SpanRelation.LEFT_INTERSECT),  # a starts inside b, ends after
            (15, 10, SpanRelation.RIGHT_INTERSECT),  # a ends inside b
        ],
    )
    def test_case_matrix(self, b_gp, b_len, expected):
        assert relate(10, 10, b_gp, b_len) is expected

    def test_point_inside(self):
        assert relate(15, 0, 10, 10) is SpanRelation.CONTAINED

    def test_point_at_start_is_disjoint(self):
        assert relate(10, 0, 10, 10) is SpanRelation.BEFORE

    def test_point_at_end_is_disjoint(self):
        assert relate(20, 0, 10, 10) is SpanRelation.AFTER

    def test_identical_span_resolves_to_contains(self):
        # Removing exactly a segment's span must delete the segment.
        assert relate(3, 7, 3, 7) is SpanRelation.CONTAINS

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 100),
        st.integers(1, 50),
        st.integers(0, 100),
        st.integers(1, 50),
    )
    def test_total_and_consistent(self, a_gp, a_len, b_gp, b_len):
        rel = relate(a_gp, a_len, b_gp, b_len)
        a_end, b_end = a_gp + a_len, b_gp + b_len
        if rel is SpanRelation.BEFORE:
            assert a_end <= b_gp
        elif rel is SpanRelation.AFTER:
            assert a_gp >= b_end
        elif rel is SpanRelation.CONTAINS:
            assert a_gp <= b_gp and a_end >= b_end
        elif rel is SpanRelation.CONTAINED:
            assert b_gp <= a_gp and a_end <= b_end
            assert (a_gp, a_end) != (b_gp, b_end)
        elif rel is SpanRelation.LEFT_INTERSECT:
            assert b_gp < a_gp < b_end < a_end
        else:
            assert a_gp < b_gp < a_end < b_end

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 100),
        st.integers(1, 50),
        st.integers(0, 100),
        st.integers(1, 50),
    )
    def test_contains_contained_duality(self, a_gp, a_len, b_gp, b_len):
        # If a contains b strictly, then b relates to a as CONTAINED.
        if relate(a_gp, a_len, b_gp, b_len) is SpanRelation.CONTAINS and (
            (a_gp, a_len) != (b_gp, b_len)
        ):
            assert relate(b_gp, b_len, a_gp, a_len) in (
                SpanRelation.CONTAINED,
                SpanRelation.CONTAINS,  # only when sharing both endpoints
            )


def span_contains(outer_gp, outer_len, inner_gp, inner_len) -> bool:
    """Definition 1 containment of two spans, as the library decides it
    (:meth:`~repro.xml.model.XMLElement.contains`)."""
    outer = XMLElement("o", outer_gp, outer_gp + outer_len, 1)
    inner = XMLElement("i", inner_gp, inner_gp + inner_len, 2)
    return outer.contains(inner)


class TestSpanContains:
    """Strict on both sides, exactly as the paper defines containment; a
    span never contains itself."""

    def test_strict_containment(self):
        assert span_contains(0, 10, 2, 5)

    def test_not_self_containing(self):
        assert not span_contains(0, 10, 0, 10)

    def test_shared_start_not_contained(self):
        assert not span_contains(0, 10, 0, 5)

    def test_shared_end_not_contained(self):
        assert not span_contains(0, 10, 5, 5)

    def test_disjoint(self):
        assert not span_contains(0, 5, 10, 3)

    def test_dummy_root_sid_is_zero(self):
        assert DUMMY_ROOT_SID == 0
