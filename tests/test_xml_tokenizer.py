"""Tests for the offset-exact XML tokenizer."""

from __future__ import annotations

import pytest

from repro.errors import XMLSyntaxError
from repro.xml.tokenizer import Token, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


class TestBasicTokens:
    def test_simple_element(self):
        tokens = list(tokenize("<a></a>"))
        assert [t.kind for t in tokens] == [TokenKind.START_TAG, TokenKind.END_TAG]
        assert tokens[0].name == tokens[1].name == "a"

    def test_empty_element(self):
        (token,) = tokenize("<a/>")
        assert token.kind is TokenKind.EMPTY_TAG
        assert (token.start, token.end) == (0, 4)

    def test_text_between_tags(self):
        tokens = list(tokenize("<a>hello</a>"))
        assert [t.kind for t in tokens] == [
            TokenKind.START_TAG,
            TokenKind.TEXT,
            TokenKind.END_TAG,
        ]
        assert (tokens[1].start, tokens[1].end) == (3, 8)

    def test_leading_and_trailing_text(self):
        tokens = list(tokenize("  <a/>  "))
        assert [t.kind for t in tokens] == [
            TokenKind.TEXT,
            TokenKind.EMPTY_TAG,
            TokenKind.TEXT,
        ]

    def test_spans_cover_input_exactly(self):
        text = '<?xml version="1.0"?><!DOCTYPE a><a x="1">t<!--c--><b/><![CDATA[z]]><?pi d?></a>'
        tokens = list(tokenize(text))
        assert tokens[0].start == 0
        assert tokens[-1].end == len(text)
        for prev, cur in zip(tokens, tokens[1:]):
            assert prev.end == cur.start

    def test_nested_structure_tokens(self):
        assert kinds("<a><b><c/></b></a>") == [
            TokenKind.START_TAG,
            TokenKind.START_TAG,
            TokenKind.EMPTY_TAG,
            TokenKind.END_TAG,
            TokenKind.END_TAG,
        ]


class TestAttributes:
    def test_single_attribute(self):
        (token,) = tokenize('<a x="1"/>')
        assert token.attributes == {"x": "1"}

    def test_multiple_attributes(self):
        (token,) = tokenize('<a x="1" y="two"/>')
        assert token.attributes == {"x": "1", "y": "two"}

    def test_single_quoted_attribute(self):
        (token,) = tokenize("<a x='1'/>")
        assert token.attributes == {"x": "1"}

    def test_attribute_with_spaces_around_equals(self):
        (token,) = tokenize('<a x = "1"/>')
        assert token.attributes == {"x": "1"}

    def test_attribute_on_start_tag(self):
        tokens = list(tokenize('<a key="v"></a>'))
        assert tokens[0].attributes == {"key": "v"}

    def test_attribute_value_keeps_entities_raw(self):
        (token,) = tokenize('<a x="a&amp;b"/>')
        assert token.attributes == {"x": "a&amp;b"}

    def test_missing_equals_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize('<a x"1"/>'))

    def test_unquoted_value_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a x=1/>"))

    def test_unterminated_value_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize('<a x="1/>'))


class TestSpecialConstructs:
    def test_comment(self):
        tokens = list(tokenize("<a><!-- hi --></a>"))
        assert tokens[1].kind is TokenKind.COMMENT

    def test_comment_containing_angle_brackets(self):
        tokens = list(tokenize("<a><!-- <b> </b> --></a>"))
        assert [t.kind for t in tokens] == [
            TokenKind.START_TAG,
            TokenKind.COMMENT,
            TokenKind.END_TAG,
        ]

    def test_unterminated_comment_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a><!-- oops</a>"))

    def test_cdata(self):
        tokens = list(tokenize("<a><![CDATA[<not><tags>]]></a>"))
        assert tokens[1].kind is TokenKind.CDATA

    def test_unterminated_cdata_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a><![CDATA[x</a>"))

    def test_processing_instruction(self):
        tokens = list(tokenize("<a><?target data?></a>"))
        assert tokens[1].kind is TokenKind.PI
        assert tokens[1].name == "target"

    def test_xml_declaration_at_start(self):
        tokens = list(tokenize('<?xml version="1.0"?><a/>'))
        assert tokens[0].kind is TokenKind.DECLARATION

    def test_pi_named_xmlish_mid_document(self):
        tokens = list(tokenize("<a><?xmlfoo x?></a>"))
        assert tokens[1].kind is TokenKind.PI

    def test_doctype(self):
        tokens = list(tokenize("<!DOCTYPE html><a/>"))
        assert tokens[0].kind is TokenKind.DOCTYPE


class TestNamesAndErrors:
    @pytest.mark.parametrize(
        "name",
        ["a", "A", "_x", "a-b", "a.b", "a:b", "a1",
         # names leaving ASCII at the start, in the middle, at the end
         "\u00e9", "\u00e9a-1", "a\u00e9b", "ab\u00b2", "\u4e2d\u6587:x"],
    )
    def test_valid_names(self, name):
        (token,) = tokenize(f"<{name}/>")
        assert token.name == name

    def test_name_cannot_start_with_digit(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<1a/>"))

    def test_lone_open_angle_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a><</a>"))

    def test_unterminated_start_tag_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a"))

    def test_malformed_end_tag_raises(self):
        with pytest.raises(XMLSyntaxError):
            list(tokenize("<a></a b>"))

    def test_error_carries_offset(self):
        try:
            list(tokenize('<a x=1/>'))
        except XMLSyntaxError as exc:
            assert exc.offset is not None
        else:
            pytest.fail("expected XMLSyntaxError")

    def test_end_tag_with_whitespace(self):
        tokens = list(tokenize("<a></a >"))
        assert tokens[1].kind is TokenKind.END_TAG

    def test_empty_input_yields_nothing(self):
        assert list(tokenize("")) == []

    def test_token_dataclass_fields(self):
        token = Token(TokenKind.TEXT, 0, 3)
        assert token.name == ""
        assert token.attributes == {}
