"""Tests for the offset-exact XML tokenizer."""

from __future__ import annotations

from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xml.tokenizer import TokenKind, scan_token


class Tok(NamedTuple):
    kind: TokenKind
    start: int
    end: int
    name: str
    attributes: dict[str, str]


def lex(text):
    """Every token of ``text``, lexed by :func:`scan_token` asking for the
    attribute pairs (the character rules); lexing each one without them
    (the compiled pattern first) must give the same token."""
    tokens = []
    pos = 0
    while pos < len(text):
        attributes: dict[str, str] = {}
        kind, end, name = scan_token(text, pos, len(text), 0, attributes)
        assert scan_token(text, pos, len(text)) == (kind, end, name)
        tokens.append(Tok(kind, pos, end, name, attributes))
        pos = end
    return tokens


def kinds(text):
    return [t.kind for t in lex(text)]


class TestBasicTokens:
    def test_simple_element(self):
        tokens = lex("<a></a>")
        assert [t.kind for t in tokens] == [TokenKind.START_TAG, TokenKind.END_TAG]
        assert tokens[0].name == tokens[1].name == "a"

    def test_empty_element(self):
        (token,) = lex("<a/>")
        assert token.kind is TokenKind.EMPTY_TAG
        assert (token.start, token.end) == (0, 4)

    def test_text_between_tags(self):
        tokens = lex("<a>hello</a>")
        assert [t.kind for t in tokens] == [
            TokenKind.START_TAG,
            TokenKind.TEXT,
            TokenKind.END_TAG,
        ]
        assert (tokens[1].start, tokens[1].end) == (3, 8)

    def test_leading_and_trailing_text(self):
        tokens = lex("  <a/>  ")
        assert [t.kind for t in tokens] == [
            TokenKind.TEXT,
            TokenKind.EMPTY_TAG,
            TokenKind.TEXT,
        ]

    def test_spans_cover_input_exactly(self):
        text = '<?xml version="1.0"?><!DOCTYPE a><a x="1">t<!--c--><b/><![CDATA[z]]><?pi d?></a>'
        tokens = lex(text)
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
        (token,) = lex('<a x="1"/>')
        assert token.attributes == {"x": "1"}

    def test_multiple_attributes(self):
        (token,) = lex('<a x="1" y="two"/>')
        assert token.attributes == {"x": "1", "y": "two"}

    def test_single_quoted_attribute(self):
        (token,) = lex("<a x='1'/>")
        assert token.attributes == {"x": "1"}

    def test_attribute_with_spaces_around_equals(self):
        (token,) = lex('<a x = "1"/>')
        assert token.attributes == {"x": "1"}

    def test_attribute_on_start_tag(self):
        tokens = lex('<a key="v"></a>')
        assert tokens[0].attributes == {"key": "v"}

    def test_attribute_value_keeps_entities_raw(self):
        (token,) = lex('<a x="a&amp;b"/>')
        assert token.attributes == {"x": "a&amp;b"}

    def test_missing_equals_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex('<a x"1"/>')

    def test_unquoted_value_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex("<a x=1/>")

    def test_unterminated_value_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex('<a x="1/>')


class TestSpecialConstructs:
    def test_comment(self):
        tokens = lex("<a><!-- hi --></a>")
        assert tokens[1].kind is TokenKind.COMMENT

    def test_comment_containing_angle_brackets(self):
        tokens = lex("<a><!-- <b> </b> --></a>")
        assert [t.kind for t in tokens] == [
            TokenKind.START_TAG,
            TokenKind.COMMENT,
            TokenKind.END_TAG,
        ]

    def test_unterminated_comment_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex("<a><!-- oops</a>")

    def test_cdata(self):
        tokens = lex("<a><![CDATA[<not><tags>]]></a>")
        assert tokens[1].kind is TokenKind.CDATA

    def test_unterminated_cdata_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex("<a><![CDATA[x</a>")

    def test_processing_instruction(self):
        tokens = lex("<a><?target data?></a>")
        assert tokens[1].kind is TokenKind.PI
        assert tokens[1].name == "target"

    def test_xml_declaration_at_start(self):
        tokens = lex('<?xml version="1.0"?><a/>')
        assert tokens[0].kind is TokenKind.DECLARATION

    def test_pi_named_xmlish_mid_document(self):
        tokens = lex("<a><?xmlfoo x?></a>")
        assert tokens[1].kind is TokenKind.PI

    def test_doctype(self):
        tokens = lex("<!DOCTYPE html><a/>")
        assert tokens[0].kind is TokenKind.DOCTYPE


class TestNamesAndErrors:
    @pytest.mark.parametrize(
        "name",
        ["a", "A", "_x", "a-b", "a.b", "a:b", "a1",
         # names leaving ASCII at the start, in the middle, at the end
         "\u00e9", "\u00e9a-1", "a\u00e9b", "ab\u00b2", "\u4e2d\u6587:x"],
    )
    def test_valid_names(self, name):
        (token,) = lex(f"<{name}/>")
        assert token.name == name

    def test_name_cannot_start_with_digit(self):
        with pytest.raises(XMLSyntaxError):
            lex("<1a/>")

    def test_lone_open_angle_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex("<a><</a>")

    def test_unterminated_start_tag_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex("<a")

    def test_malformed_end_tag_raises(self):
        with pytest.raises(XMLSyntaxError):
            lex("<a></a b>")

    def test_error_carries_offset(self):
        try:
            lex('<a x=1/>')
        except XMLSyntaxError as exc:
            assert exc.offset is not None
        else:
            pytest.fail("expected XMLSyntaxError")

    def test_end_tag_with_whitespace(self):
        tokens = lex("<a></a >")
        assert tokens[1].kind is TokenKind.END_TAG

    def test_empty_input_yields_nothing(self):
        assert lex("") == []

    def test_text_token_has_no_name_or_attributes(self):
        attributes: dict[str, str] = {}
        assert scan_token("abc", 0, 3, 0, attributes) == (TokenKind.TEXT, 3, "")
        assert attributes == {}


# ----------------------------------------------------------------------
# One grammar: the compiled common case lexes exactly as the rules do.

#: XML-ish pieces: ASCII and non-ASCII names (a letter, a letter after
#: ASCII, a vulgar fraction, an Arabic-Indic digit, a Roman numeral),
#: attributes with no whitespace between them, quoted ``<`` and ``>``,
#: whitespace that XML does not count (``\x0c``, ``\xa0``), ``<?xml``
#: anywhere, comments, CDATA, DOCTYPE and a stray ``<``.
_PIECES = (
    "<", ">", "/", "</", "/>", "=", '"', "'", " ", "\t", "\n", "\x0c", "\xa0",
    "a", "b1", "_x", "a:b", "a-b.c", "1", "é", "aé", "½",
    "٣", "Ⅻ", "text", "&amp;", "<ab", 'x="1"',
    '<a x="1"y="2">', ' x="1"y="2"', '"<"', "'>'", ' k="v" ', "<b/>",
    "</a>", "</a >", "<?xml", "?>", "<?pi d?>", "<!--", "-->", "<!-- c -->",
    "<![CDATA[", "]]>", "<![CDATA[<x>]]>", "<!DOCTYPE", "<!DOCTYPE a>",
)
_names = st.sampled_from(
    ("a", "ab", "b1", "_x", "a:b", "a-b.c", "1", "é", "aé", "a½", "a٣", "Ⅻ", "")
)
_gaps = st.sampled_from(("", " ", "\t", "\r\n", "\x0c", "\xa0"))
_values = st.sampled_from(('"1"', "'2'", '"<"', "'>'", '""', '"', "1"))
#: Tag-shaped pieces, so names, gaps, ``=`` and values meet in every order.
_tags = st.tuples(
    st.sampled_from(("<", "</", "<?", "<!")),
    _names,
    st.lists(
        st.tuples(_gaps, _names, _gaps, st.sampled_from(("=", "")), _gaps, _values)
        .map("".join),
        max_size=3,
    ).map("".join),
    _gaps,
    st.sampled_from((">", "/>", "/", "", "/ >")),
).map("".join)
_xmlish = st.lists(st.one_of(st.sampled_from(_PIECES), _tags), max_size=10).map(
    "".join
)


def _outcome(text, pos, end, doc_start, attributes):
    try:
        return scan_token(text, pos, end, doc_start, attributes)
    except XMLSyntaxError as exc:
        return XMLSyntaxError, str(exc), exc.offset


@settings(max_examples=150, deadline=None)
@given(_xmlish)
@example('<a x="1"y="2"/>')
@example('<ab="1"/></ab=>')  # a shorter name would leave a valid attribute
@example('<é k=">"/><aé></aé><Ⅻ/>')
@example("<?xml v?><?xml v?><a٣ x='<'>½</a٣>")
@example("<!DOCTYPE a><!-- c --><![CDATA[<x>]]><a/ ><a x></a b></a>")
def test_compiled_pattern_lexes_as_the_rules_do(text):
    """At every offset, window end and ``doc_start``, :func:`scan_token`
    returns what its character rules (the path a caller asking for the
    attribute pairs takes) return: kind, end and name, or the same error."""
    for pos in range(len(text)):
        for end in range(pos + 1, len(text) + 1):
            for doc_start in (pos, -1):
                assert _outcome(text, pos, end, doc_start, None) == _outcome(
                    text, pos, end, doc_start, {}
                ), (text, pos, end, doc_start)
