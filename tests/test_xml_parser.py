"""Tests for the XML parser and document model."""

from __future__ import annotations

import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xml.parser import is_well_formed, parse, parse_flat, parse_fragment
from repro.xml.serializer import Node
from repro.xml.tokenizer import TokenKind, scan_token


class TestStructure:
    def test_single_empty_root(self):
        doc = parse("<a/>")
        assert doc.root.tag == "a"
        assert len(doc) == 1
        assert doc.root.span == (0, 4)

    def test_nested_children(self):
        doc = parse("<a><b/><c><d/></c></a>")
        assert [e.tag for e in doc.elements] == ["a", "b", "c", "d"]
        assert [e.level for e in doc.elements] == [1, 2, 2, 3]
        b, c = doc.root.children
        assert b.tag == "b" and c.tag == "c"
        assert c.children[0].tag == "d"
        assert c.children[0].parent is c

    def test_spans_are_exact(self):
        text = "<a><b>xy</b><c/></a>"
        doc = parse(text)
        for element in doc.elements:
            fragment = text[element.start : element.end]
            assert fragment.startswith(f"<{element.tag}")
            assert fragment.endswith(">")
        b = doc.root.children[0]
        assert text[b.start : b.end] == "<b>xy</b>"

    def test_elements_in_document_order(self):
        doc = parse("<a><b/><c/><d><e/></d></a>")
        starts = [e.start for e in doc.elements]
        assert starts == sorted(starts)

    def test_attributes_parsed(self):
        doc = parse('<a id="1"><b k="v"/></a>')
        assert doc.root.attributes == {"id": "1"}
        assert doc.root.children[0].attributes == {"k": "v"}

    def test_prolog_and_trailing_comment_allowed(self):
        doc = parse('<?xml version="1.0"?><!-- pre --><a/><!-- post -->')
        assert doc.root.tag == "a"
        assert len(doc) == 1

    def test_whitespace_around_root_allowed(self):
        doc = parse("  <a/>\n")
        assert doc.root.tag == "a"

    def test_text_and_mixed_content(self):
        doc = parse("<a>one<b/>two</a>")
        assert [e.tag for e in doc.elements] == ["a", "b"]

    def test_deep_nesting(self):
        text = "<a>" * 50 + "</a>" * 50
        doc = parse(text)
        assert len(doc) == 50
        assert doc.elements[-1].level == 50


class TestWellFormedness:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "<a>",
            "</a>",
            "<a></b>",
            "<a/><b/>",
            "<a></a><b></b>",
            "text<a/>",
            "<a/>text",
            "<a><b></a></b>",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(XMLSyntaxError):
            parse(bad)
        assert not is_well_formed(bad)

    @pytest.mark.parametrize(
        "good",
        ["<a/>", "<a></a>", "<a><b/></a>", "<a>t</a>", "<a><!--c--></a>"],
    )
    def test_accepts_well_formed(self, good):
        assert is_well_formed(good)

    def test_parse_fragment_is_alias(self):
        assert parse_fragment("<a/>").root.tag == "a"


class TestElementRecords:
    """The ``(tag, start, end, level)`` rows the element index stores for
    a segment come straight out of the parsed elements."""

    @staticmethod
    def records(text):
        return [(e.tag, e.start, e.end, e.level) for e in parse(text).elements]

    def test_records_shape(self):
        records = self.records("<a><b/><c><d/></c></a>")
        assert records[0] == ("a", 0, len("<a><b/><c><d/></c></a>"), 1)
        assert records[1] == ("b", 3, 7, 2)
        assert [r[3] for r in records] == [1, 2, 2, 3]

    def test_records_with_attributes_and_text(self):
        text = '<r a="1"><x>hi</x></r>'
        records = self.records(text)
        assert records[1][0] == "x"
        assert text[records[1][1] : records[1][2]] == "<x>hi</x>"


class TestModelNavigation:
    @pytest.fixture
    def doc(self):
        return parse("<a><b><c/><d/></b><e/></a>")

    def test_iter_preorder(self, doc):
        assert [e.tag for e in doc.root.iter()] == ["a", "b", "c", "d", "e"]

    def test_descendants_excludes_self(self, doc):
        assert [e.tag for e in doc.root.descendants()] == ["b", "c", "d", "e"]

    def test_ancestors(self, doc):
        c = doc.elements[2]
        assert [e.tag for e in c.ancestors()] == ["b", "a"]

    def test_contains(self, doc):
        a, b, c = doc.elements[0], doc.elements[1], doc.elements[2]
        assert a.contains(b) and b.contains(c) and a.contains(c)
        assert not c.contains(a)
        assert not a.contains(a)

    def test_length(self, doc):
        assert doc.root.length == len(doc.text)

    def test_tags(self):
        assert parse("<a><b/><b/></a>").tags() == {"a", "b"}

    def test_document_iter_and_len(self, doc):
        assert len(list(iter(doc))) == len(doc) == 5

    def test_parse_flat_keeps_text_tags_and_spans(self, doc):
        flat = parse_flat(doc.text)
        assert flat.text is doc.text
        assert flat.elements == [
            (e.tag, e.start, e.end, e.level) for e in doc.elements
        ]
        # Tags are interned: one string per tag name, whatever the parse.
        assert flat.elements[0].tag is parse_flat("<a/>").elements[0].tag

    def test_parse_flat_leaves_no_garbage_for_the_cycle_collector(self, doc):
        gc.collect()
        gc.disable()
        try:
            parse_flat(doc.text)
            assert gc.collect() == 0
            parse(doc.text)  # flat until a caller reads the tree
            assert gc.collect() == 0
            parse(doc.text).root  # the tree keeps its parent links: a cycle
            assert gc.collect() > 0
        finally:
            gc.enable()

    def test_tree_is_built_once_on_first_read(self, doc):
        fresh = parse(doc.text)
        assert fresh.root is fresh.elements[0]
        assert fresh.elements is fresh.elements
        assert [(e.tag, e.start, e.end, e.level) for e in fresh.elements] == list(
            fresh.flat.elements
        )


def _node_trees(max_depth=4):
    tags = st.sampled_from(["a", "b", "c", "dd"])
    texts = st.text(
        alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127),
        max_size=6,
    )
    return st.recursive(
        st.builds(Node, tags),
        lambda children: st.builds(
            lambda tag, kids, txt: Node(tag, {}, ([txt] if txt else []) + kids),
            tags,
            st.lists(children, max_size=3),
            texts,
        ),
        max_leaves=12,
    )


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(_node_trees())
    def test_serialize_parse_roundtrip(self, tree):
        text = tree.to_xml()
        doc = parse(text)
        assert doc.root.tag == tree.tag
        assert len(doc) == tree.element_count()
        assert doc.root.span == (0, len(text))

    @settings(max_examples=60, deadline=None)
    @given(_node_trees())
    def test_levels_match_nesting(self, tree):
        doc = parse(tree.to_xml())
        for element in doc.elements:
            assert element.level == len(list(element.ancestors())) + 1

    @settings(max_examples=60, deadline=None)
    @given(_node_trees())
    def test_children_nested_within_parents(self, tree):
        doc = parse(tree.to_xml())
        for element in doc.elements:
            for child in element.children:
                assert element.start < child.start
                assert child.end < element.end


# ----------------------------------------------------------------------
# The flat parse and its lazily built tree against a token-driven
# reference: the tree builder the parser had, over the character rules.


def reference_parse(text):
    """``(tag, start, end, level, attributes, parent index)`` per element,
    built token by token with the attribute pairs lexed as they come."""
    elements: list[list] = []
    stack: list[int] = []
    root_seen = False
    pos = 0
    while pos < len(text):
        attributes: dict[str, str] = {}
        kind, end, name = scan_token(text, pos, len(text), 0, attributes)
        if kind in (TokenKind.START_TAG, TokenKind.EMPTY_TAG):
            if root_seen and not stack:
                raise XMLSyntaxError("content after the root element", offset=pos)
            root_seen = True
            parent = stack[-1] if stack else None
            elements.append([name, pos, end, len(stack) + 1, attributes, parent])
            if kind is TokenKind.START_TAG:
                stack.append(len(elements) - 1)
        elif kind is TokenKind.END_TAG:
            if not stack:
                raise XMLSyntaxError(f"unexpected end tag </{name}>", offset=pos)
            element = elements[stack.pop()]
            if element[0] != name:
                raise XMLSyntaxError(
                    f"end tag </{name}> does not match <{element[0]}>", offset=pos
                )
            element[2] = end
        elif kind is TokenKind.TEXT and not stack and text[pos:end].strip():
            raise XMLSyntaxError("character data outside the root element", offset=pos)
        pos = end
    if stack:
        element = elements[stack[-1]]
        raise XMLSyntaxError(f"unclosed element <{element[0]}>", offset=element[1])
    if not root_seen:
        raise XMLSyntaxError("no root element found", offset=0)
    return [tuple(element) for element in elements]


def _outcome(parser, text):
    try:
        return parser(text)
    except XMLSyntaxError as exc:
        return XMLSyntaxError, str(exc), exc.offset


def _tree(text):
    elements = parse(text).elements
    index = {id(e): i for i, e in enumerate(elements)}
    return [
        (e.tag, e.start, e.end, e.level, e.attributes,
         None if e.parent is None else index[id(e.parent)])
        for e in elements
    ]


_PIECES = (
    "<a>", "</a>", "<b>", "</b>", "<c/>", "<é>", "</é>", "<aé/>", "<½/>",
    "<a٣>", "</a٣>", "<Ⅻ/>", '<a x="1"y="2">', "<b k='>' j=\"<\">",
    "<a\n>", "</a >", "text", " ", "\n", "&amp;", "<", ">", "/", "<?xml v?>",
    "<?pi d?>", "<!-- c -->", "<![CDATA[<x>]]>", "<!DOCTYPE a>", '="',
)
_xmlish = st.lists(st.sampled_from(_PIECES), max_size=16).map("".join)
#: Mostly balanced: pieces nested in tag pairs (one pair in six unbalanced).
_TAG_PAIRS = (
    ("<a>", "</a>"), ('<a x="1"y="2">', "</a>"), ("<é>", "</é>"),
    ("<a٣ k='>'>", "</a٣>"), ("<Ⅻ\t>", "</Ⅻ >"), ("<b>", "</a>"),
)


def _enclose(pair_and_body):
    (open_tag, close_tag), body = pair_and_body
    return open_tag + "".join(body) + close_tag


_nested = st.recursive(
    st.lists(st.sampled_from(_PIECES), max_size=2).map("".join),
    lambda inner: st.tuples(
        st.sampled_from(_TAG_PAIRS), st.lists(inner, max_size=3)
    ).map(_enclose),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _xmlish,
    _xmlish.map(lambda body: f"<r>{body}</r>"),
    st.tuples(st.sampled_from(("", "<?xml v?>", " <!DOCTYPE a>")), _nested).map(
        "".join
    ),
))
@example('<?xml v?><!DOCTYPE a><r x="1"y="2"><é/>½<aé k=">"></aé></r><!-- c -->')
@example("<r><a></b></r>")
@example("<r/><?xml v?>")
# The markup scan's fallback switch: a "<" inside an attribute value, ...
@example('<r><a k="<b>" j=\'</a>\'>x</a><c k="<"/></r>')
# ... a non-ASCII name after ASCII siblings, ...
@example("<r><a/><b>t</b><é>x</é><c/></r>")
# ... a comment, CDATA or PI between two elements (a comment holding what
# the pattern reads as a tag running past its end, too), ...
@example('<r><a/><!-- <b> --><![CDATA[<c>]]><?pi <d>?><e/></r>')
@example('<r><!--<a x="--><b/>"></r>')
# ... non-whitespace text after the root, ...
@example("<r/>tail")
@example("<r/> <!--c--> x")
# ... and an unclosed tag after a fallback token.
@example("<r><!--c--><a>")
@example("<?xml v?><r><é><![CDATA[x]]><a>")
def test_parse_matches_the_token_driven_reference(text):
    """Same tags, spans, levels, attributes and parents, or the same error
    message and offset."""
    expected = _outcome(reference_parse, text)
    assert _outcome(_tree, text) == expected
    flat = _outcome(parse_flat, text)
    if isinstance(expected, list):
        assert flat.text is text
        assert flat.elements == [row[:4] for row in expected]
    else:
        assert flat == expected
