"""Offset-exact XML parser.

Builds the :class:`~repro.xml.model.XMLDocument` tree from the token stream
of :mod:`repro.xml.tokenizer`, checking well-formedness (balanced tags, a
single root element).

Every well-formed XML *segment* of the paper is parseable standalone with
this parser; the element records the element index stores — ``(tag, start,
end, level)`` in the segment's own coordinate space — come straight out of
the :class:`XMLElement` spans.
"""

from __future__ import annotations

from sys import intern

from repro.errors import XMLSyntaxError
from repro.xml.model import Element, FlatDocument, XMLDocument, XMLElement
from repro.xml.tokenizer import Token, TokenKind, tokenize

__all__ = ["parse", "parse_fragment", "parse_flat", "is_well_formed"]


def parse(text: str) -> XMLDocument:
    """Parse ``text`` into an :class:`XMLDocument`.

    Requires exactly one root element; prolog material (XML declaration,
    DOCTYPE, comments, whitespace) may precede it and comments/whitespace may
    follow it.  Raises :class:`~repro.errors.XMLSyntaxError` otherwise.
    """
    root: XMLElement | None = None
    elements: list[XMLElement] = []
    stack: list[XMLElement] = []

    def open_element(token: Token) -> XMLElement:
        element = XMLElement(
            tag=token.name,
            start=token.start,
            end=-1,
            level=len(stack) + 1,
            attributes=token.attributes,
        )
        if stack:
            element.parent = stack[-1]
            stack[-1].children.append(element)
        elements.append(element)
        return element

    for token in tokenize(text):
        kind = token.kind
        if kind is TokenKind.START_TAG:
            if root is not None and not stack:
                raise XMLSyntaxError(
                    "content after the root element", offset=token.start
                )
            element = open_element(token)
            if root is None:
                root = element
            stack.append(element)
        elif kind is TokenKind.EMPTY_TAG:
            if root is not None and not stack:
                raise XMLSyntaxError(
                    "content after the root element", offset=token.start
                )
            element = open_element(token)
            element.end = token.end
            if root is None:
                root = element
        elif kind is TokenKind.END_TAG:
            if not stack:
                raise XMLSyntaxError(
                    f"unexpected end tag </{token.name}>", offset=token.start
                )
            element = stack.pop()
            if element.tag != token.name:
                raise XMLSyntaxError(
                    f"end tag </{token.name}> does not match <{element.tag}>",
                    offset=token.start,
                )
            element.end = token.end
        elif kind is TokenKind.TEXT:
            if not stack and text[token.start : token.end].strip():
                raise XMLSyntaxError(
                    "character data outside the root element",
                    offset=token.start,
                )
        # Comments, CDATA, PIs, declarations and DOCTYPE carry no structure.

    if stack:
        raise XMLSyntaxError(
            f"unclosed element <{stack[-1].tag}>", offset=stack[-1].start
        )
    if root is None:
        raise XMLSyntaxError("no root element found", offset=0)
    return XMLDocument(text, root, elements)


def parse_fragment(text: str) -> XMLDocument:
    """Parse a segment (well-formed fragment with one root element).

    Alias of :func:`parse`; exists so call sites distinguish "parsing a
    segment about to be inserted" from "parsing a whole document".
    """
    return parse(text)


def parse_flat(text: str) -> FlatDocument:
    """Parse a segment (:func:`parse`) into what an insert reads of it, to
    keep: tags interned, and the tree freed at once (its parent links cut,
    so it leaves the cycle collector no garbage)."""
    document = parse(text)
    flat = [Element(intern(e.tag), e.start, e.end, e.level) for e in document.elements]
    for element in document.elements:
        element.parent = None
    return FlatDocument(text, flat)


def is_well_formed(text: str) -> bool:
    """True when ``text`` parses as a well-formed fragment."""
    try:
        parse(text)
    except XMLSyntaxError:
        return False
    return True
