"""Offset-exact XML parser.

One loop over :func:`~repro.xml.tokenizer.scan_token` checks well-formedness
(balanced tags, a single root element) and records each element flat, as
the element index stores it: ``(tag, start, end, level)`` in the segment's
own coordinate space.  It builds no tree; the
:class:`~repro.xml.model.XMLDocument` builds one for a caller that reads it.
"""

from __future__ import annotations

from sys import intern

from repro.errors import XMLSyntaxError
from repro.xml.model import Element, FlatDocument, XMLDocument
from repro.xml.tokenizer import TokenKind, scan_token

__all__ = ["parse", "parse_fragment", "parse_flat", "is_well_formed"]

_TEXT = TokenKind.TEXT
_START_TAG = TokenKind.START_TAG
_EMPTY_TAG = TokenKind.EMPTY_TAG
_END_TAG = TokenKind.END_TAG
_new = tuple.__new__  # an Element from a tuple, as Element._make builds one


def parse(text: str) -> XMLDocument:
    """Parse ``text`` into an :class:`XMLDocument`.

    Requires exactly one root element; prolog material (XML declaration,
    DOCTYPE, comments, whitespace) may precede it and comments/whitespace may
    follow it.  Raises :class:`~repro.errors.XMLSyntaxError` otherwise.
    Tags are interned.
    """
    elements: list[Element | None] = []
    stack: list[tuple[int, str, int]] = []  # open: (index, tag, start)
    root_seen = False
    pos, n = 0, len(text)
    while pos < n:
        kind, end, name = scan_token(text, pos, n)
        if kind is _START_TAG or kind is _EMPTY_TAG:
            if root_seen and not stack:
                raise XMLSyntaxError("content after the root element", offset=pos)
            root_seen = True
            if kind is _START_TAG:
                stack.append((len(elements), name, pos))
                elements.append(None)  # filled in at its end tag
            else:
                elements.append(_new(Element, (intern(name), pos, end, len(stack) + 1)))
        elif kind is _END_TAG:
            if not stack:
                raise XMLSyntaxError(f"unexpected end tag </{name}>", offset=pos)
            index, tag, start = stack.pop()
            if tag != name:
                raise XMLSyntaxError(
                    f"end tag </{name}> does not match <{tag}>", offset=pos
                )
            elements[index] = _new(Element, (intern(tag), start, end, len(stack) + 1))
        elif kind is _TEXT and not stack and text[pos:end].strip():
            raise XMLSyntaxError("character data outside the root element", offset=pos)
        # Comments, CDATA, PIs, declarations and DOCTYPE carry no structure.
        pos = end

    if stack:
        _, tag, start = stack[-1]
        raise XMLSyntaxError(f"unclosed element <{tag}>", offset=start)
    if not root_seen:
        raise XMLSyntaxError("no root element found", offset=0)
    return XMLDocument(text, elements)


def parse_fragment(text: str) -> XMLDocument:
    """Parse a segment (well-formed fragment with one root element).

    Alias of :func:`parse`; exists so call sites distinguish "parsing a
    segment about to be inserted" from "parsing a whole document".
    """
    return parse(text)


def parse_flat(text: str) -> FlatDocument:
    """Parse a segment (:func:`parse`) into what an insert reads of it, to
    keep: the text and its elements, tags interned, and no tree (so it
    leaves the cycle collector no garbage)."""
    return parse(text).flat


def is_well_formed(text: str) -> bool:
    """True when ``text`` parses as a well-formed fragment."""
    try:
        parse(text)
    except XMLSyntaxError:
        return False
    return True
