"""Offset-exact XML parser.

One loop over the markup checks well-formedness (balanced tags, a single
root element) and records each element flat, as the element index stores
it: ``(tag, start, end, level)`` in the segment's own coordinate space.  It
builds no tree; the :class:`~repro.xml.model.XMLDocument` builds one for a
caller that reads it.

The loop is one ``finditer`` of :data:`~repro.xml.tokenizer.MARKUP`: tags
with ASCII names and quoted attributes come out of the pattern whole, and
the character data between them is never visited, except outside the root,
where it must be whitespace.  Any other ``<`` — a comment, CDATA, a PI, the
XML declaration, a DOCTYPE, a non-ASCII name, or an error — falls back to
:func:`~repro.xml.tokenizer.scan_token` at that offset, and the ``finditer``
restarts after the token it lexed.  The rules raise every error, so a
message and its offset are what a token-by-token loop over
:func:`~repro.xml.tokenizer.scan_token` would raise.
"""

from __future__ import annotations

from sys import intern

from repro.errors import XMLSyntaxError
from repro.xml.model import Element, FlatDocument, XMLDocument
from repro.xml.tokenizer import MARKUP, TokenKind, scan_token

__all__ = ["parse", "parse_fragment", "parse_flat", "is_well_formed"]

_START_TAG = TokenKind.START_TAG
_EMPTY_TAG = TokenKind.EMPTY_TAG
_END_TAG = TokenKind.END_TAG
_new = tuple.__new__  # an Element from a tuple, as Element._make builds one
_markup = MARKUP.finditer


def parse(text: str) -> XMLDocument:
    """Parse ``text`` into an :class:`XMLDocument`.

    Requires exactly one root element; prolog material (XML declaration,
    DOCTYPE, comments, whitespace) may precede it and comments/whitespace may
    follow it.  Raises :class:`~repro.errors.XMLSyntaxError` otherwise.
    Tags are interned.
    """
    elements: list[Element | None] = []
    stack: list[tuple[int, str, int]] = []  # open: (index, tag, start)
    depth = 0  # len(stack)
    root_seen = False
    pos, n = 0, len(text)
    matches = _markup(text)
    while matches is not None:
        found, matches = matches, None
        for match in found:
            name, empty, closing = match.groups()
            start, end = match.span()
            # Character data is what lies between markup; it only matters
            # outside the root, where it must be whitespace.
            if not depth and text[pos:start].strip():
                raise XMLSyntaxError(
                    "character data outside the root element", offset=pos
                )
            if name is None and closing is None:
                # Markup the pattern does not read: the rules lex it, and
                # the scan resumes after it (it may hold a "<").  Comments,
                # CDATA, PIs, declarations and DOCTYPE carry no structure.
                kind, end, token = scan_token(text, start, n)
                matches = _markup(text, end)
                if kind is _END_TAG:
                    closing = token
                elif kind is _START_TAG or kind is _EMPTY_TAG:
                    name, empty = token, kind is _EMPTY_TAG
            if name is not None:
                if not depth:
                    if root_seen:
                        raise XMLSyntaxError(
                            "content after the root element", offset=start
                        )
                    root_seen = True
                if empty:
                    elements.append(
                        _new(Element, (intern(name), start, end, depth + 1))
                    )
                else:
                    stack.append((len(elements), name, start))
                    elements.append(None)  # filled in at its end tag
                    depth += 1
            elif closing is not None:
                if not depth:
                    raise XMLSyntaxError(
                        f"unexpected end tag </{closing}>", offset=start
                    )
                index, tag, opened = stack.pop()
                if tag != closing:
                    raise XMLSyntaxError(
                        f"end tag </{closing}> does not match <{tag}>",
                        offset=start,
                    )
                elements[index] = _new(Element, (intern(tag), opened, end, depth))
                depth -= 1
            pos = end
            if matches is not None:
                break
    if not stack and text[pos:].strip():
        raise XMLSyntaxError("character data outside the root element", offset=pos)
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
