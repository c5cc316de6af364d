"""A character-exact XML tokenizer.

Splits XML text into a stream of tokens, each carrying the exact character
span ``[start, end)`` it occupies in the input.  The tokenizer recognizes the
constructs the update model needs to step over faithfully:

- start tags (with attributes), end tags, empty-element tags;
- character data;
- comments, CDATA sections, processing instructions;
- the XML declaration and (non-nested) DOCTYPE declarations;
- entity and character references inside character data (passed through as
  raw text — offsets, not decoded values, are what matters here).

Offsets must survive round-trips, so nothing is normalized: the concatenation
of all token source spans reproduces the input exactly.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import XMLSyntaxError

__all__ = ["TokenKind", "Token", "scan_token", "tokenize"]

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")
_WHITESPACE = set(" \t\r\n")
#: The ASCII subset of the two name rules below, for the common case.
_ASCII_NAME = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")


class TokenKind(Enum):
    """Discriminates the token variants produced by :func:`tokenize`."""

    START_TAG = "start_tag"
    END_TAG = "end_tag"
    EMPTY_TAG = "empty_tag"
    TEXT = "text"
    COMMENT = "comment"
    CDATA = "cdata"
    PI = "pi"
    DECLARATION = "declaration"
    DOCTYPE = "doctype"


@dataclass
class Token:
    """One lexical unit with its exact source span.

    ``name`` is the tag/PI target name where applicable, ``attributes`` is
    populated for start and empty tags.
    """

    kind: TokenKind
    start: int
    end: int
    name: str = ""
    attributes: dict[str, str] = field(default_factory=dict)


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


def _scan_name(text: str, pos: int, end: int) -> tuple[str, int]:
    # One C-level match covers the ASCII run; the loop below extends it
    # over any further name characters (and is the rule for the rest).
    match = _ASCII_NAME.match(text, pos, end)
    if match is not None:
        stop = match.end()
    elif pos < end and _is_name_start(text[pos]):
        stop = pos + 1
    else:
        raise XMLSyntaxError("expected a name", offset=pos)
    while stop < end and _is_name_char(text[stop]):
        stop += 1
    return text[pos:stop], stop


def _skip_whitespace(text: str, pos: int, end: int) -> int:
    while pos < end and text[pos] in _WHITESPACE:
        pos += 1
    return pos


def _scan_attributes(
    text: str, pos: int, end: int, attributes: dict[str, str] | None
) -> int:
    """Scan ``name="value"`` pairs until ``>`` or ``/>``; return that offset.

    The pairs land in ``attributes`` when a dict is given; the
    well-formedness checker passes ``None`` and allocates nothing.
    """
    while True:
        pos = _skip_whitespace(text, pos, end)
        if pos >= end:
            raise XMLSyntaxError("unterminated tag", offset=pos)
        if text[pos] in ">/":
            return pos
        name, pos = _scan_name(text, pos, end)
        pos = _skip_whitespace(text, pos, end)
        if pos >= end or text[pos] != "=":
            raise XMLSyntaxError(f"attribute {name!r} missing '='", offset=pos)
        pos = _skip_whitespace(text, pos + 1, end)
        if pos >= end or text[pos] not in "\"'":
            raise XMLSyntaxError(
                f"attribute {name!r} value must be quoted", offset=pos
            )
        value_end = text.find(text[pos], pos + 1, end)
        if value_end == -1:
            raise XMLSyntaxError(
                f"unterminated value for attribute {name!r}", offset=pos
            )
        if attributes is not None:
            attributes[name] = text[pos + 1 : value_end]
        pos = value_end + 1


def _scan_until(text: str, pos: int, end: int, marker: str, what: str) -> int:
    """Return the offset one past ``marker``; raise when not found."""
    found = text.find(marker, pos, end)
    if found == -1:
        raise XMLSyntaxError(f"unterminated {what}", offset=pos)
    return found + len(marker)


def scan_token(
    text: str,
    pos: int,
    end: int,
    doc_start: int = 0,
    attributes: dict[str, str] | None = None,
) -> tuple[TokenKind, int, str]:
    """Lex the one token starting at ``pos``, reading nothing at or past ``end``.

    Returns ``(kind, token end, name)``.  This is the whole lexical grammar:
    :func:`tokenize` wraps it in :class:`Token` objects, and the
    well-formedness checker (:mod:`repro.xml.wellformed`) calls it directly
    on windows of the text.  ``doc_start`` is the offset at which an
    ``<?xml`` counts as the XML declaration; ``attributes``, when given,
    receives a start or empty tag's attribute pairs.  Raises
    :class:`~repro.errors.XMLSyntaxError` when no complete token fits in
    ``text[pos:end]``.
    """
    if text[pos] != "<":
        # Character data up to the next markup (or the end of the window).
        next_lt = text.find("<", pos, end)
        return TokenKind.TEXT, end if next_lt == -1 else next_lt, ""
    # The character after "<" picks the family; each test below still reads
    # its whole literal, so the order of the rules is the documented one.
    second = text[pos + 1] if pos + 1 < end else ""
    if second == "!":
        if text.startswith("<!--", pos, end):
            return (
                TokenKind.COMMENT,
                _scan_until(text, pos + 4, end, "-->", "comment"),
                "",
            )
        if text.startswith("<![CDATA[", pos, end):
            return (
                TokenKind.CDATA,
                _scan_until(text, pos + 9, end, "]]>", "CDATA section"),
                "",
            )
        if text.startswith("<!DOCTYPE", pos, end):
            return (
                TokenKind.DOCTYPE,
                _scan_until(text, pos + 9, end, ">", "DOCTYPE declaration"),
                "",
            )
    elif second == "?":
        if pos == doc_start and text.startswith("<?xml", pos, end):
            return (
                TokenKind.DECLARATION,
                _scan_until(text, pos + 5, end, "?>", "XML declaration"),
                "",
            )
        name, name_end = _scan_name(text, pos + 2, end)
        return (
            TokenKind.PI,
            _scan_until(text, name_end, end, "?>", "processing instruction"),
            name,
        )
    elif second == "/":
        name, name_end = _scan_name(text, pos + 2, end)
        close = _skip_whitespace(text, name_end, end)
        if close >= end or text[close] != ">":
            raise XMLSyntaxError(f"malformed end tag for {name!r}", offset=pos)
        return TokenKind.END_TAG, close + 1, name
    name, name_end = _scan_name(text, pos + 1, end)
    attr_end = _scan_attributes(text, name_end, end, attributes)
    if text.startswith("/>", attr_end, end):
        return TokenKind.EMPTY_TAG, attr_end + 2, name
    if text[attr_end] == ">":
        return TokenKind.START_TAG, attr_end + 1, name
    raise XMLSyntaxError(f"malformed start tag for {name!r}", offset=pos)


def tokenize(text: str) -> Iterator[Token]:
    """Yield :class:`Token` objects covering ``text`` completely and in order.

    Raises :class:`~repro.errors.XMLSyntaxError` on lexical problems; tag
    *nesting* errors are the parser's job, not the tokenizer's.
    """
    pos = 0
    n = len(text)
    while pos < n:
        attributes: dict[str, str] = {}
        kind, end, name = scan_token(text, pos, n, 0, attributes)
        yield Token(kind, pos, end, name, attributes)
        pos = end
