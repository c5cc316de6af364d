"""A character-exact XML tokenizer.

Lexes XML text one token at a time (:func:`scan_token`), each carrying the
exact character span ``[start, end)`` it occupies in the input.  The
tokenizer recognizes the constructs the update model needs to step over:

- start tags (with attributes), end tags, empty-element tags;
- character data;
- comments, CDATA sections, processing instructions;
- the XML declaration and (non-nested) DOCTYPE declarations;
- entity and character references inside character data (passed through as
  raw text — offsets, not decoded values, are what matters here).

Nothing is normalized: token spans laid end to end are the input.  The
character rules below are the grammar of record and raise every error; one
compiled pattern first lexes the tokens almost every fragment is made of
(character data, tags with ASCII names and quoted attributes) exactly as
they do, and everything else, or a call asking for attribute pairs, goes
to the rules.

:data:`MARKUP` is the same tag pattern without character data, for a scan
that finds markup with ``finditer`` and never visits the text between
tags (the parser, :mod:`repro.xml.parser`).  It matches any ``<``: a tag
it reads whole, and anything else as that one character, at which the
scan falls back to :func:`scan_token`.
"""

from __future__ import annotations

import re
from enum import Enum

from repro.errors import XMLSyntaxError

__all__ = ["MARKUP", "TokenKind", "scan_token"]

_NAME_START_EXTRA = set("_:")
_NAME_EXTRA = set("_:.-")
_WHITESPACE = set(" \t\r\n")

# An ASCII name ``_scan_name`` would not read on past (``\w`` is
# ``str.isalnum()`` plus ``_``), so no match backtracks into a shorter name.
# No possessive quantifiers or atomic groups: Python 3.10 has neither.
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*(?![\w.:\-])"
_S = r"[ \t\r\n]*"
# A start tag (its name, then its ``/`` if empty) and an end tag (its
# name).  As in ``_scan_attributes``, an attribute needs no whitespace
# before it (``x="1"y="2"``).
_TAGS = (
    rf"""<({_NAME})(?:{_S}{_NAME}{_S}={_S}(?:"[^"]*"|'[^']*'))*{_S}(/?)>"""
    rf"|</({_NAME}){_S}>"
)
#: The common tokens: 1 is character data, 2 a start tag's name and 3 its
#: ``/`` if empty, 4 an end tag's name.
_COMMON = re.compile(rf"([^<]+)|{_TAGS}")
#: Markup, for a scan that steps over character data: 1 a start tag's name
#: and 2 its ``/`` if empty, 3 an end tag's name, and no group for any
#: other ``<`` (a comment, CDATA, a PI, a declaration, a name the pattern
#: does not read, or an error), which only :func:`scan_token` can lex.
MARKUP = re.compile(rf"{_TAGS}|<")


class TokenKind(Enum):
    """Discriminates the token variants :func:`scan_token` returns."""

    START_TAG = "start_tag"
    END_TAG = "end_tag"
    EMPTY_TAG = "empty_tag"
    TEXT = "text"
    COMMENT = "comment"
    CDATA = "cdata"
    PI = "pi"
    DECLARATION = "declaration"
    DOCTYPE = "doctype"


_TEXT = TokenKind.TEXT
_START_TAG = TokenKind.START_TAG
_EMPTY_TAG = TokenKind.EMPTY_TAG
_END_TAG = TokenKind.END_TAG


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch in _NAME_START_EXTRA


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in _NAME_EXTRA


def _scan_name(text: str, pos: int, end: int) -> tuple[str, int]:
    if pos >= end or not _is_name_start(text[pos]):
        raise XMLSyntaxError("expected a name", offset=pos)
    stop = pos + 1
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
    the parser (:mod:`repro.xml.parser`) loops over it, and the
    well-formedness checker (:mod:`repro.xml.wellformed`) calls it directly
    on windows of the text.  ``doc_start`` is the offset at which an
    ``<?xml`` counts as the XML declaration; ``attributes``, when given,
    receives a start or empty tag's attribute pairs.  Raises
    :class:`~repro.errors.XMLSyntaxError` when no complete token fits in
    ``text[pos:end]``.
    """
    if attributes is None:
        match = _COMMON.match(text, pos, end)
        if match is not None:
            group = match.lastindex
            if group == 1:
                return _TEXT, match.end(), ""
            if group == 4:
                return _END_TAG, match.end(), match[4]
            return _EMPTY_TAG if match[3] else _START_TAG, match.end(), match[2]
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
