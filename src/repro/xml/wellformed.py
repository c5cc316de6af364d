"""Well-formedness of a text window, without building anything.

:func:`well_formed` answers exactly what ``is_well_formed`` answers —
balanced tags, one root element, only whitespace outside it — but walks the
text in place: one :func:`~repro.xml.tokenizer.scan_token` call per token
(the tokenizer's own grammar, not a second one) and a stack of tag names.
Unlike ``parse`` it records no element and copies no text: the input is a
list of *pieces* ``(string, start, end)`` read as their concatenation, so
"this document with a span excised" is two windows on the same string and
"this document with a fragment spliced in" is three.  A markup token that
straddles a piece boundary is the one place characters are joined, and
only as many as that token needs.

A scan can also carry an :class:`Audit`: ranges of the text that must each
be a balanced run of whole tokens below the root, and elements that must be
found at given offsets.  The database uses it to learn, in the same pass
that validates an update, whether its segment and element records still
describe the text (see ``LazyXMLDatabase._audit``).
"""

from __future__ import annotations

from repro.errors import XMLSyntaxError
from repro.xml.tokenizer import TokenKind, scan_token

__all__ = ["Audit", "well_formed", "reaches_cleanly"]

Piece = tuple[str, int, int]

_TEXT = TokenKind.TEXT
_START_TAG = TokenKind.START_TAG
_END_TAG = TokenKind.END_TAG
_EMPTY_TAG = TokenKind.EMPTY_TAG

#: First look-ahead, in characters, when a token straddles a piece boundary.
_STITCH_WINDOW = 64


class Audit:
    """What a scan is asked to confirm besides well-formedness.

    ``ranges`` lists nested, non-overlapping text ranges as boundary events
    ``(offset, opens)`` in nesting order (a range's opening event, the
    events of the ranges inside it, its closing event).  Each must start
    and end between tokens or inside character data, start inside some
    element, and cover a balanced run of tags.  ``elements`` is a set of
    ``(start, end)`` offsets; each must be the extent of an element of the
    text.  Offsets count characters of the pieces' concatenation, from 0
    at its first.  ``confirmed`` is
    set by :func:`well_formed`: the text is well-formed and all of the
    above holds.
    """

    __slots__ = ("ranges", "elements", "confirmed")

    def __init__(self, ranges: list[tuple[int, bool]], elements: set[tuple[int, int]]):
        self.ranges = ranges
        self.elements = elements
        self.confirmed = False


def _stitch(pieces: list[Piece], index: int, pos: int, doc_start: int):
    """Lex the token at ``pos`` of piece ``index`` across the pieces after it.

    Returns ``(kind, name, piece index, offset, length)`` — where the token
    ends, and how many characters it has — or ``None`` when the
    concatenation holds no complete token there either.
    The look-ahead grows geometrically, so a token is joined from at most a
    constant factor more characters than it has.
    """
    text, _, end = pieces[index]
    head = text[pos:end]
    window = _STITCH_WINDOW
    while True:
        parts = [head]
        wanted = window
        following = index + 1
        while wanted and following < len(pieces):
            text, start, end = pieces[following]
            parts.append(text[start : min(end, start + wanted)])
            wanted -= len(parts[-1])
            following += 1
        joined = "".join(parts)
        try:
            kind, stop, name = scan_token(joined, 0, len(joined), doc_start)
        except XMLSyntaxError:
            if wanted:  # every remaining character was already in view
                return None
            window *= 4
            continue
        length = stop
        stop -= len(head)
        following = index
        while stop > 0:
            following += 1
            _, start, end = pieces[following]
            if stop <= end - start:
                return kind, name, following, start + stop, length
            stop -= end - start
        return kind, name, index, pos + len(head) + stop, length


def well_formed(
    pieces: list[Piece], *, wrapped: bool = False, audit: Audit | None = None
) -> bool:
    """True when the concatenation of ``pieces`` parses as one document.

    With ``wrapped`` the text is read as the content of an enclosing
    element instead: any number of top-level elements and character data,
    still balanced — what parsing ``<r>`` + text + ``</r>`` accepts.
    """
    names: list[str] = []
    starts: list[int] = []  # where each open element began
    root_seen = wrapped
    wanted = audit.elements if audit is not None else ()
    found = 0
    events = audit.ranges if audit is not None else ()
    event = 0
    floors: list[int] = []  # element depth at each open range's start
    sound = True  # the audit has not failed yet
    index = 0
    text, pos, end = pieces[0]
    doc_start = -1 if wrapped else pos
    shift = -pos  # concatenation offset minus offset in ``text``
    while True:
        if pos >= end:
            index += 1
            if index == len(pieces):
                break
            shift += end
            text, pos, end = pieces[index]
            shift -= pos
            continue
        begin = pos
        start = pos + shift
        try:
            kind, pos, name = scan_token(text, pos, end, doc_start)
        except XMLSyntaxError:
            if index == len(pieces) - 1:
                return False
            stitched = _stitch(pieces, index, pos, 0 if pos == doc_start else -1)
            if stitched is None:
                return False
            kind, name, index, pos, length = stitched
            text, _, end = pieces[index]
            shift = start + length - pos
        stop = pos + shift
        # Range boundaries before the token's end, met at the depth the
        # token starts from.  At or before its first character they sit
        # between tokens (or in the gap an excised span left); further in
        # they are harmless in character data, where tags do not move,
        # and fatal to the audit in markup.
        while event < len(events) and events[event][0] < stop:
            offset, opens = events[event]
            if offset > start and kind is not _TEXT:
                sound = False
            elif opens:
                sound = sound and bool(names)
                floors.append(len(names))
            elif floors.pop() != len(names):
                sound = False
            event += 1
        if not sound:
            events = ()  # nothing left to confirm; ``floors`` may be off
        if kind is _TEXT:
            if not names and not wrapped and text[begin:pos].strip():
                return False
        elif kind is _START_TAG or kind is _EMPTY_TAG:
            if root_seen and not names and not wrapped:
                return False
            root_seen = True
            if kind is _START_TAG:
                names.append(name)
                starts.append(start)
            elif (start, stop) in wanted:
                found += 1
        elif kind is _END_TAG:
            if not names or names.pop() != name:
                return False
            if (starts.pop(), stop) in wanted:
                found += 1
            if floors and len(names) < floors[-1]:
                sound = False
    if names or not root_seen:
        return False
    if audit is not None:
        # A range still open here would close at the very end of the text,
        # where no element is open, so it cannot be balanced below the root.
        audit.confirmed = (
            sound and event == len(events) and found == len(wanted)
        )
    return True


def reaches_cleanly(pieces: list[Piece]) -> bool:
    """True when the concatenation of ``pieces``, read from a position
    between tokens, lexes into whole tokens (the last may be character data
    cut short): text spliced in at its end splits no markup."""
    text = "".join(string[start:end] for string, start, end in pieces)
    pos = 0
    try:
        while pos < len(text):
            _, pos, _ = scan_token(text, pos, len(text), -1)
    except XMLSyntaxError:
        return False
    return True
