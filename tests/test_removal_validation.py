"""Update validation: the lean checkers against the re-parses they replaced.

``remove`` refuses a span inside one top-level document iff that document
parses now and would not parse with the span excised, or the span takes
one tag of an element and leaves the other; ``insert`` refuses a
fragment iff the super document with it spliced in would not parse as
element content.  The database once decided both by slicing the text and
tree-parsing the copies; those validators live on here, verbatim, as the
oracle (:class:`DoubleParseDatabase`).  The shipped validators read the
touched document only — nothing at all for whole-segment removes in
*trusted* documents, the gap before the insert point for inserts into
them — so the properties below drive both through the same random
histories (inserts at any offset, comments and CDATA holding tags, partial
removes, repack/compact, snapshot round trips) and demand the same verdict,
the same error, the same text, every time — for the op that was drawn and,
in every state reached, for the remove of each live segment.

The second half pins the *shape* of the cost by counting the bytes handed
to the checker, not by timing.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import storage
from repro.core import database as database_module
from repro.core.database import LazyXMLDatabase
from repro.core.segment import SpanRelation, relate
from repro.durability.recovery import validate_op
from repro.errors import InvalidSegmentError, ReproError, XMLSyntaxError
from repro.xml.parser import is_well_formed, parse_flat, parse_fragment
from repro.xml.wellformed import well_formed


class DoubleParseDatabase(LazyXMLDatabase):
    """The parent commit's validators, moved here verbatim: the oracle.
    (The text they read is :attr:`text` now, the removal check overrides
    ``check_removal``, and the insert check's hook takes, and ignores,
    where the insert lands.)  The removal check has since learnt to refuse
    a span taking one tag of an element and leaving the other, read off
    its own re-parse of the document."""

    def _validate_insert(self, fragment: str, position: int, *_located) -> None:
        candidate = self.text[:position] + fragment + self.text[position:]
        try:
            parse_fragment(f"<__dummy_root__>{candidate}</__dummy_root__>")
        except XMLSyntaxError as exc:
            raise InvalidSegmentError(
                f"insertion at {position} would produce malformed XML: {exc}"
            ) from exc

    def check_removal(self, position: int, length: int) -> None:
        if length <= 0:
            raise InvalidSegmentError(
                f"removal length must be positive, got {length}"
            )
        if position < 0 or position + length > self.log.document_length:
            raise InvalidSegmentError(
                f"removal span [{position}, {position + length}) outside "
                f"super document [0, {self.log.document_length})"
            )
        self._reject_boundary_crossing(self.log.ertree.root, position, length)
        for top in self.log.ertree.root.children:
            if relate(position, length, top.gp, top.length) is not SpanRelation.CONTAINED:
                continue
            current = self.text[top.gp : top.end]
            candidate = (
                self.text[top.gp : position]
                + self.text[position + length : top.end]
            )
            if not is_well_formed(current):
                break
            if not is_well_formed(candidate):
                raise InvalidSegmentError(
                    f"removal span [{position}, {position + length}) lands "
                    "mid-tag: the surviving document would not be "
                    "well-formed"
                )
            lo, hi = position - top.gp, position + length - top.gp
            if any(
                lo <= e.start < hi < e.end or e.start < lo < e.end <= hi
                for e in parse_flat(current).elements
            ):
                raise InvalidSegmentError(
                    f"removal span [{position}, {position + length}) takes "
                    "one tag of an element and leaves the other"
                )
            break

    def _reject_boundary_crossing(self, node, position: int, length: int) -> None:
        for child in node.children:
            rel = relate(position, length, child.gp, child.length)
            if rel is SpanRelation.CONTAINED:
                self._reject_boundary_crossing(child, position, length)
                return
            if rel in (SpanRelation.LEFT_INTERSECT, SpanRelation.RIGHT_INTERSECT):
                raise InvalidSegmentError(
                    f"removal span [{position}, {position + length}) crosses "
                    f"the boundary of segment {child.sid} "
                    f"[{child.gp}, {child.end}); remove whole segments or "
                    "spans inside one segment"
                )


# ----------------------------------------------------------------------
# random histories


#: Character data and markup that look like the end (or start) of something.
_FILLERS = (
    "", "x", " ", "-->", "]]>", "<!-- <b> -->", "<!----->", "<![CDATA[</a><b>]]>",
    "<?pi <a> ?>", "&lt;", "'\"",
)
_ATTRIBUTES = ("", ' t=">"', " t='/>'", ' t="-->" u="<!--"', ' t="<b>"', " t='\"'")


@st.composite
def _elements(draw, depth=0):
    tag = draw(st.sampled_from("ab"))
    attributes = draw(st.sampled_from(_ATTRIBUTES))
    if draw(st.integers(0, 3)) == 0:
        return f"<{tag}{attributes}/>"
    parts = [draw(st.sampled_from(_FILLERS))]
    if depth < 2:
        for _ in range(draw(st.integers(0, 2))):
            parts.append(draw(_elements(depth + 1)))
            parts.append(draw(st.sampled_from(_FILLERS)))
    return f"<{tag}{attributes}>{''.join(parts)}</{tag}>"


_PROLOGS = ("", "", "", " ", "<!--p-->", "<?xml version='1.0'?>", "<!DOCTYPE a>")
_EPILOGS = ("", "", "", "\n", "<!--e-->", "<!-- <a> -->")


@st.composite
def _fragments(draw):
    return (
        draw(st.sampled_from(_PROLOGS))
        + draw(_elements())
        + draw(st.sampled_from(_EPILOGS))
    )


#: One op: a kind and three numbers the replay maps onto the current state.
_OPS = st.tuples(
    st.sampled_from(
        ["insert"] * 5
        + ["remove_segment"] * 4
        + ["remove_tokens"] * 3
        + ["repair"] * 2
        + ["remove_any", "insert", "repack", "compact", "reload"]
    ),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    _fragments(),
)

_TOKEN_EDGE = re.compile(r"<|(?<=>)")


def _attempt(db, call):
    """Run ``call(db)``; the outcome as something two databases can compare."""
    try:
        call(db)
    except ReproError as exc:
        return type(exc), "mid-tag" in str(exc), "crosses the boundary" in str(exc)
    return None


def _replay(ops, check=None):
    db, oracle = LazyXMLDatabase(), DoubleParseDatabase()
    for kind, a, b, fragment in ops:
        text = oracle.text
        sids = sorted(sid for sid in oracle.log.ertree._nodes if sid)
        edges = [m.start() for m in _TOKEN_EDGE.finditer(text)] + [len(text)]
        if kind == "insert":
            # Any offset, but mostly at or just past a token edge: between
            # tokens, inside a tag's name, behind a comment's opener.
            position = a % (len(text) + 1)
            if b % 4:
                position = min(len(text), edges[a % len(edges)] + (b % 4 - 1) * 2)
            call = lambda d: d.insert(fragment, position)  # noqa: E731
        elif kind == "remove_segment":
            if not sids:
                continue
            sid = sids[a % len(sids)]
            call = lambda d: d.remove_segment(sid)  # noqa: E731
        elif kind == "remove_tokens":
            # A span between two places where a token can start or end:
            # the removes a careful caller issues, many of them accepted.
            lo, hi = sorted((edges[a % len(edges)], edges[b % len(edges)]))
            call = lambda d: d.remove(lo, hi - lo)  # noqa: E731
        elif kind == "repair":
            # The remove that brings a malformed mirror back, if one exists:
            # how documents get to parse with segments in odd places.
            spans = [(lo, hi) for lo in edges for hi in edges if lo < hi]
            random.Random(a).shuffle(spans)
            for lo, hi in spans[:40]:
                if not is_well_formed(f"<r>{text}</r>") and is_well_formed(
                    f"<r>{text[:lo]}{text[hi:]}</r>"
                ):
                    break
            else:
                continue
            call = lambda d: d.remove(lo, hi - lo)  # noqa: E731
        elif kind == "remove_any":
            position = a % (len(text) + 1)
            length = 1 + b % 12
            call = lambda d: d.remove(position, length)  # noqa: E731
        elif kind == "repack":
            if not sids:
                continue
            sid = sids[a % len(sids)]
            call = lambda d: d.repack(sid)  # noqa: E731
        elif kind == "compact":
            call = lambda d: d.compact()  # noqa: E731
        else:  # a snapshot round trip: every derived mark is lost
            db = storage.loads(storage.dumps(db))
            oracle = storage.loads(storage.dumps(oracle))
            oracle.__class__ = DoubleParseDatabase
            continue
        expected = _attempt(oracle, call)
        assert _attempt(db, call) == expected, (kind, a, b, fragment, text)
        assert db.text == oracle.text
        db.check_invariants()
        # Not only the remove that was drawn: in the state it left, the
        # read-only check must give the oracle's verdict for every live
        # segment (the spans the trusted mark lets through unread).
        for node in list(oracle.log.ertree.nodes())[1:]:
            assert _attempt(
                db, lambda d: d.check_removal(node.gp, node.length)
            ) == _attempt(
                oracle, lambda d: d.check_removal(node.gp, node.length)
            ), (node.sid, db.text, db._trusted)
        if check is not None:
            check(db)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.lists(_OPS, min_size=1, max_size=14))
def test_same_verdicts_as_the_double_parse(ops):
    _replay(ops)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=14))
def test_a_trusted_document_really_is(ops):
    """The mark's meaning, checked from scratch in every state reached: a
    trusted document parses, and still does without any one of its
    segments.  (A wrongly kept mark can take many more ops to surface as
    a wrong verdict; this catches it at the op that went wrong.)"""

    def check(db):
        for top in db.log.ertree.root.children:
            if top.sid not in db._trusted:
                continue
            assert is_well_formed(db.text[top.gp : top.end])
            for node in top.iter_subtree():
                if node is not top:
                    assert is_well_formed(
                        db.text[top.gp : node.gp] + db.text[node.end : top.end]
                    )

    _replay(ops, check)


def test_segment_inside_a_comment_is_not_trusted():
    """The regression behind the 'token boundary' half of the mark: a
    document can parse while a live segment straddles a comment's end."""
    db = LazyXMLDatabase()
    db.insert("<a><b><!----></b></a><!--e-->")
    inner = db.insert("<b>--></b>", db.text.index("<!---->") + 7)
    # A second root: the document stops parsing, so the removes that open
    # the comment around the segment's start go through.
    extra = db.insert("<z/>", db.text.index("<!--e-->"))
    assert not is_well_formed(db.text)
    db.remove(db.text.index("<!---->") + 4, 3)
    db.remove(db.text.index("</b></b>") + 4, 4)
    db.remove_segment(extra.sid)
    assert db.text == "<a><b><!--<b>--></b></a><!--e-->"
    assert is_well_formed(db.text)
    before = storage.dumps(db)
    with pytest.raises(InvalidSegmentError, match="mid-tag"):
        db.remove_segment(inner.sid)
    assert storage.dumps(db) == before
    db.check_invariants()


def test_insert_beside_a_broken_document_gets_the_oracles_verdict():
    """A second root stops a document parsing, so a remove may then cut
    its text anywhere, and the super document stops parsing with it: from
    there every insert anywhere is refused, as the double re-parse says,
    until a remove mends that document."""
    db, oracle = LazyXMLDatabase(), DoubleParseDatabase()
    for d in (db, oracle):
        d.insert("<!--p--><a/>")
        d.insert("<b/>", len("<!--p-->"))
        d.insert("<c/>")
        d.remove(d.text.index("/><c/>"), 2)  # "<a/>" loses its "/>"
    assert db.text == oracle.text == "<!--p--><b/><a<c/>"
    for position in (0, len(db.text)):
        for d in (db, oracle):
            with pytest.raises(InvalidSegmentError):
                d.insert("<d/>", position)
    db = storage.loads(storage.dumps(db))  # the same verdicts, marks lost
    with pytest.raises(InvalidSegmentError):
        db.insert("<d/>", len(db.text))
    db.remove(db.text.index("<a"), 2)
    db.insert("<d/>", len(db.text))
    assert db.text == "<!--p--><b/><c/><d/>"
    db.check_invariants()


def test_root_element_in_a_nested_segment_is_not_trusted():
    """The 'inside an element' half: a segment in a document's prolog can
    end up holding its only root, and taking it out must still be refused."""
    db = LazyXMLDatabase()
    db.insert("<!--c--><a/>")
    inner = db.insert("<b/>", len("<!--c-->"))
    db.remove(db.text.index("<a/>"), len("<a/>"))
    assert db.text == "<!--c--><b/>"
    with pytest.raises(InvalidSegmentError, match="mid-tag"):
        db.remove_segment(inner.sid)


def test_removal_that_fuses_two_siblings_is_refused():
    """Taking ``</b><b>`` leaves a document that parses, but one ``b``
    where the element index holds two records: refused, like a mid-tag
    cut, and by the journal's validation too."""
    db = LazyXMLDatabase()
    db.insert("<a><b>x</b><b>y</b></a>")
    db.insert("<d/>", db.text.index("y"))
    before = storage.dumps(db)
    op = {"op": "remove", "position": db.text.index("</b><b>"), "length": 7}
    for refuse in (
        lambda: db.remove(op["position"], op["length"]),
        lambda: validate_op(db, op),
    ):
        with pytest.raises(InvalidSegmentError, match="takes one tag"):
            refuse()
    assert storage.dumps(db) == before
    assert [(e.start, e.end) for e in db.global_elements("b")] == [(3, 11), (11, 23)]
    assert len(db.twig_query("a/b")) == 2
    db.check_invariants()


def test_removal_that_takes_an_end_tag_alone_is_refused():
    """A span starting inside a processing instruction can take an end
    tag and no start tag and still parse — the instruction runs on to the
    next ``?>`` and swallows a start tag — so both directions are
    checked."""
    db = LazyXMLDatabase()
    db.insert("<a><a><?p x?></a><a><?p y?></a></a>")
    cut = "x?></a>"
    assert is_well_formed(db.text.replace(cut, ""))
    with pytest.raises(InvalidSegmentError, match="takes one tag"):
        db.remove(db.text.index(cut), len(cut))


def test_records_orphaned_by_an_unaligned_cut_are_not_trusted():
    """The 'records match the text' half: a cut through two tags can leave
    a document that parses and an element record that starts mid-tag — no
    boundary for a later insert to scan from.  In a document that parses
    such a cut is refused (it takes ``b``'s end tag and leaves its start
    tag); a second root lets it through, and taking that root out again
    leaves the orphaned records in a document that parses."""
    db = LazyXMLDatabase()
    top = db.insert('<a><b t="1">x</b><c u="2">y</c></a><!--e-->')
    assert top.sid in db._trusted
    cut = 'b t="1">x</b><'
    with pytest.raises(InvalidSegmentError, match="takes one tag"):
        db.remove(db.text.index(cut), len(cut))
    extra = db.insert("<z/>", db.text.index("<!--e-->"))
    db.remove(db.text.index(cut), len(cut))
    db.remove_segment(extra.sid)
    assert db.text == '<a><c u="2">y</c></a><!--e-->' and is_well_formed(db.text)
    assert top.sid not in db._trusted
    db.check_invariants()


_XMLISH = st.lists(
    st.sampled_from(
        ["<a>", "</a>", "<b>", "</b>", "<a/>", "<b t='>'>", "<!--", "-->", "<![CDATA[",
         "]]>", "<?p", "?>", "<?xml", "<!DOCTYPE", ">", "<", "/", "x", " ", "\n",
         "\x1f", " ", "=", "'", '"', "t", "&"]
    ),
    max_size=14,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_XMLISH, st.text(max_size=24), _fragments()))
def test_checker_agrees_with_the_parser(text):
    assert well_formed([(text, 0, len(text))]) == is_well_formed(text)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_XMLISH, _fragments()), st.one_of(_XMLISH, _fragments()), st.data())
def test_checker_reads_pieces_as_their_concatenation(text, other, data):
    """Excision (two windows on one string) and splicing (three windows on
    two), including tokens that only exist across the seam."""
    lo = data.draw(st.integers(0, len(text)))
    hi = data.draw(st.integers(lo, len(text)))
    excised = [(text, 0, lo), (text, hi, len(text))]
    assert well_formed(excised) == is_well_formed(text[:lo] + text[hi:])
    spliced = [(text, 0, lo), (other, 0, len(other)), (text, lo, len(text))]
    joined = text[:lo] + other + text[lo:]
    assert well_formed(spliced) == is_well_formed(joined)
    assert well_formed(spliced, wrapped=True) == is_well_formed(f"<r>{joined}</r>")


# ----------------------------------------------------------------------
# cost shape: bytes handed to the checker, counted


class _ByteCounter:
    """Wraps the database module's ``well_formed`` (or another checker);
    sums the window sizes."""

    def __init__(self, monkeypatch, name="well_formed"):
        self.bytes = 0
        self.calls = 0
        self.checker = getattr(database_module, name)
        monkeypatch.setattr(database_module, name, self)

    def __call__(self, pieces, **kwargs):
        self.calls += 1
        self.bytes += sum(end - start for _, start, end in pieces)
        return self.checker(pieces, **kwargs)

    def take(self):
        seen, self.bytes, self.calls = (self.bytes, self.calls), 0, 0
        return seen


def _site(persons: int) -> str:
    body = "".join(
        f'<person id="p{i}"><name>P {i}</name><profile><interest/></profile></person>'
        for i in range(persons)
    )
    return f"<site><people>{body}</people></site>"


@pytest.mark.parametrize("persons", [20, 200])
def test_whole_segment_remove_in_a_trusted_document_reads_nothing(persons, monkeypatch):
    counter = _ByteCounter(monkeypatch)
    db = LazyXMLDatabase()
    db.insert(_site(persons))
    point = db.text.index("<person")
    for round_ in range(5):
        receipt = db.insert(f"<person><name>new {round_}</name></person>", point)
        db.remove_segment(receipt.sid)
    assert counter.take() == (0, 0)
    db.check_invariants()


@pytest.mark.parametrize("maintenance", ["repack", "repack_nested", "compact", "clone"])
def test_trust_survives_maintenance(maintenance, monkeypatch):
    """Repacking relabels with the global spans the mark vouches for, over
    unchanged text, and a clone copies the marks: afterwards a segment
    remove reads nothing and a clean insert reads only its gap."""
    db = LazyXMLDatabase()
    db.insert(_site(50))
    db.insert(_site(5))
    nested = db.insert("<person><name>n</name></person>", db.text.index("<person"))
    if maintenance == "repack":
        db.repack(db.log.ertree.root.children[0].sid)
    elif maintenance == "repack_nested":
        db.repack(nested.sid)
    elif maintenance == "compact":
        db.compact()
    else:
        db = storage.clone(db)
    assert db._trusted == {top.sid for top in db.log.ertree.root.children}
    scans = _ByteCounter(monkeypatch)
    gaps = _ByteCounter(monkeypatch, "reaches_cleanly")
    point = db.text.index("<name>P 7</name>") + len("<name>P ")
    receipt = db.insert("<x/>", point)
    db.remove_segment(receipt.sid)
    assert scans.take() == (0, 0)
    assert gaps.take() == (len("<name>P "), 1)
    db.check_invariants()


def test_untrusted_document_costs_one_pass_then_none(monkeypatch):
    db = LazyXMLDatabase()
    db.insert(_site(50))
    db.insert("<other/>")
    point = db.text.index("<person")
    first = db.insert("<person><name>one</name></person>", point)
    second = db.insert("<person><name>two</name></person>", point)
    db = storage.loads(storage.dumps(db))  # marks are not persisted
    assert not db._trusted
    top = db.log.ertree.root.children[0]
    counter = _ByteCounter(monkeypatch)
    db.remove_segment(first.sid)
    scanned, calls = counter.take()
    assert calls == 1 and scanned <= top.length + first.length
    assert top.sid in db._trusted
    db.remove_segment(second.sid)
    assert counter.take() == (0, 0)


def test_partial_remove_scans_one_document_once(monkeypatch):
    db = LazyXMLDatabase()
    db.insert(_site(50))
    db.insert(_site(50))
    top = db.log.ertree.root.children[1]
    counter = _ByteCounter(monkeypatch)
    start = db.text.index("<person", top.gp)
    length = db.text.index("</person>", start) + len("</person>") - start
    db.remove(start, length)
    scanned, calls = counter.take()
    assert calls == 1 and scanned == top.length  # post-removal length
    assert top.sid in db._trusted  # a clean cut: records still match the text


def test_chop_style_ingest_leaves_every_document_trusted():
    """The shape ``benchmarks/e2e/corpus.py`` ingests: per document one
    skeleton, then each cut subtree at its offset, all in one batch."""
    rng = random.Random(7)
    ops = []
    doc_start = 0
    for _ in range(3):
        text = _site(12)
        cuts = [
            (m.start(), m.end())
            for m in re.finditer(r"<profile>.*?</profile>", text)
            if rng.random() < 0.5
        ]
        pieces, cursor = [], 0
        for start, end in cuts:
            pieces.append(text[cursor:start])
            cursor = end
        pieces.append(text[cursor:])
        ops.append({"op": "insert", "fragment": "".join(pieces), "position": doc_start})
        ops.extend(
            {"op": "insert", "fragment": text[start:end], "position": doc_start + start}
            for start, end in cuts
        )
        doc_start += len(text)
    db = LazyXMLDatabase()
    assert all(result is not None for result in db.apply_batch(ops))
    tops = [top.sid for top in db.log.ertree.root.children]
    assert len(tops) == 3 and set(tops) == db._trusted
    assert db.segment_count > 6
