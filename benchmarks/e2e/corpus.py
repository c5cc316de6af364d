"""Frozen benchmark inputs: generators, the chop rule, round schedules.

Nothing here imports ``repro``: the documents, the fragments and the order
of operations are a pure function of ``(workload sizes, seed)``, so a later
change under ``src/`` cannot alter what the benchmark feeds the system.

Two corpus kinds exist.  ``xmark`` is an auction-site document in the XMark
shape (regions/items, categories, people/persons, open and closed auctions),
chopped at ``profile`` / ``watches`` / ``address`` subtrees so a quarter of
the ``person//watch`` and ``person//interest`` pairs cross a segment boundary
(the paper's 20-30 %).  ``registration`` is a stream of small top-level
registration forms.

Attributes are drawn from shuffled decks (:func:`_deck`), not independent
draws: every seed yields the same number of phones, interests, watches and
bidders, only assigned to different elements.  Per-seed corpus size then
varies by a few bytes, which keeps the metrics comparable across seeds.

A schedule is a list of *rounds*, each a list of *steps*:

``("insert", key, fragment, position)``
    insert ``fragment`` at character ``position`` of the super document;
``("remove", key, position, length)``
    remove the segment inserted under ``key`` (the position and length are
    for the string shadow in :mod:`oracle`; surfaces remove by handle);
``("batch", [insert and remove steps])``
    the sub-steps as one commit;
``("pass",)``
    one pass over the workload's query suite;
``("checkpoint",)``
    fold the journal (a no-op on surfaces without one).

After the ``warmup`` rounds every insert is matched by the remove of the
fragment inserted ``window`` rounds earlier, so the state is stationary.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

__all__ = ["Workload", "SUITES", "TWIG_PROBES", "build", "fingerprint"]

#: Query suites: ``("join", ancestor, descendant)``, ``("path", expr)`` or
#: ``("twig", expr)``.  A query sample is one pass over a whole suite.
SUITES = {
    # Fig. 14's Q1-Q5 plus one path expression.
    "xmark_pairwise": (
        ("join", "person", "phone"),
        ("join", "profile", "interest"),
        ("join", "watches", "watch"),
        ("join", "person", "watch"),
        ("join", "person", "interest"),
        ("path", "person//profile/interest"),
    ),
    # spine, branch, child-axis, second subtree, wildcard, positional, absent.
    "xmark_twig": (
        ("twig", "people/person[watches/watch]//interest"),
        ("twig", "person[profile/interest]//watch"),
        ("twig", "site//person[phone]/name"),
        ("twig", "open_auction[bidder]//increase"),
        ("twig", "people/*[profile]/name"),
        ("twig", "person/profile/interest[2]"),
        ("twig", "person[nosuchtag]//name"),
    ),
    "registration": (
        ("join", "registration", "interest"),
        ("join", "user", "name"),
        ("join", "contact", "city"),
        ("join", "registration", "phone"),
        ("path", "registration/contact/address/city"),
        ("path", "registration//preferences/interest"),
    ),
    # The write-heavy workload reads little: two cheap queries per pass.
    "registration_small": (
        ("join", "registration", "phone"),
        ("path", "contact/address"),
    ),
}

#: Twig patterns the traced run times on every workload's corpus, so the
#: ``twig.*`` layer metrics exist where the suite itself has no twig.
TWIG_PROBES = {
    "xmark": SUITES["xmark_twig"],
    "registration": (
        ("twig", "registration[contact/phone]//interest"),
        ("twig", "registration/user[occupation]/name"),
        ("twig", "registration/*[address]/email"),
        ("twig", "preferences/interest[2]"),
        ("twig", "registration[nosuchtag]//email"),
    ),
}

_REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")
_OCCUPATIONS = ("engineer", "teacher", "researcher", "student", "analyst")


def _deck(rng: random.Random, n: int, values) -> list:
    """``n`` draws cycling through ``values`` in shuffled order: the
    multiset is the same for every seed, only the assignment moves."""
    values = list(values)
    cards = [values[i % len(values)] for i in range(n)]
    rng.shuffle(cards)
    return cards


def _flags(rng: random.Random, n: int, share: float) -> list[bool]:
    """Exactly ``round(share * n)`` true flags among ``n``, shuffled."""
    on = round(share * n)
    cards = [True] * on + [False] * (n - on)
    rng.shuffle(cards)
    return cards


class _Text:
    """A string under construction that knows its own length."""

    def __init__(self):
        self.parts: list[str] = []
        self.pos = 0

    def add(self, piece: str) -> None:
        self.parts.append(piece)
        self.pos += len(piece)

    def value(self) -> str:
        return "".join(self.parts)


# ----------------------------------------------------------------------
# XMark-like documents


def _persons(rng: random.Random, indices) -> list[tuple[str, dict]]:
    """One person element per index, each with the spans of its
    ``address``, ``profile`` and ``watches`` subtrees (offsets into the
    person text).  The attribute decks are dealt over this call's persons."""
    n = len(indices)
    phones = _flags(rng, n, 0.8)
    interests = _deck(rng, n, range(0, 6))
    watches = _deck(rng, n, range(0, 9))
    educated = _flags(rng, n, 0.7)
    aged = _flags(rng, n, 0.5)
    genders = _deck(rng, n, ("male", "female"))
    business = _deck(rng, n, ("Yes", "No"))
    out = []
    for i, index in enumerate(indices):
        text = _Text()
        spans = {}
        text.add(f'<person id="person{index}"><name>Person {index}</name>')
        text.add(f"<emailaddress>mailto:person{index}@example.org</emailaddress>")
        if phones[i]:
            text.add(f"<phone>+{rng.randint(10, 99)} {rng.randint(1000000, 9999999)}</phone>")
        start = text.pos
        text.add(
            f"<address><street>{rng.randint(10, 99)} Main St</street>"
            f"<city>City{rng.randint(10, 60)}</city><country>United States</country>"
            f"<zipcode>{rng.randint(10000, 99999)}</zipcode></address>"
        )
        spans["address"] = (start, text.pos)
        start = text.pos
        text.add(f'<profile income="{rng.randint(10000, 99999)}">')
        for _ in range(interests[i]):
            text.add(f'<interest category="category{rng.randint(10, 99)}"/>')
        if educated[i]:
            text.add("<education>Graduate School</education>")
        text.add(f"<gender>{genders[i]}</gender><business>{business[i]}</business>")
        if aged[i]:
            text.add(f"<age>{rng.randint(18, 90)}</age>")
        text.add("</profile>")
        spans["profile"] = (start, text.pos)
        start = text.pos
        text.add("<watches>")
        for _ in range(watches[i]):
            text.add(f'<watch open_auction="open_auction{rng.randint(1000, 9999)}"/>')
        text.add("</watches>")
        spans["watches"] = (start, text.pos)
        text.add("</person>")
        out.append((text.value(), spans))
    return out


def _person_texts(rng: random.Random, n: int, first_index: int) -> list[str]:
    indices = range(first_index, first_index + n)
    return [text for text, _ in _persons(rng, indices)]


def _item(rng: random.Random, index: int, payment: str) -> str:
    return (
        f'<item id="item{index}"><location>City{rng.randint(10, 60)}</location>'
        f"<quantity>{rng.randint(1, 5)}</quantity><name>Item {index}</name>"
        f"<payment>{payment}</payment>"
        "<description><text>great condition</text></description></item>"
    )


def _site(rng: random.Random, doc_index: int, sizes: dict):
    """One auction-site document: ``(text, cut spans, people offset)``.

    The cut spans are the subtrees the chop rule turns into segments of
    their own: ``profile`` and ``watches`` of every ``cut_every``-th person
    and the ``address`` of every ``2 * cut_every``-th, in document order.
    ``people offset`` is where the schedule inserts new persons (just after
    the ``<people>`` start tag).
    """
    persons = sizes["persons"]
    items = sizes["items"]
    auctions = sizes["open_auctions"]
    base = doc_index * 1000
    text = _Text()
    cuts: list[tuple[int, int]] = []
    text.add("<site><regions>")
    per_region = -(-items // len(_REGIONS))
    payments = _deck(rng, items, ("Creditcard", "Cash", "Money order"))
    for r, region in enumerate(_REGIONS):
        members = range(r * per_region, min(items, (r + 1) * per_region))
        if members:
            text.add(f"<{region}>")
            for i in members:
                text.add(_item(rng, base + i, payments[i]))
            text.add(f"</{region}>")
    text.add("</regions><categories>")
    for i in range(sizes["categories"]):
        text.add(f'<category id="category{i}"><name>Category {i}</name></category>')
    text.add("</categories><people>")
    people_offset = text.pos
    # The persons whose subtrees become segments get decks of their own, so
    # the cross-segment share of every join is the same on every seed.
    every = sizes["cut_every"]
    cut = [i for i in range(persons) if i % every == 0]
    plain = [i for i in range(persons) if i % every]
    made = dict(zip(
        cut + plain,
        _persons(rng, [base + i for i in cut]) + _persons(rng, [base + i for i in plain]),
    ))
    for i in range(persons):
        person, spans = made[i]
        if i % every == 0:
            kinds = ["profile", "watches"]
            if i % (2 * every) == 0:
                kinds.insert(0, "address")
            for kind in kinds:
                start, end = spans[kind]
                cuts.append((text.pos + start, text.pos + end))
        text.add(person)
    text.add("</people><open_auctions>")
    bidders = _deck(rng, auctions, range(0, 6))
    for i in range(auctions):
        text.add(
            f'<open_auction id="open_auction{base + i}">'
            f"<initial>{rng.randint(10, 99)}.{rng.randint(10, 99)}</initial>"
        )
        for _ in range(bidders[i]):
            text.add(
                "<bidder><date>01/01/2005</date>"
                f"<increase>{rng.randint(10, 19)}.{rng.randint(10, 99)}</increase></bidder>"
            )
        text.add(
            f"<current>{rng.randint(100, 499)}.{rng.randint(10, 99)}</current>"
            f'<quantity>1</quantity><itemref item="item{rng.randint(1000, 9999)}"/>'
            f'<seller person="person{rng.randint(1000, 9999)}"/></open_auction>'
        )
    text.add("</open_auctions><closed_auctions>")
    for _ in range(sizes["closed_auctions"]):
        text.add(
            f'<closed_auction><seller person="person{rng.randint(1000, 9999)}"/>'
            f'<buyer person="person{rng.randint(1000, 9999)}"/>'
            f'<itemref item="item{rng.randint(1000, 9999)}"/>'
            f"<price>{rng.randint(100, 499)}.{rng.randint(10, 99)}</price>"
            "<date>01/01/2005</date><quantity>1</quantity></closed_auction>"
        )
    text.add("</closed_auctions></site>")
    return text.value(), cuts, people_offset


def _chop(text: str, cuts: list[tuple[int, int]], doc_start: int):
    """The chop-at-subtree rule: ``(fragment, position)`` insert ops that
    rebuild ``text`` at ``doc_start`` as one root segment plus one segment
    per cut span.

    The cut spans are disjoint and in document order, so when a cut's op
    runs everything to its left is already in place and its position is
    simply its offset in the finished document.
    """
    pieces = []
    cursor = 0
    for start, end in cuts:
        pieces.append(text[cursor:start])
        cursor = end
    pieces.append(text[cursor:])
    ops = [("".join(pieces), doc_start)]
    ops.extend((text[start:end], doc_start + start) for start, end in cuts)
    return ops


# ----------------------------------------------------------------------
# registration forms


def _registrations(rng: random.Random, n: int, first_index: int) -> list[str]:
    """``n`` registration forms (about 0.5 KB, 20-30 elements each)."""
    phones = _flags(rng, n, 0.6)
    interests = _deck(rng, n, range(1, 6))
    newsletters = _flags(rng, n, 0.5)
    occupations = _deck(rng, n, _OCCUPATIONS)
    countries = _deck(rng, n, ("Italy", "Japan", "China", "Spain", "Kenya"))
    out = []
    for i in range(n):
        index = first_index + i
        parts = [
            f'<registration id="reg{index:06d}"><user>'
            f"<identification>U{index:06d}</identification>"
            f"<name><first>First{index:06d}</first><last>Last{index:06d}</last></name>"
            f"<occupation>{occupations[i]}</occupation></user>"
            f"<contact><email>user{index:06d}@example.org</email>"
        ]
        if phones[i]:
            parts.append(f"<phone>+{rng.randint(10, 99)}-{rng.randint(100, 999)}</phone>")
        parts.append(
            f"<address><street>{rng.randint(100, 199)} Example Rd</street>"
            f"<city>City{rng.randint(10, 50)}</city>"
            f"<country>{countries[i]}</country></address></contact><preferences>"
        )
        for _ in range(interests[i]):
            parts.append(f'<interest topic="topic{rng.randint(10, 30)}"/>')
        if newsletters[i]:
            parts.append("<newsletter>yes</newsletter>")
        parts.append(
            "</preferences><metadata><submitted>2005-06-14</submitted>"
            "<source>web</source></metadata></registration>"
        )
        out.append("".join(parts))
    return out


def _stream(rng: random.Random, generate, deck: int, n: int, first_index: int):
    """The first ``n`` fragments of ``generate``'s endless stream.

    Fragments are generated ``deck`` at a time, so a shorter schedule is a
    strict prefix of a longer one on the same seed.  A schedule's deck is its
    window: the fragments alive at any deck boundary are one whole deck, and
    a whole deck has the same attribute totals on every seed — which is what
    makes ``stored_bytes_per_input_byte`` comparable across seeds.
    """
    out: list[str] = []
    while len(out) < n:
        out.extend(generate(rng, deck, first_index + len(out)))
    return out[:n]


# ----------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """Everything one run feeds the system."""

    kind: str  #: corpus kind, "xmark" or "registration"
    suite: tuple  #: the query suite of a pass
    ingest: list  #: ``(fragment, position)`` bulk-load ops, in order
    warmup: list  #: rounds replayed before the first measured op
    rounds: list  #: measured rounds


def _xmark_workload(sizes: dict, seed: int, suite: str, passes) -> Workload:
    """``docs`` chopped site documents; round = insert one person into a
    rotating document, remove the person inserted ``window`` rounds ago,
    with ``passes = (after insert, after remove)`` suite passes."""
    rng = random.Random(seed)
    docs = sizes["docs"]
    window = sizes["window"]
    ingest = []
    lengths = []  # current length of each document, live persons included
    offsets = []  # offset of the insertion point inside each document
    for d in range(docs):
        text, cuts, people_offset = _site(rng, d, sizes)
        ingest.extend(_chop(text, cuts, sum(lengths)))
        lengths.append(len(text))
        offsets.append(people_offset)
    total = sizes["warmup_rounds"] + sizes["rounds"]
    fragments = _stream(rng, _person_texts, window, window + total, 900_000)
    # New persons go in right after <people>, ahead of the ones inserted
    # before them, so a live person sits behind every later insert into its
    # document; removal is oldest first.
    live: list[list[int]] = [[] for _ in range(docs)]  # keys, oldest first
    all_rounds = []
    for r in range(window + total):
        d = r % docs
        fragment = fragments[r]
        steps = [("insert", r, fragment, sum(lengths[:d]) + offsets[d])]
        lengths[d] += len(fragment)
        live[d].append(r)
        steps.extend([("pass",)] * passes[0])
        if r >= window:
            old = r - window
            od = old % docs
            assert live[od][0] == old
            behind = sum(len(fragments[k]) for k in live[od][1:])
            steps.append(
                ("remove", old, sum(lengths[:od]) + offsets[od] + behind,
                 len(fragments[old]))
            )
            live[od].pop(0)
            lengths[od] -= len(fragments[old])
            steps.extend([("pass",)] * passes[1])
        all_rounds.append(steps)
    warm = window + sizes["warmup_rounds"]
    return Workload(
        kind="xmark",
        suite=SUITES[suite],
        ingest=ingest,
        warmup=all_rounds[:warm],
        rounds=all_rounds[warm:],
    )


def _registration_workload(sizes: dict, seed: int, suite: str) -> Workload:
    """``docs`` top-level forms; round = ``writes`` insert+remove pairs
    (append at the end, remove the oldest form of the schedule), then
    ``passes`` suite passes; every ``batch_every``-th round also commits
    ``batch_pairs`` pairs as one batch, every ``checkpoint_every``-th ends
    with a checkpoint."""
    rng = random.Random(seed)
    docs = _registrations(rng, sizes["docs"], 0)
    ingest = []
    base = 0
    for doc in docs:
        ingest.append((doc, base))
        base += len(doc)
    window = sizes["window"]
    if window < sizes["batch_pairs"]:
        raise ValueError("a batch may not remove what it inserted: window < batch_pairs")
    total = sizes["warmup_rounds"] + sizes["rounds"]
    pairs = sizes["writes"] * total + sizes["batch_pairs"] * (
        total // sizes["batch_every"] if sizes["batch_every"] else 0
    )
    fragments = _stream(rng, _registrations, window, window + pairs, 100_000)
    live: list[int] = []  # keys in document order (= insertion order)
    length = base
    cursor = 0

    def insert():
        nonlocal cursor, length
        step = ("insert", cursor, fragments[cursor], length)
        live.append(cursor)
        length += len(fragments[cursor])
        cursor += 1
        return step

    def remove():
        nonlocal length
        key = live.pop(0)
        length -= len(fragments[key])
        return ("remove", key, base, len(fragments[key]))

    fill = [[insert()] for _ in range(window)]
    all_rounds = []
    for r in range(1, total + 1):
        steps = []
        for _ in range(sizes["writes"]):
            steps.append(insert())
            steps.append(remove())
        if sizes["batch_every"] and r % sizes["batch_every"] == 0:
            subs = []
            for _ in range(sizes["batch_pairs"]):
                subs.append(insert())
                subs.append(remove())
            steps.append(("batch", subs))
        steps.extend([("pass",)] * sizes["passes"])
        if sizes["checkpoint_every"] and r % sizes["checkpoint_every"] == 0:
            steps.append(("checkpoint",))
        all_rounds.append(steps)
    warm = sizes["warmup_rounds"]
    return Workload(
        kind="registration",
        suite=SUITES[suite],
        ingest=ingest,
        warmup=fill + all_rounds[:warm],
        rounds=all_rounds[warm:],
    )


def build(name: str, sizes: dict, seed: int) -> Workload:
    """The inputs of workload ``name`` at ``sizes`` for ``seed``."""
    if name in ("embedded_update_query", "sharded_update_query"):
        return _xmark_workload(sizes, seed, "xmark_pairwise", (1, 1))
    if name == "twig_read_heavy":
        return _xmark_workload(sizes, seed, "xmark_twig", (1, 1))
    if name == "durable_write_heavy":
        return _registration_workload(sizes, seed, "registration_small")
    if name == "tcp_read_mostly":
        return _registration_workload(sizes, seed, "registration")
    raise ValueError(f"unknown workload {name!r}")


def fingerprint(workload: Workload) -> str:
    """SHA-256 over every generated fragment and the whole op schedule."""
    digest = hashlib.sha256()
    for part in (workload.suite, workload.ingest, workload.warmup, workload.rounds):
        digest.update(json.dumps(part, separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()
