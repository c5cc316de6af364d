"""Answer checking that shares nothing with ``repro``.

:class:`Oracle` keeps the super document as a plain string, spliced on
every insert and remove of the schedule, and the expected result count of
every suite query.  Counts are maintained incrementally — a fragment's
contribution is evaluated once, with the stdlib ``xml.etree.ElementTree``
parser, in the context it is inserted into — so *every* timed pass is
checked, and :meth:`Oracle.full_check` re-parses the whole string and
recounts from scratch at the checkpoints, which catches an incremental
count that drifted as well as a database that did.

The evaluator implements the query semantics independently: a relative
expression's first step matches at any depth; ``/`` is child, ``//`` is
descendant; ``[a/b]`` is an existential branch whose first step is a child
(``[//a]`` a descendant); ``*`` matches any tag; ``[n]`` keeps the n-th
same-tag child of its parent; the result is the set of distinct elements
matching the last trunk step.  A join ``a // d`` counts (ancestor,
descendant) pairs.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

__all__ = ["Oracle", "count", "parse_pattern"]

_ROOT = "benchmark-root"
_TOKEN = re.compile(r"//|/|\[|\]|\*|\d+|[A-Za-z_][\w.\-]*")


class _Step:
    __slots__ = ("axis", "tag", "position", "branches")

    def __init__(self, axis: str, tag: str):
        self.axis = axis
        self.tag = tag
        self.position = None
        self.branches: list[list[_Step]] = []


def parse_pattern(expression: str) -> list[_Step]:
    """A path or twig expression as a chain of steps (branches nested)."""
    tokens = _TOKEN.findall(expression)
    if "".join(tokens) != expression.replace(" ", ""):
        raise ValueError(f"cannot parse pattern {expression!r}")
    chain, rest = _parse_chain(tokens, 0, "//")
    if rest != len(tokens):
        raise ValueError(f"cannot parse pattern {expression!r}")
    return chain


def _parse_chain(tokens, i, first_axis):
    chain = []
    axis = first_axis
    if i < len(tokens) and tokens[i] in ("/", "//"):
        axis = tokens[i]
        i += 1
    while True:
        step = _Step(axis, tokens[i])
        i += 1
        while i < len(tokens) and tokens[i] == "[":
            if tokens[i + 1].isdigit():
                step.position = int(tokens[i + 1])
                i += 2
            else:
                branch, i = _parse_chain(tokens, i + 1, "/")
                step.branches.append(branch)
            if tokens[i] != "]":
                raise ValueError("unbalanced [ ] in pattern")
            i += 1
        chain.append(step)
        if i < len(tokens) and tokens[i] in ("/", "//"):
            axis = tokens[i]
            i += 1
        else:
            return chain, i


def _candidates(context, step):
    pool = context.iter() if step.axis == "//" else iter(context)
    for element in pool:
        if element is context:
            continue
        if step.tag != "*" and element.tag != step.tag:
            continue
        yield element


def _matches(context, chain, parents):
    """Distinct elements matching the chain's last step below ``context``."""
    found = {id(context): context}
    for step in chain:
        next_found = {}
        for origin in found.values():
            for element in _candidates(origin, step):
                if id(element) in next_found:
                    continue
                if step.position is not None:
                    siblings = [
                        e for e in parents[id(element)] if e.tag == element.tag
                    ]
                    if (
                        len(siblings) < step.position
                        or siblings[step.position - 1] is not element
                    ):
                        continue
                if all(_matches(element, b, parents) for b in step.branches):
                    next_found[id(element)] = element
        found = next_found
    return found


def count(root, q) -> int:
    """Result count of suite query ``q`` on the tree under ``root``
    (``root`` itself is the dummy wrapper and never matches)."""
    if q[0] == "join":
        total = 0
        for ancestor in root.iter(q[1]):
            if ancestor is root:
                continue
            total += sum(1 for _ in ancestor.iter(q[2])) - (q[1] == q[2])
        return total
    parents = {id(child): parent for parent in root.iter() for child in parent}
    return len(_matches(root, parse_pattern(q[1]), parents))


def _counts(text: str, suite) -> list[int]:
    root = ET.fromstring(f"<{_ROOT}>{text}</{_ROOT}>")
    return [count(root, q) for q in suite]


class Oracle:
    """String shadow of the super document plus expected suite counts."""

    def __init__(self, suite, kind: str):
        self.suite = tuple(suite)
        # Schedule fragments of the xmark corpus are persons inserted under
        # site/people; registration forms are top-level documents.  Their
        # contribution to every suite count depends only on that context.
        self._context = (
            ("<site><people>", "</people></site>") if kind == "xmark" else ("", "")
        )
        self._empty = _counts("".join(self._context), self.suite)
        self.text = ""
        self.expected = [0] * len(self.suite)
        self._deltas: dict = {}
        self._fragments: dict = {}

    def load(self, ops) -> None:
        """Splice the bulk-load ops and count the corpus from scratch."""
        for fragment, position in ops:
            self.text = self.text[:position] + fragment + self.text[position:]
        self.expected = _counts(self.text, self.suite)

    def _delta(self, fragment: str) -> list[int]:
        before, after = self._context
        with_fragment = _counts(before + fragment + after, self.suite)
        return [w - e for w, e in zip(with_fragment, self._empty)]

    def apply(self, step) -> None:
        """Follow one schedule step (``batch`` steps apply their parts)."""
        kind = step[0]
        if kind == "insert":
            _, key, fragment, position = step
            self.text = self.text[:position] + fragment + self.text[position:]
            delta = self._deltas[key] = self._delta(fragment)
            self.expected = [e + d for e, d in zip(self.expected, delta)]
            self._fragments[key] = fragment
        elif kind == "remove":
            _, key, position, length = step
            if self.text[position : position + length] != self._fragments.pop(key):
                raise AssertionError(f"schedule remove {key} misses its fragment")
            self.text = self.text[:position] + self.text[position + length :]
            delta = self._deltas.pop(key)
            self.expected = [e - d for e, d in zip(self.expected, delta)]
        elif kind == "batch":
            for sub in step[1]:
                self.apply(sub)

    def full_check(self, counts, footprint) -> list[str]:
        """Re-parse the shadow and compare: the incremental expectation,
        the surface's latest pass ``counts`` and its element and character
        totals.  Returns the mismatches found (empty = all good)."""
        root = ET.fromstring(f"<{_ROOT}>{self.text}</{_ROOT}>")
        fresh = [count(root, q) for q in self.suite]
        problems = []
        if fresh != self.expected:
            problems.append(f"oracle drift: {fresh} != {self.expected}")
        if list(counts) != fresh:
            problems.append(f"suite counts {list(counts)} != oracle {fresh}")
        elements = sum(1 for _ in root.iter()) - 1
        if footprint["elements"] != elements:
            problems.append(
                f"element count {footprint['elements']} != oracle {elements}"
            )
        if footprint["characters"] != len(self.text):
            problems.append(
                f"document length {footprint['characters']} != {len(self.text)}"
            )
        return problems
