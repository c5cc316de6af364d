"""Document object model for offset-exact XML parsing.

The paper's update model is *text editing*: a segment is identified only by a
character offset and a length inside the super document.  Everything in this
library therefore needs character-exact element spans, which is the one thing
general-purpose XML libraries do not expose.  This module defines the small
DOM the in-house parser produces:

- :data:`Element` and :class:`FlatDocument` — the parse as the element
  index stores it: ``(tag, start, end, level)`` per element (``level`` is
  1-based at the fragment root), in document order, with the text;
- :class:`XMLElement` — one element of the tree, with its attributes,
  parent and children;
- :class:`XMLDocument` — the parse result: the flat view, and the tree,
  built from it the first time a caller reads ``root`` or ``elements``.

Spans are end-exclusive: ``text[e.start:e.end]`` is exactly the element's
markup including both tags.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from repro.xml.tokenizer import scan_token

__all__ = ["XMLElement", "XMLDocument", "FlatDocument"]


@dataclass
class XMLElement:
    """One parsed element with its exact character span.

    ``start`` is the offset of the opening ``<``; ``end`` is the offset one
    past the closing ``>`` of the end tag (or of the ``/>`` for an empty
    element).  ``level`` is 1 for the fragment's root element.
    """

    tag: str
    start: int
    end: int
    level: int
    attributes: dict[str, str] = field(default_factory=dict)
    parent: "XMLElement | None" = field(default=None, repr=False)
    children: list["XMLElement"] = field(default_factory=list, repr=False)

    @property
    def span(self) -> tuple[int, int]:
        """The ``(start, end)`` pair."""
        return self.start, self.end

    @property
    def length(self) -> int:
        """Number of characters the element occupies."""
        return self.end - self.start

    def contains(self, other: "XMLElement") -> bool:
        """True when this element strictly contains ``other`` (Def. 1 style)."""
        return self.start < other.start and self.end > other.end

    def iter(self) -> Iterator["XMLElement"]:
        """Pre-order iteration over this element and its descendants."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["XMLElement"]:
        """Pre-order iteration over strict descendants."""
        it = self.iter()
        next(it)
        yield from it

    def ancestors(self) -> Iterator["XMLElement"]:
        """Iterate from the parent up to the fragment root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __hash__(self) -> int:  # identity-based: elements are tree nodes
        return id(self)


#: An element of a :class:`FlatDocument`: an :class:`XMLElement` less its links.
Element = NamedTuple("Element", [("tag", str), ("start", int), ("end", int),
                                 ("level", int)])


class FlatDocument(NamedTuple):
    """A parse without its tree (:func:`~repro.xml.parser.parse_flat`): the
    text and every :data:`Element` in document order."""

    text: str
    elements: list[Element]


class XMLDocument:
    """Result of parsing an XML fragment.

    Attributes
    ----------
    text:
        The exact input text.
    flat:
        The :class:`FlatDocument`: no tree, so no cycle.
    root:
        The single root :class:`XMLElement`.
    elements:
        Every :class:`XMLElement` in document (pre-)order; ``elements[0] is
        root``.  The tree is built when first read.
    """

    def __init__(self, text: str, elements: list[Element]):
        self.text = text
        self.flat = FlatDocument(text, elements)

    @property
    def root(self) -> XMLElement:
        return self.elements[0]

    @cached_property
    def elements(self) -> list[XMLElement]:
        # Each start tag is lexed again for its attributes; an element's
        # parent is the last element one level up.
        elements: list[XMLElement] = []
        path: list[XMLElement] = []  # the open ancestors, one per level
        for tag, start, end, level in self.flat.elements:
            attributes: dict[str, str] = {}
            scan_token(self.text, start, end, 0, attributes)
            element = XMLElement(tag, start, end, level, attributes)
            del path[level - 1 :]
            if path:
                element.parent = path[-1]
                path[-1].children.append(element)
            path.append(element)
            elements.append(element)
        return elements

    def __len__(self) -> int:
        return len(self.flat.elements)

    def __iter__(self) -> Iterator[XMLElement]:
        return iter(self.elements)

    def tags(self) -> set[str]:
        """The set of distinct tag names appearing in the fragment."""
        return {element.tag for element in self.flat.elements}

