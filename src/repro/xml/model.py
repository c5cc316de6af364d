"""Document object model for offset-exact XML parsing.

The paper's update model is *text editing*: a segment is identified only by a
character offset and a length inside the super document.  Everything in this
library therefore needs character-exact element spans, which is the one thing
general-purpose XML libraries do not expose.  This module defines the small
DOM the in-house parser produces:

- :class:`XMLElement` — one element with its tag, attributes, character span
  ``[start, end)``, depth (``level``, 1-based at the fragment root), parent
  and children;
- :class:`XMLDocument` — the parse result: the raw text, the root element,
  and flat pre-order access to every element.

Spans are end-exclusive: ``text[e.start:e.end]`` is exactly the element's
markup including both tags.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

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
    root:
        The single root :class:`XMLElement`.
    elements:
        Every element in document (pre-)order; ``elements[0] is root``.
    """

    def __init__(self, text: str, root: XMLElement, elements: list[XMLElement]):
        self.text = text
        self.root = root
        self.elements = elements

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[XMLElement]:
        return iter(self.elements)

    def tags(self) -> set[str]:
        """The set of distinct tag names appearing in the fragment."""
        return {element.tag for element in self.elements}
