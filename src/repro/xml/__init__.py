"""Offset-exact XML substrate.

The paper's update model treats the XML database as a text file edited in
place; this package provides the parsing machinery that maps text spans to
element structure with exact character offsets:

- :mod:`repro.xml.tokenizer` — lexing with spans;
- :mod:`repro.xml.parser` — well-formedness checking flat parse;
- :mod:`repro.xml.model` — flat elements, and the DOM built from them;
- :mod:`repro.xml.serializer` — deterministic text construction for the
  workload generators.
"""

from repro.xml.model import XMLDocument, XMLElement
from repro.xml.parser import is_well_formed, parse, parse_fragment
from repro.xml.serializer import Node, escape_attribute, escape_text, serialize
from repro.xml.tokenizer import TokenKind, scan_token

__all__ = [
    "XMLDocument",
    "XMLElement",
    "parse",
    "parse_fragment",
    "is_well_formed",
    "Node",
    "serialize",
    "escape_text",
    "escape_attribute",
    "TokenKind",
    "scan_token",
]
