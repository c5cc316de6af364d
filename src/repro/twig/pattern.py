"""Twig pattern model and parser: the one pattern grammar.

Every read verb that takes an expression parses it here — a path
(``a//b/c``) is a pattern with no branch — so the language is:

    person//interest                   descendant step
    person/profile/interest            child steps
    person[profile]//interest          branching step
    person[profile//age]/phone         nested branch chain
    site//*/item                       wildcard step
    person/watches/watch[2]            positional predicate (n-th same-tag
                                       child of the step's parent match)
    person[name="Person 3"]//phone     value predicate on a branch
    category/name[.="Category 7"]      value predicate on the step itself

An expression compiles to a :class:`TwigQuery`: a tree of
:class:`TwigNode` whose *trunk* is the root-to-output chain (the last
trunk node is the output step, as in XPath) and whose *branches* are
existential sub-twigs hung off trunk or branch nodes.  Inside a branch,
a chain ``[b/c]`` is represented as nested single-branch nodes — every
branch node is existential, so the chain shape carries no extra
semantics and one ``branches`` edge kind covers both.

Syntax errors raise :class:`~repro.errors.PathSyntaxError` carrying the
offending token and character position.
"""

from __future__ import annotations

import re
from functools import lru_cache

from repro.errors import PathSyntaxError
from repro.joins.stack_tree import AXIS_CHILD, AXIS_DESCENDANT

__all__ = [
    "WILDCARD",
    "TwigNode",
    "TwigQuery",
    "parse_twig",
]

#: The wildcard step tag: matches an element of any tag.
WILDCARD = "*"

_TOKEN_RE = re.compile(
    r"""
      (?P<sep>//|/)
    | (?P<star>\*)
    | (?P<lbracket>\[)
    | (?P<rbracket>\])
    | (?P<eq>=)
    | (?P<string>"[^"]*"|'[^']*')
    | (?P<int>\d+)
    | (?P<name>[A-Za-z_:][\w:.\-]*)
    | (?P<dot>\.)
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_AXIS_RE = re.compile(r"[A-Za-z-]+::")


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind
        self.text = text
        self.position = position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise PathSyntaxError(
                "unexpected character in twig expression",
                token=text[pos],
                position=pos,
            )
        kind = match.lastgroup
        if kind != "ws":
            if kind == "name":
                axis = _AXIS_RE.match(match.group(0))
                if axis is not None:
                    raise PathSyntaxError(
                        "axis steps are not supported by any query surface",
                        token=axis.group(0),
                        position=pos,
                    )
            tokens.append(_Token(kind, match.group(0), pos))
        pos = match.end()
    return tokens


class TwigNode:
    """One step of a twig pattern.

    ``axis`` is the relationship to the node's *parent* in the pattern
    tree (``descendant`` for the entry step: an expression is relative,
    its first tag matches anywhere).  ``child`` links
    the next trunk step (``None`` off the trunk and at the output step);
    ``branches`` hold existential sub-twigs.  ``position`` / ``value``
    are the optional ``[n]`` / ``[.="v"]`` predicates.
    """

    __slots__ = ("tag", "axis", "position", "value", "branches", "child", "index")

    def __init__(self, tag: str, axis: str):
        self.tag = tag
        self.axis = axis
        self.position: int | None = None
        self.value: str | None = None
        self.branches: tuple[TwigNode, ...] = ()
        self.child: TwigNode | None = None
        self.index = -1  # preorder id, assigned by TwigQuery

    @property
    def is_wildcard(self) -> bool:
        return self.tag == WILDCARD

    def _step_str(self) -> str:
        out = [self.tag]
        if self.position is not None:
            out.append(f"[{self.position}]")
        if self.value is not None:
            out.append(f'[.="{self.value}"]')
        for branch in self.branches:
            sep = "//" if branch.axis == AXIS_DESCENDANT else ""
            out.append(f"[{sep}{branch._chain_str()}]")
        return "".join(out)

    def _chain_str(self) -> str:
        """A branch rendered as a chain (nested single branches flatten)."""
        out = [self.tag]
        if self.position is not None:
            out.append(f"[{self.position}]")
        if self.value is not None:
            out.append(f'[.="{self.value}"]')
        node = self
        while len(node.branches) == 1 and _is_plain_link(node, node.branches[0]):
            node = node.branches[0]
            out.append("//" if node.axis == AXIS_DESCENDANT else "/")
            out.append(node.tag)
            if node.position is not None:
                out.append(f"[{node.position}]")
            if node.value is not None:
                out.append(f'[.="{node.value}"]')
        for branch in node.branches:
            sep = "//" if branch.axis == AXIS_DESCENDANT else ""
            out.append(f"[{sep}{branch._chain_str()}]")
        return "".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwigNode({self._step_str()!r}, axis={self.axis!r})"


def _is_plain_link(node: TwigNode, branch: TwigNode) -> bool:
    """True when ``branch`` can render as a chain continuation of ``node``."""
    return len(node.branches) == 1


class TwigQuery:
    """A compiled twig pattern: trunk chain + existential branches.

    ``trunk`` is the root-to-output chain; ``nodes`` lists every node in
    preorder (trunk step, then its branches depth-first).  The output
    step is ``trunk[-1]``.
    """

    __slots__ = ("root", "trunk", "nodes")

    def __init__(self, root: TwigNode):
        self.root = root
        trunk = []
        node: TwigNode | None = root
        while node is not None:
            trunk.append(node)
            node = node.child
        self.trunk: tuple[TwigNode, ...] = tuple(trunk)
        nodes: list[TwigNode] = []

        def visit(n: TwigNode) -> None:
            n.index = len(nodes)
            nodes.append(n)
            for branch in n.branches:
                visit(branch)

        for t in self.trunk:
            visit(t)
        self.nodes: tuple[TwigNode, ...] = tuple(nodes)

    @property
    def output(self) -> TwigNode:
        return self.trunk[-1]

    @property
    def is_linear(self) -> bool:
        """No branches anywhere: the pattern is a plain chain."""
        return len(self.nodes) == len(self.trunk)

    def edges(self):
        """Every (parent, child) pattern edge; ``child.axis`` is the axis."""
        for parent in self.nodes:
            if parent.child is not None:
                yield parent, parent.child
            for branch in parent.branches:
                yield parent, branch

    def tags(self) -> set[str]:
        """The concrete (non-wildcard) tags the pattern names."""
        return {n.tag for n in self.nodes if not n.is_wildcard}

    def __str__(self) -> str:
        out = []
        for i, node in enumerate(self.trunk):
            if i:
                out.append("//" if node.axis == AXIS_DESCENDANT else "/")
            out.append(node._step_str())
        return "".join(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwigQuery({str(self)!r})"


class _Parser:
    def __init__(self, expression: str):
        self.expression = expression
        self.tokens = _tokenize(expression)
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        token = self.peek()
        if token is not None:
            self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.next()
        if token is None:
            raise PathSyntaxError(
                f"unexpected end of twig expression (expected {what})",
                position=len(self.expression),
            )
        if token.kind != kind:
            raise PathSyntaxError(
                f"expected {what}",
                token=token.text,
                position=token.position,
            )
        return token

    # ------------------------------------------------------------------
    def parse(self) -> TwigQuery:
        first = self.peek()
        if first is None:
            raise PathSyntaxError("empty twig expression")
        if first.kind == "sep":
            raise PathSyntaxError(
                "twig must be relative (no leading separator)",
                token=first.text,
                position=first.position,
            )
        root = self.parse_step(AXIS_DESCENDANT, entry=True)
        node = root
        while True:
            token = self.peek()
            if token is None:
                break
            if token.kind != "sep":
                raise PathSyntaxError(
                    "expected '/' or '//' between steps",
                    token=token.text,
                    position=token.position,
                )
            self.next()
            axis = AXIS_DESCENDANT if token.text == "//" else AXIS_CHILD
            node.child = self.parse_step(axis)
            node = node.child
        return TwigQuery(root)

    def parse_step(self, axis: str, *, entry: bool = False) -> TwigNode:
        token = self.next()
        if token is None:
            raise PathSyntaxError(
                "unexpected end of twig expression (expected a step)",
                position=len(self.expression),
            )
        if token.kind == "star":
            node = TwigNode(WILDCARD, axis)
        elif token.kind == "name":
            node = TwigNode(token.text, axis)
        else:
            raise PathSyntaxError(
                "expected a tag name or '*'",
                token=token.text,
                position=token.position,
            )
        while self.peek() is not None and self.peek().kind == "lbracket":
            self.parse_predicate(node, entry=entry)
        return node

    def parse_predicate(self, node: TwigNode, *, entry: bool) -> None:
        open_token = self.expect("lbracket", "'['")
        token = self.peek()
        if token is None:
            raise PathSyntaxError(
                "unterminated predicate",
                token="[",
                position=open_token.position,
            )
        if token.kind == "int":
            self.next()
            n = int(token.text)
            if n < 1:
                raise PathSyntaxError(
                    "positional predicates are 1-based",
                    token=token.text,
                    position=token.position,
                )
            if entry or node.axis != AXIS_CHILD:
                raise PathSyntaxError(
                    "positional predicate requires a child-axis step "
                    "(the n-th same-tag child of the parent match)",
                    token=f"[{token.text}]",
                    position=open_token.position,
                )
            if node.position is not None:
                raise PathSyntaxError(
                    "duplicate positional predicate",
                    token=f"[{token.text}]",
                    position=open_token.position,
                )
            node.position = n
            self.expect("rbracket", "']'")
            return
        if token.kind == "dot":
            self.next()
            self.expect("eq", "'=' after '.'")
            literal = self.expect("string", "a quoted string")
            if node.value is not None:
                raise PathSyntaxError(
                    "duplicate value predicate",
                    token=literal.text,
                    position=literal.position,
                )
            node.value = literal.text[1:-1]
            self.expect("rbracket", "']'")
            return
        # A branch twig: [b], [b/c], [//b], optionally [b/c="v"].
        branch_axis = AXIS_CHILD
        if token.kind == "sep":
            self.next()
            branch_axis = AXIS_DESCENDANT if token.text == "//" else AXIS_CHILD
        chain = [self.parse_step(branch_axis)]
        while self.peek() is not None and self.peek().kind == "sep":
            sep = self.next()
            axis = AXIS_DESCENDANT if sep.text == "//" else AXIS_CHILD
            chain.append(self.parse_step(axis))
        token = self.peek()
        if token is not None and token.kind == "eq":
            self.next()
            literal = self.expect("string", "a quoted string")
            last = chain[-1]
            if last.value is not None:
                raise PathSyntaxError(
                    "duplicate value predicate",
                    token=literal.text,
                    position=literal.position,
                )
            last.value = literal.text[1:-1]
        self.expect("rbracket", "']'")
        # Fold the chain right-to-left into nested single branches.
        for i in range(len(chain) - 2, -1, -1):
            chain[i].branches = chain[i].branches + (chain[i + 1],)
        node.branches = node.branches + (chain[0],)


@lru_cache(maxsize=256)
def parse_twig(expression: str) -> TwigQuery:
    """Parse a pattern into a :class:`TwigQuery`.

    Child and descendant steps, wildcard steps, ``[...]`` branches, and
    positional/value predicates; no leading separator.  Raises :class:`~repro.errors.PathSyntaxError` with the offending
    token and position on malformed input.  Memoised per string, so a
    parsed query is shared: nothing may mutate it; a bad string raises on
    every call.
    """
    if isinstance(expression, TwigQuery):
        return expression
    return _Parser(expression.strip()).parse()
