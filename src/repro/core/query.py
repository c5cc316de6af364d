"""Path expressions: the linear surface over the twig memo.

The paper frames structural join as "a core operation in optimizing XML
path queries" whose outputs "are later used to evaluate other path query
expressions".  This module supplies that layer's language —

    person//interest          descendant step
    person/profile/interest   child steps
    site//person/profile      mixed

— and its diagnostics: :func:`parse_path` names the offending token and
points twig-only syntax at the twig surface.  A parsed path is a twig
pattern with no branch, so :func:`evaluate_path` answers it through
:func:`~repro.twig.evaluate.evaluate_twig`, from the same twig memo
(:mod:`repro.twig.memo`) ``twig_query`` of the same chain reads: per
step and segment the elements matching so far, refreshed where the
element index's journal and Proposition 3 say an update can have moved
something (DESIGN.md §4e).  A tag with no element empties the answer
before any memo exists.

Evaluation returns the matches of the *last* step by default;
``bindings=True`` returns full match tuples (one element per step).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

from repro.errors import PathSyntaxError
from repro.joins.stack_tree import AXIS_CHILD, AXIS_DESCENDANT
from repro.obs.metrics import METRICS

__all__ = [
    "PathStep",
    "PathQuery",
    "parse_path",
    "evaluate_path",
]

_NAME_RE = re.compile(r"[A-Za-z_:][\w:.\-]*$")

_M_PATH_CALLS = METRICS.counter(
    "query.path.calls", unit="queries", site="evaluate_path"
)
_H_PATH_SECONDS = METRICS.histogram(
    "query.path.seconds", unit="seconds", site="evaluate_path"
)


@dataclass(frozen=True)
class PathStep:
    """One step: the axis connecting it to the previous step, and a tag."""

    axis: str  #: "descendant" ("//") or "child" ("/")
    tag: str


@dataclass(frozen=True)
class PathQuery:
    """A parsed path expression: an entry tag plus subsequent steps."""

    entry: str
    steps: tuple[PathStep, ...]

    def __str__(self) -> str:
        out = [self.entry]
        for step in self.steps:
            out.append("//" if step.axis == AXIS_DESCENDANT else "/")
            out.append(step.tag)
        return "".join(out)


#: Tokens the linear surface rejects but the twig surface accepts.
_TWIG_ONLY = {
    "*": "wildcard steps",
    "[": "predicates and branching steps",
    "]": "predicates and branching steps",
    "=": "value predicates",
    '"': "value predicates",
    "'": "value predicates",
}

#: ``axis::`` step syntax — unsupported by *both* surfaces.
_AXIS_RE = re.compile(r"[A-Za-z-]+::")


def _reject_unsupported(text: str, expression: str) -> None:
    """Point at the first token this surface cannot parse.

    Twig-surface tokens get a redirecting diagnostic (use
    :func:`repro.twig.parse_twig` / the ``twig`` verb); ``axis::`` steps are
    named explicitly since no surface implements them yet.
    """
    axis = _AXIS_RE.search(text)
    for position, char in enumerate(text):
        if axis is not None and position == axis.start():
            raise PathSyntaxError(
                "axis steps are not supported by any query surface",
                token=axis.group(0),
                position=position,
            )
        if char in _TWIG_ONLY:
            raise PathSyntaxError(
                f"token unsupported in linear path expressions "
                f"({_TWIG_ONLY[char]} need the twig surface: "
                f"repro.twig.parse_twig or the `twig` verb)",
                token=char,
                position=position,
            )


@lru_cache(maxsize=256)
def parse_path(expression: str) -> PathQuery:
    """Parse ``a//b/c`` into a :class:`PathQuery`.

    The expression is relative (no leading separator): the first tag matches
    anywhere in the database, mirroring how the paper's experiments phrase
    queries (``person//phone``).  Memoised per string; a bad one raises on
    every call.  Raises
    :class:`~repro.errors.PathSyntaxError` (a :class:`~repro.errors
    .QueryError`) naming the offending token and position on syntax
    problems; tokens that belong to the richer twig surface (``*``,
    ``[...]``, value predicates) are named as such so the caller is
    pointed at :func:`repro.twig.parse_twig` instead of a generic
    failure.
    """
    text = expression.strip()
    if not text:
        raise PathSyntaxError("empty path expression")
    if text.startswith("/"):
        raise PathSyntaxError(
            f"path must be relative (no leading '/'): {expression!r}",
            token="/",
            position=expression.find("/"),
        )
    _reject_unsupported(text, expression)
    tokens = re.split(r"(//|/)", text)
    # tokens: tag, sep, tag, sep, tag ...
    names = tokens[0::2]
    separators = tokens[1::2]
    if len(names) != len(separators) + 1 or "" in names:
        sep = separators[-1] if separators else "/"
        raise PathSyntaxError(
            f"malformed path expression (empty step): {expression!r}",
            token=sep,
            position=text.rfind(sep),
        )
    offset = 0
    for i, name in enumerate(names):
        if not _NAME_RE.match(name):
            raise PathSyntaxError(
                f"invalid tag name in {expression!r}",
                token=name,
                position=text.index(name, offset),
            )
        offset += len(name) + (len(separators[i]) if i < len(separators) else 0)
    steps = tuple(
        PathStep(AXIS_DESCENDANT if sep == "//" else AXIS_CHILD, name)
        for sep, name in zip(separators, names[1:])
    )
    return PathQuery(entry=names[0], steps=steps)


def evaluate_path(
    db,
    expression: str,
    *,
    bindings: bool = False,
    context=None,
):
    """Evaluate a path expression against a :class:`LazyXMLDatabase`.

    The chain is answered as the twig pattern it is (a twig with no
    branch): :func:`~repro.twig.evaluate.evaluate_twig`, from the one twig
    memo ``twig_query`` of the same chain reads too.  Returns the distinct
    matches of the final step in ``(sid, start)`` order, the memo's own
    read-only sequence (read it, never mutate it), or — with
    ``bindings=True`` — the match chains, one :class:`~repro.core
    .element_index.ElementRecord` per step, sorted by their records'
    ``(sid, start, end, level)`` step by step: the twig executors'
    canonical chain order.

    ``context`` is an optional
    :class:`~repro.service.context.QueryContext`: its deadline is checked
    per memo level and its row budget is charged with the answer's rows.
    """
    # Imported here: the twig evaluator imports repro.core.database, and
    # importing repro.core imports this module.
    from repro.twig.evaluate import evaluate_twig
    from repro.twig.pattern import parse_twig

    query = expression if isinstance(expression, PathQuery) else parse_path(expression)
    enabled = METRICS.enabled
    start = perf_counter() if enabled else 0.0
    text = str(query)
    twig = parse_twig(text)
    trace = context.trace if context is not None else None
    if trace is None:
        result = evaluate_twig(db, twig, bindings=bindings, context=context)
    else:
        with trace.span("path_query", expr=text) as span:
            result = evaluate_twig(db, twig, bindings=bindings, context=context)
            span.annotate(matches=len(result))
    if enabled:
        _M_PATH_CALLS.inc()
        _H_PATH_SECONDS.observe(perf_counter() - start)
    return result
