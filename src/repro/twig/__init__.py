"""Twig query subsystem: branching patterns, path summary, plan rule.

- :mod:`repro.twig.pattern` — the twig surface (``a[b//c]/d[2]``,
  wildcards, value predicates) compiled to a :class:`TwigQuery` tree;
- :mod:`repro.twig.summary` — the :class:`PathSummary`: tag totals and
  the segments holding a tag, read live off the tag catalog;
- :mod:`repro.twig.plan` — the plan rule (``auto`` is the twig memo; a
  pattern naming an absent tag is empty) and the process
  planner-decision log;
- :mod:`repro.twig.evaluate` — the holistic and pairwise executors,
  byte-identical by construction;
- :mod:`repro.twig.memo` — the twig memo the holistic executor (and
  ``path_query``, a chain being a twig with no branch) answers from: per
  pattern node and segment the surviving elements, refreshed after an
  update by Proposition 3.

``evaluate_twig`` is re-exported lazily: :mod:`repro.core.database`
imports this package for :class:`PathSummary`, and the evaluator
imports the database module back — deferring it keeps the import graph
acyclic at load time.
"""

from __future__ import annotations

from repro.twig.pattern import WILDCARD, TwigNode, TwigQuery, parse_twig
from repro.twig.summary import PathSummary

__all__ = [
    "WILDCARD",
    "TwigNode",
    "TwigQuery",
    "parse_twig",
    "PathSummary",
    "evaluate_twig",
    "plan_twig",
    "PLAN_RECORDER",
]


def __getattr__(name: str):
    if name == "evaluate_twig":
        from repro.twig.evaluate import evaluate_twig

        return evaluate_twig
    if name in ("plan_twig", "PLAN_RECORDER"):
        from repro.twig import plan

        return getattr(plan, name)
    raise AttributeError(f"module 'repro.twig' has no attribute {name!r}")
