"""Twig query subsystem: branching patterns, path summary, planner.

- :mod:`repro.twig.pattern` — the twig surface (``a[b//c]/d[2]``,
  wildcards, value predicates) compiled to a :class:`TwigQuery` tree;
- :mod:`repro.twig.summary` — the :class:`PathSummary` structural
  synopsis over the tag catalog + ER-tree (edge feasibility and
  selectivity, memoized under the §4e version counters and folded per
  written segment);
- :mod:`repro.twig.plan` — the twig/pairwise planner and the process
  planner-decision log;
- :mod:`repro.twig.evaluate` — the holistic (TwigStack-style) and
  pairwise executors, byte-identical by construction;
- :mod:`repro.twig.memo` — the twig memo the holistic executor answers
  from: per pattern node and segment the surviving elements, refreshed
  after an update by Proposition 3.

``evaluate_twig`` is re-exported lazily: :mod:`repro.core.database`
imports this package for :class:`PathSummary`, and the evaluator
imports the database module back — deferring it keeps the import graph
acyclic at load time.
"""

from __future__ import annotations

from repro.twig.pattern import WILDCARD, TwigNode, TwigQuery, parse_twig
from repro.twig.summary import EdgeSynopsis, PathSummary

__all__ = [
    "WILDCARD",
    "TwigNode",
    "TwigQuery",
    "parse_twig",
    "EdgeSynopsis",
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
