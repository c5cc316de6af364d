"""Twig/pairwise planner and the shared planner-decision log.

Two executors can answer a twig (:mod:`repro.twig.evaluate`): the
holistic stack pass, whose cost is dominated by materializing one global
element stream per pattern node, and the pairwise decomposition, whose
cost is dominated by the intermediate pair lists it materializes per
edge.  The :class:`PathSummary` supplies both sides of that comparison
without compiling anything:

- ``cost_twig``  = sum over nodes of the tag's element total
  (each stream is built and scanned once);
- ``cost_pairwise`` = sum over edges of ``est_pairs`` plus the smaller
  stream's total (the lazy join skips ahead through the larger side).

When ``cost_pairwise`` is the smaller, a *plain* chain falls back to the
existing :func:`~repro.core.query.plan_path` pipeline (selectivity-
ordered Lazy-Joins with the read-path join memo); patterns using
twig-only features run the pairwise decomposition in-process.  An edge
the summary proves infeasible short-circuits to ``[]`` before any
stream exists.

Every decision lands in :data:`PLAN_RECORDER` — counters plus a bounded
log of recent decisions — surfaced through ``DatabaseService.stats()``
and annotated onto query trace spans, so a plan regression (a workload
silently flipping strategy) is observable rather than archaeological.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.twig.pattern import TwigQuery
from repro.twig.summary import PathSummary

__all__ = ["TwigPlan", "plan_twig", "PlanRecorder", "PLAN_RECORDER"]


@dataclass(frozen=True)
class TwigPlan:
    """The planner's verdict for one twig pattern."""

    strategy: str  #: "twig" | "pairwise"
    empty: bool  #: the summary proved an edge infeasible
    cost_twig: int
    cost_pairwise: int
    node_totals: tuple[int, ...]  #: per pattern node, preorder
    edge_costs: tuple[tuple[str, str, str, int], ...]  #: (a, axis, d, est_pairs)

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "empty": self.empty,
            "cost_twig": self.cost_twig,
            "cost_pairwise": self.cost_pairwise,
            "node_totals": list(self.node_totals),
            "edge_costs": [list(edge) for edge in self.edge_costs],
        }


def plan_twig(query: TwigQuery, summary: PathSummary) -> TwigPlan:
    """Cost the two executors for ``query`` against the path summary."""
    node_totals = tuple(summary.total(node.tag) for node in query.nodes)
    edge_costs = []
    cost_pairwise = 0
    empty = node_totals[0] == 0
    for parent, child in query.edges():
        synopsis = summary.edge(parent.tag, child.tag, child.axis)
        edge_costs.append(
            (parent.tag, child.axis, child.tag, synopsis.est_pairs)
        )
        cost_pairwise += synopsis.est_pairs + min(
            synopsis.a_total, synopsis.d_total
        )
        if not synopsis.feasible:
            empty = True
    cost_twig = sum(node_totals)
    strategy = "pairwise" if cost_pairwise < cost_twig else "twig"
    return TwigPlan(
        strategy=strategy,
        empty=empty,
        cost_twig=cost_twig,
        cost_pairwise=cost_pairwise,
        node_totals=node_totals,
        edge_costs=tuple(edge_costs),
    )


class PlanRecorder:
    """Bounded process-wide log of planner decisions (path and twig)."""

    def __init__(self, keep: int = 16):
        self._recent: deque[dict] = deque(maxlen=keep)
        self._counts = {"twig": 0, "pairwise": 0, "pruned": 0}

    def record(
        self,
        *,
        expression: str,
        strategy: str,
        surface: str,
        cost_twig: int | None,
        cost_pairwise: int | None,
        pruned: bool,
    ) -> None:
        key = "pruned" if pruned else strategy
        self._counts[key] = self._counts.get(key, 0) + 1
        self._recent.append(
            {
                "expr": expression,
                "surface": surface,
                "strategy": strategy,
                "pruned": pruned,
                "cost_twig": cost_twig,
                "cost_pairwise": cost_pairwise,
            }
        )

    def snapshot(self) -> dict:
        return {"counts": dict(self._counts), "recent": list(self._recent)}


#: The process-wide decision log: the one count of planner verdicts.
PLAN_RECORDER = PlanRecorder()
