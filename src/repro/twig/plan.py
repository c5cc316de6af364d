"""The twig plan rule and the shared planner-decision log.

``strategy="auto"`` is the holistic executor, answered from the twig
memo (:mod:`repro.twig.memo`): measured on every benched pattern it beat
the pairwise decomposition, so no cost model chooses between them.  What
the plan still decides is emptiness: a pattern naming a tag with no
element answers ``[]`` before any stream or memo exists.

Every decision lands in :data:`PLAN_RECORDER` — counters plus a bounded
log of recent decisions — surfaced through ``DatabaseService.stats()``,
so a plan regression (a workload silently flipping strategy) is
observable rather than archaeological.
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

    empty: bool  #: some named tag has no element


def plan_twig(query: TwigQuery, summary: PathSummary) -> TwigPlan:
    """The pattern is empty iff a named tag has no element."""
    # The rule also keeps an absent tag out of the memo: ``memo_key`` and
    # the memo's cold pass read tid ``None`` as the wildcard.
    empty = any(
        not node.is_wildcard and summary.total(node.tag) == 0
        for node in query.nodes
    )
    return TwigPlan(empty=empty)


class PlanRecorder:
    """Bounded process-wide log of planner decisions (paths are twigs).
    It keeps each parsed, shared pattern and formats it only when
    :meth:`snapshot` reads it: a memo hit pays no string."""

    def __init__(self, keep: int = 16):
        self._recent: deque[tuple] = deque(maxlen=keep)
        self._counts = {"twig": 0, "pairwise": 0, "pruned": 0}

    def record(self, query: TwigQuery, *, strategy: str, pruned: bool) -> None:
        key = "pruned" if pruned else strategy
        self._counts[key] = self._counts.get(key, 0) + 1
        self._recent.append((query, strategy, pruned))

    def snapshot(self) -> dict:
        # One C-level copy first: formatting runs Python code, and another
        # thread's append would break an iteration over the deque itself.
        recent = list(self._recent)
        return {
            "counts": dict(self._counts),
            "recent": [
                {"expr": str(query), "strategy": strategy, "pruned": pruned}
                for query, strategy, pruned in recent
            ],
        }


#: The process-wide decision log: the one count of planner verdicts.
PLAN_RECORDER = PlanRecorder()
