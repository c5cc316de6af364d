"""Update-log pressure monitoring and maintenance planning.

Laziness defers structural work into the update log; left unchecked, the
log's growth is exactly the latent resource exhaustion the paper's
"maintenance hours" reset exists to pay down.  The monitor reduces the
log's health to three load-bearing dimensions:

- **segment count** — every segment is an SB-tree leaf and a tag-list
  entry source; Lazy-Join cost scales with the segment lists' lengths
  (the Fig. 11(a)/13 series);
- **ER-tree depth** — deep nesting lengthens stored paths and the
  candidate-segment stack, and is what repacking collapses;
- **tag-list fan-out** — the longest per-tag segment list, the direct
  input size of a Lazy-Join over that tag.

Each dimension has a hard bound in :class:`PressureThresholds`; crossing
``elevated_fraction`` of a bound reports ``elevated``, crossing the bound
reports ``critical`` together with a concrete *maintenance plan* (op
records the service can execute behind its circuit breaker): a targeted
``repack`` of the deepest/busiest top-level subtree when nesting is the
problem, a full ``compact`` when global size is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.segment import DUMMY_ROOT_SID

__all__ = ["PressureThresholds", "PressureReport", "PressureMonitor"]

LEVEL_OK = "ok"
LEVEL_ELEVATED = "elevated"
LEVEL_CRITICAL = "critical"


@dataclass(frozen=True)
class PressureThresholds:
    """Hard bounds on the update-log dimensions the monitor watches."""

    max_segments: int = 256
    max_depth: int = 12
    max_fanout: int = 128
    elevated_fraction: float = 0.75

    def __post_init__(self):
        if min(self.max_segments, self.max_depth, self.max_fanout) < 1:
            raise ValueError("pressure thresholds must be >= 1")
        if not 0.0 < self.elevated_fraction <= 1.0:
            raise ValueError("elevated_fraction must be in (0, 1]")


@dataclass
class PressureReport:
    """One pressure sample plus the recommended maintenance plan."""

    segments: int
    depth: int
    fanout: int
    level: str = LEVEL_OK
    reasons: list[str] = field(default_factory=list)
    #: Op records (``{"op": "repack", "sid": s}`` / ``{"op": "compact"}``)
    #: in recommended execution order; empty unless ``critical``.
    plan: list[dict] = field(default_factory=list)

    @property
    def needs_maintenance(self) -> bool:
        return bool(self.plan)

    def as_dict(self) -> dict:
        return {
            "segments": self.segments,
            "depth": self.depth,
            "fanout": self.fanout,
            "level": self.level,
            "reasons": list(self.reasons),
            "plan": [dict(op) for op in self.plan],
        }


class PressureMonitor:
    """Samples a database's update-log pressure against fixed thresholds.

    Stateless between samples apart from counters; safe to call from the
    writer thread (it only reads log structures the writer owns).
    """

    def __init__(self, thresholds: PressureThresholds | None = None):
        self.thresholds = thresholds or PressureThresholds()
        self.samples = 0
        self.critical_samples = 0

    def sample(self, db) -> PressureReport:
        """Measure ``db`` and return the report (no mutation).

        The three dimensions come from the structures' incremental trackers
        (``UpdateLog.dimensions()`` — O(1), replacing the full ER-tree and
        tag-list walks this method used to run per sample).
        """
        limits = self.thresholds
        dims = db.log.dimensions()
        segments = dims["segments"]
        depth = dims["max_depth"]
        fanout = dims["max_fanout"]
        report = PressureReport(segments=segments, depth=depth, fanout=fanout)

        dimensions = (
            ("segments", segments, limits.max_segments),
            ("depth", depth, limits.max_depth),
            ("fanout", fanout, limits.max_fanout),
        )
        critical = []
        for name, value, bound in dimensions:
            if value > bound:
                critical.append(name)
                report.reasons.append(f"{name} {value} over bound {bound}")
            elif value > bound * limits.elevated_fraction:
                report.reasons.append(
                    f"{name} {value} over {limits.elevated_fraction:.0%} "
                    f"of bound {bound}"
                )
        if critical:
            report.level = LEVEL_CRITICAL
            report.plan = self._plan(db, critical)
            if not report.plan:
                report.reasons.append(
                    "pressure is unactionable: every segment is already a "
                    "top-level document (maintenance cannot reduce further)"
                )
        elif report.reasons:
            report.level = LEVEL_ELEVATED

        self.samples += 1
        if report.level == LEVEL_CRITICAL:
            self.critical_samples += 1
        return report

    def _plan(self, db, critical: list[str]) -> list[dict]:
        """Concrete ops that bring the critical dimensions back in bounds.

        Depth-only pressure gets a targeted repack of the deepest top-level
        subtree (cheapest fix, touches one document); segment-count or
        fan-out pressure needs the global reset — ``compact`` relabels
        everything into one segment per top-level document.

        Maintenance cannot merge *distinct top-level documents*, so when the
        log is already fully collapsed (no nested segments, no tombstones)
        there is nothing actionable and the plan is empty — re-running a
        no-op compact on every pressure sample would be pure overhead.
        """
        if critical == ["depth"]:
            deepest = self._deepest_top_level(db)
            if deepest is not None:
                return [{"op": "repack", "sid": deepest}]
        if any(
            node.children or node.tombstones()
            for node in db.log.ertree.root.children
        ):
            return [{"op": "compact"}]
        return []

    @staticmethod
    def _deepest_top_level(db) -> int | None:
        best_sid = None
        best_depth = 1
        for top in db.log.ertree.root.children:
            if top.sid == DUMMY_ROOT_SID:
                continue
            subtree_depth = max(node.depth for node in top.iter_subtree())
            if subtree_depth > best_depth:
                best_depth = subtree_depth
                best_sid = top.sid
        return best_sid

    def metrics(self) -> dict:
        return {"samples": self.samples, "critical_samples": self.critical_samples}
