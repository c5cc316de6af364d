"""Global tag-count catalog over the shard tag-lists.

Planning a scatter-gather join needs one thing the shards cannot answer
individually: *which shards can contribute at all*.  Every shard's
tag-list already maintains O(1) running totals per tag
(:meth:`repro.core.taglist.TagList.total_count`), so the catalog is a thin
read-through view — no duplicated state to keep consistent, reads are a
couple of dict lookups per shard.

The coordinator uses :meth:`shards_for` to prune the fan-out: a shard
where *any* joined tag has zero occurrences cannot produce a pair (both
sides of a containment pair live in the same document, hence the same
shard), so it is skipped entirely — the sharded analogue of the twig
planner's zero-count short-circuit (:func:`repro.twig.plan.plan_twig`).
"""

from __future__ import annotations

__all__ = ["TagCatalog"]


class TagCatalog:
    """Read-through tag statistics across shards (see module docstring)."""

    __slots__ = ("_shards",)

    def __init__(self, shards):
        self._shards = shards

    def count_on(self, shard: int, tag: str) -> int:
        """Occurrences of ``tag`` on one shard (0 when never interned)."""
        db = self._shards[shard]
        tid = db.log.tags.tid_of(tag)
        return 0 if tid is None else db.log.taglist.total_count(tid)

    def count(self, tag: str) -> int:
        """Global occurrence count of ``tag``."""
        return sum(self.count_on(s, tag) for s in range(len(self._shards)))

    def shards_for(self, *tags: str) -> list[int]:
        """Shards where every tag in ``tags`` occurs at least once."""
        return [
            s
            for s in range(len(self._shards))
            if all(self.count_on(s, tag) > 0 for tag in tags)
        ]
