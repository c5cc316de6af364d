"""The paper's primary contribution: lazy XML updates and Lazy-Join.

Public surface:

- :class:`~repro.core.database.LazyXMLDatabase` — the facade most users
  want: text-level inserts/removals plus structural joins;
- :class:`~repro.core.update_log.UpdateLog` — ER-tree + tag-list with the
  Fig. 5/7 update algorithms;
- :class:`~repro.core.element_index.ElementIndex` — the (tid, sid, start,
  end, level) records, one write-once block per segment;
- :class:`~repro.core.join.LazyJoiner` — the Fig. 9 structural join;
- :class:`~repro.core.ertree.ERTree` — the segment-relationship tree.
"""

from repro.core.database import GlobalElement, LazyXMLDatabase, RemovalOutcome
from repro.core.element_index import ElementIndex, ElementRecord
from repro.core.ertree import ERNode, ERTree, PartialRemoval, RemovalReport
from repro.core.join import JoinPair, JoinStatistics, LazyJoiner
from repro.core.maintenance import RepackResult, compact_database, repack_segment
from repro.core.segment import DUMMY_ROOT_SID, SpanRelation, relate
from repro.core.taglist import TagList, TagRegistry
from repro.core.update_log import InsertReceipt, LogStats, UpdateLog

__all__ = [
    "LazyXMLDatabase",
    "GlobalElement",
    "RemovalOutcome",
    "UpdateLog",
    "InsertReceipt",
    "LogStats",
    "ElementIndex",
    "ElementRecord",
    "LazyJoiner",
    "RepackResult",
    "repack_segment",
    "compact_database",
    "JoinPair",
    "JoinStatistics",
    "ERTree",
    "ERNode",
    "RemovalReport",
    "PartialRemoval",
    "TagList",
    "TagRegistry",
    "SpanRelation",
    "relate",
    "DUMMY_ROOT_SID",
]
