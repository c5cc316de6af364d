"""Sharded execution in memory: partitioned super-documents.

The paper's super-document model hangs every document off one dummy root
(Section 3), which makes *document boundaries* a natural partitioning key:
a segment can never cross the document it was inserted into, so no
structural-join pair ever spans two documents either.  This package
exploits exactly that property:

- :mod:`repro.shard.docmap` — the global document order and the
  document -> shard assignment (the routing invariant's bookkeeping);
- :mod:`repro.shard.catalog` — a global tag-count catalog over the shard
  tag-lists, used to prune scatter fan-out during planning;
- :mod:`repro.shard.executor` — per-shard query execution: an in-process
  executor (tests, N=1) and persistent worker processes with per-worker
  shard affinity over pipes;
- :mod:`repro.shard.database` — :class:`ShardedDatabase`, the coordinator:
  deterministic document -> shard routing for updates, scatter-gather
  Lazy-Join / path plans for queries, results merged by global position.

Nothing durable and nothing served is sharded: two shards answer a query
tens of times slower than one database (DESIGN.md §4f), and the package
stays only for the end-to-end benchmark's shard surfaces.
"""

from repro.shard.catalog import TagCatalog
from repro.shard.database import ShardedDatabase, ShardElement
from repro.shard.docmap import DocumentMap
from repro.shard.executor import InProcessExecutor, ProcessExecutor

__all__ = [
    "DocumentMap",
    "TagCatalog",
    "ShardedDatabase",
    "ShardElement",
    "InProcessExecutor",
    "ProcessExecutor",
]
