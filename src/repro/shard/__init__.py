"""Sharded parallel execution: partitioned super-documents (PR 5).

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
  Lazy-Join / path plans for queries, results merged by global position;
- :mod:`repro.shard.durable` — per-shard WAL directories plus the
  coordinated (all-or-nothing) checkpoint manifest.
"""

from repro.shard.catalog import TagCatalog
from repro.shard.database import ShardedDatabase, ShardElement
from repro.shard.docmap import DocumentMap
from repro.shard.durable import ShardedDurableDatabase
from repro.shard.executor import InProcessExecutor, ProcessExecutor

__all__ = [
    "DocumentMap",
    "TagCatalog",
    "ShardedDatabase",
    "ShardElement",
    "ShardedDurableDatabase",
    "InProcessExecutor",
    "ProcessExecutor",
]
