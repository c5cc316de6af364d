"""repro — reproduction of *Lazy XML Updates* (Catania et al., SIGMOD 2005).

An updatable XML database where element labels are *local* to the segment
that inserted them and therefore never change on later updates; an in-memory
update log (ER-tree + tag-list) maps local labels to global structure, and
the Lazy-Join algorithm answers ``A//D`` / ``A/D`` structural joins directly
over segments.

Quickstart::

    from repro import LazyXMLDatabase

    db = LazyXMLDatabase()
    db.insert("<article><title/><author/></article>")
    db.insert("<author><name/></author>", position=db.text.index("<author/>"))
    pairs = db.structural_join("article", "author")

Subpackages: :mod:`repro.core` (the contribution), :mod:`repro.btree`,
:mod:`repro.xml` (substrates), :mod:`repro.joins` (baseline join
algorithms), :mod:`repro.labeling` (interval and prime-number comparators),
:mod:`repro.workloads` (data generators), :mod:`repro.bench` (experiment
harness), :mod:`repro.durability` (journal + checkpoints),
:mod:`repro.service` (concurrent access: snapshot reads, deadlines,
backpressure, operator maintenance).
"""

from repro.core import (
    ElementIndex,
    ElementRecord,
    InsertReceipt,
    JoinStatistics,
    LazyJoiner,
    LazyXMLDatabase,
    LogStats,
    UpdateLog,
)
from repro.durability.database import DurableDatabase
from repro.errors import ReproError
from repro.service import DatabaseService, QueryContext, ServiceConfig

__version__ = "1.0.0"

__all__ = [
    "LazyXMLDatabase",
    "DurableDatabase",
    "DatabaseService",
    "ServiceConfig",
    "QueryContext",
    "UpdateLog",
    "ElementIndex",
    "ElementRecord",
    "LazyJoiner",
    "JoinStatistics",
    "InsertReceipt",
    "LogStats",
    "ReproError",
    "__version__",
]
