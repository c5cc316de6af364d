"""Concurrent access layer: snapshot reads, deadlines, backpressure.

The paper's laziness trades update cost for update-log growth; this package
makes that trade safe to operate under concurrent load:

- :mod:`repro.service.context` — :class:`QueryContext`: deadlines and
  resource budgets enforced at cooperative cancellation checkpoints inside
  the join algorithms;
- :mod:`repro.service.snapshot` — epoch-based snapshot isolation (single
  writer, many readers, readers never block the writer);
- :mod:`repro.service.admission` — bounded per-class admission control
  that sheds over-limit requests with a transient :class:`~repro.errors
  .Busy`;
- :mod:`repro.service.retry` — capped, jittered backoff for a caller
  that retries a shed request;
- :mod:`repro.service.server` — :class:`DatabaseService`, the facade tying
  it all together (wired to ``python -m repro serve``).
"""

from repro.service.admission import AdmissionController
from repro.service.context import QueryContext
from repro.service.retry import BackoffPolicy, retry_with_backoff
from repro.service.server import DatabaseService, ServiceConfig
from repro.service.snapshot import EpochManager, Snapshot

__all__ = [
    "AdmissionController",
    "BackoffPolicy",
    "DatabaseService",
    "EpochManager",
    "QueryContext",
    "ServiceConfig",
    "Snapshot",
    "retry_with_backoff",
]
