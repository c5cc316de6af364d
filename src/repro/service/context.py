"""`QueryContext` — deadlines and resource budgets for one query.

Queries in this system are read-only, so cancellation is purely
cooperative: the join algorithms call :meth:`QueryContext.tick` (amortized
O(1), a clock read every ``check_every`` ticks) and
:meth:`QueryContext.charge_rows` at natural loop boundaries, and the
context raises a typed :class:`~repro.errors.DeadlineExceeded` /
:class:`~repro.errors.ResourceExhausted` out of the query.  Because no
structure is mutated between checkpoints, an aborted query leaves the
database exactly as it found it — the property the fault-drill suite
asserts.

The clock is injectable (``clock=``) so tests can drive deadline behaviour
deterministically; production code uses :func:`time.monotonic`.
"""

from __future__ import annotations

import time

from repro.errors import DeadlineExceeded, QueryCancelled, ResourceExhausted
from repro.obs.trace import Trace

__all__ = ["OverBudget", "QueryContext"]

#: How many ticks pass between deadline clock reads.  Power of two so the
#: modulo compiles to a mask; 64 keeps worst-case overrun tiny while making
#: the common case a single integer increment.
_CHECK_EVERY = 64


class OverBudget(Exception):
    """An :meth:`QueryContext.attempt` ran past its budget before its
    deadline.  Not a :class:`~repro.errors.ReproError`: it never reaches a
    client and counts as no abort; the caller re-runs the query."""


class QueryContext:
    """Deadline and row budget for a single query.

    Parameters
    ----------
    timeout:
        Seconds from now until the deadline, or ``None`` for no deadline.
    max_result_rows:
        Upper bound on result pairs/rows a query may produce.
    check_every:
        Ticks between clock reads (exposed for tests).
    clock:
        Monotonic clock, injectable for deterministic tests.
    trace:
        Optional :class:`~repro.obs.trace.Trace`; when set, the join and
        path-query hot paths record timed spans into it.  ``None`` (the
        default) keeps tracing at a single ``is None`` check per site.
    """

    __slots__ = (
        "_clock",
        "_deadline",
        "_check_every",
        "_ticks",
        "_rows",
        "max_result_rows",
        "_cancelled",
        "_budget_end",
        "trace",
    )

    def __init__(
        self,
        *,
        timeout: float | None = None,
        deadline: float | None = None,
        max_result_rows: int | None = None,
        check_every: int = _CHECK_EVERY,
        clock=time.monotonic,
        trace=None,
    ):
        if timeout is not None and deadline is not None:
            raise ValueError("pass timeout or deadline, not both")
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self._clock = clock
        if timeout is not None:
            deadline = clock() + timeout
        self._deadline = deadline
        self._check_every = check_every
        self._ticks = 0
        self._rows = 0
        self.max_result_rows = max_result_rows
        self._cancelled: str | None = None
        self._budget_end: float | None = None
        self.trace = trace

    # ------------------------------------------------------------------
    # introspection

    @property
    def deadline(self) -> float | None:
        """Absolute deadline on this context's clock, or ``None``."""
        return self._deadline

    @property
    def ticks(self) -> int:
        """Checkpoints passed so far (tests use this to prove threading)."""
        return self._ticks

    @property
    def rows(self) -> int:
        """Result rows charged so far."""
        return self._rows

    def remaining(self) -> float | None:
        """Seconds until the deadline (negative when past), or ``None``."""
        if self._deadline is None:
            return None
        return self._deadline - self._clock()

    # ------------------------------------------------------------------
    # cancellation checkpoints

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request external cancellation; the next checkpoint raises."""
        self._cancelled = reason

    def tick(self) -> None:
        """Cooperative checkpoint: cheap counter, occasional clock read."""
        self._ticks += 1
        if self._cancelled is not None:
            raise QueryCancelled(self._cancelled)
        if self._deadline is not None and self._ticks % self._check_every == 0:
            self.check_deadline()

    def check_deadline(self) -> None:
        """Unconditional deadline check (used at loop entry/exit)."""
        if self._cancelled is not None:
            raise QueryCancelled(self._cancelled)
        if self._deadline is not None and self._clock() > self._deadline:
            if self._deadline == self._budget_end:
                raise OverBudget(f"budget spent after {self._ticks} checkpoints")
            raise DeadlineExceeded(
                f"query exceeded its deadline by "
                f"{self._clock() - self._deadline:.3f}s "
                f"(after {self._ticks} checkpoints, {self._rows} rows)"
            )

    def attempt(self, budget: float) -> "QueryContext":
        """A fresh copy (own trace, same limits and absolute deadline) whose
        first checkpoint past ``budget`` seconds raises :class:`OverBudget`
        — the TCP server's loop attempt; ``self`` stays fit for a re-run."""
        end = self._clock() + budget
        fresh = QueryContext(
            deadline=end if self._deadline is None else min(end, self._deadline),
            max_result_rows=self.max_result_rows,
            check_every=self._check_every,
            clock=self._clock,
            trace=None if self.trace is None else Trace(),
        )
        fresh._budget_end = end
        fresh._cancelled = self._cancelled
        return fresh

    @property
    def is_attempt(self) -> bool:
        """True for a context made by :meth:`attempt`: work under it may
        wait for nothing, and stops with :class:`OverBudget` instead."""
        return self._budget_end is not None

    def check_budget(self) -> None:
        """A write's one checkpoint: raise :class:`OverBudget` if this
        attempt's budget is spent, and nothing else (a write honours
        neither deadline nor cancellation)."""
        if self._budget_end is not None and self._clock() > self._budget_end:
            raise OverBudget(f"budget spent after {self._ticks} checkpoints")

    def charge_rows(self, n: int) -> None:
        """Charge ``n`` result rows against the row budget."""
        if n <= 0:
            return
        self._rows += n
        if self.max_result_rows is not None and self._rows > self.max_result_rows:
            raise ResourceExhausted(
                f"query produced {self._rows} result rows, over the "
                f"budget of {self.max_result_rows}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryContext deadline={self._deadline} rows={self._rows}"
            f"/{self.max_result_rows} ticks={self._ticks}>"
        )
