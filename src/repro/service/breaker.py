"""A circuit breaker for automatic maintenance.

Automatic repack/compact is exactly the kind of background work that can
fail repeatedly for one persistent reason (a poisoned segment, an
exhausted disk in durable mode) — and re-attempting it on every write
turns one fault into a hot loop that starves queries.  The breaker wraps
those attempts with the classic three-state protocol:

- **closed** — attempts run; ``failure_threshold`` *consecutive* failures
  trip the breaker;
- **open** — attempts are refused (:class:`~repro.errors.CircuitOpenError`)
  until ``reset_timeout`` elapses; the service keeps serving reads in
  degraded mode meanwhile;
- **half-open** — one probe attempt is allowed; success closes the
  breaker, failure re-opens it and restarts the timeout.

The clock is injectable so tests drive state transitions deterministically.
"""

from __future__ import annotations

import threading
import time

from repro.errors import CircuitOpenError

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing."""

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self._failure_threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self._trips = 0
        self._total_failures = 0
        self._total_successes = 0

    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        """``closed``/``open``/``half_open`` (time-aware: an expired open
        breaker reports ``half_open``)."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self._reset_timeout
        ):
            self._state = HALF_OPEN
            self._probing = False
        return self._state

    def allow(self) -> bool:
        """True when an attempt may run now (reserves the half-open probe)."""
        with self._lock:
            state = self._state_locked()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def call(self, fn):
        """Run ``fn()`` under the breaker; refuse when open.

        Success and failure are recorded; the underlying exception
        propagates after being counted.
        """
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker is {self.state} "
                f"({self._consecutive_failures} consecutive failures); "
                f"retry after {self._reset_timeout:.1f}s"
            )
        try:
            result = fn()
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result

    def record_success(self) -> None:
        with self._lock:
            self._total_successes += 1
            self._consecutive_failures = 0
            self._state = CLOSED
            self._probing = False
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._total_failures += 1
            self._consecutive_failures += 1
            state = self._state_locked()
            if state == HALF_OPEN or (
                state == CLOSED
                and self._consecutive_failures >= self._failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._probing = False
                self._trips += 1

    def metrics(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "trips": self._trips,
                "failures": self._total_failures,
                "successes": self._total_successes,
            }
