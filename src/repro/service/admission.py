"""Admission control and backpressure.

A production service in front of the lazy store must bound its own
concurrency: unbounded reader fan-out starves the writer, and unbounded
writes grow the update log faster than maintenance can drain it.  The
:class:`AdmissionController` enforces per-class (``read`` / ``write`` /
``maintenance``) concurrency limits plus a small wait queue per class; a
request over both limits is rejected *immediately* with the transient
:class:`~repro.errors.Busy` — load shedding, not queue collapse.  Shed and
admitted counts are in :meth:`AdmissionController.metrics`.

Callers that can wait should wrap their attempt in
:func:`~repro.service.retry.retry_with_backoff` (re-exported here), which
retries ``Busy`` with capped exponential backoff and full jitter — the
shared policy in :mod:`repro.service.retry`, also used by the replication
heartbeat and the network client.
"""

from __future__ import annotations

import threading
import time

from repro.errors import Busy, ServiceClosed
from repro.obs.metrics import METRICS
from repro.service.retry import BackoffPolicy, retry_with_backoff

__all__ = ["AdmissionController", "Ticket", "BackoffPolicy", "retry_with_backoff"]

_H_WAIT = METRICS.histogram(
    "service.admission.wait_seconds",
    unit="seconds",
    site="AdmissionController.admit (queued waits only)",
)

#: Default per-class concurrency limits: many readers, one writer (the
#: snapshot protocol is single-writer), one maintenance job at a time.
DEFAULT_LIMITS = {"read": 16, "write": 1, "maintenance": 1}

#: Default per-class wait-queue depth on top of the concurrency limit.
DEFAULT_QUEUE_DEPTH = {"read": 32, "write": 8, "maintenance": 0}


class Ticket:
    """An admitted request; release it (or use as a context manager)."""

    __slots__ = ("_controller", "_request_class", "_released")

    def __init__(self, controller: "AdmissionController", request_class: str):
        self._controller = controller
        self._request_class = request_class
        self._released = False

    @property
    def request_class(self) -> str:
        return self._request_class

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release(self._request_class)

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class _ClassState:
    __slots__ = ("limit", "queue_depth", "active", "waiting", "admitted", "rejected", "peak")

    def __init__(self, limit: int, queue_depth: int):
        self.limit = limit
        self.queue_depth = queue_depth
        self.active = 0
        self.waiting = 0
        self.admitted = 0
        self.rejected = 0
        self.peak = 0


class AdmissionController:
    """Bounded per-class admission with immediate ``Busy`` load shedding.

    ``admit(cls, wait)`` admits when the class has a free slot; otherwise
    it waits up to ``wait`` seconds *if* the class's wait queue has room,
    and rejects with :class:`~repro.errors.Busy` when the queue is full or
    the wait times out.  ``wait=0`` makes rejection immediate.
    """

    def __init__(
        self,
        limits: dict[str, int] | None = None,
        *,
        queue_depth: dict[str, int] | None = None,
    ):
        limits = dict(DEFAULT_LIMITS if limits is None else limits)
        depths = dict(DEFAULT_QUEUE_DEPTH if queue_depth is None else queue_depth)
        for name, limit in limits.items():
            if limit < 1:
                raise ValueError(f"limit for {name!r} must be >= 1, got {limit}")
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        self._classes = {
            name: _ClassState(limit, max(0, depths.get(name, 0)))
            for name, limit in limits.items()
        }
        self._closed = False

    def admit(self, request_class: str, wait: float) -> Ticket:
        """Admit a request of ``request_class`` or raise ``Busy``."""
        state = self._state(request_class)
        with self._lock:
            if self._closed:
                raise ServiceClosed("admission controller is closed")
            if state.active < state.limit:
                return self._admit_locked(state, request_class)
            if wait <= 0 or state.waiting >= state.queue_depth:
                state.rejected += 1
                raise Busy(
                    f"{request_class} limit reached "
                    f"({state.active}/{state.limit} active, "
                    f"{state.waiting} waiting); retry with backoff"
                )
            state.waiting += 1
            deadline = time.monotonic() + wait
            try:
                while state.active >= state.limit:
                    if self._closed:
                        raise ServiceClosed("admission controller is closed")
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        state.rejected += 1
                        if METRICS.enabled:
                            _H_WAIT.observe(wait)
                        raise Busy(
                            f"{request_class} queue wait exceeded "
                            f"{wait:.3f}s; retry with backoff"
                        )
                    self._freed.wait(remaining)
            finally:
                state.waiting -= 1
            if METRICS.enabled:
                _H_WAIT.observe(wait - (deadline - time.monotonic()))
            return self._admit_locked(state, request_class)

    def try_admit(self, request_class: str) -> Ticket | None:
        """Admit only if a slot is free now; None otherwise.  Never waits,
        never counts a rejection: the caller runs the request elsewhere."""
        state = self._state(request_class)
        with self._lock:
            if self._closed:
                raise ServiceClosed("admission controller is closed")
            if state.active < state.limit:
                return self._admit_locked(state, request_class)
            return None

    def _admit_locked(self, state: _ClassState, request_class: str) -> Ticket:
        state.active += 1
        state.admitted += 1
        state.peak = max(state.peak, state.active)
        return Ticket(self, request_class)

    def _release(self, request_class: str) -> None:
        with self._lock:
            state = self._classes[request_class]
            state.active -= 1
            self._freed.notify_all()

    def _state(self, request_class: str) -> _ClassState:
        try:
            return self._classes[request_class]
        except KeyError:
            raise Busy(f"unknown request class {request_class!r}") from None

    def close(self) -> None:
        """Reject all future admissions (in-flight tickets stay valid)."""
        with self._lock:
            self._closed = True
            self._freed.notify_all()

    def metrics(self) -> dict:
        """Per-class counters: active/peak/admitted/rejected/waiting."""
        with self._lock:
            return {
                name: {
                    "limit": state.limit,
                    "active": state.active,
                    "peak": state.peak,
                    "waiting": state.waiting,
                    "admitted": state.admitted,
                    "rejected": state.rejected,
                }
                for name, state in self._classes.items()
            }
