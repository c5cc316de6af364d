"""Admission control and backpressure.

A production service in front of the lazy store must bound its own
concurrency: unbounded reader fan-out starves the writer, and unbounded
writes grow the update log faster than an operator's ``compact`` can
drain it.  The :class:`AdmissionController` admits two classes: ``read``
(many at once) and ``write`` (one at a time: the snapshot protocol is
single-writer; ``repack`` and ``compact`` are writes too).  Each class
has a small wait queue (:data:`QUEUE_DEPTH`); a request over both is
rejected *immediately* with the transient :class:`~repro.errors.Busy` —
load shedding, not queue collapse.  Shed and admitted counts are in
:meth:`AdmissionController.metrics`.
"""

from __future__ import annotations

import threading
import time

from repro.errors import Busy, ServiceClosed
from repro.obs.metrics import METRICS

__all__ = ["AdmissionController", "Ticket"]

_H_WAIT = METRICS.histogram(
    "service.admission.wait_seconds",
    unit="seconds",
    site="AdmissionController.admit (queued waits only)",
)

#: Per-class wait-queue depth on top of the concurrency limit.
QUEUE_DEPTH = {"read": 32, "write": 8}


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
    __slots__ = ("limit", "active", "waiting", "admitted", "rejected", "peak")

    def __init__(self, limit: int):
        self.limit = limit
        self.active = 0
        self.waiting = 0
        self.admitted = 0
        self.rejected = 0
        self.peak = 0


class AdmissionController:
    """Bounded per-class admission with immediate ``Busy`` load shedding.

    ``read_limit`` reads run at once and one write.  ``admit(cls, wait)``
    admits when the class has a free slot; otherwise it waits up to
    ``wait`` seconds *if* the class's wait queue has room, and rejects
    with :class:`~repro.errors.Busy` when the queue is full or the wait
    times out.  ``wait=0`` makes rejection immediate.
    """

    def __init__(self, read_limit: int):
        if read_limit < 1:
            raise ValueError(f"read limit must be >= 1, got {read_limit}")
        self._lock = threading.Lock()
        self._freed = threading.Condition(self._lock)
        self._classes = {"read": _ClassState(read_limit), "write": _ClassState(1)}
        self._closed = False

    def admit(self, request_class: str, wait: float) -> Ticket:
        """Admit a request of ``request_class`` or raise ``Busy``."""
        state = self._state(request_class)
        with self._lock:
            if self._closed:
                raise ServiceClosed("admission controller is closed")
            if state.active < state.limit:
                return self._admit_locked(state, request_class)
            if wait <= 0 or state.waiting >= QUEUE_DEPTH[request_class]:
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
