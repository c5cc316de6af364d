"""Retry with backoff, for a caller that can wait out a transient
rejection.

A request the service sheds (:class:`~repro.errors.Busy` from admission
control, :class:`~repro.errors.Overloaded` from the TCP front end) is safe
to send again later.  :func:`retry_with_backoff` does that with capped
exponential backoff and **full jitter** (the AWS-style scheme: sleeping a
uniform random fraction of the cap de-correlates retry storms), and counts
every retry in the ``service.retry.*`` instruments, so a storm shows up in
``stats`` instead of only as latency.

Both the sleep function and the policy's RNG are injectable, so tests
drive retries deterministically and instantaneously.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import Busy
from repro.obs.metrics import METRICS

__all__ = ["BackoffPolicy", "retry_with_backoff"]

_M_RETRY_ATTEMPTS = METRICS.counter(
    "service.retry.attempts", unit="retries", site="retry_with_backoff"
)
_M_RETRY_GIVEUPS = METRICS.counter(
    "service.retry.giveups", unit="requests", site="retry_with_backoff"
)
_H_RETRY_SLEEP = METRICS.histogram(
    "service.retry.sleep_seconds", unit="seconds", site="retry_with_backoff"
)


@dataclass
class BackoffPolicy:
    """Capped exponential backoff with full jitter.

    Attempt ``n`` (0-based) sleeps ``uniform(0, min(max_delay,
    base_delay * multiplier**n))`` seconds.
    """

    retries: int = 5
    base_delay: float = 0.01
    max_delay: float = 0.5
    multiplier: float = 2.0
    rng: random.Random = field(default_factory=random.Random)

    def delay(self, attempt: int) -> float:
        cap = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        return self.rng.uniform(0.0, cap)


def _before_sleep(policy: BackoffPolicy, attempt: int) -> float | None:
    """Common bookkeeping for one failed attempt.

    Returns the delay to sleep, or ``None`` when the policy is exhausted
    (the caller re-raises).  Each retry bumps ``service.retry.attempts``
    and records its sleep in ``service.retry.sleep_seconds``; exhaustion
    bumps ``service.retry.giveups`` — retry storms show up in ``stats``
    instead of only as latency.
    """
    if attempt >= policy.retries:
        if METRICS.enabled:
            _M_RETRY_GIVEUPS.inc()
        return None
    delay = policy.delay(attempt)
    if METRICS.enabled:
        _M_RETRY_ATTEMPTS.inc()
        _H_RETRY_SLEEP.observe(delay)
    return delay


def retry_with_backoff(
    fn,
    *,
    policy: BackoffPolicy | None = None,
    retry_on=(Busy,),
    sleep=time.sleep,
):
    """Call ``fn()``; on a transient rejection, back off and retry.

    Retries only exceptions in ``retry_on`` (default: ``Busy``), up to
    ``policy.retries`` times; the final failure propagates.  ``sleep`` is
    injectable so tests can run instantaneously.
    """
    if policy is None:
        policy = BackoffPolicy()
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on:
            delay = _before_sleep(policy, attempt)
            if delay is None:
                raise
            sleep(delay)
            attempt += 1

