"""Tests for the retry/backoff policy (``repro.service.retry``).

Its contract: deterministic delays under an injected RNG, exact retry
counts and typed-exception selectivity.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import Busy, ConnectionLost, Overloaded, QueryError
from repro.obs.metrics import METRICS
from repro.service.retry import BackoffPolicy, retry_with_backoff


def make_policy(**overrides):
    kwargs = dict(
        retries=4, base_delay=0.01, max_delay=0.5, multiplier=2.0,
        rng=random.Random(42),
    )
    kwargs.update(overrides)
    return BackoffPolicy(**kwargs)


class TestBackoffPolicy:
    def test_delays_are_deterministic_under_seeded_rng(self):
        a = [make_policy().delay(n) for n in range(6)]
        b = [make_policy().delay(n) for n in range(6)]
        assert a == b

    def test_full_jitter_bounds(self):
        """Attempt n sleeps in [0, min(max_delay, base * mult**n)]."""
        policy = make_policy(rng=random.Random(7))
        for attempt in range(12):
            cap = min(0.5, 0.01 * 2.0 ** attempt)
            for _ in range(20):
                assert 0.0 <= policy.delay(attempt) <= cap

    def test_cap_applies_to_late_attempts(self):
        policy = make_policy(rng=random.Random(1))
        assert all(policy.delay(50) <= 0.5 for _ in range(50))


class TestRetrySync:
    def test_returns_first_success(self):
        calls = []

        def fn():
            calls.append(1)
            return "ok"

        assert retry_with_backoff(fn, sleep=lambda _: None) == "ok"
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = []

        def fn():
            attempts.append(1)
            if len(attempts) < 3:
                raise Busy("try later")
            return "ok"

        slept = []
        out = retry_with_backoff(
            fn, policy=make_policy(), sleep=slept.append
        )
        assert out == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2
        assert all(d >= 0 for d in slept)

    def test_exhaustion_reraises_the_last_error(self):
        def fn():
            raise Busy("always")

        slept = []
        with pytest.raises(Busy):
            retry_with_backoff(
                fn, policy=make_policy(retries=3), sleep=slept.append
            )
        assert len(slept) == 3  # initial call + 3 retries = 4 attempts

    def test_non_retryable_errors_pass_straight_through(self):
        calls = []

        def fn():
            calls.append(1)
            raise QueryError("not transient")

        with pytest.raises(QueryError):
            retry_with_backoff(fn, sleep=lambda _: None)
        assert len(calls) == 1

    def test_retry_on_is_selectable(self):
        """Each site retries its own transient type — and only that."""
        def shed():
            raise Overloaded("server shed")

        with pytest.raises(Overloaded):
            retry_with_backoff(
                shed, policy=make_policy(retries=0),
                retry_on=(Overloaded,), sleep=lambda _: None,
            )
        calls = []

        def cut():
            calls.append(1)
            raise ConnectionLost("reset by peer")

        with pytest.raises(ConnectionLost):
            retry_with_backoff(
                cut, policy=make_policy(retries=2),
                retry_on=(ConnectionLost,), sleep=lambda _: None,
            )
        assert len(calls) == 3

    def test_sleeps_follow_the_policy_schedule(self):
        """With a seeded RNG the exact sleep sequence is reproducible."""
        policy = make_policy(rng=random.Random(99))
        reference = make_policy(rng=random.Random(99))
        expected = [reference.delay(0), reference.delay(1)]

        attempts = []

        def fn():
            attempts.append(1)
            if len(attempts) < 3:
                raise Busy("later")
            return "ok"

        slept = []
        retry_with_backoff(fn, policy=policy, sleep=slept.append)
        assert slept == expected


class TestSharedImportSites:
    def test_admission_reexports_for_compat(self):
        from repro.service.admission import (
            BackoffPolicy as A_Policy,
            retry_with_backoff as a_retry,
        )

        assert A_Policy is BackoffPolicy
        assert a_retry is retry_with_backoff


class TestRetryMetrics:
    def test_attempts_and_sleep_histogram(self, monkeypatch):
        monkeypatch.setattr(METRICS, "enabled", True)
        attempts = METRICS.get("service.retry.attempts")
        sleeps = METRICS.get("service.retry.sleep_seconds")
        before_attempts = attempts.value
        before_sleeps = sleeps.count
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise Busy("transient")
            return "ok"

        result = retry_with_backoff(
            flaky, policy=BackoffPolicy(retries=5), sleep=lambda d: None
        )
        assert result == "ok"
        assert attempts.value - before_attempts == 2
        assert sleeps.count - before_sleeps == 2

    def test_giveups_counted_on_exhaustion(self, monkeypatch):
        monkeypatch.setattr(METRICS, "enabled", True)
        giveups = METRICS.get("service.retry.giveups")
        before = giveups.value

        def always_shed():
            raise Busy("down")

        with pytest.raises(Busy):
            retry_with_backoff(
                always_shed, policy=BackoffPolicy(retries=2), sleep=lambda d: None
            )
        assert giveups.value - before == 1
