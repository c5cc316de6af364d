"""Fault drills and concurrency stress for the service layer.

These are the acceptance scenarios of the resilient-access work:

(a) a deadline abort mid-join is clean — no state mutation, the very next
    query on the same service succeeds;
(b) an operator's compact between sustained hot-inserts into one document
    keeps the segment count bounded;
(c) an injected compact failure changes nothing, is counted, and the
    service keeps answering reads and writes; once the fault clears, the
    next compact succeeds;

plus a randomized N-readers × 1-writer stress test asserting that every
pinned snapshot is internally consistent (invariants + text-oracle joins)
and the final state passes the full invariant check.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.database import LazyXMLDatabase
from repro.errors import Busy, DeadlineExceeded, ResourceExhausted
from repro.service import (
    BackoffPolicy,
    DatabaseService,
    ServiceConfig,
    retry_with_backoff,
)
from repro.storage import dumps
from repro.workloads.scenarios import registration_stream
from tests.helpers import assert_join_matches_oracle


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def service_with_docs(n=5, **config_kwargs):
    db = LazyXMLDatabase()
    for fragment in registration_stream(n):
        db.insert(fragment)
    return DatabaseService(db, config=ServiceConfig(**config_kwargs))


class TestDrillDeadlineAbort:
    """Drill (a): abort mid-join leaves no trace."""

    def test_abort_then_next_query_succeeds(self):
        svc = service_with_docs(6)
        expected = svc.join("registration", "interest")
        with svc.snapshot() as snap:
            before = dumps(snap.db)
        ctx = svc.make_context(max_result_rows=1)
        with pytest.raises(ResourceExhausted):
            svc.join("registration", "interest", context=ctx)
        # identical snapshot bytes: the abort mutated nothing
        with svc.snapshot() as snap:
            assert dumps(snap.db) == before
            snap.db.check_invariants()
        assert svc.join("registration", "interest") == expected
        counters = svc.health()["counters"]
        assert counters["resource_aborts"] == 1
        svc.close()

    def test_expired_deadline_abort_is_clean(self):
        clock = FakeClock()
        db = LazyXMLDatabase()
        for fragment in registration_stream(4):
            db.insert(fragment)
        svc = DatabaseService(db, clock=clock)
        ctx = svc.make_context(timeout=0.5, check_every=1)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceeded):
            svc.join("registration", "interest", context=ctx)
        assert svc.health()["counters"]["deadline_aborts"] == 1
        # service remains fully functional
        assert len(svc.join("registration", "interest")) > 0
        svc.close()


class TestDrillHotInsert:
    """Drill (b): an operator's compact between sustained nested inserts
    keeps the segment count bounded."""

    def test_segment_count_stays_bounded(self):
        svc = DatabaseService(LazyXMLDatabase())
        svc.insert("<doc><hot>seed</hot></doc>")
        worst = 0
        for i in range(40):
            svc.insert(f"<item>{i}</item>", len("<doc><hot>"))
            worst = max(worst, svc.health()["segments"])
            if i % 2:
                assert svc.compact().segments_after == 1
        assert worst == 3  # the document and two nested inserts
        assert svc.health()["segments"] == 1
        assert svc.health()["counters"]["maintenance_runs"] == 20
        # the document text survived all that maintenance
        assert len(svc.query("doc//item")) == 40
        with svc.snapshot() as snap:
            snap.db.check_invariants()
        svc.close()


class TestDrillMaintenanceFailure:
    """Drill (c): a failing compact changes nothing; the service serves."""

    @pytest.fixture(autouse=True)
    def inject_compact_failure(self, monkeypatch):
        """Every compact fails, on whichever buffer is the writer's (the
        class, not one buffer: the two epoch buffers take turns), until
        the test calls ``self.heal()``."""

        def broken_compact(*_a, **_k):
            raise RuntimeError("injected maintenance fault")

        monkeypatch.setattr(LazyXMLDatabase, "compact", broken_compact)
        self.heal = monkeypatch.undo

    def test_failed_compact_is_counted_and_harmless(self):
        svc = DatabaseService(LazyXMLDatabase())
        svc.insert("<doc><hot>seed</hot></doc>")
        for i in range(4):
            svc.insert(f"<item>{i}</item>", len("<doc><hot>"))
        with svc.snapshot() as snap:
            before = dumps(snap.db)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="injected"):
                svc.compact()
        counters = svc.health()["counters"]
        assert (counters["maintenance_runs"], counters["maintenance_failures"]) == (3, 3)
        assert svc.health()["status"] == "ok"
        with svc.snapshot() as snap:
            assert dumps(snap.db) == before
        # reads and writes still answer, on a consistent snapshot
        assert len(svc.query("doc//item")) == 4
        svc.insert("<more/>", len("<doc><hot>"))
        assert svc.join("doc", "more") != []
        # the fault clears: the next compact succeeds
        self.heal()
        assert svc.compact().segments_after == 1
        assert len(svc.query("doc//item")) == 4
        with svc.snapshot() as snap:
            snap.db.check_invariants()
        svc.close()


class TestConcurrentStress:
    """N reader threads × 1 writer over a random op history."""

    READERS = 4
    WRITES = 60

    def test_snapshots_consistent_under_concurrent_writes(self, rng):
        svc = service_with_docs(3, admission_wait=2.0)
        stop = threading.Event()
        failures: list[str] = []

        def reader(idx: int):
            checks = 0
            while not stop.is_set() or checks == 0:
                try:
                    epoch_a, epoch_b = svc.read(self._consistency_check)
                except Busy:
                    continue
                except Exception as exc:  # pragma: no cover - fail the test
                    failures.append(f"reader {idx}: {type(exc).__name__}: {exc}")
                    return
                if epoch_a != epoch_b:
                    failures.append(f"reader {idx}: snapshot changed mid-read")
                    return
                checks += 1

        threads = [
            threading.Thread(target=reader, args=(i,), name=f"reader-{i}")
            for i in range(self.READERS)
        ]
        for thread in threads:
            thread.start()

        policy = BackoffPolicy(retries=20, base_delay=0.001, max_delay=0.02,
                               rng=rng)
        inserted_sids: list[int] = []
        try:
            for step in range(self.WRITES):
                roll = rng.random()
                if roll < 0.55 or not inserted_sids:
                    receipt = retry_with_backoff(
                        lambda: svc.insert(
                            f"<stress><val>{step}</val></stress>"
                        ),
                        policy=policy,
                    )
                    inserted_sids.append(receipt.sid)
                elif roll < 0.8:
                    # nested insert into a random stress doc
                    sid = rng.choice(inserted_sids)
                    node = svc.primary.log.ertree._nodes.get(sid)
                    if node is None:
                        inserted_sids.remove(sid)
                        continue
                    retry_with_backoff(
                        lambda: svc.insert(
                            f"<n>{step}</n>", node.gp + len("<stress>")
                        ),
                        policy=policy,
                    )
                else:
                    sid = rng.choice(inserted_sids)
                    if sid in svc.primary.log.ertree._nodes:
                        retry_with_backoff(
                            lambda: svc.remove_segment(sid), policy=policy
                        )
                    inserted_sids.remove(sid)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

        assert failures == []
        # final state: full invariant check + oracle agreement
        with svc.snapshot() as snap:
            snap.db.check_invariants()
            assert_join_matches_oracle(snap.db, "stress", "val")
            assert_join_matches_oracle(snap.db, "registration", "interest")
        # primary and published replica agree
        svc.primary.prepare_for_query()
        with svc.snapshot() as snap:
            assert snap.db.document_length == svc.primary.document_length
            assert snap.db.segment_count == svc.primary.segment_count
        metrics = svc.health()
        assert metrics["counters"]["writes"] >= self.WRITES * 0.9
        assert metrics["counters"]["queries"] > 0
        svc.close()

    @staticmethod
    def _consistency_check(db, ctx):
        """Runs inside a pinned snapshot: invariants + a text-oracle join.

        Returns the (document_length, segment_count) pair read twice around
        the work so the caller can assert nothing moved underneath.
        """
        first = (db.document_length, db.segment_count)
        db.check_invariants()
        assert_join_matches_oracle(db, "stress", "val")
        second = (db.document_length, db.segment_count)
        return first, second


class TestDrillEpochHandOff:
    """The buffer a publish retires is the next writer buffer: a reader
    still on it delays or reroutes the next write, never blocks it and
    never sees it change."""

    def test_session_pin_held_across_writes(self):
        from repro.service.commands import SessionState, execute_request

        svc = service_with_docs(3, drain_timeout=0.05)
        svc.insert("<warm/>")
        session = SessionState(1)
        execute_request(svc, session, {"cmd": "pin"})
        pinned = session.pinned
        expected = dumps(pinned.db)
        for i in range(20):
            # Write 1 retires the pinned buffer; write 2 finds it still
            # pinned past the drain timeout and clones the published one.
            assert svc.insert(f"<w{i}/>").sid > 0
            assert dumps(pinned.db) == expected
            assert svc.health()["epochs"]["active_pins"] == 1
        execute_request(svc, session, {"cmd": "unpin"})
        epochs = svc.health()["epochs"]
        assert (epochs["clone_fallbacks"], epochs["replica_clones"]) == (1, 2)
        assert epochs["active_pins"] == 0
        with svc.snapshot() as snap:
            assert snap.epoch == 21
            assert snap.db.text.endswith("".join(f"<w{i}/>" for i in range(20)))
            assert dumps(snap.db) == dumps(svc.primary)
        svc.close()

    def test_failed_catch_up_rebuilds_the_writer_buffer(self, monkeypatch):
        import repro.service.snapshot as snapshot_module

        svc = service_with_docs(3)
        svc.insert("<before/>")  # the writer buffer owes this insert
        real_apply = snapshot_module.apply_op

        def diverge(db, op, parsed=None):
            monkeypatch.setattr(snapshot_module, "apply_op", real_apply)
            raise RuntimeError("injected replay fault")

        monkeypatch.setattr(snapshot_module, "apply_op", diverge)
        assert svc.insert("<during/>").sid > 0
        assert svc.insert("<after/>").sid > 0
        epochs = svc.health()["epochs"]
        assert (epochs["replica_rebuilds"], epochs["replica_clones"]) == (1, 2)
        with svc.snapshot() as snap:
            assert snap.db.text.endswith("<before/><during/><after/>")
            assert dumps(snap.db) == dumps(svc.primary)
            snap.db.check_invariants()
        svc.close()

    def test_health_reads_a_published_epoch(self, rng):
        svc = service_with_docs(3)
        stop = threading.Event()
        seen: set[tuple] = set()
        failures: list[str] = []

        def triple(payload) -> tuple:
            return (payload["segments"], payload["elements"],
                    payload["document_length"])

        def poll():
            while not stop.is_set():
                try:
                    seen.add(triple(svc.health()))
                except Exception as exc:  # pragma: no cover - fail the test
                    failures.append(f"{type(exc).__name__}: {exc}")
                    return

        def published() -> tuple:
            with svc.snapshot() as snap:
                db = snap.db
                return db.segment_count, db.element_count, db.document_length

        epochs = {published()}
        poller = threading.Thread(target=poll, name="health-poller")
        poller.start()
        sids: list[int] = []
        try:
            for step in range(200):
                if sids and rng.random() < 0.4:
                    svc.remove_segment(sids.pop(rng.randrange(len(sids))))
                else:
                    sids.append(svc.insert(f"<s><v>{step}</v></s>").sid)
                epochs.add(published())
        finally:
            stop.set()
            poller.join(timeout=30.0)
        assert failures == []
        assert seen and seen <= epochs
        svc.close()
