"""Fault drills and concurrency stress for the service layer.

These are the acceptance scenarios of the resilient-access work:

(a) a deadline abort mid-join is clean — no state mutation, the very next
    query on the same service succeeds;
(b) an operator's compact between sustained hot-inserts into one document
    keeps the segment count bounded;
(c) an injected compact failure changes nothing, is counted, and the
    service keeps answering reads and writes; once the fault clears, the
    next compact succeeds;
(d) a compact behind a running write waits in the write queue and
    commits after it, or is shed past the admission wait, unapplied;

plus a randomized N-readers × 1-writer stress test asserting that every
pinned snapshot is internally consistent (invariants + text-oracle joins)
and the final state passes the full invariant check.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.database import LazyXMLDatabase
from repro.errors import Busy, DeadlineExceeded, ResourceExhausted
from repro.service import DatabaseService, server, snapshot
from repro.storage import dumps
from repro.workloads.scenarios import registration_stream
from tests.helpers import assert_join_matches_oracle
from tests.oracle import ReferenceDatabase


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


def service_with_docs(n=5):
    db = LazyXMLDatabase()
    for fragment in registration_stream(n):
        db.insert(fragment)
    return DatabaseService(db)


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


class TestDrillMaintenanceBehindAWrite:
    """Drill (d): ``repack`` and ``compact`` are writes.  A compact that
    finds a write holding the write slot waits in the write queue, then
    commits after it; past the admission wait it is shed and changes
    nothing."""

    DOC = "<doc><hot>seed</hot></doc>"
    ITEM = "<item>w</item>"

    @pytest.fixture
    def held_write(self, monkeypatch):
        """A service over one document, an oracle holding the same text,
        and ``start()``: an insert on its own thread that holds the write
        slot (and the writer lock) until ``release`` is set."""
        entered, release = threading.Event(), threading.Event()
        real_apply = server.apply_op

        def held_apply(db, op, parsed=None):
            if op["op"] == "insert":
                entered.set()
                assert release.wait(10)
            return real_apply(db, op, parsed)

        monkeypatch.setattr(server, "apply_op", held_apply)
        db = LazyXMLDatabase()
        db.insert(self.DOC)
        svc = DatabaseService(db)
        ref = ReferenceDatabase()
        ref.insert(self.DOC)
        position = len("<doc><hot>")

        def start():
            writer = threading.Thread(
                target=lambda: svc.insert(self.ITEM, position)
            )
            writer.start()
            assert entered.wait(10)
            ref.insert(self.ITEM, position)
            return writer

        yield svc, ref, start, release
        release.set()
        svc.close()

    @staticmethod
    def assert_reads_match(svc, ref):
        def check(db, _ctx):
            assert db.text == ref.text
            for tag in ("doc", "hot", "item"):
                spans = sorted((e.start, e.end) for e in db.global_elements(tag))
                assert spans == ref.elements(tag), tag
            return db.segment_count

        return svc.read(check)

    def test_compact_queues_behind_a_write_then_commits(self, held_write, monkeypatch):
        monkeypatch.setattr(server, "ADMISSION_WAIT", 10.0)
        svc, ref, start, release = held_write
        writer = start()
        outcome = {}
        compactor = threading.Thread(
            target=lambda: outcome.update(result=svc.compact())
        )
        compactor.start()
        deadline = time.monotonic() + 10
        while svc.health()["admission"]["write"]["waiting"] == 0:
            assert time.monotonic() < deadline, "the compact never queued"
            time.sleep(0.001)
        assert "result" not in outcome
        release.set()
        writer.join(10)
        compactor.join(10)
        # The compact ran after the insert: it folded the insert's segment.
        assert outcome["result"].segments_after == 1
        write_class = svc.health()["admission"]["write"]
        assert (write_class["admitted"], write_class["rejected"]) == (2, 0)
        counters = svc.health()["counters"]
        assert (counters["writes"], counters["maintenance_runs"]) == (2, 1)
        assert self.assert_reads_match(svc, ref) == 1

    def test_compact_past_the_wait_is_shed_and_changes_nothing(
        self, held_write, monkeypatch
    ):
        monkeypatch.setattr(server, "ADMISSION_WAIT", 0.01)
        svc, ref, start, release = held_write
        with svc.snapshot() as snap:
            before = dumps(snap.db)
        writer = start()
        with pytest.raises(Busy, match="queue wait"):
            svc.compact()
        with svc.snapshot() as snap:
            assert dumps(snap.db) == before  # nothing published
        release.set()
        writer.join(10)
        write_class = svc.health()["admission"]["write"]
        assert (write_class["admitted"], write_class["rejected"]) == (1, 1)
        counters = svc.health()["counters"]
        assert counters["maintenance_runs"] == counters["maintenance_failures"] == 1
        assert svc.health()["epochs"]["publishes"] == 1  # the insert's alone
        assert self.assert_reads_match(svc, ref) == 2  # not compacted


class TestConcurrentStress:
    """N reader threads × 1 writer over a random op history."""

    READERS = 4
    WRITES = 60

    def test_snapshots_consistent_under_concurrent_writes(self, rng, monkeypatch):
        monkeypatch.setattr(server, "ADMISSION_WAIT", 2.0)
        svc = service_with_docs(3)
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

        # One writer thread: the write slot is never contended.
        inserted_sids: list[int] = []
        try:
            for step in range(self.WRITES):
                roll = rng.random()
                if roll < 0.55 or not inserted_sids:
                    receipt = svc.insert(f"<stress><val>{step}</val></stress>")
                    inserted_sids.append(receipt.sid)
                elif roll < 0.8:
                    # nested insert into a random stress doc
                    sid = rng.choice(inserted_sids)
                    node = svc.primary.log.ertree._nodes.get(sid)
                    if node is None:
                        inserted_sids.remove(sid)
                        continue
                    svc.insert(f"<n>{step}</n>", node.gp + len("<stress>"))
                else:
                    sid = rng.choice(inserted_sids)
                    if sid in svc.primary.log.ertree._nodes:
                        svc.remove_segment(sid)
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

    def test_session_pin_held_across_writes(self, monkeypatch):
        from repro.service.commands import SessionState, execute_request

        monkeypatch.setattr(snapshot, "DRAIN_TIMEOUT", 0.05)
        svc = service_with_docs(3)
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
