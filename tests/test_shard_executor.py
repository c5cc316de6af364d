"""Process-executor tests: replica parity, lazy forwarding, failure model.

The contracts under test (see :mod:`repro.shard.executor`):

- a worker replica seeded from a snapshot and kept current by lazy op
  forwarding answers exactly like the authoritative shard;
- a worker that dies mid-query fails that query fast with a typed
  :class:`~repro.errors.WorkerLost` — never a hang;
- after a loss, the shard degrades to in-process execution on the
  authoritative database (correct answers, no processes) until
  ``respawn`` reseeds a fresh worker;
- a worker that is alive but silent past the request deadline (plus
  grace) is declared lost rather than waited on forever.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.errors import WorkerLost
from repro.shard import ShardedDatabase

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="worker processes require POSIX"
)


def build(n_shards: int = 2) -> ShardedDatabase:
    db = ShardedDatabase(n_shards, executor="process")
    for i in range(4):
        db.insert(f"<a><b>doc{i}</b><c>x</c></a>")
    return db


def spans(pairs):
    return sorted((a.gspan, d.gspan) for a, d in pairs)


@pytest.fixture
def db():
    database = build()
    yield database
    database.close()


def reference_spans(db):
    reference = ShardedDatabase(db.n_shards)
    # Replay through the coordinator's own text (documents in order).
    for doc in db._doc_table():
        shard_text = db._base(doc.shard).text
        reference.insert(shard_text[doc.node.gp : doc.node.end])
    return spans(reference.structural_join("a", "c"))


class TestParity:
    def test_worker_replicas_answer_like_the_authoritative_shards(self, db):
        assert spans(db.structural_join("a", "c")) == reference_spans(db)

    def test_forwarded_ops_reach_replicas_lazily(self, db):
        before = len(db.structural_join("a", "b"))
        db.insert("<a><b>late</b></a>")
        # The op is queued; the next query ships and replays it.
        assert len(db.structural_join("a", "b")) == before + 1
        assert spans(db.structural_join("a", "c")) == reference_spans(db)


class TestFailureModel:
    def test_killed_worker_raises_typed_loss_then_degrades(self, db):
        executor = db.executor
        worker = executor._workers[0]
        worker.process.kill()
        worker.process.join(timeout=5)
        # In-flight style: the send/gather path sees the death as a typed
        # WorkerLost, not a hang and not a raw OSError.
        with pytest.raises(WorkerLost):
            executor._request(0, "ping", ())
        assert not executor.alive(0)
        # Degraded mode: queries keep answering, in-process, correctly.
        assert spans(db.structural_join("a", "c")) == reference_spans(db)
        assert not executor.alive(0)  # answering degraded revives nothing

    def test_kill_is_a_clean_fault_drill_entry_point(self, db):
        db.executor.kill(1)
        assert not db.executor.alive(1)
        assert spans(db.structural_join("a", "c")) == reference_spans(db)

    def test_unresponsive_worker_is_declared_lost_within_deadline(self, db):
        executor = db.executor
        worker = executor._workers[0]
        os.kill(worker.process.pid, signal.SIGSTOP)
        try:
            started = time.monotonic()
            with pytest.raises(WorkerLost, match="unresponsive"):
                executor._request(0, "ping", (), timeout=0.2)
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, "loss detection must not hang"
        finally:
            os.kill(worker.process.pid, signal.SIGCONT)
        assert not executor.alive(0)

    def test_respawn_restores_a_live_consistent_worker(self, db):
        db.executor.kill(0)
        db.insert("<a><c>while-dead</c></a>")
        db.executor.respawn(0)
        assert db.executor.alive(0)
        # The respawned replica is seeded from the authoritative shard,
        # which already holds the op committed while the worker was dead.
        assert spans(db.structural_join("a", "c")) == reference_spans(db)

    def test_degraded_queries_count_in_metrics(self, db):
        from repro.obs.metrics import METRICS

        counter = METRICS.counter("shard.degraded_queries")
        before = counter.value
        db.executor.kill(0)
        db.structural_join("a", "c")
        if METRICS.enabled:
            assert counter.value > before


class TestProtocol:
    def test_abandoned_reply_is_discarded_not_fatal(self, db):
        executor = db.executor
        # Simulate an abandoned gather: a request whose reply was never
        # collected (a scatter that raised mid-batch leaves exactly this).
        executor._send(0, "ping", ())
        time.sleep(0.2)
        # The next request must skip the stale reply and stay in sync.
        assert executor._request(0, "ping", ()) == "pong"
        assert executor.alive(0)

    def test_worker_side_errors_reraise_typed(self, db):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            db.path_query("not a valid // path //")
