"""Unit tests for the resilient service layer (:mod:`repro.service`).

Each component is exercised in isolation with injected sleeps so
nothing here depends on wall-clock timing, then the assembled
:class:`DatabaseService` is checked for end-to-end behaviour: snapshot
isolation, the clean-log fast join path, admission metrics, health
reporting, and the ``serve`` shell protocol.
"""

from __future__ import annotations

import io

import pytest

from repro.core.database import LazyXMLDatabase
from repro.errors import (
    Busy,
    ServiceClosed,
)
from repro.joins.stack_tree import std_join
from repro.service import (
    AdmissionController,
    BackoffPolicy,
    DatabaseService,
    EpochManager,
    ServiceConfig,
    retry_with_backoff,
)
from repro.service.shell import ServiceShell
from repro.workloads.scenarios import registration_stream


def populated_db(n=5):
    db = LazyXMLDatabase()
    for fragment in registration_stream(n):
        db.insert(fragment)
    db.prepare_for_query()
    return db


# ----------------------------------------------------------------------
# snapshots


class TestEpochManager:
    """The manager's seed is its writer buffer: each write takes the
    buffer from ``writer()`` (caught up), commits to it and publishes."""

    @staticmethod
    def write(mgr, fragment):
        from repro.durability.recovery import apply_op

        db = mgr.writer()
        op = {"op": "insert", "fragment": fragment,
              "position": db.document_length}
        apply_op(db, op)
        return mgr.publish([op])

    def test_pin_sees_seed_state(self):
        db = populated_db()
        mgr = EpochManager(db)
        assert mgr.writer() is db  # the seed is the writer buffer
        with mgr.pin() as snap:
            assert snap.epoch == 0
            assert snap.db.segment_count == db.segment_count
            assert snap.db is not db  # a clone, not the writer buffer

    def test_publish_advances_epoch(self):
        db = populated_db()
        mgr = EpochManager(db)
        assert self.write(mgr, "<x/>") == 1
        with mgr.pin() as snap:
            assert snap.epoch == 1
            assert snap.db is db  # the writer buffer was swapped in
            assert snap.db.document_length == mgr.writer().document_length

    def test_pinned_snapshot_survives_publish(self):
        """The isolation property: a held pin never observes later writes."""
        db = populated_db()
        mgr = EpochManager(db, drain_timeout=0.01)
        old = mgr.pin()
        before_len = old.db.document_length
        for i in range(3):
            self.write(mgr, f"<w{i}/>")
        assert old.db.document_length == before_len
        old.db.check_invariants()
        with mgr.pin() as new:
            assert new.epoch == 3
            assert new.db.document_length == mgr.writer().document_length
        old.release()

    def test_replica_matches_primary_exactly(self):
        from repro.storage import dumps

        mgr = EpochManager(populated_db())
        self.write(mgr, "<x><y>z</y></x>")
        with mgr.pin() as snap:
            assert dumps(snap.db) == dumps(mgr.writer())

    def test_buffers_are_recycled_not_recloned(self):
        mgr = EpochManager(populated_db(2))
        for i in range(6):
            self.write(mgr, f"<r{i}/>")
        metrics = mgr.metrics()
        # Two buffers: the constructor clones the published one, and every
        # publish after recycles the retired buffer through op replay.
        assert metrics["publishes"] == 6
        assert metrics["replica_clones"] == 1
        assert metrics["pending_ops"] == 1  # the last write's, owed

    def test_stuck_reader_triggers_clone_fallback(self):
        mgr = EpochManager(populated_db(2), drain_timeout=0.01)
        stuck = mgr.pin()  # never released while publishing continues
        for i in range(3):
            self.write(mgr, f"<s{i}/>")
        assert mgr.metrics()["clone_fallbacks"] == 1
        stuck.db.check_invariants()  # abandoned buffer still consistent
        assert mgr.metrics()["active_pins"] == 1  # its pin still counts
        stuck.release()
        assert mgr.metrics()["active_pins"] == 0

    def test_publish_needs_a_caught_up_writer(self):
        from repro.durability.recovery import apply_op

        db = populated_db(1)
        mgr = EpochManager(db)
        self.write(mgr, "<a/>")
        op = {"op": "insert", "fragment": "<b/>", "position": 0}
        apply_op(db, op)  # db is published now, and nobody asked writer()
        with pytest.raises(RuntimeError, match="writer"):
            mgr.publish([op])

    def test_closed_manager_refuses_pins(self):
        mgr = EpochManager(populated_db(1))
        snap = mgr.pin()
        mgr.close()
        with pytest.raises(ServiceClosed):
            mgr.pin()
        snap.release()  # outstanding pin still releasable after close


class TestSettle:
    """``settle`` runs the writer buffer's catch-up ahead of the next
    write, and only where it would wait for nothing."""

    write = staticmethod(TestEpochManager.write)

    def test_settle_replays_what_the_writer_buffer_owes_once(self):
        from repro.storage import dumps

        mgr = EpochManager(populated_db(2))
        assert mgr.settle() is False  # a new store owes nothing
        self.write(mgr, "<a/>")
        assert mgr.metrics()["pending_ops"] == 1
        assert mgr.settle() is True
        assert mgr.settle() is False
        metrics = mgr.metrics()
        assert (metrics["pending_ops"], metrics["idle_catch_ups"]) == (0, 1)
        assert metrics["replica_clones"] == 1
        with mgr.pin() as snap:
            assert dumps(snap.db) == dumps(mgr.writer())

    def test_settle_beside_a_reader_of_the_writer_buffer_is_a_no_op(self):
        mgr = EpochManager(populated_db(2), drain_timeout=0.01)
        snap = mgr.pin()
        self.write(mgr, "<a/>")  # the pinned buffer is the writer's now
        assert mgr.settle() is False
        metrics = mgr.metrics()
        assert (metrics["pending_ops"], metrics["idle_catch_ups"]) == (1, 0)
        assert (metrics["drain_waits"], metrics["clone_fallbacks"]) == (0, 0)
        assert snap.db.text == populated_db(2).text  # untouched
        snap.release()
        assert mgr.settle() is True

    def test_settle_after_close_is_a_no_op(self):
        mgr = EpochManager(populated_db(2))
        snap = mgr.pin()
        self.write(mgr, "<a/>")
        mgr.close()  # the writer buffer is pinned: close cannot catch up
        snap.release()
        assert mgr.settle() is False
        assert mgr.metrics()["pending_ops"] == 1
        # writer() still answers with the final state.
        assert mgr.writer().text.endswith("<a/>")
        assert mgr.metrics()["idle_catch_ups"] == 0

    def test_service_settle_after_close_or_during_drain_is_a_no_op(self):
        svc = DatabaseService(populated_db(2))
        svc.insert("<a/>")
        svc.begin_drain()
        assert svc.settle() is False
        assert svc.health()["epochs"]["pending_ops"] == 1
        svc.close()
        assert svc.settle() is False
        assert svc.health()["epochs"]["idle_catch_ups"] == 0

    def test_service_settle_beside_a_held_writer_lock_returns_at_once(self):
        import threading
        import time

        svc = DatabaseService(populated_db(2))
        svc.insert("<a/>")
        held, release = threading.Event(), threading.Event()

        def hold():
            with svc._writer_lock:
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10)
            started = time.monotonic()
            assert svc.settle() is False
            assert time.monotonic() - started < 1.0
            assert svc.health()["epochs"]["pending_ops"] == 1
        finally:
            release.set()
            holder.join(10)
        assert svc.settle() is True
        assert svc.health()["epochs"]["pending_ops"] == 0
        svc.close()


# ----------------------------------------------------------------------
# admission & backoff


class TestAdmission:
    def test_admits_up_to_limit_then_busy(self):
        ctl = AdmissionController({"read": 2}, queue_depth={"read": 0})
        a = ctl.admit("read", 0)
        b = ctl.admit("read", 0)
        with pytest.raises(Busy):
            ctl.admit("read", 0)
        a.release()
        c = ctl.admit("read", 0)
        c.release()
        b.release()
        metrics = ctl.metrics()["read"]
        assert metrics["admitted"] == 3
        assert metrics["rejected"] == 1
        assert metrics["peak"] == 2
        assert metrics["active"] == 0

    def test_release_is_idempotent(self):
        ctl = AdmissionController({"read": 1}, queue_depth={"read": 0})
        ticket = ctl.admit("read", 0)
        ticket.release()
        ticket.release()
        assert ctl.metrics()["read"]["active"] == 0

    def test_ticket_context_manager(self):
        ctl = AdmissionController({"write": 1}, queue_depth={"write": 0})
        with ctl.admit("write", 0):
            with pytest.raises(Busy):
                ctl.admit("write", 0)
        ctl.admit("write", 0).release()

    def test_full_queue_rejects_immediately(self):
        ctl = AdmissionController({"read": 1}, queue_depth={"read": 0})
        with ctl.admit("read", 0):
            with pytest.raises(Busy):
                ctl.admit("read", 5.0)  # depth 0: no waiting

    def test_wait_timeout_expires(self):
        ctl = AdmissionController({"read": 1}, queue_depth={"read": 4})
        with ctl.admit("read", 0):
            with pytest.raises(Busy, match="queue wait"):
                ctl.admit("read", 0.01)

    def test_unknown_class_is_busy(self):
        ctl = AdmissionController()
        with pytest.raises(Busy):
            ctl.admit("nonsense", 0)

    def test_closed_controller(self):
        ctl = AdmissionController()
        ctl.close()
        with pytest.raises(ServiceClosed):
            ctl.admit("read", 0)

    def test_close_wakes_a_queued_request_with_service_closed(self):
        """A request queued when the controller closes learns the service
        is gone at once — not a retryable ``Busy`` that reads as a wait
        timeout — and is not counted as shed."""
        import threading
        import time

        ctl = AdmissionController({"read": 1}, queue_depth={"read": 4})
        outcome = {}

        def queued():
            start = time.monotonic()
            try:
                ctl.admit("read", 5.0)
            except Exception as exc:  # noqa: BLE001 - the outcome is checked below
                outcome["error"] = exc
            outcome["waited"] = time.monotonic() - start

        with ctl.admit("read", 0):
            waiter = threading.Thread(target=queued)
            waiter.start()
            deadline = time.monotonic() + 5.0
            while ctl.metrics()["read"]["waiting"] == 0:
                assert time.monotonic() < deadline, "the request never queued"
                time.sleep(0.001)
            ctl.close()
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
        assert isinstance(outcome["error"], ServiceClosed), outcome
        assert outcome["waited"] < 5.0
        assert ctl.metrics()["read"]["rejected"] == 0


class TestBackoff:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(base_delay=0.1, max_delay=0.4, multiplier=2.0)
        for attempt, cap in [(0, 0.1), (1, 0.2), (2, 0.4), (5, 0.4)]:
            for _ in range(20):
                assert 0.0 <= policy.delay(attempt) <= cap

    def test_retry_until_success(self):
        calls = {"n": 0}
        sleeps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise Busy("later")
            return "done"

        result = retry_with_backoff(flaky, sleep=sleeps.append)
        assert result == "done"
        assert calls["n"] == 3
        assert len(sleeps) == 2

    def test_retries_exhausted_propagates(self):
        policy = BackoffPolicy(retries=2)
        calls = {"n": 0}

        def always_busy():
            calls["n"] += 1
            raise Busy("no")

        with pytest.raises(Busy):
            retry_with_backoff(always_busy, policy=policy, sleep=lambda _s: None)
        assert calls["n"] == 3  # initial + 2 retries

    def test_non_retryable_errors_pass_through(self):
        def boom():
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_with_backoff(boom, sleep=lambda _s: None)


# ----------------------------------------------------------------------
# the assembled service


class TestDatabaseService:
    def test_read_write_cycle(self):
        with DatabaseService(populated_db(3)) as svc:
            n = len(svc.query("registration//interest"))
            svc.insert(next(iter(registration_stream(1, seed=7))))
            assert len(svc.query("registration//interest")) >= n

    def test_snapshot_isolation_across_writes(self):
        svc = DatabaseService(populated_db(3))
        snap = svc.snapshot()
        frozen = snap.db.document_length
        svc.insert("<later/>")
        assert snap.db.document_length == frozen
        with svc.snapshot() as fresh:
            assert fresh.db.document_length > frozen
        snap.release()
        svc.close()

    def test_explicit_algorithm_respected(self):
        svc = DatabaseService(populated_db(3))
        lazy = svc.join("registration", "interest")
        std = svc.read(lambda db, ctx: std_join(
            db, "registration", "interest", context=ctx))
        assert sorted(lazy) == sorted(std)
        svc.close()

    def test_write_is_visible_to_subsequent_reads(self):
        svc = DatabaseService(LazyXMLDatabase())
        svc.insert("<a><b>x</b></a>")
        svc.insert("<a><b>y</b></a>")
        assert len(svc.join("a", "b")) == 2
        svc.close()

    def test_remove_via_service(self):
        svc = DatabaseService(LazyXMLDatabase())
        svc.insert("<a>one</a>")
        svc.insert("<b>two</b>")
        svc.remove_segment(2)
        assert svc.query("b") == []
        svc.close()

    def test_busy_when_read_limit_hit(self):
        config = ServiceConfig(read_limit=1, read_queue_depth=0,
                               admission_wait=0.0)
        svc = DatabaseService(populated_db(2), config=config)
        stalled = []

        def slow_read(db, ctx):
            with pytest.raises(Busy):
                svc.query("registration")  # second read over the limit
            stalled.append(True)
            return db.segment_count

        svc.read(slow_read)
        assert stalled
        svc.close()

    def test_durable_primary_journals_service_writes(self, tmp_path):
        from repro.durability.database import DurableDatabase
        from repro.durability.recovery import recover

        svc = DatabaseService(DurableDatabase(tmp_path))
        svc.insert("<a><b>x</b></a>")
        svc.insert("<a><b>y</b></a>")
        pairs = svc.join("a", "b")
        svc.close()
        recovered, _report = recover(tmp_path)
        recovered.prepare_for_query()
        assert sorted(recovered.structural_join("a", "b")) == sorted(pairs)

    def test_health_shape(self):
        svc = DatabaseService(populated_db(2))
        health = svc.health()
        assert health["status"] == "ok"
        assert health["durable"] is False
        assert set(health) >= {
            "segments", "elements", "admission", "epochs", "counters",
        }
        svc.close()

    def test_closed_service_refuses_requests(self):
        svc = DatabaseService(populated_db(1))
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.query("registration")
        with pytest.raises(ServiceClosed):
            svc.insert("<x/>")
        assert svc.health()["status"] == "closed"
        svc.close()  # idempotent


# ----------------------------------------------------------------------
# the serve shell


class TestServiceShell:
    def run_shell(self, commands, db=None):
        svc = DatabaseService(db if db is not None else populated_db(2))
        out = io.StringIO()
        shell = ServiceShell(svc, io.StringIO(commands), out)
        shell.run()
        svc.close()
        return out.getvalue().splitlines()

    def test_query_join_insert(self):
        lines = self.run_shell(
            "query registration//interest\n"
            "join registration interest\n"
            "insert end <a><b>x</b></a>\n"
            "join a b\n"
            "quit\n"
        )
        assert lines[0].startswith("ok ")
        assert any(line.startswith("ok inserted segment") for line in lines)
        assert "ok 1 pair(s)" in lines
        assert lines[-1] == "ok bye"

    def test_unknown_command_keeps_serving(self):
        lines = self.run_shell("frobnicate\nhelp\nquit\n")
        assert lines[0].startswith("error unknown command")
        assert lines[1].startswith("ok commands:")

    def test_errors_are_reported_not_fatal(self):
        lines = self.run_shell(
            "remove 1 3\n"        # mid-tag: InvalidSegmentError
            "join onlyone\n"      # bad arity
            "query a/b\n"
            "quit\n",
            db=(lambda d: (d.insert("<a><b>hello</b></a>"), d)[1])(
                LazyXMLDatabase()
            ),
        )
        assert lines[0].startswith("error InvalidSegmentError")
        assert lines[1].startswith("error bad argument")
        assert lines[2].startswith("ok 1 match(es)")

    def test_health_and_stats_are_json(self):
        import json

        lines = self.run_shell("health\nstats\nquit\n")
        for line in lines[:-1]:
            assert line.startswith("ok ")
            payload = json.loads(line[3:])
            assert isinstance(payload, dict)


# ----------------------------------------------------------------------
# CLI satellites


class TestCLIErrorHandling:
    def test_unknown_subcommand_exits_2_one_line(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "invalid choice" in err

    def test_bad_flag_exits_2_one_line(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--bogus-flag"])
        assert excinfo.value.code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_unreadable_durable_dir_exits_2_one_line(self, tmp_path, capsys):
        from repro.__main__ import main

        not_a_dir = tmp_path / "state"
        not_a_dir.write_text("plain file")
        code = main(["stats", str(not_a_dir / "shard-00")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "durable directory" in err

    def test_missing_durable_dir_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["query", str(tmp_path / "nope"), "a"])
        assert code == 2
        assert "durable directory" in capsys.readouterr().err

    def test_serve_shell_over_pipes(self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.storage import save

        db = populated_db(2)
        path = tmp_path / "db.json"
        save(db, path)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("query registration\nquit\n")
        )
        code = main(["serve", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "ok " in captured.out
        assert "serving" in captured.err

    @pytest.mark.parametrize("inserts", [3, 4])
    def test_serve_saves_every_write_at_eof(
        self, tmp_path, capsys, monkeypatch, inserts
    ):
        """The save on exit writes the service's state: after an even
        number of writes the database loaded from the file is the writer
        buffer, a write behind."""
        from repro.__main__ import main
        from repro.storage import load, save

        path = tmp_path / "db.json"
        save(populated_db(1), path)
        before = load(path).text
        fragments = [f"<w{i}/>" for i in range(inserts)]
        lines = "".join(f"insert end {fragment}\n" for fragment in fragments)
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))  # then EOF
        assert main(["serve", str(path)]) == 0
        assert capsys.readouterr().out.count("ok inserted") == inserts
        assert load(path).text == before + "".join(fragments)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "{snap}", "--readers", "0"],
            ["serve", "{snap}", "--max-rows", "-1"],
            ["serve", "{snap}", "--timeout", "-1"],
            ["serve", "{snap}", "--timeout", "0"],
            # Flags that no longer exist: a usage error like any unknown one.
            ["serve", "{snap}", "--maintenance-interval", "-1"],
            ["serve", "{snap}", "--max-segments", "0"],
            ["serve", "{snap}", "--max-depth", "0"],
            ["serve", "{snap}", "--replicas", "-1"],
            ["serve", "{snap}", "--max-conns", "0"],
            ["serve", "{snap}", "--drain-grace", "-1"],
            ["load", "{xml}", "--db", "{snap}", "--segments", "-4"],
        ],
        ids=lambda argv: "".join(argv[-2:]),
    )
    def test_bad_count_or_duration_exits_2_one_line(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        from repro.__main__ import main
        from repro.storage import save

        paths = {"snap": tmp_path / "db.json", "xml": tmp_path / "doc.xml"}
        save(populated_db(1), paths["snap"])
        paths["xml"].write_text("<a><b/></a>")
        monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
        with pytest.raises(SystemExit) as excinfo:
            main([word.format(**paths) for word in argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert argv[-2] in err
