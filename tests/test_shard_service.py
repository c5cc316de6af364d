"""Service + CLI over sharded primaries (PR 5, satellite 1 + fault drill).

``DatabaseService`` fronts a :class:`ShardedDatabase` without the epoch
store: the coordinator *is* the read surface (worker replicas or the
shard lock isolate readers), writes dispatch through coordinator routing,
and pressure is the worst level across the per-shard samples.  The fault
drill asserts the acceptance criterion end to end: a worker killed
mid-query surfaces as a typed :class:`~repro.errors.WorkerLost` through
``service.join`` within the query deadline — never a hang — and the
service keeps answering (degraded, then respawned).

The CLI checks pin the ``stats`` verb's shape on every target: totals at
the top level, and a ``shards`` block when the target is sharded.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.__main__ import main
from repro.core.database import LazyXMLDatabase
from repro.errors import WorkerLost
from repro.net.protocol import SessionState, execute_request
from repro.service import DatabaseService, ServiceConfig
from repro.service.pressure import LEVEL_OK, PressureThresholds
from repro.shard import ShardedDatabase

DOCS = [
    "<a><b><c>x</c></b><c>y</c></a>",
    "<a><b>z</b></a>",
    "<b><c>q</c></b>",
    "<a><c>r</c><b><c>s</c></b></a>",
]


def sharded(n_shards=2, executor="inprocess"):
    db = ShardedDatabase(n_shards, executor=executor)
    for doc in DOCS:
        db.insert(doc)
    return db


def single():
    db = LazyXMLDatabase()
    for doc in DOCS:
        db.insert(doc)
    return db


def spans(pairs):
    return sorted((a.gspan, d.gspan) for a, d in pairs)


def single_spans(db, pairs):
    return sorted((db.global_span(a), db.global_span(d)) for a, d in pairs)


class TestServiceOverSharded:
    def test_join_and_query_parity_with_single(self):
        reference = single()
        with DatabaseService(sharded()) as service:
            want = single_spans(
                reference, reference.structural_join("a", "c")
            )
            assert spans(service.join("a", "c")) == want
            got = sorted(e.gspan for e in service.query("a//c"))
            want_q = sorted(
                reference.global_span(r) for r in reference.path_query("a//c")
            )
            assert got == want_q

    def test_writes_route_through_the_coordinator(self):
        with DatabaseService(sharded()) as service:
            before = len(service.join("a", "c"))
            service.insert("<a><c>svc</c></a>")
            assert len(service.join("a", "c")) == before + 1
            result = service.compact()
            assert result.segments_after == len(DOCS) + 1

    def test_health_reports_the_shard_topology(self):
        with DatabaseService(sharded()) as service:
            payload = service.health()
            assert payload["epochs"] is None
            block = payload["shards"]
            assert block["count"] == 2
            assert block["executor"] == "inprocess"
            assert block["documents"] == [2, 2]
            # In-process execution always answers: every shard is "alive".
            assert block["workers_alive"] == [True, True]

    def test_pressure_merges_per_shard_samples(self):
        # Tight segment budget, auto-maintenance off: the sample must show
        # the fragmented shard's reasons labelled with its shard number.
        config = ServiceConfig(
            thresholds=PressureThresholds(max_segments=8),
            pressure_check_every=0,
        )
        with DatabaseService(sharded(), config=config) as service:
            report = service.check_pressure()
            assert report.segments == service.primary.segment_count
            doc = service.primary._doc_table()[0]
            for _ in range(12):
                service.insert("<c>p</c>", doc.vstart + len("<a>"))
            report = service.check_pressure()
            assert report.level != LEVEL_OK
            assert any(r.startswith("shard 0:") for r in report.reasons)
            # The merged plan drives maintenance back to a healthy state.
            cleaned = service.run_maintenance()
            assert cleaned.level == LEVEL_OK
            assert service.primary.segment_count == len(DOCS)

    def test_trace_join_records_the_scatter_span(self):
        with DatabaseService(sharded()) as service:
            reply = execute_request(
                service,
                SessionState(1),
                {"cmd": "join", "ancestor": "a", "descendant": "c",
                 "trace": True},
            )
            assert reply["pairs"] == len(service.join("a", "c"))
            assert any(s["name"] == "shard_scatter" for s in reply["trace"])


@pytest.mark.skipif(os.name != "posix", reason="worker processes require POSIX")
class TestServiceFaultDrill:
    """Acceptance: worker loss mid-query is a typed error within the
    deadline, then degraded service, then full recovery on respawn."""

    def test_worker_loss_is_typed_fast_degraded_then_respawned(self):
        reference = single()
        want = single_spans(reference, reference.structural_join("a", "c"))
        with DatabaseService(sharded(executor="process")) as service:
            assert spans(service.join("a", "c")) == want

            worker = service.primary.executor._workers[0]
            worker.process.kill()
            worker.process.join(timeout=5)

            # The coordinator's scatter cache would happily answer this
            # query without the worker; the drill is about the cold path.
            service.primary.flush_caches()
            started = time.monotonic()
            with pytest.raises(WorkerLost):
                service.join(
                    "a", "c", context=service.make_context(timeout=2.0)
                )
            assert time.monotonic() - started < 2.0 + 1.0, (
                "worker loss must surface within the query deadline"
            )

            # Degraded continuation: the dead shard answers in-process.
            assert spans(service.join("a", "c")) == want
            assert service.health()["shards"]["workers_alive"] == [False, True]

            service.primary.executor.respawn(0)
            assert service.health()["shards"]["workers_alive"] == [True, True]
            assert spans(service.join("a", "c")) == want


class TestCLIStatsShape:
    """The CLI's ``stats`` is the ``stats`` verb: the service's health and
    metric catalogue, totals at the top level for every target, plus a
    ``shards`` block when the target is sharded."""

    XML = "<r><a><c>x</c></a><a><c>y</c></a><b><c>z</c></b><a><b>w</b></a></r>"

    def _load(self, tmp_path, n_shards):
        xml = tmp_path / "input.xml"
        xml.write_text(self.XML, encoding="utf-8")
        state = tmp_path / f"state-{n_shards}"
        argv = ["load", str(xml), "--durable", str(state), "--segments", "4"]
        if n_shards > 1:
            argv += ["--shards", str(n_shards)]
        assert main(argv) == 0
        return state

    def _stats(self, state, capsys):
        capsys.readouterr()  # drop the load banner
        assert main(["stats", str(state)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok ") and out.count("\n") == 1
        return json.loads(out[3:])

    def test_sharded_stats_have_shards_and_totals(self, tmp_path, capsys):
        state = self._load(tmp_path, 2)
        payload = self._stats(state, capsys)
        shards = payload["shards"]
        assert shards["count"] == 2 and shards["executor"] == "inprocess"
        assert len(shards["documents"]) == 2
        assert shards["workers_alive"] == [True, True]
        assert payload["document_length"] == len(self.XML)
        assert payload["durable"] is True
        assert payload["elements"] == self.XML.count("</")
        assert {"metrics", "metric_catalogue", "planner"} <= set(payload)

    def test_n1_sharded_keeps_flat_keys_for_compatibility(
        self, tmp_path, capsys
    ):
        # ``load --shards 1`` builds a plain durable dir; a genuine
        # 1-shard manifest directory comes from the library surface.
        from repro.shard import ShardedDurableDatabase

        state = tmp_path / "state-sharded-1"
        db = ShardedDurableDatabase(state, 1)
        for doc in DOCS:
            db.insert(doc)
        db.close()
        payload = self._stats(state, capsys)
        assert payload["shards"]["count"] == 1
        assert payload["shards"]["documents"] == [len(DOCS)]
        assert payload["document_length"] == sum(map(len, DOCS))
        assert payload["segments"] == len(DOCS)

    def test_unsharded_stats_stay_flat(self, tmp_path, capsys):
        # A plain (non-manifest) durable dir has no shards block.
        state = self._load(tmp_path, 1)
        payload = self._stats(state, capsys)
        assert "shards" not in payload
        assert payload["document_length"] == len(self.XML)
        assert payload["durable"] is True

    def test_sharded_serve_refuses_shard_conflict(self, tmp_path, capsys):
        state = self._load(tmp_path, 2)
        code = main(["serve", str(state), "--shards", "4"])
        assert code == 1
        assert "shard" in capsys.readouterr().err
