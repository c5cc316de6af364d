"""Unit tests for the replication building blocks.

Covers the pieces the fault-drill matrix (``test_replication_drills.py``)
composes: the fencing manifest's never-decreasing-term invariant, the
partitionable channel's record-boundary cuts, the node-level append
protocol (applied / duplicate / gap / fenced), epoch-pinned follower
reads, the incremental journal tail's parity with the full scan, and the
retry/backoff observability counters.
"""

from __future__ import annotations

import json

import pytest

from repro.durability.database import DurableDatabase
from repro.durability.wal import read_journal, tail_journal
from repro.errors import (
    ChannelCut,
    FencedError,
    LaggingReplica,
    ReplicationError,
)
from repro.obs.metrics import METRICS
from repro.replication import (
    REPLICATION_MANIFEST_NAME,
    InProcessChannel,
    ReplicationCluster,
    ReplicaNode,
    advance_term,
    read_replication_manifest,
    write_replication_manifest,
)
from repro.service.admission import BackoffPolicy, retry_with_backoff


# ----------------------------------------------------------------------
# manifest: the fencing invariant


class TestManifest:
    def test_roundtrip(self, tmp_path):
        written = write_replication_manifest(
            tmp_path, node=3, term=7, role="follower"
        )
        assert read_replication_manifest(tmp_path) == written
        assert written["term"] == 7 and written["role"] == "follower"

    def test_absent_is_none(self, tmp_path):
        assert read_replication_manifest(tmp_path) is None

    def test_term_never_decreases(self, tmp_path):
        write_replication_manifest(tmp_path, node=0, term=5, role="primary")
        with pytest.raises(FencedError):
            write_replication_manifest(tmp_path, node=0, term=4, role="primary")
        # Equal term is a legal rewrite (role changes at the same term).
        write_replication_manifest(tmp_path, node=0, term=5, role="follower")
        assert read_replication_manifest(tmp_path)["role"] == "follower"

    def test_advance_term_strictly_monotonic(self, tmp_path):
        advance_term(tmp_path, node=1, new_term=2, role="primary")
        with pytest.raises(FencedError) as excinfo:
            advance_term(tmp_path, node=1, new_term=2, role="primary")
        # The error carries the persisted term the caller lost to.
        assert excinfo.value.term == 2
        advance_term(tmp_path, node=1, new_term=3, role="primary")
        assert read_replication_manifest(tmp_path)["term"] == 3

    def test_garbage_manifest_refused(self, tmp_path):
        (tmp_path / REPLICATION_MANIFEST_NAME).write_text("not json")
        with pytest.raises(ReplicationError):
            read_replication_manifest(tmp_path)
        (tmp_path / REPLICATION_MANIFEST_NAME).write_text(
            json.dumps({"format": "repro-replication-manifest", "version": 1,
                        "node": 0, "term": -1, "role": "primary"})
        )
        with pytest.raises(ReplicationError):
            read_replication_manifest(tmp_path)

    def test_replicated_seq_roundtrip_and_monotone(self, tmp_path):
        written = write_replication_manifest(
            tmp_path, node=1, term=1, role="primary", replicated_seq=9
        )
        assert written["replicated_seq"] == 9
        assert read_replication_manifest(tmp_path)["replicated_seq"] == 9
        # Omitting the watermark preserves it, and it never moves back.
        write_replication_manifest(tmp_path, node=1, term=2, role="follower")
        assert read_replication_manifest(tmp_path)["replicated_seq"] == 9
        write_replication_manifest(
            tmp_path, node=1, term=2, role="follower", replicated_seq=4
        )
        assert read_replication_manifest(tmp_path)["replicated_seq"] == 9

    def test_manifest_without_watermark_defaults_to_zero(self, tmp_path):
        (tmp_path / REPLICATION_MANIFEST_NAME).write_text(
            json.dumps({"format": "repro-replication-manifest", "version": 1,
                        "node": 0, "term": 1, "role": "primary"})
        )
        assert read_replication_manifest(tmp_path)["replicated_seq"] == 0

    def test_ill_typed_watermark_refused(self, tmp_path):
        (tmp_path / REPLICATION_MANIFEST_NAME).write_text(
            json.dumps({"format": "repro-replication-manifest", "version": 1,
                        "node": 0, "term": 1, "role": "primary",
                        "replicated_seq": -2})
        )
        with pytest.raises(ReplicationError):
            read_replication_manifest(tmp_path)


# ----------------------------------------------------------------------
# channel: partitions at record boundaries


class TestChannel:
    def test_cut_and_heal(self):
        channel = InProcessChannel("t").bind(lambda m: {"echo": m["x"]})
        assert channel.call({"x": 1}) == {"echo": 1}
        channel.cut()
        assert channel.is_cut
        with pytest.raises(ChannelCut):
            channel.call({"x": 2})
        channel.heal()
        assert channel.call({"x": 3}) == {"echo": 3}
        assert channel.sent == 2

    def test_cut_after_exact_boundary(self):
        channel = InProcessChannel("t").bind(lambda m: {})
        channel.cut_after(2)
        channel.call({})
        channel.call({})
        with pytest.raises(ChannelCut):
            channel.call({})
        assert channel.is_cut and channel.sent == 2
        # Healing clears both the cut and any pending countdown.
        channel.heal()
        channel.call({})
        assert channel.sent == 3

    def test_unbound_channel_is_cut(self):
        with pytest.raises(ChannelCut):
            InProcessChannel("t").call({})


# ----------------------------------------------------------------------
# node: the append protocol


def _append(node, term, seq, op):
    return node.handle(
        {"kind": "append", "term": term, "node": 99,
         "record": {"seq": seq, "op": op}}
    )


def _insert_op(fragment, position):
    return {"op": "insert", "fragment": fragment, "position": position}


class TestNodeProtocol:
    def test_applied_duplicate_gap(self, tmp_path):
        node = ReplicaNode(tmp_path / "n1", 1, term=1)
        try:
            op = _insert_op("<a/>", 0)
            assert _append(node, 1, 1, op)["status"] == "applied"
            assert node.durable.db.text == "<a/>"
            # Re-shipping the same record is idempotent.
            assert _append(node, 1, 1, op)["status"] == "duplicate"
            assert node.last_seq == 1
            # A hole in the stream is refused, not blindly applied.
            reply = _append(node, 1, 3, _insert_op("<b/>", 4))
            assert reply == {"status": "gap", "last_seq": 1}
            assert node.durable.db.text == "<a/>"
        finally:
            node.close()

    def test_stale_term_fenced_newer_term_adopted(self, tmp_path):
        node = ReplicaNode(tmp_path / "n1", 1, term=3)
        try:
            with pytest.raises(FencedError) as excinfo:
                _append(node, 2, 1, _insert_op("<a/>", 0))
            assert excinfo.value.term == 3
            assert node.fenced_appends == 1
            assert node.last_seq == 0  # nothing touched the journal
            # A higher term is adopted and persisted on the spot.
            reply = node.handle({"kind": "heartbeat", "term": 9, "node": 0})
            assert reply["term"] == 9
            assert read_replication_manifest(tmp_path / "n1")["term"] == 9
        finally:
            node.close()

    def test_deposed_primary_demotes_on_higher_term(self, tmp_path):
        node = ReplicaNode(tmp_path / "n0", 0, role="primary", term=1)
        try:
            node.handle({"kind": "heartbeat", "term": 2, "node": 1})
            assert node.role == "follower"
            assert read_replication_manifest(tmp_path / "n0")["role"] == "follower"
            with pytest.raises(FencedError):
                node.local_commit(_insert_op("<a/>", 0))
        finally:
            node.close()

    def test_fenced_node_refuses_local_commit_before_journal(self, tmp_path):
        node = ReplicaNode(tmp_path / "n0", 0, role="primary", term=1)
        try:
            node.local_commit(_insert_op("<a/>", 0))
            size_before = node.durable.journal_size
            node.fence(5)
            with pytest.raises(FencedError) as excinfo:
                node.local_commit(_insert_op("<b/>", 0))
            assert excinfo.value.term == 5
            assert node.durable.journal_size == size_before
        finally:
            node.close()

    def test_promotion_persists_term_before_writes(self, tmp_path):
        node = ReplicaNode(tmp_path / "n1", 1, term=1)
        try:
            node.promote(2)
            # The manifest is the commit point: on disk before any write.
            assert read_replication_manifest(tmp_path / "n1")["term"] == 2
            node.local_commit(_insert_op("<a/>", 0))
            # A racing promotion to the same term loses durably.
            with pytest.raises(FencedError):
                advance_term(tmp_path / "n1", node=1, new_term=2, role="primary")
        finally:
            node.close()

    def test_heartbeat_reconnects_through_cut(self, tmp_path):
        primary = ReplicaNode(tmp_path / "n0", 0, role="primary", term=1)
        follower = ReplicaNode(tmp_path / "n1", 1, term=1)
        try:
            channel = InProcessChannel("hb").bind(primary.handle)
            channel.cut()
            sleeps = []

            def sleep(delay):
                sleeps.append(delay)
                channel.heal()  # the partition ends while backing off

            reply = follower.heartbeat(
                channel, policy=BackoffPolicy(retries=3), sleep=sleep
            )
            assert reply["status"] == "ok"
            assert follower.reconnects == 1 and len(sleeps) == 1
            # An exhausted policy propagates the cut.
            channel.cut()
            with pytest.raises(ChannelCut):
                follower.heartbeat(
                    channel,
                    policy=BackoffPolicy(retries=2),
                    sleep=lambda d: None,
                )
        finally:
            primary.close()
            follower.close()


# ----------------------------------------------------------------------
# epoch-pinned reads


class TestEpochPinnedReads:
    def test_pin_ties_snapshot_to_replicated_seq(self, tmp_path):
        with ReplicationCluster(tmp_path / "c", 1) as cluster:
            cluster.insert("<a/>")
            cluster.insert("<b/>", 0)
            follower = cluster.nodes[1]
            with follower.pin(min_seq=2) as snap:
                assert snap.db.text == cluster.primary.durable.db.text
                assert follower.seq_at(snap.epoch) == 2

    def test_lagging_follower_refuses_min_seq(self, tmp_path):
        with ReplicationCluster(tmp_path / "c", 1) as cluster:
            cluster.partition(1)
            cluster.insert("<a/>")
            with pytest.raises(LaggingReplica):
                cluster.nodes[1].pin(min_seq=1)
            # Once the follower catches up from the primary, the same
            # demand succeeds.
            cluster.heal(1)
            cluster.nodes[1].catch_up(cluster.primary)
            with cluster.nodes[1].pin(min_seq=1) as snap:
                assert snap.db.text == "<a/>"


# ----------------------------------------------------------------------
# incremental journal tail (satellite: O(new records) follower polling)


class TestTailJournal:
    def test_incremental_tail_matches_full_scan(self, tmp_path):
        dd = DurableDatabase(tmp_path / "d")
        collected = []
        offset = 0
        try:
            for burst in range(4):
                for k in range(3):
                    dd.insert(f"<r{burst}x{k}/>")
                scan = tail_journal(dd.journal_path, offset)
                assert not scan.torn_tail
                collected.extend(scan.records)
                assert offset < scan.valid_bytes
                offset = scan.valid_bytes
            full = read_journal(dd.journal_path)
            assert collected == full.records
            assert offset == full.valid_bytes
            # Tailing from the end yields nothing new.
            assert tail_journal(dd.journal_path, offset).records == []
        finally:
            dd.close()

    def test_tail_from_beyond_eof_rescans_from_zero(self, tmp_path):
        dd = DurableDatabase(tmp_path / "d")
        try:
            dd.insert("<a/>")
            stale_offset = dd.journal_size + 1000
            scan = tail_journal(dd.journal_path, stale_offset)
            # The file shrank under the cached offset (checkpoint truncated
            # it): the scan restarts from zero instead of misparsing.
            assert [r["seq"] for r in scan.records] == [1]
        finally:
            dd.close()

    def test_tail_rejects_negative_offset(self, tmp_path):
        dd = DurableDatabase(tmp_path / "d")
        try:
            dd.insert("<a/>")
            with pytest.raises(ValueError):
                tail_journal(dd.journal_path, -1)
        finally:
            dd.close()

    def test_missing_journal_is_empty(self, tmp_path):
        scan = tail_journal(tmp_path / "nope.wal", 0)
        assert scan.records == [] and scan.valid_bytes == 0


# ----------------------------------------------------------------------
# retry/backoff observability (satellite)


class TestRetryMetrics:
    def test_attempts_and_sleep_histogram(self):
        attempts = METRICS.counter("service.retry.attempts")
        sleeps = METRICS.histogram("service.retry.sleep_seconds")
        before_attempts = attempts.value
        before_sleeps = sleeps.count
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ChannelCut("transient")
            return "ok"

        result = retry_with_backoff(
            flaky,
            policy=BackoffPolicy(retries=5),
            retry_on=(ChannelCut,),
            sleep=lambda d: None,
        )
        assert result == "ok"
        assert attempts.value - before_attempts == 2
        assert sleeps.count - before_sleeps == 2

    def test_giveups_counted_on_exhaustion(self):
        giveups = METRICS.counter("service.retry.giveups")
        before = giveups.value

        def always_cut():
            raise ChannelCut("down")

        with pytest.raises(ChannelCut):
            retry_with_backoff(
                always_cut,
                policy=BackoffPolicy(retries=2),
                retry_on=(ChannelCut,),
                sleep=lambda d: None,
            )
        assert giveups.value - before == 1


# ----------------------------------------------------------------------
# the fully-replicated watermark (bounds rejoin's indeterminate band)


class TestReplicatedWatermark:
    def test_advances_only_on_full_acks_and_persists(self, tmp_path):
        with ReplicationCluster(tmp_path / "c", 2) as cluster:
            cluster.insert("<a/>")
            assert cluster.primary.replicated_seq == 1
            cluster.partition(2)
            cluster.insert("<b/>")
            # One follower missed the record: the watermark must stall.
            assert cluster.primary.replicated_seq == 1
            cluster.heal(2)
            cluster.insert("<c/>")
            assert cluster.primary.replicated_seq == 3
            manifest = read_replication_manifest(cluster.nodes[0].directory)
            assert manifest["replicated_seq"] == 3
            assert cluster.nodes[0].status()["replicated_seq"] == 3

    def test_followers_do_not_advance_a_watermark(self, tmp_path):
        with ReplicationCluster(tmp_path / "c", 1) as cluster:
            cluster.insert("<a/>")
            assert cluster.nodes[1].replicated_seq == 0


# ----------------------------------------------------------------------
# cluster basics (the drill matrix exercises the fault paths)


class TestClusterBasics:
    def test_writes_replicate_to_all_followers(self, tmp_path):
        with ReplicationCluster(tmp_path / "c", 2) as cluster:
            cluster.insert("<a><b/></a>")
            cluster.insert("<c/>", 0)
            cluster.remove(0, len("<c/>"))
            status = cluster.status()
            assert status["lag"] == {1: 0, 2: 0}
            assert status["unreplicated"] == {}
            text = cluster.primary.durable.db.text
            for nid in (1, 2):
                assert cluster.nodes[nid].durable.db.text == text

    def test_reopen_elects_highest_persisted_primary_term(self, tmp_path):
        root = tmp_path / "c"
        with ReplicationCluster(root, 2) as cluster:
            cluster.insert("<a/>")
        # Offline promotion (the CLI failover path) while nobody serves.
        advance_term(root / "node-2", node=2, new_term=2, role="primary")
        with ReplicationCluster(root) as reopened:
            assert reopened.primary_id == 2
            assert reopened.primary.term == 2
            reopened.insert("<b/>")
            assert reopened.nodes[0].term == 2  # adopted from the ship
            assert reopened.nodes[0].role == "follower"

    def test_reopen_without_primary_refused(self, tmp_path):
        root = tmp_path / "c"
        with ReplicationCluster(root, 1) as cluster:
            cluster.insert("<a/>")
        write_replication_manifest(
            root / "node-0", node=0, term=1, role="follower"
        )
        with pytest.raises(ReplicationError):
            ReplicationCluster(root)
