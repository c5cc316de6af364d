"""Replication fault-drill matrix: crashes, partitions, and fencing races.

Every drill replays a deterministic acked-op script against a
:class:`~repro.replication.cluster.ReplicationCluster` while injecting
one fault, then checks **every surviving node against the string-splice
differential oracle at its own seq**: document text, per-tag global
spans, and the A//D structural join must equal a
:class:`tests.oracle.ReferenceDatabase` that replayed exactly the first
``seq`` acked ops.  Two global invariants close each drill:

- *no silent divergence* — equal seqs imply equal answers on every node;
- *no silently lost acked write* — an op the cluster acknowledged either
  survives failover on every node, or (stale-primary fork) shows up in
  the :class:`~repro.replication.node.RejoinReport` of the deposed node.

The four families the issue demands:

1. primary killed at every WAL-append failpoint mid-commit;
2. follower killed at every WAL-append failpoint mid-catch-up;
3. the replication stream partitioned at **every record boundary** of a
   write burst (``cut_after`` sweep);
4. a fenced stale primary racing writes against the new term.
"""

from __future__ import annotations

import pytest

from repro.obs.metrics import METRICS
from repro.replication import ReplicationCluster

pytestmark = pytest.mark.slow
from tests.failpoints import SimulatedCrash, crash_at
from tests.oracle import ReferenceDatabase, safe_insert_positions
from tests.test_durability_failpoints import WAL_APPEND_POINTS

TAG_A, TAG_D = "person", "interest"


def _fragment(k: int) -> str:
    return (
        f'<person k="{k}"><profile><interest>t{k}</interest></profile>'
        "</person>"
    )


def scripted_ops(n: int, *, salt: int = 0) -> list[dict]:
    """A deterministic op script: inserts at varied safe positions plus
    whole-element removals, each valid at its point in the replay."""
    ref = ReferenceDatabase()
    ops: list[dict] = []
    for k in range(n):
        if k % 4 == 3:
            spans = ref.elements(TAG_D)
            if spans:
                start, end = spans[(k + salt) % len(spans)]
                ops.append(
                    {"op": "remove", "position": start, "length": end - start}
                )
                ref.remove(start, end - start)
                continue
        positions = safe_insert_positions(ref.text)
        position = positions[(k * 7 + salt) % len(positions)]
        fragment = _fragment(k + salt)
        ops.append(
            {"op": "insert", "fragment": fragment, "position": position}
        )
        ref.insert(fragment, position)
    return ops


def replay_reference(ops: list[dict], upto: int) -> ReferenceDatabase:
    ref = ReferenceDatabase()
    for op in ops[:upto]:
        if op["op"] == "insert":
            ref.insert(op["fragment"], op["position"])
        else:
            ref.remove(op["position"], op["length"])
    return ref


def assert_node_matches_oracle(node, acked_ops: list[dict]) -> None:
    """The node's state must equal the oracle replayed to the node's seq."""
    seq = node.last_seq
    assert seq <= len(acked_ops), (
        f"node {node.node_id} reached seq {seq} but only "
        f"{len(acked_ops)} ops were acked"
    )
    ref = replay_reference(acked_ops, seq)
    db = node.durable.db
    assert db.text == ref.text, f"node {node.node_id} text diverged at seq {seq}"
    db.check_invariants()
    for tag in (TAG_A, TAG_D):
        spans = sorted((e.start, e.end) for e in db.global_elements(tag))
        assert spans == ref.elements(tag), (
            f"node {node.node_id} {tag!r} spans diverged at seq {seq}"
        )
    pairs = db.structural_join(TAG_A, TAG_D)
    got = sorted((db.global_span(a), db.global_span(d)) for a, d in pairs)
    assert got == ref.join(TAG_A, TAG_D), (
        f"node {node.node_id} {TAG_A}//{TAG_D} join diverged at seq {seq}"
    )


def assert_converged(cluster: ReplicationCluster, acked_ops: list[dict]) -> None:
    """Every live node holds every acked op and matches the oracle."""
    status = cluster.status()
    assert status["unreplicated"] == {}, status
    for nid, node in cluster.nodes.items():
        if nid in status["dead"]:
            continue
        assert node.last_seq == len(acked_ops), (nid, status)
        assert_node_matches_oracle(node, acked_ops)


def commit(cluster: ReplicationCluster, acked: list[dict], op: dict) -> None:
    cluster.commit_from(cluster.primary_id, dict(op))
    acked.append(op)


# ----------------------------------------------------------------------
# family 1: primary killed mid-append


@pytest.mark.parametrize("failpoint", WAL_APPEND_POINTS)
def test_primary_killed_mid_append(tmp_path, failpoint):
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        acked: list[dict] = []
        for op in scripted_ops(4):
            commit(cluster, acked, op)

        doomed = {"op": "insert", "fragment": _fragment(99), "position": 0}
        crashed = False
        try:
            with crash_at(failpoint):
                cluster.commit_from(cluster.primary_id, dict(doomed))
        except SimulatedCrash:
            crashed = True
        assert crashed, "the primary must die inside its local commit"
        cluster.kill(0)

        # The doomed op was never acknowledged, so the oracle history is
        # exactly the acked list; the surviving followers must agree.
        for nid in (1, 2):
            assert_node_matches_oracle(cluster.nodes[nid], acked)

        cluster.promote(1)
        for op in scripted_ops(2, salt=50):
            commit(cluster, acked, op)

        report = cluster.restart(0)
        assert report is not None and report.resynced
        if failpoint in ("wal.append.after_write", "wal.append.after_fsync"):
            # The record reached the old primary's journal: it must be
            # reported as an acked-but-unreplicated write, never kept.
            assert report.lost_seqs == [5]
            assert report.lost_ops == [doomed]
        else:
            # Torn or never-written record: nothing durable was lost.
            assert report.lost_seqs == []
        assert_converged(cluster, acked)
        assert cluster.nodes[0].role == "follower"
        assert cluster.nodes[0].term == cluster.primary.term
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# family 2: follower killed mid-catch-up


@pytest.mark.parametrize("failpoint", WAL_APPEND_POINTS)
@pytest.mark.parametrize("hit", [1, 2])
def test_follower_killed_mid_catchup(tmp_path, failpoint, hit):
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        acked: list[dict] = []
        ops = scripted_ops(5)
        for op in ops[:2]:
            commit(cluster, acked, op)
        cluster.partition(1)
        for op in ops[2:]:
            commit(cluster, acked, op)
        assert sorted(cluster.status()["unreplicated"][1]) == [3, 4, 5]

        # The heal triggers catch-up; the follower dies applying the
        # tail's ``hit``-th record to its own journal.
        crashed = False
        try:
            with crash_at(failpoint, hit=hit):
                cluster.heal(1)
        except SimulatedCrash:
            crashed = True
        assert crashed
        cluster.kill(1)

        # Unaffected nodes stay fully converged with the oracle.
        assert_node_matches_oracle(cluster.primary, acked)
        assert_node_matches_oracle(cluster.nodes[2], acked)

        report = cluster.restart(1)
        # A follower holds no unreplicated writes: nothing to lose.
        assert report is None or report.lost_seqs == []
        assert_converged(cluster, acked)
    finally:
        cluster.close()


def test_follower_recovers_to_prefix_after_crash(tmp_path):
    """Between death and restart the follower's directory must recover to
    an exact acked-op prefix — never a third state."""
    cluster = ReplicationCluster(tmp_path / "c", 1)
    try:
        acked: list[dict] = []
        ops = scripted_ops(4)
        for op in ops[:1]:
            commit(cluster, acked, op)
        cluster.partition(1)
        for op in ops[1:]:
            commit(cluster, acked, op)
        try:
            with crash_at("wal.append.mid_write", hit=2):
                cluster.heal(1)
        except SimulatedCrash:
            pass
        cluster.kill(1)
        cluster.restart(1)
        node = cluster.nodes[1]
        # The torn second catch-up record was discarded by recovery and
        # re-applied by the restart's catch-up; the node is a full replica.
        assert_converged(cluster, acked)
        assert node.resyncs == 0 or node.last_seq == len(acked)
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# family 3: partition at every record boundary


N_BURST = 5


@pytest.mark.parametrize("boundary", range(N_BURST + 1))
def test_partition_at_every_record_boundary(tmp_path, boundary):
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        acked: list[dict] = []
        cluster.partition(1, after=boundary)
        for op in scripted_ops(N_BURST):
            commit(cluster, acked, op)

        node = cluster.nodes[1]
        assert node.last_seq == boundary
        missed = cluster.status()["unreplicated"].get(1, [])
        assert missed == list(range(boundary + 1, N_BURST + 1))

        # The partitioned follower is a consistent *prefix*, and its
        # epoch-pinned reads answer exactly at its replicated seq.
        assert_node_matches_oracle(node, acked)
        with node.pin() as snap:
            assert snap.db.text == replay_reference(acked, boundary).text
            assert node.seq_at(snap.epoch) in (None, boundary)

        # The unpartitioned follower replicated the whole burst.
        assert_node_matches_oracle(cluster.nodes[2], acked)
        assert cluster.nodes[2].last_seq == N_BURST

        cluster.heal(1)
        assert_converged(cluster, acked)
        assert cluster.status()["lag"] == {1: 0, 2: 0}
    finally:
        cluster.close()


def test_heartbeat_detects_lag_and_catches_up(tmp_path):
    """A healed follower that missed records converges via the heartbeat
    loop (reply shows the primary's seq) instead of waiting for a write."""
    from repro.service.admission import BackoffPolicy

    cluster = ReplicationCluster(
        tmp_path / "c", 1,
        heartbeat_policy=BackoffPolicy(retries=2),
        sleep=lambda d: None,
    )
    try:
        acked: list[dict] = []
        commit(cluster, acked, scripted_ops(1)[0])
        cluster.append_channels[1].cut()  # append stream only; hb stays up
        for op in scripted_ops(3, salt=10):
            commit(cluster, acked, op)
        assert cluster.nodes[1].last_seq == 1
        cluster.append_channels[1].heal()
        replies = cluster.heartbeat_all()
        assert replies[1]["last_seq"] == len(acked)
        assert_converged(cluster, acked)
        assert cluster.nodes[1].heartbeats >= 1
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# family 4: stale primary vs the new term


def test_stale_primary_fenced_and_lost_write_reported(tmp_path):
    lost_counter = METRICS.get("repl.lost_writes")
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        acked: list[dict] = []
        for op in scripted_ops(3):
            commit(cluster, acked, op)

        # Partition the old primary so it cannot learn of the new term,
        # then fail over: the stale-primary race is now real.
        cluster.partition(0)
        cluster.promote(1)
        assert cluster.primary.term == 2
        for op in scripted_ops(2, salt=20):
            commit(cluster, acked, op)

        # The stale primary locally commits (journals! acks!) one write,
        # then dies on the first follower refusal: typed FencedError, and
        # the node self-fences.
        stale_op = {"op": "insert", "fragment": _fragment(77), "position": 0}
        with pytest.raises(Exception) as excinfo:
            cluster.commit_from(0, dict(stale_op))
        from repro.errors import FencedError

        assert isinstance(excinfo.value, FencedError)
        assert excinfo.value.term == 2
        assert cluster.nodes[0].fenced

        # Once fenced, the next append is refused *before* the journal.
        size = cluster.nodes[0].durable.journal_size
        with pytest.raises(FencedError):
            cluster.commit_from(0, {"op": "insert", "fragment": "<p/>",
                                    "position": 0})
        assert cluster.nodes[0].durable.journal_size == size

        # Restart the deposed node: the acked-but-unreplicated write is
        # detected by journal comparison and reported — then discarded.
        before_lost = lost_counter.value
        cluster.kill(0)
        report = cluster.restart(0)
        assert report is not None
        assert report.lost_seqs == [4]
        assert report.lost_ops == [stale_op]
        assert report.new_term == 2
        assert lost_counter.value - before_lost == 1

        assert_converged(cluster, acked)
        # The fork is gone: the deposed node now answers like everyone.
        assert cluster.nodes[0].role == "follower"
        assert cluster.nodes[0].term == 2
    finally:
        cluster.close()


def test_racing_promotions_cannot_both_lead(tmp_path):
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        from repro.errors import FencedError
        from repro.replication import advance_term

        cluster.promote(1)
        term = cluster.primary.term
        # A racer trying to claim the same term durably loses.
        with pytest.raises(FencedError):
            advance_term(
                cluster.nodes[1].directory, node=1, new_term=term,
                role="primary",
            )
        # A later promotion of another node takes a strictly higher term.
        cluster.promote(2)
        assert cluster.primary.term == term + 1
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# family 5: rejoin vs the new primary's checkpoint, dead-primary disk
# isolation, and equal-seq forks


def test_deposed_primary_rejoin_across_new_primary_checkpoint(tmp_path):
    """A deposed primary whose unreplicated tail the new primary has
    checkpointed over must discard that fork (the resync removes the
    local journal before installing the checkpoint, so recovery can
    never replay it on top) and report every unreplicated write: seqs
    folded into the new primary's checkpoint as indeterminate, seqs past
    its tail as lost.  Seqs at or below the persisted fully-replicated
    watermark are provably shared and stay unreported."""
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        acked: list[dict] = []
        for op in scripted_ops(3):
            commit(cluster, acked, op)
        assert cluster.primary.replicated_seq == 3  # watermark persisted
        cluster.partition(1)
        cluster.partition(2)
        for op in scripted_ops(4, salt=60):
            cluster.commit_from(cluster.primary_id, dict(op))  # acked, unshipped
        assert cluster.primary.last_seq == 7
        assert cluster.primary.replicated_seq == 3  # stalled by the partition
        cluster.kill(0)
        cluster.promote(1)
        for op in scripted_ops(2, salt=70):
            commit(cluster, acked, op)
        cluster.checkpoint()  # folds seqs 4-5, truncating the journal
        assert cluster.primary.checkpoint_seq == 5

        report = cluster.restart(0)
        node = cluster.nodes[0]
        assert report is not None and report.resynced
        # Every unreplicated write (seqs 4-7) is reported — none silently
        # dropped just because the new primary's journal was truncated.
        assert report.indeterminate_seqs == [4, 5]
        assert report.lost_seqs == [6, 7]
        assert report.reported_seqs == [4, 5, 6, 7]
        assert report.indeterminate_ops + report.lost_ops  # ops travel too
        # The fork is discarded, not resurrected: recovery must not have
        # replayed the old journal on top of the installed checkpoint.
        assert node.last_seq == cluster.primary.last_seq == 5
        assert node.durable.db.text == cluster.primary.durable.db.text
        cluster.heal(2)
        assert_converged(cluster, acked)
    finally:
        cluster.close()


def test_heal_while_primary_dead_does_not_pull_from_its_disk(tmp_path):
    """Healing a partition while the primary is down must not catch the
    follower up from the dead primary's journal file — a real transport
    cannot read a crashed process's disk, and doing so would replicate
    acked-but-unreplicated records, masking the lost-write report."""
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        acked: list[dict] = []
        for op in scripted_ops(2):
            commit(cluster, acked, op)
        cluster.partition(1)
        cluster.partition(2)
        for op in scripted_ops(3, salt=80):
            cluster.commit_from(cluster.primary_id, dict(op))  # acked, unshipped
        cluster.kill(0)
        cluster.heal(1)
        cluster.heal(2)
        # The dead primary's unreplicated tail stayed on its own disk.
        assert cluster.nodes[1].last_seq == 2
        assert cluster.nodes[2].last_seq == 2
        cluster.promote(1)
        report = cluster.restart(0)
        assert report is not None
        assert report.lost_seqs == [3, 4, 5]
        assert_converged(cluster, acked)
    finally:
        cluster.close()


def test_restart_routes_equal_seq_divergent_follower_through_rejoin(tmp_path):
    """A restarted follower whose ``last_seq`` equals the primary's but
    whose journal holds a different record at a shared seq (it applied a
    stale primary's write before the group lost it) is a fork, not a
    lagging follower: restart must detect the content mismatch and route
    it through rejoin, reporting the conflicting record."""
    cluster = ReplicationCluster(tmp_path / "c", 2)
    try:
        acked: list[dict] = []
        for op in scripted_ops(2):
            commit(cluster, acked, op)
        cluster.partition(2)
        # Follower 1 applies the doomed primary's seq-3 write; follower 2
        # never sees it and will lead the new term at the same seq count.
        stale_op = {"op": "insert", "fragment": _fragment(91), "position": 0}
        cluster.commit_from(cluster.primary_id, dict(stale_op))
        assert cluster.nodes[1].last_seq == 3
        cluster.kill(0)
        cluster.kill(1)
        cluster.heal(2)
        cluster.promote(2)
        new_op = {"op": "insert", "fragment": _fragment(92), "position": 0}
        cluster.commit_from(cluster.primary_id, dict(new_op))
        acked.append(new_op)
        assert cluster.primary.last_seq == 3  # same seq, different history

        report = cluster.restart(1)
        assert report is not None, "equal-seq fork must be detected"
        assert report.lost_seqs == [3]
        assert report.lost_ops == [stale_op]
        node = cluster.nodes[1]
        assert node.last_seq == 3
        assert node.durable.db.text == cluster.primary.durable.db.text
        # The deposed primary reports the same acked write on its rejoin.
        report0 = cluster.restart(0)
        assert report0 is not None and report0.lost_seqs == [3]
        assert_converged(cluster, acked)
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# checkpoint interplay: resync from checkpoint + journal tail


def test_follower_resyncs_across_primary_checkpoint(tmp_path):
    cluster = ReplicationCluster(tmp_path / "c", 1)
    try:
        acked: list[dict] = []
        for op in scripted_ops(2):
            commit(cluster, acked, op)
        cluster.partition(1)
        for op in scripted_ops(2, salt=30):
            commit(cluster, acked, op)
        # The checkpoint truncates the primary's journal: the partitioned
        # follower's gap can no longer be served by any journal tail.
        cluster.checkpoint()
        for op in scripted_ops(2, salt=40):
            commit(cluster, acked, op)
        cluster.heal(1)
        node = cluster.nodes[1]
        assert node.resyncs >= 1
        assert_converged(cluster, acked)
    finally:
        cluster.close()
