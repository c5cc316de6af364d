"""Coordinated checkpoint + sharded recovery tests (PR 5, satellite 2).

The all-or-nothing contract: the manifest replace is the single commit
point of a coordinated checkpoint.  On reopen, every shard checkpoint
must match the manifest's epoch, seq, and payload crc — a mixed-epoch set
(one shard checkpointed, another not; a stale file; a tampered payload)
is refused with a typed :class:`~repro.storage.SnapshotError`, never
silently loaded.  The document-map meta journal (``docmap.wal``) follows
the same discipline: a record whose shard commit never landed is legal
only as the journal tail (the crash window), anywhere else the directory
is inconsistent.
"""

from __future__ import annotations

import json

import pytest

from repro.durability.wal import Journal
from repro.shard import ShardedDatabase, ShardedDurableDatabase
from repro.storage import SnapshotError

DOCS = [
    "<a><b><c>x</c></b></a>",
    "<a><c>y</c></a>",
    "<b><c>z</c></b>",
    "<a><b>w</b></a>",
]


def build(tmp_path, n_shards=2, **kwargs):
    db = ShardedDurableDatabase(tmp_path / "state", n_shards, **kwargs)
    for doc in DOCS:
        db.insert(doc)
    return db


def spans(pairs):
    return sorted((a.gspan, d.gspan) for a, d in pairs)


class TestReopen:
    def test_journal_only_reopen_recovers_everything(self, tmp_path):
        db = build(tmp_path)
        want_text = db.text
        want_join = spans(db.structural_join("a", "c"))
        want_docs = db.docmap.docs
        db.close()

        reopened = ShardedDurableDatabase(tmp_path / "state")
        assert reopened.n_shards == 2
        assert reopened.text == want_text
        assert reopened.docmap.docs == want_docs
        assert spans(reopened.structural_join("a", "c")) == want_join
        reopened.close()

    def test_checkpoint_then_tail_replay(self, tmp_path):
        db = build(tmp_path)
        db.checkpoint()
        assert db.epoch == 1
        assert db.journal_size == 0
        db.insert("<a><c>post</c></a>")
        want_text = db.text
        db.close()

        reopened = ShardedDurableDatabase(tmp_path / "state")
        assert reopened.epoch == 1
        assert reopened.text == want_text
        reports = reopened.recovery_reports()
        assert sum(r.ops_replayed for r in reports) == 1
        reopened.close()

    def test_shard_count_mismatch_refused(self, tmp_path):
        build(tmp_path).close()
        with pytest.raises(SnapshotError, match="cannot open with n_shards"):
            ShardedDurableDatabase(tmp_path / "state", 4)

    def test_sid_lattices_survive_reopen(self, tmp_path):
        db = build(tmp_path)
        db.close()
        reopened = ShardedDurableDatabase(tmp_path / "state")
        reopened.insert("<a><c>new</c></a>")
        for shard, shard_db in enumerate(reopened.shards):
            for node in shard_db.log.ertree.root.children:
                assert (node.sid - 1) % 2 == shard
        reopened.close()

    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_compacted_sid_lattices_survive_checkpoint_and_reopen(
        self, tmp_path, n_shards
    ):
        db = build(tmp_path, n_shards)
        db.compact()
        db.checkpoint()
        db.compact()  # replayed from the journal tail on reopen
        db.close()
        reopened = ShardedDurableDatabase(tmp_path / "state")
        reopened.insert("<a><c>new</c></a>")
        reopened.compact()
        for shard, shard_db in enumerate(reopened.shards):
            for node in shard_db.log.ertree.root.children:
                assert reopened.shard_of_sid(node.sid) == shard
        reopened.check_invariants()
        assert reopened.segment_count == len(DOCS) + 1
        reopened.close()


class TestCoordinatedCheckpoint:
    def test_epoch_files_and_manifest_agree(self, tmp_path):
        db = build(tmp_path)
        db.checkpoint()
        db.checkpoint()
        root = tmp_path / "state"
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["epoch"] == 2
        for i in range(2):
            shard_dir = root / f"shard-{i:02d}"
            files = sorted(p.name for p in shard_dir.glob("checkpoint-*.json"))
            assert files == ["checkpoint-2.json"], "old epochs reclaimed"
            envelope = json.loads((shard_dir / "checkpoint-2.json").read_text())
            entry = manifest["shards"][i]
            assert envelope["crc32"] == entry["crc32"]
            assert envelope["last_seq"] == entry["last_seq"]
        db.close()

    def test_missing_shard_checkpoint_is_mixed_epoch(self, tmp_path):
        db = build(tmp_path)
        db.checkpoint()
        db.close()
        (tmp_path / "state" / "shard-01" / "checkpoint-1.json").unlink()
        with pytest.raises(SnapshotError, match="mixed-epoch"):
            ShardedDurableDatabase(tmp_path / "state")

    def test_tampered_shard_checkpoint_is_mixed_epoch(self, tmp_path):
        db = build(tmp_path)
        db.checkpoint()
        db.close()
        path = tmp_path / "state" / "shard-00" / "checkpoint-1.json"
        envelope = json.loads(path.read_text())
        envelope["crc32"] ^= 0xFF
        path.write_text(json.dumps(envelope))
        with pytest.raises(SnapshotError, match="mixed-epoch"):
            ShardedDurableDatabase(tmp_path / "state")

    def test_crashed_phase1_leftovers_are_reclaimed(self, tmp_path):
        """A checkpoint file from a *newer* epoch with no manifest naming
        it is a crashed phase 1: the old epoch is still the truth."""
        db = build(tmp_path)
        db.checkpoint()
        want_text = db.text
        db.close()
        stray = tmp_path / "state" / "shard-00" / "checkpoint-2.json"
        stray.write_text("{garbage")
        reopened = ShardedDurableDatabase(tmp_path / "state")
        assert reopened.epoch == 1
        assert reopened.text == want_text
        assert not stray.exists(), "stale phase-1 leftovers reclaimed"
        reopened.close()


class TestDocmapJournal:
    def test_dangling_tail_record_is_discarded(self, tmp_path):
        """The crash window: meta record fsynced, shard commit never
        happened.  Recovery reproduces the pre-op state."""
        db = build(tmp_path)
        want_docs = db.docmap.docs
        want_text = db.text
        seq = db._meta_seq
        shard_seq = db.shards[0].last_seq
        db.close()
        journal = Journal(tmp_path / "state" / "docmap.wal")
        journal.append(
            seq + 1,
            {"op": "doc_insert", "index": 0, "shard": 0, "shard_seq": shard_seq + 7},
        )
        journal.close()
        reopened = ShardedDurableDatabase(tmp_path / "state")
        assert reopened.docmap.docs == want_docs
        assert reopened.text == want_text
        reopened.close()

    def test_dangling_record_mid_journal_is_refused(self, tmp_path):
        db = build(tmp_path)
        seq = db._meta_seq
        shard_seq = db.shards[0].last_seq
        db.close()
        journal = Journal(tmp_path / "state" / "docmap.wal")
        journal.append(
            seq + 1,
            {"op": "doc_insert", "index": 0, "shard": 0, "shard_seq": shard_seq + 7},
        )
        journal.append(
            seq + 2,
            {"op": "doc_insert", "index": 0, "shard": 1, "shard_seq": 1},
        )
        journal.close()
        with pytest.raises(SnapshotError, match="never reached"):
            ShardedDurableDatabase(tmp_path / "state")

    def test_malformed_meta_record_is_refused(self, tmp_path):
        db = build(tmp_path)
        seq = db._meta_seq
        db.close()
        journal = Journal(tmp_path / "state" / "docmap.wal")
        journal.append(seq + 1, {"op": "doc_teleport", "index": 0})
        journal.close()
        with pytest.raises(SnapshotError, match="malformed"):
            ShardedDurableDatabase(tmp_path / "state")

    def test_rejected_op_leaves_no_meta_record(self, tmp_path):
        db = build(tmp_path)
        size_before = (tmp_path / "state" / "docmap.wal").stat().st_size
        with pytest.raises(Exception):
            db.insert("<unclosed>", None)
        assert (tmp_path / "state" / "docmap.wal").stat().st_size == size_before
        db.close()


class TestParityWithMemoryOnly:
    def test_durable_history_matches_memory_only(self, tmp_path):
        durable = build(tmp_path)
        memory = ShardedDatabase(2)
        for doc in DOCS:
            memory.insert(doc)
        durable.remove(0, len(DOCS[0]))
        memory.remove(0, len(DOCS[0]))
        assert durable.text == memory.text
        assert spans(durable.structural_join("a", "c")) == spans(
            memory.structural_join("a", "c")
        )
        durable.checkpoint()
        durable.close()
        reopened = ShardedDurableDatabase(tmp_path / "state")
        assert reopened.text == memory.text
        reopened.close()
