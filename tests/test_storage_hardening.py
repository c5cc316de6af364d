"""Tests for atomic snapshot saves and malformed-payload rejection."""

from __future__ import annotations

import json

import pytest

from repro.core.database import LazyXMLDatabase
from repro.storage import SnapshotError, dumps, load, loads, save
from tests.failpoints import SimulatedCrash, crash_at
from tests.helpers import v1_checkpoint, v2_parts, write_v2


def small_db() -> LazyXMLDatabase:
    db = LazyXMLDatabase()
    db.insert("<a><b/><c/></a>")
    return db


class TestAtomicSave:
    @pytest.mark.parametrize(
        "failpoint",
        [
            "atomic.before_tmp_write",
            "atomic.after_tmp_write",
            "atomic.after_tmp_fsync",
        ],
    )
    def test_crash_before_replace_preserves_old_snapshot(self, tmp_path, failpoint):
        path = tmp_path / "db.json"
        db = small_db()
        save(db, path)
        original = path.read_text()

        db.insert("<d/>")
        with pytest.raises(SimulatedCrash):
            with crash_at(failpoint):
                save(db, path)
        assert path.read_text() == original  # old snapshot byte-identical
        restored = load(path)
        restored.check_invariants()
        assert restored.text == "<a><b/><c/></a>"

    @pytest.mark.parametrize(
        "failpoint", ["atomic.after_replace", "atomic.after_dir_fsync"]
    )
    def test_crash_after_replace_has_new_snapshot(self, tmp_path, failpoint):
        path = tmp_path / "db.json"
        db = small_db()
        save(db, path)
        db.insert("<d/>")
        with pytest.raises(SimulatedCrash):
            with crash_at(failpoint):
                save(db, path)
        restored = load(path)
        restored.check_invariants()
        assert restored.text == "<a><b/><c/></a><d/>"

    def test_save_never_leaves_partial_file(self, tmp_path):
        """At every boundary the target parses as a complete snapshot."""
        path = tmp_path / "db.json"
        db = small_db()
        save(db, path)
        for failpoint in (
            "atomic.before_tmp_write",
            "atomic.after_tmp_write",
            "atomic.after_tmp_fsync",
            "atomic.after_replace",
            "atomic.after_dir_fsync",
        ):
            db.insert("<x/>")
            try:
                with crash_at(failpoint):
                    save(db, path)
            except SimulatedCrash:
                pass
            load(path).check_invariants()  # must always decode cleanly

    def test_fresh_save_still_works(self, tmp_path):
        path = tmp_path / "nested" / "dir"
        path.mkdir(parents=True)
        save(small_db(), path / "db.json")
        assert load(path / "db.json").text == "<a><b/><c/></a>"


def valid_payload() -> dict:
    return json.loads(dumps(small_db()))


class TestLoadsHardening:
    @pytest.mark.parametrize(
        "key", ["mode", "keep_text", "text", "tags", "next_sid", "segments"]
    )
    def test_missing_top_level_key(self, key):
        payload = valid_payload()
        del payload[key]
        with pytest.raises(SnapshotError, match=f"missing key '{key}'"):
            loads(json.dumps(payload))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("mode", "turbo"),
            ("mode", 3),
            ("keep_text", "yes"),
            ("text", 42),
            ("tags", "a,b,c"),
            ("tags", [1, 2]),
            ("next_sid", "five"),
            ("next_sid", True),
            ("segments", {"0": {}}),
        ],
    )
    def test_ill_typed_top_level_values(self, key, value):
        payload = valid_payload()
        payload[key] = value
        with pytest.raises(SnapshotError):
            loads(json.dumps(payload))

    @pytest.mark.parametrize(
        "key", ["sid", "parent", "gp", "length", "lp", "tombstones", "records"]
    )
    def test_missing_segment_key(self, key):
        payload = valid_payload()
        del payload["segments"][1][key]
        with pytest.raises(SnapshotError, match="segments\\[1\\]"):
            loads(json.dumps(payload))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("sid", "one"),
            ("parent", "root"),
            ("gp", None),
            ("length", 2.5),
            ("lp", True),
            ("tombstones", [[1]]),
            ("tombstones", [["a", "b"]]),
            ("tombstones", 7),
            ("records", [[1, 2, 3]]),  # wrong arity
            ("records", [[1, 2, 3, 4, 5]]),  # wrong arity
            ("records", [["t", 0, 1, 1]]),
            ("records", "none"),
        ],
    )
    def test_ill_typed_segment_values(self, key, value):
        payload = valid_payload()
        payload["segments"][1][key] = value
        with pytest.raises(SnapshotError):
            loads(json.dumps(payload))

    def test_segment_entry_not_object(self):
        payload = valid_payload()
        payload["segments"][1] = [1, 2, 3]
        with pytest.raises(SnapshotError, match="must be an object"):
            loads(json.dumps(payload))

    def test_record_tag_id_out_of_range(self):
        payload = valid_payload()
        payload["segments"][1]["records"][0][0] = 999
        with pytest.raises(SnapshotError, match="tag ids outside"):
            loads(json.dumps(payload))

    def test_duplicate_sid_rejected(self):
        payload = valid_payload()
        payload["segments"].append(dict(payload["segments"][1]))
        with pytest.raises(SnapshotError, match="duplicate segment id"):
            loads(json.dumps(payload))

    def test_unknown_parent_rejected(self):
        payload = valid_payload()
        payload["segments"][1]["parent"] = 777
        with pytest.raises(SnapshotError, match="unknown parent"):
            loads(json.dumps(payload))

    def test_text_that_disagrees_with_its_tree_rejected(self):
        """The segments' fragments are sliced from the text, so a text
        shorter than the ER-tree says cannot load (it used to, and then
        failed ``check_invariants``)."""
        db = LazyXMLDatabase()
        db.insert("<a><b/></a>")
        db.insert("<c/>", 3)
        payload = json.loads(dumps(db))
        assert len(payload["text"]) == 15
        payload["text"] = payload["text"][:-4]
        with pytest.raises(SnapshotError, match="text holds 11 characters"):
            loads(json.dumps(payload))

    def test_null_text_rejected(self):
        """A snapshot written without its text (``"keep_text": false``)
        has nothing to slice the fragments from."""
        payload = valid_payload()
        payload.update(keep_text=False, text=None)
        with pytest.raises(SnapshotError, match="text must be a string"):
            loads(json.dumps(payload))

    def test_snapshot_that_is_not_utf8_rejected(self, tmp_path, capsys):
        """Typed like any other malformed snapshot, so the CLI exits 1."""
        from repro.__main__ import main

        path = tmp_path / "snap.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SnapshotError, match="not UTF-8"):
            load(path)
        assert main(["stats", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: snapshot is not UTF-8")

    def test_valid_payload_still_loads(self):
        copy = loads(json.dumps(valid_payload()))
        copy.check_invariants()
        assert copy.text == "<a><b/><c/></a>"

    def test_next_sid_at_a_live_sid_rejected(self):
        """Loaded, this snapshot would mint sid 1 again on the next insert
        (and fail ``check_invariants`` with a registry out of sync)."""
        db = small_db()
        db.insert("<d/>")
        payload = json.loads(dumps(db))
        assert payload["next_sid"] == 3
        payload["next_sid"] = 1
        with pytest.raises(SnapshotError, match="next_sid 1 does not exceed"):
            loads(json.dumps(payload))

    def test_shard_next_sid_off_its_lattice_rejected(self):
        """Shard 0 of two owns the odd sids; a ``next_sid`` of 6 would
        mint a sid the lattice assigns to shard 1."""
        from repro.shard.database import ShardedDatabase

        sharded = ShardedDatabase(2)
        for tag in "wxyz":
            sharded.insert(f"<{tag}/>")
        payload = json.loads(dumps(sharded.shards[0]))
        assert (payload["sid_start"], payload["sid_stride"]) == (1, 2)
        assert payload["next_sid"] == 5
        loads(json.dumps(payload)).check_invariants()
        payload["next_sid"] = 6
        with pytest.raises(SnapshotError, match="not on the sid lattice"):
            loads(json.dumps(payload))

    def test_checkpoint_with_a_live_next_sid_is_corrupt(self, tmp_path, capsys):
        """Recovery refuses such a checkpoint, of either version, with a
        typed error, and ``fsck`` reports the directory CORRUPT."""
        from repro.__main__ import main
        from repro.durability.checkpoint import CHECKPOINT_NAME
        from repro.durability.database import DurableDatabase
        from repro.errors import CheckpointError

        directory = tmp_path / "state"
        with DurableDatabase(directory) as durable:
            durable.insert("<a/>")
            durable.insert("<b/>")
            durable.checkpoint()
        path = directory / CHECKPOINT_NAME
        header, body = v2_parts(path)
        assert b'"next_sid": 3' in body
        body = body.replace(b'"next_sid": 3', b'"next_sid": 1')
        write_v2(path, header, body)
        snapshot = body.decode().split("\n", 1)[1]
        for rewrite in (None, lambda: path.write_text(v1_checkpoint(snapshot, 2))):
            if rewrite is not None:
                rewrite()
            with pytest.raises(CheckpointError, match="next_sid"):
                DurableDatabase(directory)
            assert main(["fsck", str(directory)]) == 1
            assert "CORRUPT" in capsys.readouterr().err
