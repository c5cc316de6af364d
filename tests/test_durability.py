"""Tests for the durability subsystem: journal, checkpoints, recovery, CLI."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.database import LazyXMLDatabase
from repro.durability import hooks
from repro.durability.checkpoint import read_checkpoint, write_checkpoint
from repro.durability.database import DurableDatabase
from repro.durability.recovery import CHECKPOINT_NAME, JOURNAL_NAME, recover
from repro.durability.wal import RECORD_HEADER, Journal, read_journal
from repro.errors import (
    CheckpointError,
    InvalidSegmentError,
    JournalError,
    RecoveryError,
)
from repro.storage import dumps
from repro.workloads.scenarios import registration_stream
from tests.helpers import (
    assert_join_matches_oracle,
    reference_dumps,
    v1_checkpoint,
    v2_parts,
    write_v2,
)


def _hand_written_checkpoint(directory, payload: str) -> None:
    """A version 1 checkpoint envelope around ``payload``, bypassing
    ``dumps``."""
    directory.mkdir(parents=True)
    (directory / CHECKPOINT_NAME).write_text(v1_checkpoint(payload))


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path) as journal:
            journal.append(1, {"op": "insert", "fragment": "<a/>", "position": 0})
            journal.append(2, {"op": "remove", "position": 0, "length": 4})
        scan = read_journal(path)
        assert not scan.torn_tail
        assert [r["seq"] for r in scan.records] == [1, 2]
        assert scan.records[0]["fragment"] == "<a/>"
        assert scan.valid_bytes == path.stat().st_size

    def test_missing_file_is_empty(self, tmp_path):
        scan = read_journal(tmp_path / "nope.wal")
        assert scan == ([], 0, False)

    @pytest.mark.parametrize("cut", [1, 4, 7, 8, 9])
    def test_torn_tail_discarded(self, tmp_path, cut):
        path = tmp_path / "j.wal"
        with Journal(path) as journal:
            journal.append(1, {"op": "compact"})
            journal.append(2, {"op": "compact"})
        size = path.stat().st_size
        first_end = size // 2
        path.write_bytes(path.read_bytes()[: size - cut])
        scan = read_journal(path)
        assert scan.torn_tail
        assert [r["seq"] for r in scan.records] == [1]
        assert scan.valid_bytes == first_end

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path) as journal:
            journal.append(1, {"op": "compact"})
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte; CRC now mismatches
        path.write_bytes(bytes(data))
        scan = read_journal(path)
        assert scan.torn_tail
        assert scan.records == []

    def test_garbage_length_field(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(RECORD_HEADER.pack(2**31, 0) + b"xx")
        scan = read_journal(path)
        assert scan.torn_tail and scan.records == []

    def test_truncate_then_append(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path) as journal:
            journal.append(1, {"op": "compact"})
            journal.truncate()
            assert journal.size() == 0
            journal.append(2, {"op": "compact"})
        scan = read_journal(path)
        assert [r["seq"] for r in scan.records] == [2]

    def test_open_trims_torn_tail(self, tmp_path):
        path = tmp_path / "j.wal"
        with Journal(path) as journal:
            journal.append(1, {"op": "compact"})
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x09garbage")
        scan = read_journal(path)
        assert scan.torn_tail
        with Journal(path, truncate_to=scan.valid_bytes) as journal:
            journal.append(2, {"op": "compact"})
        rescan = read_journal(path)
        assert not rescan.torn_tail
        assert [r["seq"] for r in rescan.records] == [1, 2]

    def test_closed_journal_refuses_io(self, tmp_path):
        journal = Journal(tmp_path / "j.wal")
        journal.close()
        with pytest.raises(JournalError):
            journal.append(1, {"op": "compact"})
        with pytest.raises(JournalError):
            journal.truncate()


class TestCheckpoint:
    def make_db(self):
        db = LazyXMLDatabase()
        for fragment in registration_stream(3):
            db.insert(fragment)
        return db

    def write_v1(self, path, db=None, last_seq=1):
        """``db`` checkpointed as version 1 wrote it."""
        path.write_text(v1_checkpoint(dumps(db or self.make_db()), last_seq))

    def test_roundtrip(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "ckpt.json"
        write_checkpoint(db, path, last_seq=7)
        copy, last_seq = read_checkpoint(path)
        assert last_seq == 7
        assert dumps(copy) == dumps(db)
        assert (copy._trusted, copy._unbalanced) == (db._trusted, db._unbalanced)

    def test_layout_is_a_header_line_and_a_zlib_body(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "ckpt.json"
        write_checkpoint(db, path, last_seq=3)
        header, body = v2_parts(path)
        assert header == {
            "format": "repro-checkpoint", "version": 2, "last_seq": 3,
            "crc32": zlib.crc32(body),
        }
        marks, snapshot = body.decode().split("\n", 1)
        assert json.loads(marks) == {
            "trusted": sorted(db._trusted), "unbalanced": sorted(db._unbalanced),
        }
        assert snapshot == dumps(db)
        assert path.stat().st_size < len(snapshot) / 2

    def test_header_reader_reads_both_versions(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self.write_v1(path, last_seq=5)
        assert read_checkpoint(path)[1] == 5
        write_checkpoint(self.make_db(), path, last_seq=6)
        assert read_checkpoint(path)[1] == 6
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "absent.json")

    def test_v1_roundtrip(self, tmp_path):
        db = self.make_db()
        path = tmp_path / "ckpt.json"
        self.write_v1(path, db, last_seq=4)
        copy, last_seq = read_checkpoint(path)
        assert last_seq == 4
        assert dumps(copy) == dumps(db)
        # Version 1 carries no marks: every document is unknown, as after
        # a snapshot load.
        assert copy._trusted == set()
        assert copy._unbalanced == {top.sid for top in copy.log.ertree.root.children}

    def test_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self.write_v1(path)
        envelope = json.loads(path.read_text())
        envelope["payload"] = envelope["payload"].replace("registration", "corrupted", 1)
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_v2_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        header, body = v2_parts(path)
        write_v2(path, header, body.replace(b"registration", b"corrupted", 1), fix_crc=False)
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_v2_crc_mismatch(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        header, body = v2_parts(path)
        write_v2(path, {**header, "crc32": header["crc32"] ^ 1}, body, fix_crc=False)
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda env: "not json at all",
            lambda env: json.dumps([1, 2, 3]),
            lambda env: json.dumps({**env, "format": "other"}),
            lambda env: json.dumps({**env, "version": 99}),
            lambda env: json.dumps({**env, "last_seq": "seven"}),
            lambda env: json.dumps({**env, "last_seq": -1}),
            lambda env: json.dumps({**env, "crc32": None}),
            lambda env: json.dumps({**env, "payload": 42}),
        ],
    )
    def test_malformed_envelopes_rejected(self, tmp_path, mutate):
        path = tmp_path / "ckpt.json"
        self.write_v1(path)
        envelope = json.loads(path.read_text())
        path.write_text(mutate(envelope))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda head: "not json at all",
            lambda head: json.dumps([1, 2, 3]),
            lambda head: json.dumps({**head, "format": "other"}),
            lambda head: json.dumps({**head, "version": 99}),
            lambda head: json.dumps({**head, "version": 3}),
            lambda head: json.dumps({**head, "version": True}),
            lambda head: json.dumps({**head, "last_seq": "seven"}),
            lambda head: json.dumps({**head, "last_seq": -1}),
            lambda head: json.dumps({**head, "crc32": None}),
            lambda head: json.dumps({**head, "crc32": True}),
        ],
        ids=["not-json", "list", "format", "version-99", "version-3", "version-bool",
             "seq-str", "seq-negative", "crc-none", "crc-bool"],
    )
    def test_v2_bad_header_line_rejected(self, tmp_path, mutate):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        line, _, stream = path.read_bytes().partition(b"\n")
        path.write_bytes(mutate(json.loads(line)).encode() + b"\n" + stream)
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_v2_flipped_body_byte(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        raw = path.read_bytes()
        body_start = raw.index(b"\n") + 1
        for offset in range(body_start, len(raw), max(1, (len(raw) - body_start) // 40)):
            flipped = bytearray(raw)
            flipped[offset] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_v2_truncated_file(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        for cut in (1, newline // 2, newline, newline + 1, newline + 3,
                    (newline + len(raw)) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                read_checkpoint(path)

    def test_v2_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="overlong"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "marks",
        [
            b"not json",
            b"[]",
            b'{"trusted": []}',
            b'{"trusted": [999], "unbalanced": []}',
            b'{"trusted": ["1"], "unbalanced": []}',
            b'{"trusted": [1], "unbalanced": [1]}',
        ],
        ids=["not-json", "list", "missing", "dead-sid", "str-sid", "both"],
    )
    def test_v2_malformed_marks_rejected(self, tmp_path, marks):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        header, body = v2_parts(path)
        write_v2(path, header, marks + b"\n" + body.split(b"\n", 1)[1])
        with pytest.raises(CheckpointError, match="marks"):
            read_checkpoint(path)

    def test_bad_payload_wrapped(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(v1_checkpoint(json.dumps({"format": 99})))
        with pytest.raises(CheckpointError, match="payload rejected"):
            read_checkpoint(path)

    def test_v2_bad_payload_wrapped(self, tmp_path):
        path = tmp_path / "ckpt.json"
        header = {"format": "repro-checkpoint", "version": 2, "last_seq": 0}
        marks = b'{"trusted": [], "unbalanced": []}\n'
        for snapshot in (b'{"format": 99}', b"\xff\xfe"):
            write_v2(path, header, marks + snapshot)
            with pytest.raises(CheckpointError, match="payload rejected"):
                read_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_checkpoint(tmp_path / "absent.json")

    def test_invalid_utf8_reported_as_corruption(self, tmp_path):
        path = tmp_path / "ckpt.json"
        self.write_v1(path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # 0x80-0xFF mid-ASCII breaks the decode
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="not valid UTF-8"):
            read_checkpoint(path)

    def test_v2_invalid_utf8_header_reported_as_corruption(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_checkpoint(self.make_db(), path, last_seq=1)
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="not valid UTF-8"):
            read_checkpoint(path)


class TestCheckpointMarks:
    """A version 2 checkpoint carries the document marks, so a reopened
    database knows what the checkpointed one knew."""

    def test_marks_survive_checkpoint_and_reopen(self, tmp_path):
        """All three states of a document survive: unbalanced (unknown,
        as a version 1 checkpoint leaves every one), trusted, and known
        to parse as content but not trusted."""
        db = LazyXMLDatabase()
        for fragment in registration_stream(4):
            db.insert(fragment)
        directory = tmp_path / "state"
        _hand_written_checkpoint(directory, dumps(db))
        marks = []
        for step in range(2):
            with DurableDatabase(directory) as dd:
                if step:
                    position = dd.text.index("<preferences>") + len("<preferences>")
                    dd.insert('<interest topic="new"/>', position)
                marks.append((set(dd.db._trusted), set(dd.db._unbalanced)))
                dd.checkpoint()
            with DurableDatabase(directory) as dd:
                assert (dd.db._trusted, dd.db._unbalanced) == marks[-1]
                tops = {top.sid for top in dd.db.log.ertree.root.children}
                dd.check_invariants()
        assert marks[0] == (set(), tops)
        trusted, unbalanced = marks[1]
        assert len(trusted) == 1 and not unbalanced and len(tops) > 1

    def test_snapshot_load_keeps_no_marks(self, tmp_path):
        from repro.storage import load, save

        db = LazyXMLDatabase()
        for fragment in registration_stream(3):
            db.insert(fragment)
        assert db._trusted
        save(db, tmp_path / "snap.json")
        loaded = load(tmp_path / "snap.json")
        assert loaded._trusted == set()
        assert loaded._unbalanced == {top.sid for top in loaded.log.ertree.root.children}

    @pytest.mark.perf_smoke
    def test_first_insert_after_reopen_scans_only_its_document(self, tmp_path, monkeypatch):
        """Count gate: the first nested insert after checkpoint + reopen
        runs the well-formedness scans the same insert runs on the
        database that was never closed (at most one, of the document it
        touches), not one per document: with 40 documents a version 1
        checkpoint made it scan all 40."""
        import repro.core.database as core_database

        scans = []
        real = core_database.well_formed

        def counted(pieces, **options):
            scans.append(pieces)
            return real(pieces, **options)

        monkeypatch.setattr(core_database, "well_formed", counted)
        directory = tmp_path / "state"
        fragments = list(registration_stream(40))
        counts = []
        for reopen in (False, True):
            shutil.rmtree(directory, ignore_errors=True)
            dd = DurableDatabase(directory)
            for fragment in fragments:
                dd.insert(fragment)
            if reopen:
                dd.checkpoint()
                dd.close()
                dd = DurableDatabase(directory)
            position = dd.text.index("<preferences>") + len("<preferences>")
            scans.clear()
            dd.insert('<interest topic="new"/>', position)
            counts.append(len(scans))
            dd.check_invariants()
            dd.close()
        assert counts[1] == counts[0] <= 1, counts


class TestCheckpointEncodesWhatWasWritten:
    """A block keeps its encoding, so a checkpoint encodes the records of
    the blocks written since the last one: a segment's labels are fixed
    when it goes in, and only a write installs a block."""

    @staticmethod
    def _form(i: int) -> str:
        fields = "".join(f"<f{j}>v{i}</f{j}>" for j in range(16))
        return f"<form><id>{i}</id>{fields}</form>"

    @pytest.mark.perf_smoke
    @pytest.mark.parametrize("forms", [250, 4_000])
    def test_checkpoint_encodes_the_blocks_written_since_the_last(
        self, tmp_path, monkeypatch, forms
    ):
        """Count gate: after k tail inserts, j whole-segment removes and
        one partial remove taking an element out, a checkpoint encodes
        k + 1 blocks' records; with nothing written since, 0.  (Before
        blocks kept their encoding: every block, every time.)"""
        from repro.obs.metrics import METRICS

        monkeypatch.setattr(METRICS, "enabled", True)
        encoded = METRICS.get("durability.checkpoint.blocks_encoded")
        with DurableDatabase(tmp_path / "state") as dd:
            dd.apply_batch(
                [{"op": "insert", "fragment": self._form(i)} for i in range(forms)]
            )
            dd.checkpoint()  # every block is new here
            k, j = 5, 3
            for i in range(k):
                dd.insert(self._form(forms + i))
            tops = [top.sid for top in dd.db.log.ertree.root.children]
            for sid in tops[1 : 1 + j]:
                dd.remove_segment(sid)
            element = "<f3>v0</f3>"  # in the first form, still there
            dd.remove(dd.text.index(element), len(element))
            counts = []
            for _ in range(2):
                before = encoded.value
                dd.checkpoint()
                counts.append(encoded.value - before)
            assert counts == [k + 1, 0], (forms, counts)
            assert dumps(dd.db) == reference_dumps(dd.db)
        with DurableDatabase(tmp_path / "state") as reopened:
            assert dumps(reopened.db) == reference_dumps(reopened.db)


class TestVersionOneDirectory:
    """A durable directory written before version 2 (a checkpoint envelope
    plus a journal tail, committed under tests/fixtures) recovers to the
    same text and the same answers, and its next checkpoint is version 2."""

    FIXTURE = Path(__file__).parent / "fixtures" / "durable_v1"

    @pytest.fixture
    def expected(self):
        return json.loads((self.FIXTURE.parent / "durable_v1.expected.json").read_text())

    def assert_answers(self, db, expected):
        assert db.text == expected["text"]
        for tag_a, tag_d, axis, pairs in expected["joins"]:
            got = sorted(
                [list(db.global_span(a)), list(db.global_span(d))]
                for a, d in db.structural_join(tag_a, tag_d, axis)
            )
            assert got == pairs, (tag_a, tag_d, axis)
        for expression, spans in expected["queries"]:
            got = sorted(list(db.global_span(r)) for r in db.path_query(expression))
            assert got == spans, expression

    def test_fixture_is_version_one(self):
        header = json.loads((self.FIXTURE / CHECKPOINT_NAME).read_text())
        assert header["version"] == 1 and "payload" in header

    def test_recovers_unchanged(self, expected):
        db, report = recover(self.FIXTURE)
        assert report.checkpoint_seq == expected["checkpoint_seq"]
        assert report.last_seq == expected["last_seq"]
        assert report.ops_replayed == expected["last_seq"] - expected["checkpoint_seq"]
        self.assert_answers(db, expected)
        db.check_invariants()

    def test_next_checkpoint_is_version_two(self, tmp_path, expected):
        directory = tmp_path / "state"
        shutil.copytree(self.FIXTURE, directory)
        with DurableDatabase(directory) as dd:
            dd.checkpoint()
        header, _ = v2_parts(directory / CHECKPOINT_NAME)
        assert (header["version"], header["last_seq"]) == (2, expected["last_seq"])
        with DurableDatabase(directory) as dd2:
            assert dd2.last_seq == expected["last_seq"]
            self.assert_answers(dd2.db, expected)

    def test_fsck_and_stats_read_it(self, capsys):
        assert main(["fsck", str(self.FIXTURE)]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["stats", str(self.FIXTURE)]) == 0
        assert capsys.readouterr().out.startswith("ok ")


class TestDurableDatabase:
    def test_empty_directory_starts_empty(self, tmp_path):
        dd = DurableDatabase(tmp_path / "state")
        assert dd.segment_count == 0
        assert dd.last_seq == 0
        assert not dd.recovery_report.checkpoint_found
        dd.close()

    def test_ops_survive_reopen_without_checkpoint(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            for fragment in registration_stream(3):
                dd.insert(fragment)
            expected = dumps(dd.db)
        with DurableDatabase(directory) as dd2:
            assert dumps(dd2.db) == expected
            assert dd2.recovery_report.ops_replayed == 3
            dd2.check_invariants()
            assert_join_matches_oracle(dd2.db, "registration", "interest")

    def test_checkpoint_truncates_journal(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            dd.insert("<a><b/></a>")
            assert dd.journal_size > 0
            dd.checkpoint()
            assert dd.journal_size == 0
            expected = dumps(dd.db)
        with DurableDatabase(directory) as dd2:
            assert dd2.recovery_report.checkpoint_found
            assert dd2.recovery_report.ops_replayed == 0
            assert dumps(dd2.db) == expected

    def test_seq_continues_after_reopen(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            dd.insert("<a/>")
            dd.insert("<b/>")
        with DurableDatabase(directory) as dd2:
            assert dd2.last_seq == 2
            dd2.insert("<c/>")
            assert dd2.last_seq == 3
        with DurableDatabase(directory) as dd3:
            assert dd3.text == "<a/><b/><c/>"

    def test_stale_journal_records_skipped_by_seq(self, tmp_path):
        """Crash between checkpoint write and journal truncation: no double apply."""
        directory = tmp_path / "state"
        directory.mkdir()
        with DurableDatabase(directory) as dd:
            dd.insert("<a/>")
            dd.insert("<b/>")
            # Checkpoint *without* truncating — exactly the state a crash
            # between the two steps leaves behind.
            write_checkpoint(dd.db, directory / CHECKPOINT_NAME, dd.last_seq)
            expected = dumps(dd.db)
        with DurableDatabase(directory) as dd2:
            assert dumps(dd2.db) == expected
            assert dd2.recovery_report.ops_replayed == 0
            assert dd2.last_seq == 2

    def test_refused_remove_appends_nothing(self, tmp_path):
        """validate_op runs the span check remove() runs, so a mid-tag or
        boundary-crossing remove is refused before the journal append: no
        seq consumed, no bytes written, nothing for recovery to skip."""
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            dd.insert("<a><b>hello</b></a>")
            dd.insert("<c>two</c>")
            nested = dd.insert("<n>x</n>", dd.text.index("hello"))
            seq, size = dd.last_seq, dd.journal_size
            node = dd.log.node(nested.sid)
            for position, length, message in [
                (1, 3, "mid-tag"),
                (dd.text.index("</a>") + 2, 5, "crosses the boundary"),
                (node.gp + 1, node.length, "crosses the boundary"),
            ]:
                with pytest.raises(InvalidSegmentError, match=message):
                    dd.remove(position, length)
                assert (dd.last_seq, dd.journal_size) == (seq, size)
            expected = dumps(dd.db)
        with DurableDatabase(directory) as dd2:
            assert dd2.recovery_report.ops_skipped == 0
            assert dd2.last_seq == seq
            assert dumps(dd2.db) == expected

    def test_refused_remove_segment_appends_nothing(self, tmp_path):
        """The whole-segment remove that must be refused: a segment whose
        text ends a comment the document opened (reached through a second
        root, which lets the removes that open the comment through)."""
        with DurableDatabase(tmp_path / "state") as dd:
            dd.insert("<a><b><!----></b></a><!--e-->")
            inner = dd.insert("<b>--></b>", dd.text.index("<!---->") + 7)
            extra = dd.insert("<z/>", dd.text.index("<!--e-->"))
            dd.remove(dd.text.index("<!---->") + 4, 3)
            dd.remove(dd.text.index("</b></b>") + 4, 4)
            dd.remove_segment(extra.sid)
            assert dd.text == "<a><b><!--<b>--></b></a><!--e-->"
            seq, size = dd.last_seq, dd.journal_size
            with pytest.raises(InvalidSegmentError, match="mid-tag"):
                dd.remove_segment(inner.sid)
            assert (dd.last_seq, dd.journal_size) == (seq, size)
            dd.check_invariants()

    def test_journal_holding_a_refused_remove_still_recovers(self, tmp_path):
        """Journals written before validate_op checked spans can hold a
        remove the apply refused (seq consumed, state untouched); replay
        skips it and lands on the state the live database had."""
        directory = tmp_path / "state"
        directory.mkdir()
        with Journal(directory / JOURNAL_NAME) as journal:
            journal.append(1, {"op": "insert", "fragment": "<a><b>hello</b></a>", "position": 0})
            journal.append(2, {"op": "remove", "position": 1, "length": 3})
            journal.append(3, {"op": "insert", "fragment": "<c/>", "position": 19})
        with DurableDatabase(directory) as dd:
            report = dd.recovery_report
            assert (report.ops_replayed, report.ops_skipped) == (2, 1)
            assert "mid-tag" in report.skipped_details[0]
            assert dd.last_seq == 3
            assert dd.text == "<a><b>hello</b></a><c/>"
            dd.check_invariants()

    def test_all_op_kinds_roundtrip(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            for fragment in registration_stream(3):
                dd.insert(fragment)
            match = re.search("<preferences>", dd.text)
            nested = dd.insert('<interest topic="nested"/>', match.end())
            dd.repack(dd.log.node(nested.sid).parent.sid)
            victim = re.search(r"<city>[^<]*</city>", dd.text)
            dd.remove(victim.start(), victim.end() - victim.start())
            dd.remove_segment(dd.log.ertree.root.children[-1].sid)
            dd.compact()
            expected = dumps(dd.db)
        with DurableDatabase(directory) as dd2:
            assert dumps(dd2.db) == expected
            dd2.check_invariants()
            assert_join_matches_oracle(dd2.db, "registration", "interest")

    def test_invalid_op_never_reaches_journal(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            dd.insert("<a/>")
            size = dd.journal_size
            from repro.errors import ReproError

            with pytest.raises(ReproError):
                dd.insert("<unclosed>")
            with pytest.raises(ReproError):
                dd.insert("<b/>", position=999)
            with pytest.raises(ReproError):
                dd.remove(0, 999)
            with pytest.raises(ReproError):
                dd.remove_segment(777)
            with pytest.raises(ReproError):
                dd.repack(777)
            assert dd.journal_size == size
            dd.check_invariants()

    def test_failed_append_poisons_handle(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            dd.insert("<a/>")

            def blow_up(name):
                raise OSError("disk full")

            hooks.set_failpoint("wal.append.mid_write", blow_up)
            try:
                with pytest.raises(OSError):
                    dd.insert("<b/>")
            finally:
                hooks.clear_failpoint("wal.append.mid_write")
            with pytest.raises(JournalError, match="read-only"):
                dd.insert("<c/>")
        # Reopening recovers cleanly; the half-written record is discarded.
        with DurableDatabase(directory) as dd2:
            assert dd2.text == "<a/>"
            dd2.check_invariants()

    def test_static_mode(self, tmp_path):
        """A checkpoint of an LS database (its ``mode`` field written by
        hand: ``dumps`` always writes "dynamic") recovers query-ready LD."""
        ls = LazyXMLDatabase(mode="static")
        for fragment in registration_stream(2):
            ls.insert(fragment)
        payload = dumps(ls).replace('"mode": "dynamic"', '"mode": "static"', 1)
        directory = tmp_path / "state"
        _hand_written_checkpoint(directory, payload)
        with DurableDatabase(directory) as dd:
            assert dd.mode == "dynamic"
            assert_join_matches_oracle(dd.db, "registration", "interest")

    def test_keep_text_false(self, tmp_path):
        """A checkpoint written without its text (``"keep_text": false``,
        as the figures' LS arm once wrote them) is refused typed: the
        segments' fragments are sliced from the text."""
        ls = LazyXMLDatabase(mode="static")
        for fragment in registration_stream(2):
            ls.insert(fragment)
        payload = json.loads(dumps(ls))
        payload.update(mode="static", keep_text=False, text=None)
        directory = tmp_path / "state"
        _hand_written_checkpoint(directory, json.dumps(payload))
        with pytest.raises(CheckpointError, match="text must be a string"):
            DurableDatabase(directory)

    def test_recover_function_reports(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            dd.insert("<a/>")
            dd.checkpoint()
            dd.insert("<b/>")
        db, report = recover(directory)
        assert report.checkpoint_found
        assert report.ops_replayed == 1
        assert not report.torn_tail
        assert db.text == "<a/><b/>"
        assert "replayed=1" in report.describe()

    def test_torn_tail_trimmed_on_reopen(self, tmp_path):
        directory = tmp_path / "state"
        with DurableDatabase(directory) as dd:
            dd.insert("<a/>")
            dd.insert("<bb/>")
        journal = directory / JOURNAL_NAME
        journal.write_bytes(journal.read_bytes()[:-3])  # tear the final record
        with DurableDatabase(directory) as dd2:
            assert dd2.text == "<a/>"
            assert dd2.recovery_report.torn_tail
            assert dd2.last_seq == 1
            dd2.insert("<c/>")  # appends after the trimmed tail
        with DurableDatabase(directory) as dd3:
            assert dd3.text == "<a/><c/>"
            assert not dd3.recovery_report.torn_tail


class TestDurableCLI:
    @pytest.fixture
    def doc_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(
            "<site><person><phone/></person><person><phone/><phone/></person></site>"
        )
        return path

    def test_full_durable_session(self, doc_file, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["load", str(doc_file), "--durable", state]) == 0
        fragment = "<person><phone/></person>"
        assert main(["insert", state, str(len("<site>")), fragment]) == 0
        capsys.readouterr()
        assert main(["query", state, "person//phone", "--limit", "0"]) == 0
        assert capsys.readouterr().out.strip() == "ok 4 match(es)"
        assert main(["checkpoint", state]) == 0
        assert "journal" in capsys.readouterr().out
        assert main(["fsck", state]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "last_seq=2" in out  # load + insert
        assert main(["stats", state]) == 0
        payload = json.loads(capsys.readouterr().out[3:])
        assert payload["durable"] is True and payload["elements"] == 8
        assert main(["compact", state]) == 0
        capsys.readouterr()
        assert main(["dump", state]) == 0
        assert capsys.readouterr().out.count("<person>") == 3

    def test_durable_remove_and_join(self, doc_file, tmp_path, capsys):
        state = str(tmp_path / "state")
        main(["load", str(doc_file), "--durable", state])
        text = doc_file.read_text()
        start = text.index("<person>")
        length = text.index("</person>") + len("</person>") - start
        assert main(["remove", state, str(start), str(length)]) == 0
        capsys.readouterr()
        assert main(["join", state, "person", "phone"]) == 0
        assert capsys.readouterr().out.strip() == "ok 2 pair(s)"

    def test_load_refuses_nonempty_directory(self, doc_file, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["load", str(doc_file), "--durable", state]) == 0
        assert main(["load", str(doc_file), "--durable", state]) == 1
        assert "refusing" in capsys.readouterr().err

    def test_durable_with_stray_db_argument_rejected(
        self, doc_file, tmp_path, capsys
    ):
        """The target is the one positional before the verb's words; a
        word the verb does not take is a usage error, as in the shell."""
        state = str(tmp_path / "state")
        main(["load", str(doc_file), "--durable", state])
        capsys.readouterr()
        assert main(["stats", state, "stray.json"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "left over: 'stray.json'" in err

    def test_sharded_directory_is_refused_untouched(self, tmp_path):
        """A directory an older ``load --durable D --shards N`` wrote holds
        ``manifest.json`` and ``shard-NN/`` but no top-level journal.  It
        is refused before anything is created there: never opened as an
        empty database."""
        state = tmp_path / "state"
        (state / "shard-00").mkdir(parents=True)
        (state / "manifest.json").write_text(
            json.dumps({"format": "repro-shard-manifest", "version": 1,
                        "epoch": 1, "shards": 2})
        )

        def listing():
            return sorted(
                (str(p.relative_to(state)), p.stat().st_size)
                for p in state.rglob("*")
            )

        before = listing()
        with pytest.raises(RecoveryError, match="manifest.json"):
            DurableDatabase(state)
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "repro", "stats", str(state)],
            cwd=root,
            env={"PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert "manifest.json" in done.stderr
        assert "serves one database" in done.stderr
        assert listing() == before

    def test_replica_directory_is_refused_untouched(self, tmp_path):
        """A node directory an older ``serve --replicas N`` wrote holds
        ``replication.json`` beside its checkpoint and journal.  A deposed
        primary's journal may hold acknowledged writes no follower got, so
        the directory is refused before anything is created or trimmed
        there: never opened as a standalone database."""
        state = tmp_path / "state"
        with DurableDatabase(state) as dd:
            dd.insert("<a><b/></a>")
            dd.checkpoint()
            dd.insert("<c/>")
        (state / "replication.json").write_text(
            json.dumps({"node": 0, "term": 2, "role": "primary",
                        "replicated_seq": 1})
        )

        def listing():
            return sorted(
                (str(p.relative_to(state)), p.stat().st_size)
                for p in state.rglob("*")
            )

        before = listing()
        with pytest.raises(RecoveryError, match="replication.json"):
            DurableDatabase(state)
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "repro", "stats", str(state)],
            cwd=root,
            env={"PYTHONPATH": str(root / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1
        assert "replication.json" in done.stderr
        assert "serves one database" in done.stderr
        assert listing() == before

    def test_checkpoint_requires_durable(self, doc_file, tmp_path, capsys):
        snapshot = str(tmp_path / "db.json")
        main(["load", str(doc_file), "--db", snapshot])
        capsys.readouterr()
        assert main(["checkpoint", snapshot]) == 1
        assert "needs a durable directory" in capsys.readouterr().err

    def test_snapshot_path_still_required_without_durable(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats"])
        assert excinfo.value.code == 2
        assert "required: target" in capsys.readouterr().err


class TestFsckCLI:
    def test_fsck_ok_snapshot(self, tmp_path, capsys):
        doc = tmp_path / "doc.xml"
        doc.write_text("<a><b/></a>")
        snap = tmp_path / "db.json"
        main(["load", str(doc), "--db", str(snap)])
        capsys.readouterr()
        assert main(["fsck", str(snap)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_fsck_corrupt_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "db.json"
        snap.write_text('{"format": 1, "mode": "dynamic"}')
        assert main(["fsck", str(snap)]) == 1
        err = capsys.readouterr().err
        assert "CORRUPT" in err and "SnapshotError" in err

    def test_fsck_missing_file(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "absent.json")]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_fsck_corrupt_durable_checkpoint(self, tmp_path, capsys):
        """A version 1 checkpoint whose checksum fails."""
        state = tmp_path / "state"
        with DurableDatabase(state) as dd:
            dd.insert("<a/>")
            dd.checkpoint()
            payload = dumps(dd.db)
        ckpt = state / CHECKPOINT_NAME
        envelope = json.loads(v1_checkpoint(payload, 1))
        envelope["crc32"] ^= 1
        ckpt.write_text(json.dumps(envelope))
        assert main(["fsck", str(state)]) == 1
        err = capsys.readouterr().err
        assert "CORRUPT" in err and "CheckpointError" in err

    def test_fsck_corrupt_durable_checkpoint_v2(self, tmp_path, capsys):
        state = tmp_path / "state"
        with DurableDatabase(state) as dd:
            dd.insert("<a/>")
            dd.checkpoint()
        ckpt = state / CHECKPOINT_NAME
        header, body = v2_parts(ckpt)
        write_v2(ckpt, {**header, "crc32": header["crc32"] ^ 1}, body, fix_crc=False)
        assert main(["fsck", str(state)]) == 1
        err = capsys.readouterr().err
        assert "CORRUPT" in err and "CheckpointError" in err

    def test_fsck_durable_with_torn_journal(self, tmp_path, capsys):
        state = tmp_path / "state"
        with DurableDatabase(state) as dd:
            dd.insert("<a/>")
            dd.insert("<b/>")
        journal = state / JOURNAL_NAME
        journal.write_bytes(journal.read_bytes()[:-2])
        assert main(["fsck", str(state)]) == 0
        captured = capsys.readouterr()
        assert "torn final journal record" in captured.err
        assert "ok" in captured.out
