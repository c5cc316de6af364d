"""Tests for snapshot persistence and the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from tests.helpers import assert_join_matches_oracle
from repro.__main__ import main
from repro.core.database import LazyXMLDatabase
from repro.storage import SnapshotError, dumps, load, loads, save
from repro.workloads.scenarios import registration_stream


def populated_db(mode="dynamic"):
    db = LazyXMLDatabase(mode=mode)
    for fragment in registration_stream(5):
        db.insert(fragment)
    match = re.search("<preferences>", db.text)
    db.insert('<interest topic="nested"/>', match.end())
    return db


#: ``dumps`` of :func:`golden_db`, produced at the commit before the element
#: index became per-segment blocks (PR 24).  The snapshot is the checkpoint
#: and the replica seed, so its bytes are a contract: a layout change under
#: ``ElementIndex`` must not move them (``stored_bytes_per_input_byte``).
GOLDEN_SNAPSHOT = (
    '{"format": 1, "mode": "dynamic", "keep_text": true, "text": "<a><b><a><c>deep<c>tail</c></c></a><c/></b><b>x</b></a><c><b/><b>z</b></c>", '
    '"tags": ["a", "b", "c"], "next_sid": 8, "segments": ['
    '{"sid": 0, "parent": null, "gp": 0, "length": 74, "lp": 0, "tombstones": [], "records": []}, '
    '{"sid": 1, "parent": 0, "gp": 0, "length": 55, "lp": 0, "tombstones": [[11, 19]], "records": [[0, 0, 23, 1], [1, 3, 11, 2]]}, '
    '{"sid": 6, "parent": 1, "gp": 3, "length": 40, "lp": 3, "tombstones": [], "records": [[1, 0, 29, 2], [0, 3, 21, 3], [2, 6, 17, 4], [2, 21, 25, 3]]}, '
    '{"sid": 7, "parent": 6, "gp": 16, "length": 11, "lp": 13, "tombstones": [], "records": [[2, 0, 11, 5]]}, '
    '{"sid": 3, "parent": 0, "gp": 55, "length": 19, "lp": 0, "tombstones": [], "records": [[2, 0, 19, 1], [1, 3, 7, 2], [1, 7, 15, 2]]}]}'
)


def golden_db() -> LazyXMLDatabase:
    """Ten ops: nested inserts, partial and whole removes, a repack."""
    db = LazyXMLDatabase()
    db.insert("<a><b>x</b><c>y</c></a>")                      # sid 1
    db.insert("<b><a>n</a><c/></b>", len("<a>"))              # sid 2, nested
    db.insert("<c><b/><b>z</b></c>")                          # sid 3
    db.insert("<a><c>deep</c></a>", db.text.index("<c/>"))    # sid 4, in sid 2
    db.remove(db.text.index("<c>y</c>"), len("<c>y</c>"))     # partial, sid 1
    db.insert("<b><b>w</b></b>", db.text.index("<b>z</b>"))   # sid 5, in sid 3
    db.remove(db.text.index("<a>n</a>"), len("<a>n</a>"))     # partial, sid 2
    db.repack(2)                                              # sids 2, 4 -> 6
    db.remove_segment(5)                                      # whole
    db.insert("<c>tail</c>", db.text.index("</c></a>"))       # sid 7, in sid 6
    db.check_invariants()
    return db


class TestSnapshotRoundTrip:
    def test_golden_bytes(self):
        assert dumps(golden_db()) == GOLDEN_SNAPSHOT
        assert dumps(loads(GOLDEN_SNAPSHOT)) == GOLDEN_SNAPSHOT

    def test_text_preserved(self):
        db = populated_db()
        copy = loads(dumps(db))
        assert copy.text == db.text

    def test_structure_preserved(self):
        db = populated_db()
        copy = loads(dumps(db))
        assert copy.segment_count == db.segment_count
        assert copy.element_count == db.element_count
        copy.check_invariants()

    def test_joins_identical(self):
        db = populated_db()
        copy = loads(dumps(db))
        for pair in [("registration", "interest"), ("contact", "city")]:
            assert sorted(db.structural_join(*pair)) == sorted(
                copy.structural_join(*pair)
            )
        assert_join_matches_oracle(copy, "registration", "interest")

    def test_updates_after_restore(self):
        db = populated_db()
        copy = loads(dumps(db))
        for fragment in registration_stream(2, seed=9):
            copy.insert(fragment)
        copy.check_invariants()
        assert_join_matches_oracle(copy, "registration", "interest")

    def test_sids_do_not_collide_after_restore(self):
        db = populated_db()
        copy = loads(dumps(db))
        receipt = copy.insert("<extra/>")
        assert receipt.sid not in {n.sid for n in db.log.ertree.nodes()}

    def test_tombstones_preserved(self):
        db = populated_db()
        match = re.search(r"<interest [^/]*/>", db.text)
        db.remove(match.start(), match.end() - match.start())
        copy = loads(dumps(db))
        assert copy.text == db.text
        assert_join_matches_oracle(copy, "preferences", "interest")

    def test_static_mode_roundtrip(self):
        """An LS database loads back as a query-ready LD database — also
        from a snapshot whose ``mode`` field still says "static"."""
        db = populated_db(mode="static")
        text = dumps(db)
        old = text.replace('"mode": "dynamic"', '"mode": "static"', 1)
        for copy in (loads(text), loads(old)):
            assert copy.mode == "dynamic"
            assert_join_matches_oracle(copy, "registration", "interest")

    def test_save_load_files(self, tmp_path):
        db = populated_db()
        path = tmp_path / "db.json"
        save(db, path)
        copy = load(path)
        assert copy.text == db.text

    @pytest.mark.parametrize("bad", ["", "{}", "[1,2]", '{"format": 99}'])
    def test_bad_snapshots_rejected(self, bad):
        with pytest.raises(SnapshotError):
            loads(bad)


class TestCLI:
    @pytest.fixture
    def doc_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text(
            "<site><person><phone/></person><person><phone/><phone/></person></site>"
        )
        return path

    def test_load_and_stats(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        assert main(["load", str(doc_file), "--db", str(db_path)]) == 0
        assert db_path.exists()
        capsys.readouterr()
        assert main(["stats", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok ")
        payload = json.loads(out[3:])
        assert (payload["segments"], payload["elements"]) == (1, 6)

    def test_load_chopped(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["load", str(doc_file), "--db", str(db_path), "--segments", "3"])
        out = capsys.readouterr().out
        assert "3 segment(s)" in out

    def test_query(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["load", str(doc_file), "--db", str(db_path)])
        capsys.readouterr()
        assert main(["query", str(db_path), "person//phone", "--limit", "0"]) == 0
        assert capsys.readouterr().out.strip() == "ok 3 match(es)"

    def test_query_prints_spans(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["load", str(doc_file), "--db", str(db_path)])
        capsys.readouterr()
        main(["query", str(db_path), "site//person"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "ok 2 match(es)",
            "  sid=1 start=6 end=31 level=2",
            "  sid=1 start=31 end=64 level=2",
        ]

    def test_join(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["load", str(doc_file), "--db", str(db_path)])
        capsys.readouterr()
        assert main(["join", str(db_path), "person", "phone"]) == 0
        assert capsys.readouterr().out.strip() == "ok 3 pair(s)"

    def test_insert_and_dump(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["load", str(doc_file), "--db", str(db_path)])
        position = len("<site>")
        assert main([
            "insert", str(db_path), str(position), "<person><phone/></person>",
        ]) == 0
        capsys.readouterr()
        main(["dump", str(db_path)])
        out = capsys.readouterr().out
        assert out.count("<person>") == 3

    def test_remove(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["load", str(doc_file), "--db", str(db_path)])
        text = doc_file.read_text()
        start = text.index("<person>")
        length = text.index("</person>") + len("</person>") - start
        assert main(["remove", str(db_path), str(start), str(length)]) == 0
        capsys.readouterr()
        main(["query", str(db_path), "person//phone", "--limit", "0"])
        assert capsys.readouterr().out.strip() == "ok 2 match(es)"

    def test_compact(self, doc_file, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["load", str(doc_file), "--db", str(db_path), "--segments", "3"])
        capsys.readouterr()
        assert main(["compact", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "3 -> 1" in out

    def test_error_reported(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        db_path.write_text("not json")
        assert main(["stats", str(db_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_load_of_a_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, capsys):
        xml = tmp_path / "f.xml"
        xml.write_bytes(b"\xff\xfe<a/>")
        db_path = tmp_path / "db.json"
        assert main(["load", str(xml), "--db", str(db_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8" in err and not db_path.exists()


#: Words for each read verb of the table, over the same document as TestCLI.
READ_WORDS = {
    "query": "person//phone",
    "twig": "site/person[phone]",
    "join": "person phone child",
}


@pytest.mark.parametrize("verb", sorted(READ_WORDS))
def test_cli_prints_what_the_shell_prints(verb, tmp_path, capsys):
    """On the same snapshot, ``python -m repro <verb> TARGET <words>``
    prints exactly what the ``serve`` shell prints for ``<verb> <words>``."""
    import io

    from repro.service import DatabaseService
    from repro.service.commands import COMMANDS
    from repro.service.shell import ServiceShell

    reads = {verb for verb, entry in COMMANDS.items() if entry.kind == "read"}
    assert set(READ_WORDS) == reads
    path = tmp_path / "db.json"
    xml = tmp_path / "doc.xml"
    xml.write_text(
        "<site><person><phone/></person><person><phone/><phone/></person></site>"
    )
    main(["load", str(xml), "--db", str(path), "--segments", "2"])
    capsys.readouterr()
    words = READ_WORDS[verb]
    assert main([verb, str(path), *words.split()]) == 0
    out = io.StringIO()
    with DatabaseService(load(path)) as service:
        assert ServiceShell(service, io.StringIO(), out).handle(f"{verb} {words}")
    assert capsys.readouterr().out == out.getvalue()
    assert out.getvalue().startswith("ok ")
