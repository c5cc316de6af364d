"""Twig subsystem: parser, path summary, planner, evaluators, surfaces.

Covers the whole vertical: the pattern grammar and its typed
:class:`PathSyntaxError` reporting (the one grammar every read verb
parses with), the :class:`PathSummary` tag totals and segment sets,
the plan rule and its process-wide decision log, the holistic and pairwise
executors on handcrafted documents (branches, wildcards, positional and
value predicates, bindings), and the end-to-end surfaces — database
method, service + tracing + stats, TCP protocol verb, shell command,
and the ``twig`` verb on the CLI.

The prune acceptance criterion is pinned here too: a twig naming a tag
with no element must answer ``[]`` without compiling a single read-path
column (readpath misses delta == 0).
"""

from __future__ import annotations

import io

import pytest

from repro.__main__ import main
from repro.core.database import LazyXMLDatabase
from repro.errors import (
    PathSyntaxError,
    ProtocolError,
    QueryError,
    ResourceExhausted,
)
from repro.net.protocol import SessionState, execute_request
from repro.obs.trace import Trace
from repro.service.context import QueryContext
from repro.service.server import DatabaseService
from repro.service.shell import ServiceShell
from repro.twig import PathSummary, TwigQuery, parse_twig
from repro.twig.evaluate import evaluate_twig
from repro.twig.plan import PLAN_RECORDER, plan_twig

DOC = (
    "<r>"
    "<a><b>x</b><c/></a>"
    "<a><c/><b>y</b></a>"
    "<d><a><b>z</b></a></d>"
    "<a><c/></a>"
    "</r>"
)


def make_db(text=DOC, *, mode="dynamic"):
    db = LazyXMLDatabase(mode=mode)
    db.insert(text)
    db.prepare_for_query()
    return db


def spans(db, records):
    return sorted(db.global_span(r) for r in records)


def decisions_since(before: dict, after: dict) -> dict:
    """Planner decisions per strategy between two recorder snapshots (the
    recorder is process-wide, so a test counts its own by difference)."""
    return {
        key: count - before["counts"].get(key, 0)
        for key, count in after["counts"].items()
    }


# ----------------------------------------------------------------------
# pattern grammar


class TestParser:
    def test_linear_chain(self):
        q = parse_twig("r//a/b")
        assert [n.tag for n in q.trunk] == ["r", "a", "b"]
        assert [n.axis for n in q.trunk] == ["descendant", "descendant", "child"]
        assert q.is_linear
        assert q.output is q.trunk[-1]
        assert str(q) == "r//a/b"

    def test_branch_structure(self):
        q = parse_twig("r/a[b//c]/d")
        assert [n.tag for n in q.trunk] == ["r", "a", "d"]
        a = q.trunk[1]
        assert len(a.branches) == 1
        b = a.branches[0]
        assert b.tag == "b" and b.axis == "child"
        assert b.branches[0].tag == "c" and b.branches[0].axis == "descendant"
        assert not q.is_linear
        assert str(q) == "r/a[b//c]/d"

    def test_branch_chain_folds_nested(self):
        # A chain inside a branch is existential: it folds into nested
        # single-branch nodes, all off the trunk.
        q = parse_twig("a[b/c/d]")
        b = q.trunk[0].branches[0]
        assert b.tag == "b"
        assert b.branches[0].tag == "c"
        assert b.branches[0].branches[0].tag == "d"
        assert q.trunk == (q.root,)

    def test_predicates(self):
        q = parse_twig('r/a/b[2][.="x"]')
        leaf = q.trunk[-1]
        assert leaf.position == 2
        assert leaf.value == "x"
        assert str(q) == 'r/a/b[2][.="x"]'

    def test_wildcard(self):
        q = parse_twig("r/*/b")
        assert q.trunk[1].is_wildcard
        assert q.tags() == {"r", "b"}
        assert q.is_linear

    def test_multiple_branches(self):
        q = parse_twig("a[b][c]/d")
        assert [n.tag for n in q.trunk[0].branches] == ["b", "c"]

    def test_parse_twig_passthrough(self):
        q = parse_twig("r//a")
        assert parse_twig(q) is q

    @pytest.mark.parametrize(
        "expr, token",
        [
            ("a[", "["),
            ("a[b", None),  # unexpected end, no single offending token
            ("a//", None),
            ("/a", "/"),
            ("", None),
            ("a[0]", "0"),
            ("a//b[2]", "[2]"),  # positional needs the child axis
            ("a[2][2]", "[2]"),  # positional on the descendant entry step
            ("following-sibling::b", "following-sibling::"),
        ],
    )
    def test_syntax_errors_are_typed(self, expr, token):
        with pytest.raises(PathSyntaxError) as exc_info:
            parse_twig(expr)
        err = exc_info.value
        assert isinstance(err, QueryError)
        if token is not None:
            assert err.token == token
            assert err.token in str(err)

    def test_error_position_points_at_offender(self):
        with pytest.raises(PathSyntaxError) as exc_info:
            parse_twig("ab[cd[")
        assert exc_info.value.position == 5


class TestParsePathErrors:
    """A path is parsed by the pattern grammar: typed, positioned errors."""

    @pytest.mark.parametrize(
        "expr, token, position",
        [
            ("following-sibling::b", "following-sibling::", 0),
            ("a/ancestor::b", "ancestor::", 2),
            ("/a", "/", 0),
        ],
    )
    def test_typed_with_token_and_position(self, expr, token, position):
        with pytest.raises(PathSyntaxError) as exc_info:
            parse_twig(expr)
        err = exc_info.value
        assert err.token == token
        assert err.position == position

    def test_empty_expression(self):
        with pytest.raises(PathSyntaxError):
            parse_twig("")

    def test_still_a_query_error(self):
        with pytest.raises(QueryError):
            parse_twig("a/b[")


# ----------------------------------------------------------------------
# path summary


class TestPathSummary:
    def test_totals(self):
        db = make_db()
        summary = PathSummary(db.log, db.index)
        assert summary.total("a") == 4
        assert summary.total("nosuch") == 0
        assert summary.total("*") == db.element_count

    def test_segment_sids(self):
        db = make_db()
        summary = PathSummary(db.log, db.index)
        sids = summary.segment_sids("a")
        assert sids  # at least the seed segment
        assert summary.segment_sids("nosuch") == frozenset()
        assert summary.segment_sids("*") == frozenset()


# ----------------------------------------------------------------------
# planner


class TestPlanner:
    def test_impossible_edge_marks_plan_empty(self):
        db = LazyXMLDatabase()
        db.insert("<x><y/></x>")
        db.insert("<p><q/></p>")
        db.prepare_for_query()
        summary = PathSummary(db.log, db.index)
        assert plan_twig(parse_twig("x//nosuch"), summary).empty
        assert plan_twig(parse_twig("nosuch[y]"), summary).empty
        assert not plan_twig(parse_twig("x//q"), summary).empty

    def test_recorder_counts_decisions(self):
        db = make_db()
        before = PLAN_RECORDER.snapshot()
        db.twig_query("r//a[b]")
        db.twig_query("r//nosuch[b]")
        counts = decisions_since(before, PLAN_RECORDER.snapshot())
        assert counts["pruned"] == 1
        assert sum(counts.values()) == 2
        assert PLAN_RECORDER.snapshot()["recent"][-1] == {
            "expr": "r//nosuch[b]", "strategy": "twig", "pruned": True
        }

    def test_a_memo_hit_formats_no_pattern(self, monkeypatch):
        """The decision log keeps the parsed pattern and formats it when
        read: a memo-hit ``path_query`` calls ``TwigQuery.__str__`` 0
        times, and the snapshot still names the pattern."""
        db = make_db()
        db.path_query("r//a[b]/c")  # cold: the memo is stored
        calls = []
        formatted = TwigQuery.__str__
        monkeypatch.setattr(
            TwigQuery, "__str__", lambda q: calls.append(q) or formatted(q)
        )
        db.path_query("r//a[b]/c")
        assert calls == []
        assert PLAN_RECORDER.snapshot()["recent"][-1] == {
            "expr": "r//a[b]/c", "strategy": "twig", "pruned": False
        }

    def test_auto_reads_the_memo(self):
        """Where a cost model would price pairwise far below holistic (a
        thousand ``a`` in segments holding no ``b``, one ``a[b]`` in its
        own segment), ``auto`` still answers from the twig memo."""
        db = LazyXMLDatabase()
        db.insert("<r>" + "<a/>" * 1000 + "</r>")
        db.insert("<a><b/></a>")
        db.prepare_for_query()
        before = PLAN_RECORDER.snapshot()
        context = QueryContext(trace=Trace())
        got = db.twig_query("a[b]", context=context)
        (span,) = [s for s in context.trace.spans if s.name == "twig_query"]
        assert span.attrs["strategy"] == "twig"
        assert span.attrs["memo"] == "cold"
        counts = decisions_since(before, PLAN_RECORDER.snapshot())
        assert (counts["twig"], counts["pairwise"]) == (1, 0)
        assert got == db.twig_query("a[b]", strategy="pairwise")
        assert len(got) == 1

    def test_prune_compiles_zero_columns(self):
        """Acceptance: a twig naming an absent tag answers [] off the tag
        totals alone."""
        db = LazyXMLDatabase()
        db.insert("<x><y/></x>")
        db.insert("<p><q/></p>")
        db.prepare_for_query()
        before = db.readpath.stats()
        assert db.twig_query("x//nosuch[y]") == []
        assert db.twig_query("x[nosuch]//y", strategy="pairwise") == []
        after = db.readpath.stats()
        assert after["misses"] == before["misses"]
        assert after["entries"] == before["entries"]


# ----------------------------------------------------------------------
# evaluation


class TestEvaluate:
    def test_plain_chain_matches_path_query(self):
        db = make_db()
        for expr in ("r//b", "r/a/b", "r//a/c", "d//b"):
            want = spans(db, db.path_query(expr))
            for strategy in ("auto", "twig", "pairwise"):
                got = spans(db, db.twig_query(expr, strategy=strategy))
                assert got == want, (expr, strategy)

    def test_branch_filters_trunk(self):
        db = make_db()
        # a-elements that have a b child: the first three <a>s (not the
        # last, which only holds <c/>); output their c children.
        got = spans(db, db.twig_query("r//a[b]/c", strategy="twig"))
        want = spans(db, db.twig_query("r//a[b]/c", strategy="pairwise"))
        assert got == want
        all_c = spans(db, db.path_query("r//a/c"))
        assert set(got) < set(all_c)

    def test_nested_branch(self):
        db = make_db()
        got = spans(db, db.twig_query("r/d[a/b]", strategy="twig"))
        want = spans(db, db.twig_query("r/d[a/b]", strategy="pairwise"))
        assert got == want
        assert len(got) == 1

    def test_branch_is_existential_not_output(self):
        db = make_db()
        result = db.twig_query("r//a[b]")
        # Output elements are the a's themselves, one per qualifying a —
        # the branch b is a filter, never part of the answer.
        a_spans = spans(db, db.path_query("r//a"))
        assert spans(db, result) == sorted(set(spans(db, result)) & set(a_spans))
        assert len(result) == 3

    def test_value_predicate(self):
        db = make_db()
        got = spans(db, db.twig_query('r//b[.="y"]', strategy="twig"))
        assert len(got) == 1
        assert spans(db, db.twig_query('r//b[.="y"]', strategy="pairwise")) == got
        assert db.twig_query('r//b[.="missing"]') == []

    def test_positional_predicate(self):
        db = LazyXMLDatabase()
        db.insert("<r><a><b>1</b><b>2</b><b>3</b></a><a><b>4</b></a></r>")
        db.prepare_for_query()
        second = spans(db, db.twig_query("r/a/b[2]", strategy="twig"))
        assert len(second) == 1
        assert spans(db, db.twig_query("r/a/b[2]", strategy="pairwise")) == second
        first = spans(db, db.twig_query("r/a/b[1]"))
        assert len(first) == 2  # both a's have a first b

    def test_wildcard_step(self):
        db = make_db()
        got = spans(db, db.twig_query("r/*/b", strategy="twig"))
        want = spans(db, db.twig_query("r/*/b", strategy="pairwise"))
        assert got == want
        # b's under a (child of r) — not the one nested under d/a.
        assert got == spans(db, db.path_query("r/a/b"))

    def test_bindings_chains(self):
        db = make_db()
        chains = db.twig_query("r//a/b", bindings=True)
        assert chains
        for chain in chains:
            assert len(chain) == 3
        twig = db.twig_query("r//a/b", bindings=True, strategy="twig")
        pairwise = db.twig_query("r//a/b", bindings=True, strategy="pairwise")
        key = lambda ch: tuple((r.sid, r.start, r.end, r.level) for r in ch)
        assert [key(c) for c in twig] == [key(c) for c in pairwise]

    def test_requires_query_ready(self):
        db = LazyXMLDatabase(mode="static")
        db.insert(DOC)
        with pytest.raises(QueryError, match="query-ready"):
            db.twig_query("r//a")

    def test_bad_strategy_rejected(self):
        db = make_db()
        with pytest.raises(QueryError):
            db.twig_query("r//a", strategy="bogus")

    def test_row_budget_enforced(self):
        db = make_db()
        ctx = QueryContext(max_result_rows=1)
        with pytest.raises(ResourceExhausted):
            db.twig_query("r//a[b]/c", context=ctx)

    def test_results_survive_interleaved_update(self):
        db = make_db()
        cold = spans(db, db.twig_query("r//a[b]/c"))
        warm = spans(db, db.twig_query("r//a[b]/c"))
        assert warm == cold
        db.insert("<a><b>q</b><c/></a>", db.document_length - len("</r>"))
        updated = spans(db, db.twig_query("r//a[b]/c", strategy="twig"))
        check = spans(db, db.twig_query("r//a[b]/c", strategy="pairwise"))
        assert updated == check
        assert len(updated) == len(cold) + 1


# ----------------------------------------------------------------------
# service / protocol / shell / CLI surfaces


def service_db():
    db = make_db()
    return DatabaseService(db)


class TestServiceSurface:
    def test_twig_and_trace(self):
        with service_db() as svc:
            result = svc.twig("r//a[b]/c")
            assert len(result) == 2
            reply = execute_request(
                svc, SessionState(1),
                {"cmd": "twig", "expr": "r//a[b]/c", "trace": True},
            )
            assert reply["count"] == len(result)
            trace_spans = reply["trace"]
            twig_span = next(s for s in trace_spans if s["name"] == "twig_query")
            assert twig_span["attrs"]["strategy"] == "twig"
            assert twig_span["attrs"]["memo"] in ("hit", "refresh", "cold")

    def test_stats_exposes_planner(self):
        with service_db() as svc:
            before = PLAN_RECORDER.snapshot()
            svc.twig("r//a[b]")
            counts = decisions_since(before, svc.stats()["planner"])
            assert (counts["twig"], counts["pairwise"]) == (1, 0)

    def test_protocol_verb(self):
        with service_db() as svc:
            session = SessionState(1)
            out = execute_request(
                svc, session, {"cmd": "twig", "expr": "r//a[b]/c"}
            )
            assert out["count"] == 2
            assert len(out["spans"]) == 2
            assert not out["truncated"]

    def test_protocol_strategy_and_limit(self):
        """``strategy`` is not a wire field: a request that still carries
        one gets the reply of the same request without it."""
        with service_db() as svc:
            session = SessionState(1)
            request = {"cmd": "twig", "expr": "r//a", "limit": 1}
            out = execute_request(
                svc, session, {**request, "strategy": "pairwise"}
            )
            assert out["count"] == 4
            assert len(out["spans"]) == 1
            assert out["truncated"]
            assert out == execute_request(svc, session, request)

    def test_protocol_rejects_bad_fields(self):
        with service_db() as svc:
            session = SessionState(1)
            with pytest.raises(ProtocolError):
                execute_request(svc, session, {"cmd": "twig"})
            with pytest.raises(ProtocolError):
                execute_request(
                    svc, session, {"cmd": "twig", "expr": "r//a", "limit": 7.5},
                )

    def test_shell_twig(self):
        out = io.StringIO()
        with service_db() as svc:
            shell = ServiceShell(svc, io.StringIO(), out)
            assert shell.handle("twig r//a[b]/c")
            assert shell.handle("trace twig r//a[b]/c")
            assert shell.handle("twig r//a[")
        text = out.getvalue()
        assert "ok 2 match(es)" in text
        assert "twig_query" in text
        assert "PathSyntaxError" in text


class TestShardedSurface:
    def test_sharded_matches_single(self):
        from repro.shard import ShardedDatabase

        sharded = ShardedDatabase(2)
        single = LazyXMLDatabase()
        docs = [DOC, "<r><a><b>w</b></a></r>"]
        for doc in docs:
            sharded.insert(doc)
            single.insert(doc)
        single.prepare_for_query()
        got = sorted(
            (r.gstart, r.gend) for r in sharded.twig_query("r//a[b]/c")
        )
        want = spans(single, single.twig_query("r//a[b]/c"))
        assert got == want

    def test_sharded_prunes_absent_tags(self):
        from repro.shard import ShardedDatabase

        sharded = ShardedDatabase(2)
        sharded.insert(DOC)
        assert sharded.twig_query("r//nosuch[b]") == []


class TestCLISurface:
    @pytest.fixture()
    def db_path(self, tmp_path):
        doc = tmp_path / "doc.xml"
        doc.write_text(DOC)
        path = tmp_path / "doc.db"
        assert main(["load", str(doc), "--db", str(path)]) == 0
        return path

    def test_query_twig(self, db_path, capsys):
        capsys.readouterr()
        assert main(["twig", str(db_path), "r//a[b]/c"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "ok 2 match(es)" and len(lines) == 3

    def test_query_twig_strategy_and_count(self, db_path, capsys):
        """``--strategy`` is no option (a usage error, exit 2); ``--limit 0``
        prints the count alone."""
        with pytest.raises(SystemExit) as usage:
            main(["twig", str(db_path), "r//a[b]/c", "--strategy", "pairwise"])
        assert usage.value.code == 2
        capsys.readouterr()
        assert main(["twig", str(db_path), "r//a[b]/c", "--limit", "0"]) == 0
        assert capsys.readouterr().out.strip() == "ok 2 match(es)"

    def test_query_twig_syntax_error(self, db_path, capsys):
        assert main(["twig", str(db_path), "r/a["]) == 1
        assert "error:" in capsys.readouterr().err
