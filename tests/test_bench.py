"""Tests for the benchmark harness and tiny-scale experiment runs."""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.builders import build_uniform_segments, insert_under, parent_plan
from repro.bench.experiments import (
    FIGURES,
    ablation_repack,
    fig11_log_size,
    fig14_cardinalities,
    fig16_insert,
    spine_document,
    xmark_databases,
)
from repro.bench.harness import Sweep, Table, measure, measure_cold_join
from repro.core.database import LazyXMLDatabase
from repro.errors import UpdateError
from repro.workloads.xmark import XMARK_QUERIES
from repro.xml.parser import parse
from tests.helpers import merge_join_records


class TestMeasure:
    def test_returns_positive_seconds(self):
        elapsed = measure(lambda: sum(range(1000)), repeat=2)
        assert elapsed > 0

    def test_picks_minimum(self):
        calls = []

        def fn():
            calls.append(1)

        measure(fn, repeat=4)
        assert len(calls) == 4

    def test_cold_join_drops_compiled_state_before_every_repetition(self):
        db = LazyXMLDatabase()
        db.insert("<a><d/><d/></a>")
        compiled_at_entry = []

        def join():
            compiled_at_entry.append(db.readpath.stats()["entries"]["join_results"])
            return db.structural_join("a", "d")

        elapsed, pairs = measure_cold_join(db, join, repeat=3)
        assert elapsed > 0 and pairs == 2
        assert compiled_at_entry == [0, 0, 0]


class TestTable:
    def test_row_shape_enforced(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_format_contains_data(self):
        table = Table("demo", ["n", "ms"])
        table.add_row([10, 1.5])
        table.add_row([20, 2.25])
        out = table.format()
        assert "demo" in out and "1.5" in out and "20" in out

    def test_format_markdown(self):
        table = Table("demo", ["n", "ms"])
        table.add_row([10, 1.5])
        md = table.format_markdown()
        assert md.startswith("| n | ms |")
        assert "| 10 | 1.5 |" in md

    def test_float_formatting(self):
        table = Table("t", ["x"])
        table.add_row([0.000123456789])
        assert "0.000123457" in table.format()


class TestSweep:
    def test_add_and_table(self):
        sweep = Sweep("n")
        sweep.add(1, a=1.0, b=2.0)
        sweep.add(2, a=3.0, b=4.0)
        table = sweep.to_table("t")
        assert table.headers == ["n", "a", "b"]
        assert table.rows == [[1, 1.0, 2.0], [2, 3.0, 4.0]]


class TestBuilders:
    def test_parent_plan_shapes(self):
        assert parent_plan(4, "nested") == [-1, 0, 1, 2]
        assert parent_plan(4, "flat") == [-1, 0, 0, 0]
        assert parent_plan(5, "balanced", branching=2) == [-1, 0, 0, 1, 1]

    def test_parent_plan_bad_shape(self):
        with pytest.raises(UpdateError):
            parent_plan(3, "möbius")

    def test_build_uniform_segments_counts(self):
        db = LazyXMLDatabase(keep_text=False)
        sids = build_uniform_segments(
            db, 10, "balanced", elements_per_segment=16, n_tags=4
        )
        assert len(sids) == 10
        assert db.segment_count == 10
        assert db.element_count == 160
        db.check_invariants()

    def test_build_uniform_segments_nested_depth(self):
        db = LazyXMLDatabase(keep_text=False)
        sids = build_uniform_segments(db, 6, "nested", n_tags=4, elements_per_segment=8)
        node = db.log.node(sids[-1])
        assert node.depth == 6  # chain under the dummy root

    def test_build_requires_enough_elements(self):
        db = LazyXMLDatabase(keep_text=False)
        with pytest.raises(UpdateError):
            build_uniform_segments(db, 3, "flat", elements_per_segment=2, n_tags=8)

    def test_insert_under_nests(self):
        db = LazyXMLDatabase()
        root_sid = db.insert("<t0><x/></t0>").sid
        receipt = insert_under(db, root_sid, "<t0><y/></t0>", "t0")
        assert receipt.parent_sid == root_sid
        assert db.text == "<t0><x/><t0><y/></t0></t0>"


#: Parameters small enough for tier-1; one entry per registry id.
TINY = {
    "fig11a": {"segment_counts": (5, 10)},
    "fig11b": {"segment_counts": (5, 10), "repeat": 1},
    "fig12": {"segment_counts": (8,), "fractions": (0.0, 1.0), "repeat": 3},
    "fig13": {"segment_counts": (4, 8), "depth": 20, "repeat": 3},
    "fig14": {"scale": 0.005, "n_segments": 8},
    "fig15": {"scale": 0.005, "n_segments": 8, "repeat": 3},
    "twig": {"scale": 0.005, "n_segments": 8, "repeat": 1},
    "fig16": {"doc_segment_counts": (4, 8), "repeat": 1},
    "fig16-ingest": {"n_ops": 8, "batch": 4, "repeat": 1},
    "fig17": {
        "element_counts": (5,),
        "tag_counts": (2,),
        "segment_counts": (5,),
        "n_segments": 5,
        "prime_base_nodes": 30,
        "prime_groups": (5,),
        "repeat": 1,
    },
    "ablation-repack": {"n_segments": 8, "repeat": 1},
    "overload": {
        "rates": (50.0,),
        "duration": 0.2,
        "ceiling_duration": 0.1,
        "conns": 4,
        "docs": 5,
    },
}


class TestExperimentsSmoke:
    """Every registry entry runs at tiny scale and returns sane tables."""

    @pytest.mark.parametrize("fid", FIGURES)
    def test_figure(self, fid, monkeypatch):
        figure = FIGURES[fid]
        assert figure.quick, "no quick parameter set"
        assert callable(figure.shape), "no shape predicate"
        # Every LD/LS timing is a cold join: each repetition does the
        # first one's read-path work (a plain best-of-three would answer
        # repetitions two and three from the join memo).
        lookups = []

        def checked_cold_join(db, join, *, repeat=3):
            work = []

            def counted():
                before = db.readpath.stats()
                answer = join()
                after = db.readpath.stats()
                work.append(tuple(after[k] - before[k] for k in ("hits", "misses")))
                return answer

            result = measure_cold_join(db, counted, repeat=repeat)
            lookups.append(work)
            return result

        monkeypatch.setattr(experiments, "measure_cold_join", checked_cold_join)
        tables = figure.run(**TINY[fid])
        assert tables
        for table in tables:
            assert table.rows, table.title
            assert set(figure.columns) <= set(table.headers), table.title
            if "pairs" in table.headers:
                # A joining figure raises when LD, LS and STD disagree on
                # a pair count, so getting here means they agreed.
                assert all(n > 0 for n in table.column("pairs")), table.title
        for work in lookups:
            assert len(set(work)) == 1, work

    def test_tiny_covers_the_registry(self):
        assert set(TINY) == set(FIGURES)

    def test_cross_percentage_is_realized(self):
        nested, _balanced = FIGURES["fig12"].run(**TINY["fig12"])
        assert nested.column("target_cross_pct") == [0, 100]
        assert nested.column("actual_cross_pct") == [0, 100.0]

    def test_spine_document(self):
        doc = parse(spine_document(10, bushiness=2))
        t0_levels = [e.level for e in doc.elements if e.tag == "t0"]
        assert max(t0_levels) == 10


class TestDeterministicShapes:
    """The figures' claims that are counts, not timings, at tiny scale."""

    def test_nested_taglist_outgrows_balanced(self):
        balanced, nested = fig11_log_size(segment_counts=(60,))
        assert nested.column("taglist_kb")[0] > 2 * balanced.column("taglist_kb")[0]
        FIGURES["fig11a"].shape([balanced, nested])

    def test_nested_growth_is_superlinear(self):
        (nested,) = fig11_log_size(segment_counts=(40, 80), shapes=("nested",))
        at_40, at_80 = nested.column("taglist_kb")
        # O(T N^2): doubling N should much more than double the tag-list.
        assert at_80 > 3 * at_40

    def test_fig14_cardinality_ordering(self):
        # person//watch ⊇ watches//watch, person//interest ⊇ profile//interest
        FIGURES["fig14"].shape(fig14_cardinalities(scale=0.01, n_segments=20))

    def test_all_algorithms_agree_on_cardinalities(self):
        ld, ls = xmark_databases(0.01, 20)
        for _, tag_a, tag_d in XMARK_QUERIES:
            lazy = len(ld.structural_join(tag_a, tag_d))
            assert lazy == len(ld.structural_join(tag_a, tag_d, algorithm="std"))
            assert lazy == len(merge_join_records(ld, tag_a, tag_d))
            assert lazy == len(ls.structural_join(tag_a, tag_d))

    def test_relabeling_touches_about_half_the_labels(self):
        (table,) = fig16_insert(doc_segment_counts=(40,), repeat=1)
        assert 30 < table.column("relabelled_pct")[0] < 80

    def test_compaction_preserves_results(self):
        (table,) = ablation_repack(n_segments=20, repeat=1)
        before, after = table.column("pairs")
        assert before == after > 0

    def test_compaction_shrinks_the_log(self):
        (table,) = ablation_repack(n_segments=20, repeat=1)
        assert table.column("log_kb")[1] < table.column("log_kb")[0]
        assert table.column("segments")[1] < table.column("segments")[0]
