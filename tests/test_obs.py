"""Unit tests for the observability layer (``repro.obs``).

Covers the two instrument types, the registry contract (get-or-create,
kill switch, reset-in-place, loud reads of unknown names), the trace-span
API, and the wiring: the process-wide ``METRICS`` registry must actually
move when the query paths do work and must stay silent when disabled.
"""

from __future__ import annotations

import pytest

from repro.core.database import LazyXMLDatabase
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    METRICS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Trace


@pytest.fixture
def reg():
    return MetricsRegistry()


@pytest.fixture
def _metrics_on():
    """Force the process registry on for a test, restoring the prior state."""
    before = METRICS.enabled
    METRICS.enable()
    yield
    METRICS.enabled = before


@pytest.fixture
def _metrics_off():
    before = METRICS.enabled
    METRICS.disable()
    yield
    METRICS.enabled = before


# ---------------------------------------------------------------------------
# instruments


class TestInstruments:
    def test_counter_increments(self, reg):
        c = reg.counter("c", unit="events", site="here")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert c._snapshot() == {"type": "counter", "unit": "events", "value": 4}

    def test_histogram_bucket_placement(self, reg):
        h = reg.histogram("h", boundaries=(1, 4, 16))
        for v in (0, 1, 2, 5, 100):
            h.observe(v)
        snap = h._snapshot()
        # bucket i counts values v with boundaries[i-1] < v <= boundaries[i];
        # the implementation uses bisect_right, so a value equal to an edge
        # lands in the *next* bucket and the last slot is overflow.
        assert snap["buckets"]["le"] == [1, 4, 16]
        assert snap["buckets"]["counts"] == [1, 2, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == 108
        assert snap["max"] == 100
        assert snap["mean"] == pytest.approx(108 / 5)

    def test_histogram_mean_empty_is_zero(self, reg):
        h = reg.histogram("h")
        assert h.mean == 0.0
        assert h.boundaries == LATENCY_BUCKETS  # the default buckets

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", "u", "s", boundaries=())
        with pytest.raises(ValueError):
            Histogram("h", "u", "s", boundaries=(4, 1))

    def test_histogram_timer_observes_elapsed(self, reg):
        h = reg.histogram("h.seconds", boundaries=LATENCY_BUCKETS)
        with h.time():
            pass
        assert h.count == 1
        assert 0 <= h.vmax < 1.0


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_get_or_create_is_idempotent(self, reg):
        a = reg.counter("same.name")
        b = reg.counter("same.name")
        assert a is b
        assert len(reg) == 1

    def test_type_mismatch_raises(self, reg):
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_enable_disable(self, reg):
        assert reg.enabled is False or reg.enabled is True
        reg.disable()
        assert not reg.enabled
        reg.enable()
        assert reg.enabled

    def test_reset_zeroes_in_place(self, reg):
        c = reg.counter("c")
        h = reg.histogram("h", boundaries=(1, 2))
        c.inc(5)
        h.observe(1.5)
        reg.reset()
        # Cached handles stay valid: same objects, zeroed values.
        assert reg.get("c") is c
        assert c.value == 0
        assert h.count == 0 and h.total == 0.0 and h.vmax == 0.0
        assert all(n == 0 for n in h.counts)

    def test_value_shortcut(self, reg):
        reg.counter("c").inc(9)
        reg.histogram("h")
        assert reg.value("c") == 9
        # A reader of a renamed or deleted instrument fails loudly instead
        # of reading a fresh zero.
        with pytest.raises(KeyError):
            reg.value("missing")
        with pytest.raises(TypeError):
            reg.value("h")  # histograms have no scalar

    def test_snapshot_and_catalogue_sorted(self, reg):
        reg.counter("b.count", unit="events", site="site-b")
        reg.histogram("a.seconds", unit="seconds", site="site-a")
        snap = reg.snapshot()
        assert list(snap) == ["a.seconds", "b.count"]
        cat = reg.catalogue()
        assert cat == [
            {"name": "a.seconds", "type": "histogram", "unit": "seconds",
             "site": "site-a"},
            {"name": "b.count", "type": "counter", "unit": "events", "site": "site-b"},
        ]

    def test_process_registry_is_populated(self):
        # The instrumented modules register their instruments at import.
        names = {entry["name"] for entry in METRICS.catalogue()}
        assert names >= {
            "index.reads",
            "join.lazy.calls",
            "join.lazy.pairs",
            "join.lazy.seconds",
            "join.stacktree.calls",
            "query.path.calls",
        }


# ---------------------------------------------------------------------------
# traces


class TestTrace:
    def test_nested_spans_depth_and_completion_order(self):
        trace = Trace()
        with trace.span("outer", kind="query"):
            with trace.span("inner"):
                pass
        dicts = trace.as_dicts()
        # Completion order: the inner span closes first.
        assert [d["name"] for d in dicts] == ["inner", "outer"]
        assert [d["depth"] for d in dicts] == [1, 0]
        assert dicts[1]["attrs"] == {"kind": "query"}
        assert len(trace) == 2

    def test_annotate_merges_attrs(self):
        trace = Trace()
        with trace.span("join", a="person") as span:
            span.annotate(pairs=12, cross_pairs=4)
        (d,) = trace.as_dicts()
        assert d["attrs"] == {"a": "person", "pairs": 12, "cross_pairs": 4}

    def test_span_timing_fields(self):
        trace = Trace()
        with trace.span("s"):
            pass
        (d,) = trace.as_dicts()
        assert d["start_ms"] >= 0
        assert d["dur_ms"] >= 0


# ---------------------------------------------------------------------------
# wiring: the registry moves when the structures do work


FRAGMENT = "<a><b><c>x</c></b><b><c>y</c></b></a>"


class TestWiring:
    def test_join_counters_move_on_query(self, _metrics_on):
        db = LazyXMLDatabase()
        db.insert(FRAGMENT)
        calls_before = METRICS.value("join.lazy.calls")
        pairs_before = METRICS.value("join.lazy.pairs")
        pairs = db.structural_join("a", "c")
        assert len(pairs) == 2
        assert METRICS.value("join.lazy.calls") == calls_before + 1
        assert METRICS.value("join.lazy.pairs") == pairs_before + 2

    def test_kill_switch_suppresses_everything(self, _metrics_off):
        before = {
            name: METRICS.value(name)
            for name in (
                "index.reads",
                "join.lazy.calls",
                "join.lazy.pairs",
                "query.path.calls",
            )
        }
        seconds_before = METRICS.get("join.lazy.seconds").count
        db = LazyXMLDatabase()
        db.insert(FRAGMENT)
        db.structural_join("a", "c")
        db.path_query("a/b/c")
        for name, value in before.items():
            assert METRICS.value(name) == value, name
        assert METRICS.get("join.lazy.seconds").count == seconds_before
