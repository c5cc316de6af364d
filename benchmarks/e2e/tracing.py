"""The traced run: spans, the surface ladders, the per-layer metrics.

End-to-end metrics always come from the untraced run.  This separate run
answers *where* a request's time goes, three ways:

1. **Spans.**  :class:`Tracer` wraps the public callables
   :func:`surfaces.trace_points` names.  A span is ``[name, start, end,
   parent span, operation index, size]``; every timed operation of the
   schedule is a root span, so the operation index is the identifier its
   spans share.  Spans stay in memory and are written to
   ``out/trace-<workload>.json`` at the end.  Self time is a span's duration
   minus the part its child spans cover.
2. **Counts** from the system's public statistics, read before and after
   a replay.
3. **Surface ladders.**  Server and worker processes cannot be wrapped from
   outside, so the cost of the ``durability``, ``service``, ``net`` and
   ``shard`` layers is measured as a difference: the same schedule is
   replayed on identical state through each adjacent surface (bare ->
   durable; bare -> ``DatabaseService`` -> ``execute_request`` -> TCP; bare
   -> sharded in process -> sharded worker processes) and a layer's cost is
   the difference of the two medians (scaled to the reference machine speed
   like the end-to-end metrics; span times are wall-clock).

The workload's own surface also plays a quarter of its measured rounds
twice, spans off and spans on; the ratio of the two rates is
``obs.trace_overhead_ratio``.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import corpus
import surfaces
import workloads
from oracle import Oracle

__all__ = ["PER_LAYER", "Tracer", "installed", "traced_run"]

#: name -> unit, in reporting order.  "Better" is in BENCHMARK.json.
PER_LAYER = {
    "xml.parse_ms_per_update": "ms",
    "xml.parse_calls_per_remove": "count",
    "xml.parsed_bytes_per_input_byte": "ratio",
    "btree.insert_us_per_key": "us",
    "btree.range_us_per_key": "us",
    "core.insert_self_ms": "ms",
    "core.remove_self_ms": "ms",
    "core.bulk_ingest_elements_per_s": "1/s",
    "core.join_cold_ms": "ms",
    "core.path_query_cold_ms": "ms",
    "core.join_warm_us": "us",
    "core.readpath_hit_ratio": "ratio",
    "core.readpath_invalidations_per_update": "count",
    "core.readpath_bytes": "bytes",
    "core.log_bytes_per_input_byte": "ratio",
    "joins.kernel_ms_per_cold_join": "ms",
    "joins.pairs_per_cold_join": "count",
    "joins.skip_ratio": "ratio",
    "twig.parse_us": "us",
    "twig.plan_us": "us",
    "twig.evaluate_ms": "ms",
    "twig.holistic_share": "ratio",
    "twig.pruned_share": "ratio",
    "twig.summary_rebuilds_per_update": "count",
    "twig.regret_ratio": "ratio",
    "durability.commit_ms": "ms",
    "durability.fsyncs_per_op": "count",
    "durability.wal_bytes_per_input_byte": "ratio",
    "durability.checkpoint_bytes": "bytes",
    "durability.checkpoint_s": "s",
    "durability.recover_s": "s",
    "durability.recover_records_per_s": "1/s",
    "service.read_overhead_ms": "ms",
    "service.write_overhead_ms": "ms",
    "service.remove_overhead_ms": "ms",
    "service.epoch_publishes_per_write": "count",
    "service.shed_share": "ratio",
    "net.ping_rtt_ms": "ms",
    "net.wire_overhead_ms": "ms",
    "net.protocol_overhead_ms": "ms",
    "net.frame_codec_us": "us",
    "net.payload_codec_us": "us",
    "net.bytes_per_request": "bytes",
    "net.shed_share": "ratio",
    "shard.scatter_merge_ms": "ms",
    "shard.executor_hop_ms": "ms",
    "shard.scatter_cache_hit_ratio": "ratio",
    "shard.rows_merged_per_query": "count",
    "shard.worker_respawns": "count",
    "obs.trace_overhead_ratio": "ratio",
}

#: The cold/warm probe of the bare rung: one join and one path per corpus.
_PROBE_QUERIES = {
    "xmark": (("person", "watch"), "person//profile/interest"),
    "registration": (("registration", "interest"), "registration/contact/address/city"),
}

_START_TAG = re.compile(r"<([A-Za-z_][\w.\-]*)")


# ----------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder; records only while ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._op = -1

    def begin(self, kind: str) -> None:
        """Open the root span of one timed operation."""
        if self.active:
            self._op += 1
            self._open("op." + kind, 0)

    def end(self) -> None:
        if self._stack:
            self._close()

    def _open(self, name: str, size: int) -> None:
        stack = self._stack
        self.spans.append([
            name, time.perf_counter(), 0.0,
            stack[-1] if stack else -1, self._op if stack else -1, size,
        ])
        stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name: str, function, sized: bool):
        """``function`` with a span around every call; ``sized`` records
        the length of the first argument (the text handed to the parser)."""

        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            self._open(name, len(args[0]) if sized else 0)
            try:
                return function(*args, **kwargs)
            finally:
                self._close()

        traced.__wrapped__ = function
        return traced

    def take(self) -> list[list]:
        """The spans recorded so far; recording starts afresh."""
        spans, self.spans = self.spans, []
        self._stack = []
        return spans


@contextmanager
def installed(tracer: Tracer):
    """Wrap the system's trace points (and ``os.fsync``) for the duration."""
    functions, methods = surfaces.trace_points()
    undo = []
    for name, function in functions.items():
        wrapper = tracer.wrap(name, function, sized=name == "xml.parse")
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, wrapper)
                    undo.append((module, attribute, function))
    for name, (owner, attribute) in methods.items():
        original = owner.__dict__[attribute]
        setattr(owner, attribute, tracer.wrap(name, original, sized=False))
        undo.append((owner, attribute, original))
    undo.append((os, "fsync", os.fsync))
    os.fsync = tracer.wrap("os.fsync", os.fsync, sized=False)
    try:
        yield tracer
    finally:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)


class SpanTable:
    """Per-operation aggregates of a span list."""

    def __init__(self, spans):
        self.spans = spans
        covered = [0.0] * len(spans)
        root = list(range(len(spans)))
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
                root[i] = root[parent]
        self.self_time = [
            end - start - covered[i] for i, (_, start, end, *_) in enumerate(spans)
        ]
        self.root = root

    def operations(self, kind: str) -> list[int]:
        name = "op." + kind
        return [
            i for i, span in enumerate(self.spans)
            if span[3] < 0 and span[0] == name
        ]

    def under(self, roots, name: str) -> list[int]:
        """Indices of the ``name`` spans caused by the given operations."""
        wanted = set(roots)
        return [
            i for i, span in enumerate(self.spans)
            if span[0] == name and self.root[i] in wanted
        ]

    def self_per_operation(self, roots, name: str) -> list[float]:
        """Summed self time of ``name`` spans, one value per operation."""
        total = dict.fromkeys(roots, 0.0)
        for i in self.under(roots, name):
            total[self.root[i]] += self.self_time[i]
        return list(total.values())

    def layer_shares(self) -> dict:
        """Share of all operation time spent, as self time, in each layer
        (the span name's prefix); ``unwrapped`` is the root spans' own."""
        by_layer: dict = {}
        total = 0.0
        for i, span in enumerate(self.spans):
            if self.spans[self.root[i]][0].startswith("op."):
                layer = "unwrapped" if span[3] < 0 else span[0].split(".")[0]
                by_layer[layer] = by_layer.get(layer, 0.0) + self.self_time[i]
                total += self.self_time[i]
        return {k: v / total for k, v in sorted(by_layer.items())} if total else {}


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# one rung of a ladder


class Rung:
    """One surface, loaded with the corpus, replaying the ladder schedule."""

    def __init__(self, surface, workload, tracer=None):
        self.surface = surface
        self.workload = workload
        self.player = workloads.Player(
            surface, workload, Oracle(workload.suite, workload.kind), tracer
        )
        self.rec = workloads.Recorder()
        self.load_s = 0.0

    def load(self) -> None:
        start = time.perf_counter()
        self.surface.load(self.workload.ingest)
        self.load_s = time.perf_counter() - start
        self.player.oracle.load(self.workload.ingest)

    def warm_up(self) -> None:
        self.player.play(self.workload.warmup, workloads.Recorder())

    def replay(self) -> None:
        self.player.play(self.workload.rounds, self.rec)

    def run(self, counters=None):
        """Load, warm up and replay; returns what ``counters()`` read just
        before and just after the replay."""
        self.load()
        self.warm_up()
        before = counters() if counters else None
        self.replay()
        return before, counters() if counters else None

    def summary(self) -> dict:
        rec = self.rec
        return {
            "query_ms": 1e3 * _median(rec.scaled("query")),
            "insert_ms": 1e3 * _median(rec.scaled("insert")),
            "remove_ms": 1e3 * _median(rec.scaled("remove")),
            "ops_per_s": _ratio(rec.attempted, rec.work_s),
            "attempted": rec.attempted,
            "failed": rec.failed,
            "load_s": self.load_s,
        }


def _update_bytes(rounds) -> tuple[int, int]:
    """(inserted fragment bytes, bytes of all updated fragments) of rounds."""
    inserted = touched = 0
    for steps in rounds:
        for step in steps:
            parts = step[1] if step[0] == "batch" else [step]
            for part in parts:
                if part[0] == "insert":
                    inserted += len(part[2])
                    touched += len(part[2])
                elif part[0] == "remove":
                    touched += part[3]
    return inserted, touched


def _bare_rung(workload, tracer, sizes, metrics, spans_out) -> Rung:
    rung = Rung(surfaces.embedded(), workload, tracer)
    surface = rung.surface
    rung.load()
    metrics["core.bulk_ingest_elements_per_s"] = _ratio(
        surface.footprint()["elements"], rung.load_s
    )
    rung.warm_up()
    before = surfaces.engine_counters(surface)
    tracer.active = True
    rung.replay()
    tracer.active = False
    after = surfaces.engine_counters(surface)
    table = SpanTable(tracer.take())
    spans_out["bare"] = table.spans
    inserts = table.operations("insert")
    removes = table.operations("remove")
    updates = inserts + removes + table.operations("batch")
    parses = table.under(updates, "xml.parse")
    _, touched = _update_bytes(workload.rounds)
    n_updates = len(rung.rec.insert) + len(rung.rec.remove) + sum(
        len(step[1]) for steps in workload.rounds for step in steps
        if step[0] == "batch"
    )
    metrics["xml.parse_ms_per_update"] = 1e3 * _ratio(
        sum(table.self_time[i] for i in parses), n_updates
    )
    metrics["xml.parse_calls_per_remove"] = _ratio(
        len(table.under(removes, "xml.parse")), len(removes)
    )
    metrics["xml.parsed_bytes_per_input_byte"] = _ratio(
        sum(table.spans[i][5] for i in parses), touched
    )
    metrics["core.insert_self_ms"] = 1e3 * _median(
        table.self_per_operation(inserts, "core.insert")
    )
    metrics["core.remove_self_ms"] = 1e3 * _median(
        table.self_per_operation(removes, "core.remove")
    )
    lookups = (after["readpath_hits"] - before["readpath_hits"]) + (
        after["readpath_misses"] - before["readpath_misses"]
    )
    metrics["core.readpath_hit_ratio"] = _ratio(
        after["readpath_hits"] - before["readpath_hits"], lookups
    )
    metrics["core.readpath_invalidations_per_update"] = _ratio(
        after["readpath_invalidations"] - before["readpath_invalidations"],
        n_updates,
    )
    metrics["core.readpath_bytes"] = after["readpath_bytes"]
    metrics["core.log_bytes_per_input_byte"] = _ratio(
        surface.footprint()["log_bytes"], len(rung.player.oracle.text)
    )
    rung.shares = table.layer_shares()
    _probe_cold_warm(rung, tracer, sizes, metrics, spans_out)
    _probe_twig(rung, tracer, sizes, metrics, spans_out)
    return rung


def _probe_fragment(rung: Rung) -> tuple[str, int]:
    """The update the probes make before each cold call (and undo after):
    one more small top-level document at the end of the super document."""
    fragment = rung.workload.ingest[0][0]
    if rung.workload.kind == "xmark":
        # A whole site document would dwarf an update: one person's worth.
        person = rung.workload.rounds[0][0][2]
        fragment = f"<site><people>{person}</people></site>"
    return fragment, len(rung.player.oracle.text)


def _probe_cold_warm(rung, tracer, sizes, metrics, spans_out) -> None:
    """First call after an update (cold), immediate repeat (warm)."""
    surface = rung.surface
    (tag_a, tag_d), path = _PROBE_QUERIES[rung.workload.kind]
    join = ("join", tag_a, tag_d)
    fragment, position = _probe_fragment(rung)
    cold, warm, path_cold, work = [], [], [], []
    tracer.active = True
    for _ in range(sizes["probe_repeats"]):
        handle = surface.insert(fragment, position)
        tracer.begin("join_cold")
        start = time.perf_counter()
        surface.query(join)
        cold.append(time.perf_counter() - start)
        tracer.end()
        start = time.perf_counter()
        surface.query(join)
        warm.append(time.perf_counter() - start)
        start = time.perf_counter()
        surface.query(("path", path))
        path_cold.append(time.perf_counter() - start)
        surface.remove(handle)
        work.append(surfaces.join_work(surface, tag_a, tag_d))
    tracer.active = False
    table = SpanTable(tracer.take())
    spans_out["cold_warm_probe"] = table.spans
    roots = table.operations("join_cold")
    metrics["core.join_cold_ms"] = 1e3 * _median(cold)
    metrics["core.join_warm_us"] = 1e6 * _median(warm)
    metrics["core.path_query_cold_ms"] = 1e3 * _median(path_cold)
    metrics["joins.kernel_ms_per_cold_join"] = 1e3 * _median(
        table.self_per_operation(roots, "joins.stack_tree_desc")
    )
    metrics["joins.pairs_per_cold_join"] = _ratio(
        sum(w["pairs"] for w in work), len(work)
    )
    metrics["joins.skip_ratio"] = _ratio(
        sum(w["skipped"] for w in work), sum(w["visited"] for w in work)
    )


def _probe_twig(rung, tracer, sizes, metrics, spans_out) -> None:
    """Every probe pattern after an update: the planner's choice, then
    both executors forced, for the regret ratio."""
    surface = rung.surface
    patterns = [q[1] for q in corpus.TWIG_PROBES[rung.workload.kind]]
    fragment, position = _probe_fragment(rung)
    times = {p: {"auto": [], "twig": [], "pairwise": []} for p in patterns}
    plans = dict.fromkeys(("plans_twig", "plans_pairwise", "plans_pruned"), 0)
    rebuilds = 0
    for _ in range(sizes["probe_repeats"]):
        before = surfaces.engine_counters(surface)
        handle = surface.insert(fragment, position)
        tracer.active = True
        for pattern in patterns:
            tracer.begin("twig_auto")
            start = time.perf_counter()
            surfaces.twig_with_strategy(surface, pattern, "auto")
            times[pattern]["auto"].append(time.perf_counter() - start)
            tracer.end()
        tracer.active = False
        # Read the planner's counts before the forced runs move them.
        after = surfaces.engine_counters(surface)
        for key in plans:
            plans[key] += after[key] - before[key]
        for pattern in patterns:
            for strategy in ("twig", "pairwise"):
                start = time.perf_counter()
                surfaces.twig_with_strategy(surface, pattern, strategy)
                times[pattern][strategy].append(time.perf_counter() - start)
        surface.remove(handle)
        rebuilds += (
            surfaces.engine_counters(surface)["summary_invalidations"]
            - before["summary_invalidations"]
        )
    table = SpanTable(tracer.take())
    spans_out["twig_probe"] = table.spans
    roots = table.operations("twig_auto")
    for metric, span, scale in (
        ("twig.parse_us", "twig.parse", 1e6),
        ("twig.plan_us", "twig.plan", 1e6),
        ("twig.evaluate_ms", "twig.evaluate", 1e3),
    ):
        metrics[metric] = scale * _median(
            [table.self_time[i] for i in table.under(roots, span)]
        )
    decided = sum(plans.values())
    metrics["twig.holistic_share"] = _ratio(plans["plans_twig"], decided)
    metrics["twig.pruned_share"] = _ratio(plans["plans_pruned"], decided)
    metrics["twig.summary_rebuilds_per_update"] = _ratio(
        rebuilds, 2 * sizes["probe_repeats"]
    )
    chosen = sum(_median(t["auto"]) for t in times.values())
    best = sum(min(_median(t["twig"]), _median(t["pairwise"])) for t in times.values())
    metrics["twig.regret_ratio"] = _ratio(chosen, best)


def _btree_probe(workload, metrics) -> None:
    """The corpus's element keys — (tag id, (segment, start offset)), in
    ingest order — into a fresh ``BPlusTree`` and back out."""
    tags: dict = {}
    keys = []
    for sid, (fragment, _) in enumerate(workload.ingest, 1):
        for match in _START_TAG.finditer(fragment):
            tid = tags.setdefault(match.group(1), len(tags))
            keys.append((tid, (sid, match.start())))
    insert_s, range_s = surfaces.btree_seconds(keys)
    metrics["btree.insert_us_per_key"] = 1e6 * insert_s
    metrics["btree.range_us_per_key"] = 1e6 * range_s


def _durable_rung(workload, tracer, workdir, metrics, spans_out) -> Rung:
    rung = Rung(surfaces.durable(Path(workdir) / "ladder-durable"), workload, tracer)
    surface = rung.surface
    rung.load()
    surface.checkpoint()
    rung.warm_up()  # journal records for recovery to replay
    start = time.perf_counter()
    surface.reopen()
    recover_s = time.perf_counter() - start
    metrics["durability.recover_s"] = recover_s
    metrics["durability.recover_records_per_s"] = _ratio(
        surfaces.recovery_replayed(surface), recover_s
    )
    journal_before = surface.footprint()["journal_bytes"]
    tracer.active = True
    rung.replay()
    tracer.active = False
    journal_after = surface.footprint()["journal_bytes"]
    table = SpanTable(tracer.take())
    spans_out["durable"] = table.spans
    inserts = table.operations("insert")
    writes = inserts + table.operations("remove") + table.operations("batch")
    metrics["durability.commit_ms"] = 1e3 * _median(
        table.self_per_operation(inserts, "durability.insert")
    )
    metrics["durability.fsyncs_per_op"] = _ratio(
        len(table.under(writes, "os.fsync")), len(writes)
    )
    inserted, _ = _update_bytes(workload.rounds)
    metrics["durability.wal_bytes_per_input_byte"] = _ratio(
        journal_after - journal_before, inserted
    )
    start = time.perf_counter()
    surface.checkpoint()
    metrics["durability.checkpoint_s"] = time.perf_counter() - start
    metrics["durability.checkpoint_bytes"] = surface.footprint()["checkpoint_bytes"]
    return rung


def _service_rungs(workload, workdir, sizes, bare, metrics, ladder) -> None:
    """bare -> DatabaseService -> execute_request -> TCP."""
    service = Rung(surfaces.Service(), workload)
    try:
        before, after = service.run(
            lambda: surfaces.service_counters(service.surface.stats())
        )
    finally:
        service.surface.close()
    if after["maintenance_runs"] != before["maintenance_runs"]:
        # Pressure-triggered compaction renumbers segments and changes what
        # a query costs: the rungs would no longer share one state.
        raise RuntimeError("the service compacted the ladder corpus; shrink it")
    ladder["service"] = s = service.summary()
    b = bare.summary()
    metrics["service.read_overhead_ms"] = s["query_ms"] - b["query_ms"]
    metrics["service.write_overhead_ms"] = s["insert_ms"] - b["insert_ms"]
    metrics["service.remove_overhead_ms"] = s["remove_ms"] - b["remove_ms"]
    metrics["service.epoch_publishes_per_write"] = _ratio(
        after["publishes"] - before["publishes"], after["writes"] - before["writes"]
    )
    attempts = (after["admitted"] - before["admitted"]) + (
        after["rejected"] - before["rejected"]
    )
    metrics["service.shed_share"] = _ratio(
        after["rejected"] - before["rejected"], attempts
    )

    surface = surfaces.Protocol()
    try:
        protocol = Rung(surface, workload)
        protocol.run()
        reply = surface.request(surfaces.request_for(workload.suite[-1]))
    finally:
        surface.close()
    ladder["protocol"] = p = protocol.summary()
    metrics["net.protocol_overhead_ms"] = p["query_ms"] - s["query_ms"]
    frame_s, payload_s = surfaces.codec_seconds(reply, sizes["codec_repeats"])
    metrics["net.frame_codec_us"] = 1e6 * frame_s
    metrics["net.payload_codec_us"] = 1e6 * payload_s

    surface = surfaces.Tcp(workdir)
    try:
        tcp = Rung(surface, workload)
        before, after = tcp.run(lambda: surfaces.service_counters(surface.stats()))
        wire_bytes = [
            surface.wire_bytes(surfaces.request_for(q)) for q in workload.suite
        ]
        pings = []
        for _ in range(sizes["pings"]):
            start = time.perf_counter()
            surface.request({"cmd": "ping"})
            pings.append(time.perf_counter() - start)
    finally:
        surface.close()
    ladder["tcp"] = t = tcp.summary()
    metrics["net.wire_overhead_ms"] = t["query_ms"] - p["query_ms"]
    metrics["net.ping_rtt_ms"] = 1e3 * _median(pings)
    metrics["net.bytes_per_request"] = _ratio(sum(wire_bytes), len(wire_bytes))
    requests = after["net_requests"] - before["net_requests"]
    metrics["net.shed_share"] = _ratio(
        after["net_sheds"] - before["net_sheds"],
        requests + after["net_sheds"] - before["net_sheds"],
    )


_SHARD_COUNTERS = (
    "shard.scatter.queries", "shard.scatter.cache_hits", "shard.worker_losses",
)


def _shard_rungs(workload, bare, metrics, ladder) -> None:
    """bare -> sharded in process -> sharded worker processes."""
    summaries = {}
    for executor in ("inprocess", "process"):
        surface = surfaces.sharded(executor)
        try:
            rung = Rung(surface, workload)
            before, after = rung.run(
                lambda: surfaces.registry_values(_SHARD_COUNTERS)
            )
        finally:
            surface.close()
        ladder[surface.name] = summaries[executor] = rung.summary()
    # `rung`, `before` and `after` are now the worker-process rung's.
    moved = {k: after[k] - before[k] for k in _SHARD_COUNTERS}
    b = bare.summary()
    metrics["shard.scatter_merge_ms"] = summaries["inprocess"]["query_ms"] - b["query_ms"]
    metrics["shard.executor_hop_ms"] = (
        summaries["process"]["query_ms"] - summaries["inprocess"]["query_ms"]
    )
    metrics["shard.scatter_cache_hit_ratio"] = _ratio(
        moved["shard.scatter.cache_hits"], moved["shard.scatter.queries"]
    )
    queries = len(rung.rec.passes) * len(workload.suite)
    metrics["shard.rows_merged_per_query"] = _ratio(rung.rec.rows, queries)
    metrics["shard.worker_respawns"] = moved["shard.worker_losses"]


# ----------------------------------------------------------------------
# the traced run


def traced_run(name: str, sizes: dict, seed: int, workdir) -> dict:
    """Both own-surface replays, the ladders and the probes of ``name``.

    Returns ``{"metrics", "attempted", "failed", "correct", "ladder",
    "shares", "own"}`` and writes ``trace-<name>.json`` next to ``workdir``.
    """
    workdir = Path(workdir)
    tracer = Tracer()
    metrics: dict = {}
    ladder: dict = {}
    spans: dict = {}
    run = workloads.WORKLOADS[name]
    quarter = dict(sizes, rounds=max(workloads.BLOCKS, sizes["rounds"] // 4))
    quarter["rounds"] -= quarter["rounds"] % workloads.BLOCKS
    ladder_sizes = dict(
        sizes,
        window=max(2, sizes.get("batch_pairs", 0)),
        warmup_rounds=0,
        rounds=sizes["ladder_rounds"],
    )
    workload = corpus.build(name, ladder_sizes, seed)
    with installed(tracer):
        (workdir / "plain").mkdir()
        plain = run(quarter, seed, workdir / "plain", floors=False)
        (workdir / "traced").mkdir()
        tracer.active = True
        traced = run(
            quarter, seed, workdir / "traced", tracer=tracer, floors=False
        )
        tracer.active = False
        spans["own_surface"] = tracer.take()
        metrics["obs.trace_overhead_ratio"] = _ratio(
            traced["metrics"]["ops_per_s"], plain["metrics"]["ops_per_s"]
        )
        bare = _bare_rung(workload, tracer, sizes, metrics, spans)
        ladder["bare"] = bare.summary()
        _btree_probe(workload, metrics)
        durable = _durable_rung(workload, tracer, workdir, metrics, spans)
        durable.surface.close()
        ladder["durable"] = durable.summary()
    (workdir / "ladder-tcp").mkdir()
    _service_rungs(workload, workdir / "ladder-tcp", sizes, bare, metrics, ladder)
    _shard_rungs(workload, bare, metrics, ladder)
    failed = plain["failed"] + traced["failed"] + sum(r["failed"] for r in ladder.values())
    attempted = (
        plain["attempted"] + traced["attempted"]
        + sum(r["attempted"] for r in ladder.values())
    )
    result = {
        "workload": name,
        "seed": seed,
        "metrics": {key: float(metrics[key]) for key in PER_LAYER},
        "attempted": attempted,
        "failed": failed,
        "correct": plain["correct"] and traced["correct"] and failed == 0,
        "problems": plain["problems"] + traced["problems"],
        "ladder": ladder,
        "shares": bare.shares,
        "own": {"plain": plain["metrics"], "traced": traced["metrics"]},
    }
    out = workdir.parent / f"trace-{name}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({**result, "span_fields":
                   ["name", "start", "end", "parent", "operation", "size"],
                   "spans": spans}, handle)
    result["trace_file"] = str(out)
    return result
