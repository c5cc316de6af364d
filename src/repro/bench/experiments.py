"""The paper's figures: one experiment function each, and their registry.

Each function builds its workload, measures, and returns the
:class:`~repro.bench.harness.Table` list it prints.  Sizes default to
laptop-friendly scales (the reproduced quantity is the *shape* of each
figure, not the 2005 testbed's absolute numbers); every knob is a parameter.
:data:`FIGURES` maps a figure id to its function, its ``--quick`` parameter
set (the full-scale run is the function at its defaults) and its shape
predicate; ``benchmarks/figures.py`` is the one command that runs it
(DESIGN.md §3).

Every LD/LS join timing goes through
:func:`~repro.bench.harness.measure_cold_join`, so a figure compares joins
over label schemes — Lazy-Join from dropped compiled state against
Stack-Tree-Desc deriving its global labels — not a result cache against a
join.  Both joins run with the cyclic collector paused
(``LazyXMLDatabase.structural_join`` and
:func:`~repro.joins.stack_tree.std_join`); timings are best-of-seven by
default against machine noise.
"""

from __future__ import annotations

import random
import tempfile
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

from repro.bench.builders import build_uniform_segments, insert_under
from repro.bench.harness import Sweep, Table, measure, measure_cold_join
from repro.bench.overload import overload
from repro.core.database import LazyXMLDatabase
from repro.core.join import JoinStatistics
from repro.core.update_log import UpdateLog
from repro.durability.database import DurableDatabase
from repro.errors import QueryError
from repro.joins.stack_tree import std_join
from repro.labeling.interval import IntervalLabelingIndex
from repro.labeling.prime import PrimeLabeling
from repro.storage import clone
from repro.twig.pattern import parse_twig
from repro.workloads.chopper import apply_chop, chop, chop_text
from repro.workloads.generator import generate_uniform_fragment, tag_pool
from repro.workloads.join_mix import (
    JoinMixConfig,
    build_join_mix,
    parent_plan,
    sweep_configs,
)
from repro.workloads.xmark import (
    XMARK_QUERIES,
    XMarkConfig,
    generate_person,
    generate_site,
)
from repro.xml.parser import parse, parse_flat
from repro.xml.serializer import Node

__all__ = [
    "FIGURES",
    "Figure",
    "fig11_log_size",
    "fig11_build_time",
    "fig12_cross_join",
    "fig13_segments",
    "fig14_cardinalities",
    "fig15_xmark_times",
    "twig_strategies",
    "fig16_insert",
    "fig16_batched_ingest",
    "fig17_element_insert",
    "ablation_repack",
    "spine_document",
    "xmark_databases",
]

_MS = 1e3


def _time_joins(ld, ls, tag_a: str, tag_d: str, repeat: int) -> dict[str, float]:
    """Cold LD, cold LS and STD times (ms) of one join, plus its pair count.

    LS (``ls`` may be ``None``) includes the deferred prepare step, as the
    paper's LS curve does: the tag-list sort, on lists shuffled before
    each repetition.  STD derives global labels on every call, so it
    has no compiled state to drop.  A figure whose algorithms return
    different answers is void, so the pair counts must agree.
    """
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    if ls is not None:
        rng = random.Random(0)

        def ls_query() -> Sequence:
            ls.log.taglist.unsort(rng)
            ls.prepare_for_query()
            return ls.structural_join(tag_a, tag_d)

        t_ls, counts["ls"] = measure_cold_join(ls, ls_query, repeat=repeat)
        times["ls_ms"] = t_ls * _MS
    t_ld, counts["ld"] = measure_cold_join(
        ld, lambda: ld.structural_join(tag_a, tag_d), repeat=repeat
    )
    times["ld_ms"] = t_ld * _MS
    counts["std"] = len(std_join(ld, tag_a, tag_d))
    times["std_ms"] = _MS * measure(
        lambda: std_join(ld, tag_a, tag_d), repeat=repeat
    )
    if len(set(counts.values())) != 1:
        raise QueryError(
            f"{tag_a}//{tag_d}: join algorithms disagree on pair counts: {counts}"
        )
    return {**times, "pairs": counts["ld"]}


# ----------------------------------------------------------------------
# Fig. 11 — update log size and build time


def _fig11_workload(shape, segment_counts, elements_per_segment, n_tags):
    """Insert the worst case (every segment contains every tag) once.

    Returns the raw ``(position, length, tag counts)`` op script and the
    log's size snapshot at each requested segment count.
    """
    tags = tag_pool(n_tags)
    fragment = generate_uniform_fragment(elements_per_segment, tags)
    db = LazyXMLDatabase()
    tag_counts = dict(
        Counter(db.log.tags.intern(e.tag) for e in parse_flat(fragment).elements)
    )
    ops: list[tuple[int, int, dict[int, int]]] = []
    sids: list[int] = []
    snapshots = {}
    for i, parent in enumerate(parent_plan(max(segment_counts), shape)):
        if parent < 0:
            position = db.document_length
        else:
            position = db.log.node(sids[parent]).end - (len(tags[0]) + 3)
        ops.append((position, len(fragment), tag_counts))
        sids.append(db.insert(fragment, position).sid)
        if i + 1 in segment_counts:
            snapshots[i + 1] = db.stats()
    return ops, snapshots


def fig11_log_size(
    segment_counts: tuple[int, ...] = (50, 100, 150, 200, 250, 300),
    shapes: tuple[str, ...] = ("balanced", "nested"),
    *,
    elements_per_segment: int = 24,
    n_tags: int = 8,
) -> list[Table]:
    """Fig. 11(a): update-log size (KB) vs #segments, one table per shape."""
    tables = []
    for shape in shapes:
        _, snapshots = _fig11_workload(
            shape, segment_counts, elements_per_segment, n_tags
        )
        table = Table(
            f"Fig 11(a) — update log size, {shape} ER-tree",
            ["segments", "sbtree_kb", "taglist_kb", "total_kb"],
        )
        for count in segment_counts:
            stats = snapshots[count]
            table.add_row([
                count,
                stats.sbtree_bytes / 1024,
                stats.taglist_bytes / 1024,
                stats.total_bytes / 1024,
            ])
        tables.append(table)
    return tables


def fig11_build_time(
    segment_counts: tuple[int, ...] = (50, 100, 150, 200, 250, 300),
    shapes: tuple[str, ...] = ("balanced", "nested"),
    *,
    elements_per_segment: int = 24,
    n_tags: int = 8,
    repeat: int = 7,
) -> list[Table]:
    """Fig. 11(b): time to build the update log vs #segments.

    Replays the recorded op script into a bare :class:`UpdateLog` — the
    pure log build cost, without parsing or element-index work.
    """
    tables = []
    for shape in shapes:
        ops, _ = _fig11_workload(shape, segment_counts, elements_per_segment, n_tags)

        def replay(count: int) -> None:
            log = UpdateLog()
            for position, length, counts in ops[:count]:
                log.insert_segment(position, length, counts)

        table = Table(
            f"Fig 11(b) — update log build time, {shape} ER-tree",
            ["segments", "build_ms"],
        )
        for count in segment_counts:
            build_s = measure(lambda c=count: replay(c), repeat=repeat)
            table.add_row([count, build_s * _MS])
        tables.append(table)
    return tables


# ----------------------------------------------------------------------
# Fig. 12 — join time vs cross-segment-join percentage


def fig12_cross_join(
    segment_counts: tuple[int, ...] = (50, 100),
    shapes: tuple[str, ...] = ("nested", "balanced"),
    fractions: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    *,
    repeat: int = 7,
) -> list[Table]:
    """Fig. 12: LS/LD/STD elapsed join time vs % of cross-segment joins.

    Segment count, |A| and |D| held (approximately) fixed while the
    cross-join percentage sweeps.  Times in ms; ``actual_cross_pct`` reports
    the realized percentage for honesty about the approximation.
    """
    tables = []
    for n_segments in segment_counts:
        for shape in shapes:
            sweep = Sweep("target_cross_pct")
            for fraction, config in zip(
                fractions, sweep_configs(n_segments, shape, list(fractions))
            ):
                ld = LazyXMLDatabase()
                build_join_mix(ld, config)
                ls = LazyXMLDatabase(mode="static")
                build_join_mix(ls, config)
                ls.prepare_for_query()  # so unsort has sorted input
                stats = JoinStatistics()
                ld.structural_join("a", "d", stats=stats)
                sweep.add(
                    round(fraction * 100),
                    **_time_joins(ld, ls, "a", "d", repeat),
                    actual_cross_pct=round(stats.cross_fraction * 100, 1),
                )
            tables.append(
                sweep.to_table(f"Fig 12 — {shape} ER-tree, {n_segments} segments")
            )
    return tables


# ----------------------------------------------------------------------
# Fig. 13 — join time vs number of segments over a fixed document


def spine_document(
    depth: int, bushiness: int = 3, *, tags: tuple[str, str, str] = ("t0", "t1", "t2")
) -> str:
    """A document with a ``depth``-long spine of ``tags[0]`` elements.

    Each spine node carries ``bushiness`` leaf children alternating the
    other two tags.  Deep enough for nested chopping at any segment count
    up to ``depth``; the query ``tags[0] // tags[1]`` yields a quadratic
    pair set concentrated on the spine.
    """
    root = Node(tags[0])
    node = root
    for level in range(depth - 1):
        for b in range(bushiness):
            node.child(tags[1 + (b % 2)])
        node = node.child(tags[0])
    for b in range(bushiness):
        node.child(tags[1 + (b % 2)])
    return root.to_xml()


def _compacted_join(db, pairs: int, repeat: int) -> tuple[float, float]:
    """Best-of-``repeat`` ms of one ``compact`` of a copy of ``db``, and of
    the cold ``t0//t1`` join on the compacted copy (``pairs`` pairs)."""
    compact_s = float("inf")
    for _ in range(repeat):
        packed = clone(db)
        start = time.perf_counter()
        packed.compact()
        compact_s = min(compact_s, time.perf_counter() - start)
    after_s, after_pairs = measure_cold_join(
        packed, lambda: packed.structural_join("t0", "t1"), repeat=repeat
    )
    if after_pairs != pairs:
        raise QueryError(f"compaction changed t0//t1: {pairs} -> {after_pairs} pairs")
    return compact_s * _MS, after_s * _MS


def fig13_segments(
    segment_counts: tuple[int, ...] = (10, 20, 40, 80, 160, 320, 640),
    shapes: tuple[str, ...] = ("balanced", "nested"),
    *,
    depth: int = 200,
    bushiness: int = 3,
    repeat: int = 7,
) -> list[Table]:
    """Fig. 13: LD vs STD join time over one document, varying #segments.

    The same spine document is chopped into each segment count; STD sees
    the same elements however they are chopped, LD's segment lists grow
    with the count.  A nested chop needs one spine element per segment,
    so the nested sweep stops at ``depth`` (a spine deep enough for 640
    makes ``t0//t1`` 410 240 pairs, and the join pair-bound).  The repack
    arm prices an operator's ``compact``: ``compact_ms`` folds the chopped
    document into one segment, ``after_ms`` is the cold join after it,
    and ``breakeven_joins`` is how many cold joins the compaction takes
    to pay for itself, ``compact_ms / (ld_ms - after_ms)`` (infinite
    where LD is no slower).
    """
    text = spine_document(depth, bushiness)
    rows = []
    for shape in shapes:
        for count in segment_counts:
            if shape == "nested" and count > depth:
                continue
            db, _ = chop_text(text, count, shape)
            stats = JoinStatistics()
            db.structural_join("t0", "t1", stats=stats)
            rows.append((shape, count, db, {}, stats.cross_fraction))
    # Timed in rounds, one repetition of every row per round, each row
    # keeping its best: a slow spell of a shared machine (the same join
    # reads about 1.5x slower for a while) then lands on every row alike,
    # not on all the repetitions of one row.
    for _ in range(repeat):
        for _, _, db, times, _ in rows:
            for key, value in _time_joins(db, None, "t0", "t1", 1).items():
                times[key] = min(times.get(key, value), value)
            db.readpath.clear()
    # The repack arm runs after every LD/STD timing, so no row's timing
    # follows another row's copies and compactions.
    sweeps = {shape: Sweep("segments") for shape in shapes}
    for shape, count, db, times, cross in rows:
        compact_ms, after_ms = _compacted_join(db, times["pairs"], repeat)
        gain = times["ld_ms"] - after_ms
        sweeps[shape].add(
            count,
            **times,
            cross_pct=round(cross * 100, 1),
            compact_ms=compact_ms,
            after_ms=after_ms,
            breakeven_joins=compact_ms / gain if gain > 0 else float("inf"),
        )
    return [sweeps[shape].to_table(f"Fig 13 — {shape} ER-tree") for shape in shapes]


# ----------------------------------------------------------------------
# Fig. 14 + 15 — XMark queries


def xmark_databases(scale: float, n_segments: int, seed: int = 7):
    """The chopped XMark-like dataset as an ``(LD, LS)`` database pair.

    The paper modified its XMark dataset to raise the cross-segment join
    percentage to 20–30%; splitting below ``person`` (profile / watches /
    address subtrees become their own segments) does the same: Q4/Q5
    (person//watch, person//interest) become cross-segment while Q2/Q3 stay
    in-segment.
    """
    document = parse(generate_site(XMarkConfig(scale=scale, seed=seed)).to_xml())
    candidates = [
        e
        for e in document.elements
        if e.tag in ("profile", "watches", "address") and e.children
    ]
    take = min(n_segments - 1, len(candidates))
    step = max(1, len(candidates) // take) if take else 1
    ops = chop(document, [document.root] + candidates[::step][:take])
    ld = LazyXMLDatabase()
    apply_chop(ld, ops)
    ls = LazyXMLDatabase(mode="static")
    apply_chop(ls, ops)
    ls.prepare_for_query()
    return ld, ls


def fig14_cardinalities(
    scale: float = 0.08, n_segments: int = 100, *, seed: int = 7
) -> list[Table]:
    """Fig. 14: the XMark query set and its result cardinalities."""
    ld, _ = xmark_databases(scale, n_segments, seed)
    table = Table(
        "Fig 14 — XMark queries", ["query", "xpath", "cardinality", "cross_pct"]
    )
    for qid, tag_a, tag_d in XMARK_QUERIES:
        stats = JoinStatistics()
        pairs = ld.structural_join(tag_a, tag_d, stats=stats)
        table.add_row(
            [qid, f"{tag_a}//{tag_d}", len(pairs), round(stats.cross_fraction * 100, 1)]
        )
    return [table]


def fig15_xmark_times(
    scale: float = 0.08, n_segments: int = 100, *, seed: int = 7, repeat: int = 7
) -> list[Table]:
    """Fig. 15: LS/LD/STD join times (ms) on the XMark query set."""
    ld, ls = xmark_databases(scale, n_segments, seed)
    table = Table(
        "Fig 15 — XMark join times", ["query", "ls_ms", "ld_ms", "std_ms", "pairs"]
    )
    for qid, tag_a, tag_d in XMARK_QUERIES:
        times = _time_joins(ld, ls, tag_a, tag_d, repeat)
        table.add_row([qid] + [times[name] for name in table.headers[1:]])
    return [table]


#: The non-plain twigs of ``twig_read_heavy`` (``benchmarks/e2e/corpus.py``):
#: branches, a wildcard step, a positional predicate.  None is a plain
#: chain, so ``strategy="pairwise"`` runs the edge decomposition and never
#: the join memo.
XMARK_TWIGS = (
    "people/person[watches/watch]//interest",
    "person[profile/interest]//watch",
    "site//person[phone]/name",
    "open_auction[bidder]//increase",
    "people/*[profile]/name",
    "person/profile/interest[2]",
)


def twig_strategies(
    scale: float = 0.08, n_segments: int = 100, *, seed: int = 7, repeat: int = 7
) -> list[Table]:
    """Holistic vs pairwise twig time per pattern, cold and after an update.

    Cold drops the compiled read state before each repetition; "updated"
    times the first query after a ``person`` is inserted under ``people``
    (and removed again afterwards), which is what a served twig costs.
    """
    db, _ = xmark_databases(scale, n_segments, seed)
    person = generate_person(
        random.Random(seed), 10**6, XMarkConfig(scale=scale, seed=seed)
    ).to_xml()
    position = db.global_elements("people")[0].start + len("<people>")
    table = Table(
        "Twig — holistic vs pairwise per pattern",
        ["pattern", "branching", "holistic_cold_ms", "pairwise_cold_ms",
         "holistic_updated_ms", "pairwise_updated_ms", "matches"],
    )
    for expression in XMARK_TWIGS:
        cold, updated, matches = {}, {}, set()
        for strategy in ("twig", "pairwise"):
            run = partial(db.twig_query, expression, strategy=strategy)
            cold[strategy], count = measure_cold_join(db, run, repeat=repeat)
            matches.add(count)
            updated[strategy] = float("inf")
            for _ in range(repeat):
                receipt = db.insert(person, position)
                updated[strategy] = min(updated[strategy], measure(run, repeat=1))
                db.remove_segment(receipt.sid)
        if len(matches) != 1:
            raise QueryError(f"{expression}: executors disagree: {matches}")
        table.add_row([
            expression,
            not parse_twig(expression).is_linear,
            cold["twig"] * _MS,
            cold["pairwise"] * _MS,
            updated["twig"] * _MS,
            updated["pairwise"] * _MS,
            matches.pop(),
        ])
    return [table]


# ----------------------------------------------------------------------
# Fig. 16 — segment insertion: lazy vs traditional relabeling


def fig16_insert(
    doc_segment_counts: tuple[int, ...] = (20, 40, 80, 160, 320),
    *,
    elements_per_segment: int = 25,
    n_tags: int = 8,
    repeat: int = 7,
) -> list[Table]:
    """Fig. 16: time to insert one mid-document segment vs document size.

    Documents grow by segment count (so total elements = count × per-seg);
    the insertion point sits mid-document, making roughly half the elements
    shift — the paper's average case (``relabelled_pct`` is the share of
    its labels the traditional index rewrote).  Compares LD against the
    traditional interval-relabeling index.
    """
    sweep = Sweep("doc_elements")
    tags = tag_pool(n_tags)
    fragment = generate_uniform_fragment(elements_per_segment, tags)
    for count in doc_segment_counts:
        db = LazyXMLDatabase()
        sids = build_uniform_segments(
            db,
            count,
            "flat",
            elements_per_segment=elements_per_segment,
            n_tags=n_tags,
        )
        mid_sid = sids[len(sids) // 2]
        t_lazy = measure(
            lambda: insert_under(db, mid_sid, fragment, tags[0]), repeat=repeat
        )

        trad = IntervalLabelingIndex()
        trad.insert_fragment("<root>" + fragment * count + "</root>", 0)
        mid_position = len("<root>") + (count // 2) * len(fragment) + len(tags[0]) + 2
        t_trad = measure(
            lambda: trad.insert_fragment(fragment, mid_position), repeat=repeat
        )
        sweep.add(
            count * elements_per_segment,
            lazy_ms=t_lazy * _MS,
            traditional_ms=t_trad * _MS,
            relabelled_pct=round(100 * trad.relabelled_last_update / len(trad), 1),
        )
    return [sweep.to_table("Fig 16 — insert one segment")]


def fig16_batched_ingest(
    n_ops: int = 400, batch: int = 100, *, repeat: int = 5
) -> list[Table]:
    """Fig. 16's workload as durable ingest: op-at-a-time vs batched ops/s.

    The same stream of small *distinct* documents both ways (the
    online-registration shape at its smallest, where per-document commit
    overhead dominates apply cost): op-at-a-time pays one journal append +
    fsync per document, the batched run one per ``batch`` documents.
    Best-of-``repeat`` with a fresh database directory per run, so journal
    growth never favours a later run.
    """
    a, b, c = tag_pool(3)
    fragments = [f"<{a}><{b}>doc{i}</{b}><{c}/></{a}>" for i in range(n_ops)]

    def serial(db) -> None:
        for fragment in fragments:
            db.insert(fragment)

    def batched(db) -> None:
        for start in range(0, n_ops, batch):
            db.apply_batch([
                {"op": "insert", "fragment": fragment, "position": None}
                for fragment in fragments[start : start + batch]
            ])

    table = Table(
        "Fig 16 (ingest) — durable ops/s", ["mode", "ops", "batch", "ops_per_s"]
    )
    for mode, size, run in (("op-at-a-time", 1, serial), ("batched", batch, batched)):
        best = float("inf")
        for _ in range(repeat):
            with tempfile.TemporaryDirectory() as directory:
                with DurableDatabase(directory) as db:
                    start = time.perf_counter()
                    run(db)
                    best = min(best, time.perf_counter() - start)
        table.add_row([mode, n_ops, size, n_ops / best])
    return [table]


# ----------------------------------------------------------------------
# Fig. 17 — per-element insertion time: LD/LS vs PRIME


def _prime_per_element(
    n_elements: int, *, group_size: int, base_nodes: int, repeat: int
) -> float:
    """Seconds per element for PRIME insertion mid-document."""
    labeling = PrimeLabeling(
        group_size=group_size,
        capacity=max(base_nodes * 4, base_nodes + repeat * n_elements),
    )
    root = labeling.insert(None)
    for _ in range(base_nodes - 1):
        labeling.insert(root)
    mid = len(labeling) // 2

    def run() -> None:
        for _ in range(n_elements):
            labeling.insert(root, order_index=mid)

    return measure(run, repeat=repeat) / n_elements


def fig17_element_insert(
    *,
    element_counts: tuple[int, ...] = (10, 20, 40, 80, 160),
    tag_counts: tuple[int, ...] = (2, 4, 8, 16, 32),
    segment_counts: tuple[int, ...] = (25, 50, 100, 200),
    shape: str = "balanced",
    n_segments: int = 100,
    prime_groups: tuple[int, ...] = (10, 50),
    prime_base_nodes: int = 1000,
    repeat: int = 7,
) -> list[Table]:
    """Fig. 17(a–c): per-element insertion time (µs) for LD, LS and PRIME.

    Three tables: vs elements per inserted segment, vs distinct tags, vs
    segments already in the database.  LD/LS insert one segment and divide
    by its element count; PRIME inserts elements one by one into a
    pre-populated labeling (its per-element cost is what the scheme
    defines).
    """
    tags = tag_pool(8)

    def lazy_pair(count: int) -> list[tuple[str, LazyXMLDatabase, int]]:
        pair = []
        for name, mode in (("ld_us", "dynamic"), ("ls_us", "static")):
            db = LazyXMLDatabase(mode=mode)
            sids = build_uniform_segments(db, count, shape, n_tags=8)
            pair.append((name, db, sids[len(sids) // 2]))
        return pair

    def lazy_us(pair, fragment: str, root_tag: str, n: int) -> dict[str, float]:
        return {
            name: 1e6 / n * measure(
                lambda: insert_under(db, mid_sid, fragment, root_tag), repeat=repeat
            )
            for name, db, mid_sid in pair
        }

    def prime_us(n: int) -> dict[str, float]:
        return {
            f"prime_k{k}_us": 1e6 * _prime_per_element(
                n, group_size=k, base_nodes=prime_base_nodes, repeat=repeat
            )
            for k in prime_groups
        }

    # (a) sweep elements per inserted segment
    sweep_a = Sweep("elements_per_segment")
    pair = lazy_pair(n_segments)
    for n in element_counts:
        fragment = generate_uniform_fragment(n, tags)
        sweep_a.add(n, **lazy_us(pair, fragment, tags[0], n), **prime_us(n))

    # (b) sweep distinct tag names per inserted segment (element count fixed)
    sweep_b = Sweep("distinct_tags")
    fixed_elements = max(tag_counts) * 2
    pair = lazy_pair(n_segments)
    prime_values = prime_us(fixed_elements)  # PRIME is tag-agnostic: flat line
    for m in tag_counts:
        fragment = generate_uniform_fragment(fixed_elements, tag_pool(m, prefix="u"))
        sweep_b.add(m, **lazy_us(pair, fragment, "u0", fixed_elements), **prime_values)

    # (c) sweep the number of segments already in the database
    sweep_c = Sweep("segments")
    probe_elements = 40
    probe = generate_uniform_fragment(probe_elements, tags)
    for count in segment_counts:
        sweep_c.add(count, **lazy_us(lazy_pair(count), probe, tags[0], probe_elements))

    return [
        sweep_a.to_table("Fig 17(a) — µs/element vs elements/segment"),
        sweep_b.to_table("Fig 17(b) — µs/element vs distinct tags"),
        sweep_c.to_table("Fig 17(c) — µs/element vs segments"),
    ]


# ----------------------------------------------------------------------
# Ablation (DESIGN.md E11)


def ablation_repack(n_segments: int = 80, *, repeat: int = 7) -> list[Table]:
    """E11: segment packing (Section 5.3): a nested chain before/after compact."""
    db = LazyXMLDatabase()
    build_join_mix(
        db,
        JoinMixConfig(n_segments=n_segments, shape="nested", in_blocks_per_segment=2),
    )
    table = Table(
        "Ablation — segment packing (compact)",
        ["state", "segments", "log_kb", "join_ms", "pairs"],
    )
    for state in ("fragmented", "compacted"):
        if state == "compacted":
            db.compact()
        elapsed, pairs = measure_cold_join(
            db, lambda: db.structural_join("a", "d"), repeat=repeat
        )
        table.add_row([
            state,
            db.segment_count,
            db.stats().total_bytes / 1024,
            elapsed * _MS,
            pairs,
        ])
    return [table]


# ----------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Figure:
    """One registry entry: how to run a figure and what it must show."""

    title: str
    run: Callable[..., list[Table]]
    columns: tuple[str, ...]  #: headers every returned table carries
    quick: dict  #: keyword arguments of the reduced ``--quick`` run (CI);
    #: the recorded run (EXPERIMENTS.md) is ``run()`` at its defaults
    shape: Callable[[list[Table]], None]  #: raises AssertionError when the
    #: tables do not show the figure's claim
    on_request: bool = False  #: run only when named, not with the full set


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _shape_fig11a(tables: list[Table]) -> None:
    for table in tables:
        for sb_kb, tl_kb in zip(table.column("sbtree_kb"), table.column("taglist_kb")):
            _expect(tl_kb > sb_kb, f"{table.title}: tag-list does not dominate")
    balanced, nested = (table.column("taglist_kb")[-1] for table in tables)
    _expect(nested > 2 * balanced, f"nested tag-list {nested:.1f} KB not > 2x "
            f"balanced {balanced:.1f} KB")


def _shape_fig11b(tables: list[Table]) -> None:
    for table in tables:
        ms = table.column("build_ms")
        _expect(ms[-1] > ms[0], f"{table.title}: build time does not grow")


def _shape_fig12(tables: list[Table]) -> None:
    for table in tables:
        if "nested" not in table.title:
            continue  # the claim is pinned on the deep ER-tree, where it is wide
        ld, std = table.column("ld_ms")[-1], table.column("std_ms")[-1]
        _expect(ld < std, f"{table.title}: LD {ld:.2f} ms not < STD {std:.2f} ms "
                "at the highest cross percentage")


def _shape_fig13(tables: list[Table]) -> None:
    nested = tables[-1]
    ld = nested.column("ld_ms")
    _expect(ld[-1] > ld[0], f"{nested.title}: LD {ld[0]:.2f} -> {ld[-1]:.2f} ms "
            "does not grow with the segment count")


def _shape_fig14(tables: list[Table]) -> None:
    counts = dict(zip(tables[0].column("query"), tables[0].column("cardinality")))
    # person//watch ⊇ watches//watch and person//interest ⊇ profile//interest
    _expect(counts["Q4"] >= counts["Q3"], f"Q4 < Q3: {counts}")
    _expect(counts["Q5"] >= counts["Q2"], f"Q5 < Q2: {counts}")


def _shape_fig15(tables: list[Table]) -> None:
    for query, ld, std in zip(
        *(tables[0].column(name) for name in ("query", "ld_ms", "std_ms"))
    ):
        _expect(ld < std, f"{query}: LD {ld:.2f} ms not < STD {std:.2f} ms")


def _shape_twig(tables: list[Table]) -> None:
    # The served state.  Cold, both executors pay the same column compile,
    # which leaves their difference inside the noise on some patterns.
    for pattern, branching, holistic, pairwise in zip(*(
        tables[0].column(name) for name in
        ("pattern", "branching", "holistic_updated_ms", "pairwise_updated_ms")
    )):
        _expect(not branching or holistic <= pairwise,
                f"{pattern}: holistic {holistic:.2f} ms not <= pairwise "
                f"{pairwise:.2f} ms on the first query after an update")


def _shape_fig16(tables: list[Table]) -> None:
    lazy, trad = tables[0].column("lazy_ms"), tables[0].column("traditional_ms")
    _expect(trad[-1] > 2 * trad[0], f"traditional {trad[0]:.2f} -> {trad[-1]:.2f} ms "
            "does not grow with the document")
    _expect(trad[-1] > 5 * lazy[-1], f"traditional {trad[-1]:.2f} ms not > 5x "
            f"lazy {lazy[-1]:.2f} ms on the largest document")
    _expect(lazy[-1] <= 1.5 * lazy[0], f"lazy {lazy[0]:.3f} -> {lazy[-1]:.3f} ms "
            "grows with the document")


def _shape_fig16_ingest(tables: list[Table]) -> None:
    serial, batched = tables[0].column("ops_per_s")
    _expect(batched >= 1.5 * serial,
            f"batched {batched:.0f} ops/s not >= 1.5x op-at-a-time {serial:.0f}")


def _shape_fig17(tables: list[Table]) -> None:
    elements = tables[0]
    ld = elements.column("ld_us")
    prime = next(
        elements.column(name) for name in elements.headers if name.startswith("prime_")
    )
    for n, lazy_us, prime_us in zip(elements.column("elements_per_segment"), ld, prime):
        _expect(prime_us > 3 * lazy_us, f"{n} elements: PRIME {prime_us:.0f} µs "
                f"not > 3x LD {lazy_us:.1f} µs")
    _expect(ld[-1] < ld[0], f"LD {ld[0]:.1f} -> {ld[-1]:.1f} µs/element: larger "
            "segments do not amortize better")


def _shape_same_pairs(tables: list[Table]) -> None:
    pairs = tables[0].column("pairs")
    _expect(len(set(pairs)) == 1 and pairs[0] > 0, f"pair counts differ: {pairs}")


def _shape_ablation_repack(tables: list[Table]) -> None:
    _shape_same_pairs(tables)
    for name in ("segments", "log_kb"):
        before, after = tables[0].column(name)
        _expect(after < before, f"compact did not shrink {name}: {before} -> {after}")


def _shape_overload(tables: list[Table]) -> None:
    table = tables[0]
    _expect(not any(table.column("errors")),
            f"failures other than typed sheds: {table.column('errors')}")
    _expect(table.column("completed")[0] == table.column("attempts")[0],
            "the lowest offered rate did not complete every request")


_SMALL_LOG = {"segment_counts": (25, 50, 100, 150)}

FIGURES: dict[str, Figure] = {
    "fig11a": Figure(
        "Fig. 11(a) — update log size vs #segments",
        fig11_log_size,
        ("segments", "sbtree_kb", "taglist_kb", "total_kb"),
        quick=_SMALL_LOG,
        shape=_shape_fig11a,
    ),
    "fig11b": Figure(
        "Fig. 11(b) — update log build time vs #segments",
        fig11_build_time,
        ("segments", "build_ms"),
        quick={**_SMALL_LOG, "repeat": 2},
        shape=_shape_fig11b,
    ),
    "fig12": Figure(
        "Fig. 12 — join time vs % cross-segment joins (LS / LD / STD)",
        fig12_cross_join,
        ("target_cross_pct", "ls_ms", "ld_ms", "std_ms", "pairs"),
        quick={"segment_counts": (50,), "repeat": 2},
        shape=_shape_fig12,
    ),
    "fig13": Figure(
        "Fig. 13 — join time vs number of segments (LD / STD)",
        fig13_segments,
        ("segments", "ld_ms", "std_ms", "pairs", "compact_ms", "after_ms",
         "breakeven_joins"),
        quick={"segment_counts": (10, 40, 160), "repeat": 2},
        shape=_shape_fig13,
    ),
    "fig14": Figure(
        "Fig. 14 — XMark query cardinalities",
        fig14_cardinalities,
        ("query", "xpath", "cardinality", "cross_pct"),
        quick={"scale": 0.03},
        shape=_shape_fig14,
    ),
    "fig15": Figure(
        "Fig. 15 — XMark join times (LS / LD / STD)",
        fig15_xmark_times,
        ("query", "ls_ms", "ld_ms", "std_ms", "pairs"),
        # Full scale: below it the per-segment cost of a cold LD join meets
        # STD on the in-segment queries and the claim stops resolving.
        quick={"repeat": 2},
        shape=_shape_fig15,
    ),
    "twig": Figure(
        "Twig — holistic vs pairwise executor per pattern",
        twig_strategies,
        ("pattern", "branching", "holistic_cold_ms", "pairwise_cold_ms",
         "holistic_updated_ms", "pairwise_updated_ms", "matches"),
        quick={"scale": 0.03, "repeat": 3},
        shape=_shape_twig,
    ),
    "fig16": Figure(
        "Fig. 16 — inserting one segment: LD vs traditional relabeling",
        fig16_insert,
        ("doc_elements", "lazy_ms", "traditional_ms", "relabelled_pct"),
        quick={"doc_segment_counts": (20, 40, 80), "repeat": 7},
        shape=_shape_fig16,
    ),
    "fig16-ingest": Figure(
        "Fig. 16 (ingest) — durable op-at-a-time vs batched",
        fig16_batched_ingest,
        ("mode", "ops", "batch", "ops_per_s"),
        quick={"n_ops": 100, "batch": 25, "repeat": 3},
        shape=_shape_fig16_ingest,
    ),
    "fig17": Figure(
        "Fig. 17 — per-element insertion: LD / LS vs PRIME",
        fig17_element_insert,
        ("ld_us", "ls_us"),
        quick={
            "element_counts": (10, 40, 160),
            "tag_counts": (2, 8, 32),
            "segment_counts": (25, 100),
            "prime_base_nodes": 300,
        },
        shape=_shape_fig17,
    ),
    "ablation-repack": Figure(
        "Ablation E11 — segment packing",
        ablation_repack,
        ("state", "segments", "log_kb", "join_ms", "pairs"),
        quick={"repeat": 2},
        shape=_shape_ablation_repack,
    ),
    # A load test over 64 loopback connections: its latencies mean nothing
    # on a shared CI runner, so it runs when named, not with the figure set.
    "overload": Figure(
        "Overload — open-loop goodput against the closed-loop ceiling",
        overload,
        ("offered_rps", "attempts", "completed", "sheds", "errors",
         "goodput_rps", "p50_ms", "p99_ms", "ceiling_rps"),
        quick={"rates": (100.0, 300.0, 600.0), "duration": 1.5,
               "ceiling_duration": 1.0},
        shape=_shape_overload,
        on_request=True,
    ),
}
