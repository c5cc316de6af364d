"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import json
import zlib
from bisect import bisect_right
from operator import attrgetter
from pathlib import Path

from repro.core.database import LazyXMLDatabase
from repro.errors import QueryError
from repro.joins.stack_tree import AXIS_CHILD, AXIS_DESCENDANT

_AXES = (AXIS_DESCENDANT, AXIS_CHILD)

_start_of = attrgetter("start")


def normalized_join(db: LazyXMLDatabase, pairs) -> list:
    """Sorted list of ((anc_gstart, anc_gend), (desc_gstart, desc_gend))."""
    return sorted((db.global_span(a), db.global_span(d)) for a, d in pairs)


def assert_join_matches_oracle(db, tag_a, tag_d, axis="descendant", **options):
    """Run a join and compare it against the text-reparse oracle."""
    pairs = db.structural_join(tag_a, tag_d, axis=axis, **options)
    got = normalized_join(db, pairs)
    want = sorted(db.oracle_join(tag_a, tag_d, axis=axis))
    assert got == want, (
        f"{tag_a}//{tag_d} axis={axis} {options}: "
        f"{len(got)} pairs vs oracle {len(want)}"
    )
    return pairs


def tag_counts(log, **counts: int) -> dict[int, int]:
    """``{tid: count}`` for tag names, interned in ``log``'s registry as
    an insert interns them: what ``UpdateLog.insert_segment`` takes."""
    return {log.tags.intern(name): count for name, count in counts.items()}


def count_for(taglist, tid: int, sid: int) -> int:
    """Occurrences of ``tid`` recorded for segment ``sid`` (0 if none)."""
    return taglist.counts(tid).get(sid, 0)


def tids_for_segment(taglist, sid: int) -> list[int]:
    """Every tag id recorded for segment ``sid`` (linear, test-only)."""
    return [tid for tid in taglist.tids() if sid in taglist.counts(tid)]


def stack_tree_desc_legacy(
    ancestors, descendants, axis="descendant", *, context=None, **_columns
) -> list[tuple]:
    """The original per-descendant Stack-Tree-Desc frame walk.

    The order-exact reference ``tests/test_join_kernels.py`` holds the
    shipped run-at-a-time kernel to: same pairs, same order, same charged
    rows.  Takes :func:`~repro.joins.stack_tree.stack_tree_desc`'s
    arguments (precompiled columns are accepted and ignored) so it can
    stand in for it under ``monkeypatch``.
    """
    child_only = axis == "child"
    results: list[tuple] = []
    stack: list = []
    a_index = 0
    a_count = len(ancestors)
    d_index = 0
    d_count = len(descendants)
    while d_index < d_count:
        desc = descendants[d_index]
        if context is not None:
            context.tick()
        if not stack:
            if a_index >= a_count:
                break
            nxt_start = ancestors[a_index].start
            if desc.start <= nxt_start:
                # No ancestor starts strictly before desc (or any earlier
                # descendant in the run): skip ahead past nxt_start.
                d_index = bisect_right(
                    descendants, nxt_start, d_index, d_count, key=_start_of
                )
                continue
        # Push every ancestor starting before this descendant.
        while a_index < a_count and ancestors[a_index].start < desc.start:
            candidate = ancestors[a_index]
            while stack and stack[-1].end <= candidate.start:
                stack.pop()
            stack.append(candidate)
            a_index += 1
        # Drop ancestors that ended before this descendant starts.
        while stack and stack[-1].end <= desc.start:
            stack.pop()
        # Everything left on the stack contains desc (no partial overlap in
        # tree-shaped interval sets).
        if child_only:
            # Only the innermost ancestor can be the parent.
            if stack and stack[-1].level + 1 == desc.level:
                results.append((stack[-1], desc))
                if context is not None:
                    context.charge_rows(1)
        else:
            for anc in stack:
                results.append((anc, desc))
            if context is not None:
                context.charge_rows(len(stack))
        d_index += 1
    return results


def merge_containment_join(ancestors, descendants, axis=AXIS_DESCENDANT) -> list:
    """The pre-stack merge join (MPMGJN / EE-join style), ordered by ancestor.

    For each ancestor, binary-search the first descendant starting inside
    its span and scan until the span ends; nested ancestors re-scan the
    same descendants, O(|A|·|D|) at worst.  Simple enough to be an oracle
    for the stack-based joins.  ``axis="child"`` keeps only pairs with
    ``descendant.level == ancestor.level + 1``.
    """
    if axis not in _AXES:
        raise QueryError(f"axis must be one of {_AXES}, got {axis!r}")
    child_only = axis == AXIS_CHILD
    starts = [d.start for d in descendants]
    results: list[tuple] = []
    for anc in ancestors:
        idx = bisect_right(starts, anc.start)
        while idx < len(descendants) and descendants[idx].start < anc.end:
            desc = descendants[idx]
            if desc.end <= anc.end and (
                not child_only or desc.level == anc.level + 1
            ):
                results.append((anc, desc))
            idx += 1
    return results


def naive_containment_join(ancestors, descendants, axis=AXIS_DESCENDANT) -> list:
    """All-pairs containment join (the oracle's oracle, O(|A|·|D|) always)."""
    if axis not in _AXES:
        raise QueryError(f"axis must be one of {_AXES}, got {axis!r}")
    child_only = axis == AXIS_CHILD
    results: list[tuple] = []
    for anc in ancestors:
        for desc in descendants:
            if anc.start < desc.start and desc.end <= anc.end:
                if not child_only or desc.level == anc.level + 1:
                    results.append((anc, desc))
    return results


def merge_join_records(db, tag_a, tag_d, axis=AXIS_DESCENDANT) -> list:
    """The merge oracle over ``db``'s derived global labels, as record pairs
    (the shape ``db.structural_join`` answers in)."""
    pairs = merge_containment_join(
        db.global_elements(tag_a), db.global_elements(tag_d), axis=axis
    )
    return [(a.record, d.record) for a, d in pairs]


def semi_join_path(db, expression: str) -> list:
    """The path memo's oracle: the distinct final matches of a path with
    at least one step, in ``(sid, start)`` order, from a semi-join chain
    over from-scratch step merges (``stats=``: no join memo read) along
    the trunk of :func:`~repro.twig.pattern.parse_twig`."""
    from repro.core.join import JoinStatistics
    from repro.twig.pattern import parse_twig

    trunk = parse_twig(expression).trunk
    matched = None
    for above, step in zip(trunk, trunk[1:]):
        pairs = db.structural_join(
            above.tag, step.tag, step.axis, stats=JoinStatistics()
        )
        matched = {d for a, d in pairs if matched is None or a in matched}
    # ``(sid, start)`` identifies a record, so record order is that order.
    return sorted(matched)


def v1_checkpoint(payload: str, last_seq: int = 0) -> str:
    """A version 1 checkpoint file around snapshot ``payload``: the JSON
    envelope checkpoints were before version 2, which recovery still
    reads."""
    return json.dumps({
        "format": "repro-checkpoint", "version": 1, "last_seq": last_seq,
        "crc32": zlib.crc32(payload.encode("utf-8")), "payload": payload,
    })


def v2_parts(path) -> tuple[dict, bytes]:
    """A version 2 checkpoint's header and uncompressed body."""
    line, _, stream = Path(path).read_bytes().partition(b"\n")
    return json.loads(line), zlib.decompress(stream)


def write_v2(path, header: dict, body: bytes, *, fix_crc: bool = True) -> None:
    """Write a version 2 checkpoint of ``header`` and ``body`` by hand,
    its ``crc32`` recomputed unless ``fix_crc`` is false."""
    if fix_crc:
        header = {**header, "crc32": zlib.crc32(body)}
    Path(path).write_bytes(
        json.dumps(header).encode() + b"\n" + zlib.compress(body, 1)
    )


def reference_dumps(db: LazyXMLDatabase) -> str:
    """The snapshot text encoded from scratch: ``json.dumps`` of the whole
    payload, every block's records included.  What
    :func:`repro.storage.dumps`, which reuses each block's kept encoding,
    must equal byte for byte."""
    from repro.storage import FORMAT_VERSION

    segments = []
    for node in db.log.ertree.nodes():
        entry = {
            "sid": node.sid,
            "parent": node.parent.sid if node.parent is not None else None,
            "gp": node.gp,
            "length": node.length,
            "lp": node.lp,
            "tombstones": [list(t) for t in node.tombstones()],
            "records": [list(row) for row in db.index.block(node.sid).rows()],
        }
        segments.append(entry)
    payload = {
        "format": FORMAT_VERSION,
        "mode": "dynamic",
        "keep_text": True,
        "text": db.text,
        "tags": [db.log.tags.name_of(tid) for tid in range(len(db.log.tags))],
        "next_sid": db.log.ertree._next_sid,
        "segments": segments,
    }
    if db.log.ertree.sid_start != 1 or db.log.ertree.sid_stride != 1:
        payload["sid_start"] = db.log.ertree.sid_start
        payload["sid_stride"] = db.log.ertree.sid_stride
    return json.dumps(payload)
