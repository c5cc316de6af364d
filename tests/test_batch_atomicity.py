"""Batch atomicity under crashes: pre-batch or post-batch, never between.

``apply_batch`` journals a whole batch as one CRC-framed record with one
fsync — the fsync is the only commit point.  These drills kill the write
path at every boundary the batch crosses:

- the ``wal.append.*`` points *inside* the record append (header, payload,
  fsync) — before the fsync the record must vanish, after it the batch
  must fully apply on recovery;
- the ``batch.*`` points bracketing the in-memory application — the
  record is already durable when they fire, so every crash there must
  recover to the *post*-batch state.

Recovered text is checked against an independent **string-splice oracle**
(sequential splices over the pre-batch text), not against the database's
own idea of the outcome.

The sharded coordinator flushes one batch record *per touched shard*, so
its atomicity is per shard (DESIGN.md §4i): the cross-shard drills assert
the only durable states are batch-order prefixes in which each shard's
share applied all-or-nothing.
"""

from __future__ import annotations

import re

import pytest

from repro.durability.database import DurableDatabase
from repro.shard.durable import ShardedDurableDatabase
from repro.storage import dumps, loads
from tests.failpoints import SimulatedCrash, crash_at
from tests.test_durability_failpoints import WAL_APPEND_POINTS, seed

#: Points where the batch record is NOT yet durable: recovery → pre-batch.
PRE_POINTS = ["wal.append.before_write", "wal.append.mid_write"]

#: Record written but not fsynced: either outcome is legal, nothing else.
EITHER_POINTS = ["wal.append.after_write"]

#: Record durable (fsync done / in-memory apply running): → post-batch.
POST_POINTS = [
    "wal.append.after_fsync",
    "batch.before_apply",
    "batch.mid_apply",
    "batch.after_apply",
]


def splice_insert(text: str, op: dict) -> str:
    position = op.get("position")
    if position is None:
        position = len(text)
    return text[:position] + op["fragment"] + text[position:]


def splice(text: str, ops: list[dict]) -> str:
    """The string-splice oracle: sequential splices, no database code."""
    for op in ops:
        if op["op"] == "insert":
            text = splice_insert(text, op)
        elif op["op"] == "remove":
            position, length = op["position"], op["length"]
            text = text[:position] + text[position + length :]
        else:  # pragma: no cover - oracle covers splicing ops only
            raise AssertionError(op["op"])
    return text


def mixed_batch(text: str) -> tuple[list[dict], str]:
    """A remove + nested insert + append batch, with each op's position
    valid at its execution step; returns ``(ops, post_batch_text)``."""
    ops: list[dict] = []
    victim = re.search(r"<interest [^>]*/>", text)
    ops.append(
        {
            "op": "remove",
            "position": victim.start(),
            "length": victim.end() - victim.start(),
        }
    )
    text = splice(text, ops[-1:])
    anchor = re.search("<preferences>", text)
    ops.append(
        {
            "op": "insert",
            "fragment": "<interest topic='batched'/>",
            "position": anchor.end(),
        }
    )
    text = splice(text, ops[-1:])
    ops.append({"op": "insert", "fragment": "<registration><user>tail</user></registration>"})
    text = splice(text, ops[-1:])
    return ops, text


# ----------------------------------------------------------------------
# single durable database


@pytest.mark.parametrize(
    "failpoint", PRE_POINTS + EITHER_POINTS + POST_POINTS
)
def test_batch_crash_matrix(tmp_path, failpoint):
    directory = tmp_path / "state"
    dd = seed(directory)
    pre_text = dd.text
    pre = dumps(dd.db)
    ops, oracle_text = mixed_batch(pre_text)

    # The expected post state, from an isolated copy — and the copy itself
    # is held to the string-splice oracle.
    shadow = loads(pre)
    shadow.apply_batch(ops)
    assert shadow.text == oracle_text
    post = dumps(shadow)

    crashed = False
    try:
        with crash_at(failpoint):
            dd.apply_batch(ops)
    except SimulatedCrash:
        crashed = True
    assert crashed, f"{failpoint} never fired during apply_batch"
    dd.close()  # process death: in-memory state is gone

    recovered = DurableDatabase(directory)
    got = dumps(recovered.db)
    if failpoint in PRE_POINTS:
        assert got == pre and recovered.text == pre_text
    elif failpoint in POST_POINTS:
        assert got == post and recovered.text == oracle_text
    else:
        assert got in (pre, post)
        assert recovered.text in (pre_text, oracle_text)
    recovered.check_invariants()

    # Still writable, and the new write durable.
    recovered.insert("<post_recovery/>")
    recovered.close()
    reopened = DurableDatabase(directory)
    assert "<post_recovery/>" in reopened.text
    reopened.check_invariants()
    reopened.close()


def test_batch_with_skipped_sub_op_replays_identically(tmp_path):
    """A sub-op that fails its apply-time validation is skipped — and the
    skip is deterministic: crash replay lands on the same state the live
    application reached."""
    directory = tmp_path / "state"
    dd = seed(directory)
    pre = dumps(dd.db)
    ops = [
        {"op": "insert", "fragment": "<survivor_a/>"},
        {"op": "repack", "sid": 987654},  # no such segment: skipped
        {"op": "insert", "fragment": "<survivor_b/>"},
    ]
    shadow = loads(pre)
    results = shadow.apply_batch(ops)
    assert results[1] is None and results[0] is not None and results[2] is not None
    post = dumps(shadow)

    try:
        with crash_at("batch.after_apply"):
            dd.apply_batch(ops)
    except SimulatedCrash:
        pass
    dd.close()
    recovered = DurableDatabase(directory)
    assert dumps(recovered.db) == post
    assert "<survivor_a/>" in recovered.text and "<survivor_b/>" in recovered.text
    recovered.check_invariants()
    recovered.close()


# ----------------------------------------------------------------------
# sharded durable coordinator

DOC_A = "<alpha><one>aaa</one></alpha>"
DOC_B = "<beta><two>bbb</two></beta>"


def seed_sharded(directory) -> ShardedDurableDatabase:
    sdd = ShardedDurableDatabase(directory, 2)
    sdd.insert(DOC_A)
    sdd.insert(DOC_B)
    return sdd


def nested_insert_ops(text: str, targets) -> tuple[list[dict], str]:
    """Insert ops placed right after each regex match, splice-simulated so
    every position is valid at its execution step."""
    ops: list[dict] = []
    for pattern, fragment in targets:
        anchor = re.search(pattern, text)
        ops.append(
            {"op": "insert", "fragment": fragment, "position": anchor.end()}
        )
        text = splice(text, ops[-1:])
    return ops, text


@pytest.mark.parametrize(
    "failpoint", PRE_POINTS + EITHER_POINTS + ["wal.append.after_fsync"]
)
def test_sharded_batch_crash_single_shard(tmp_path, failpoint):
    """A batch confined to one shard is globally atomic: its single shard
    record is the only commit point (flushed at batch end)."""
    directory = tmp_path / "state"
    sdd = seed_sharded(directory)
    pre_text = sdd.text
    ops, oracle_text = nested_insert_ops(
        pre_text, [("<one>", "<i1/>"), ("<alpha>", "<i0/>")]
    )

    crashed = False
    try:
        with crash_at(failpoint):
            sdd.apply_batch(ops)
    except SimulatedCrash:
        crashed = True
    assert crashed, f"{failpoint} never fired during sharded apply_batch"
    sdd.close()

    recovered = ShardedDurableDatabase(directory)
    if failpoint in PRE_POINTS:
        assert recovered.text == pre_text
    elif failpoint in EITHER_POINTS:
        assert recovered.text in (pre_text, oracle_text)
    else:
        assert recovered.text == oracle_text
    recovered.check_invariants()

    recovered.insert("<post_recovery/>")
    recovered.close()
    reopened = ShardedDurableDatabase(directory)
    assert "<post_recovery/>" in reopened.text
    reopened.check_invariants()
    reopened.close()


@pytest.mark.parametrize("failpoint,hit", [
    ("wal.append.before_write", 1),  # nothing durable
    ("wal.append.after_fsync", 1),   # shard 0's share durable, shard 1's not
    ("wal.append.before_write", 2),  # same hybrid, killed before the write
    ("wal.append.after_fsync", 2),   # both shares durable
])
def test_sharded_batch_crash_cross_shard(tmp_path, failpoint, hit):
    """Cross-shard batches are atomic *per shard* (DESIGN.md §4i): a crash
    between the two shard flushes keeps shard 0's whole share and none of
    shard 1's.  Ops are ordered shard-0-first, so every legal durable
    state is a batch-order prefix."""
    directory = tmp_path / "state"
    sdd = seed_sharded(directory)
    pre_text = sdd.text
    ops, _ = nested_insert_ops(
        pre_text,
        [("<one>", "<i1/>"), ("<alpha>", "<i0/>"), ("<two>", "<i2/>")],
    )
    legal = {splice(pre_text, ops[:k]) for k in (0, 2, 3)}

    crashed = False
    try:
        with crash_at(failpoint, hit=hit):
            sdd.apply_batch(ops)
    except SimulatedCrash:
        crashed = True
    assert crashed, f"{failpoint} hit {hit} never fired"
    sdd.close()

    recovered = ShardedDurableDatabase(directory)
    assert recovered.text in legal, "recovery produced a non-prefix state"
    recovered.check_invariants()
    recovered.close()


@pytest.mark.parametrize("hit", [1, 2, 3, 4])
def test_sharded_batch_docmap_change_mid_batch(tmp_path, hit):
    """A new-document op mid-batch forces the buffered shares to flush
    first (the meta record predicts the exact next shard journal seq), so
    crashes at successive journal fsyncs walk the batch-order prefixes:
    nothing / the flushed share / +the new document / the whole batch."""
    directory = tmp_path / "state"
    sdd = seed_sharded(directory)
    pre_text = sdd.text
    ops, _ = nested_insert_ops(pre_text, [("<one>", "<i1/>")])
    ops.append({"op": "insert", "fragment": "<gamma>new-doc</gamma>"})
    ops.append(
        {
            "op": "insert",
            "fragment": "<i2/>",
            "position": splice(pre_text, ops[:2]).index("<two>") + len("<two>"),
        }
    )
    legal = {splice(pre_text, ops[:k]) for k in range(len(ops) + 1)}

    crashed = False
    try:
        with crash_at("wal.append.after_fsync", hit=hit):
            sdd.apply_batch(ops)
    except SimulatedCrash:
        crashed = True
    sdd.close()

    recovered = ShardedDurableDatabase(directory)
    if not crashed:  # fewer fsyncs than `hit`: the batch simply committed
        assert recovered.text == splice(pre_text, ops)
    assert recovered.text in legal, "recovery produced a non-prefix state"
    recovered.check_invariants()
    recovered.close()
