"""Crash-consistency matrix: kill the write path at every failpoint.

For each (operation, failpoint) pair, the scenario:

1. builds a durable database with history on both sides of a checkpoint;
2. fingerprints the pre-op state, and computes the expected post-op state
   by applying the same operation to an isolated copy;
3. arms the failpoint and runs the operation; the simulated crash discards
   the in-memory database;
4. reopens the directory through recovery and asserts the recovered state
   equals the pre-op or the post-op fingerprint — never anything else —
   with ``check_invariants()`` green;
5. proves the recovered handle is still writable and that the new write
   itself survives another reopen.
"""

from __future__ import annotations

import re

import pytest

from repro.durability.database import DurableDatabase
from repro.storage import dumps, loads
from repro.workloads.scenarios import registration_stream
from tests.failpoints import SimulatedCrash, crash_at

NESTED_FRAGMENT = '<interest topic="nested"/>'
APPEND_FRAGMENT = "<registration><user>crash-dummy</user></registration>"

#: Failpoints crossed while appending a data op to the journal.
WAL_APPEND_POINTS = [
    "wal.append.before_write",
    "wal.append.mid_write",
    "wal.append.after_write",
    "wal.append.after_fsync",
]

#: Failpoints crossed while taking a checkpoint (checkpoint file write, atomic
#: replace, journal truncation).
CHECKPOINT_POINTS = [
    "checkpoint.before_write",
    "atomic.before_tmp_write",
    "atomic.after_tmp_write",
    "atomic.after_tmp_fsync",
    "atomic.after_replace",
    "atomic.after_dir_fsync",
    "checkpoint.after_write",
    "wal.truncate.before",
    "wal.truncate.after",
    "checkpoint.after_truncate",
]

DATA_OPS = ["insert", "insert_nested", "remove", "remove_segment", "repack", "compact"]


def seed(directory) -> DurableDatabase:
    """History on both sides of a checkpoint: 3 inserts + nested insert,
    checkpoint, then one more insert left in the journal."""
    dd = DurableDatabase(directory)
    for fragment in registration_stream(3):
        dd.insert(fragment)
    match = re.search("<preferences>", dd.text)
    dd.insert(NESTED_FRAGMENT, match.end())
    dd.checkpoint()
    dd.insert(APPEND_FRAGMENT)
    return dd


def run_op(db, op_name: str) -> None:
    """Apply the op under test; works on DurableDatabase and LazyXMLDatabase."""
    if op_name == "insert":
        db.insert("<registration><user>victim</user></registration>")
    elif op_name == "insert_nested":
        match = re.search("<contact>", db.text)
        db.insert("<city>Crashville</city>", match.end())
    elif op_name == "remove":
        victim = re.search(r"<user>[^<]*</user>", db.text)
        db.remove(victim.start(), victim.end() - victim.start())
    elif op_name == "remove_segment":
        db.remove_segment(db.log.ertree.root.children[-1].sid)
    elif op_name == "repack":
        # The first top-level segment holds the nested insert: a real collapse.
        db.repack(db.log.ertree.root.children[0].sid)
    elif op_name == "compact":
        db.compact()
    elif op_name == "checkpoint":
        db.checkpoint()
    else:  # pragma: no cover
        raise AssertionError(op_name)


def crash_scenario(tmp_path, op_name: str, failpoint: str, hit: int = 1) -> None:
    directory = tmp_path / "state"
    dd = seed(directory)
    pre = dumps(dd.db)

    # Expected post-op state, computed on an isolated copy.  A checkpoint
    # does not change logical state, so pre and post coincide there.
    if op_name == "checkpoint":
        post = pre
    else:
        shadow = loads(pre)
        run_op(shadow, op_name)
        post = dumps(shadow)

    crashed = False
    try:
        with crash_at(failpoint, hit=hit):
            run_op(dd, op_name)
    except SimulatedCrash:
        crashed = True
    dd.close()  # process death: the in-memory state is gone

    recovered = DurableDatabase(directory)
    got = dumps(recovered.db)
    assert got in (pre, post), (
        f"{op_name} killed at {failpoint}: recovery produced a third state "
        f"(crashed={crashed}, pre={got == pre}, post={got == post})"
    )
    recovered.check_invariants()

    # The recovered database must stay writable, and the write durable.
    recovered.insert("<post_recovery/>")
    recovered.check_invariants()
    recovered.close()
    reopened = DurableDatabase(directory)
    assert "<post_recovery/>" in reopened.text
    reopened.check_invariants()
    reopened.close()


@pytest.mark.parametrize("failpoint", WAL_APPEND_POINTS)
@pytest.mark.parametrize("op_name", DATA_OPS)
def test_crash_during_journal_append(tmp_path, op_name, failpoint):
    crash_scenario(tmp_path, op_name, failpoint)


@pytest.mark.parametrize("failpoint", CHECKPOINT_POINTS)
def test_crash_during_checkpoint(tmp_path, failpoint):
    crash_scenario(tmp_path, "checkpoint", failpoint)


def test_every_declared_failpoint_reachable(tmp_path):
    """Each failpoint in the registry fires during a normal durable session
    (guards against declared-but-never-fired names rotting the matrix)."""
    from repro.durability import hooks

    fired: set[str] = set()
    for name in hooks.FAILPOINT_NAMES:
        hooks.set_failpoint(name, lambda point: fired.add(point))
    try:
        with DurableDatabase(tmp_path / "state") as dd:
            dd.insert("<a/>")
            dd.apply_batch(
                [{"op": "insert", "fragment": "<b/>"},
                 {"op": "insert", "fragment": "<c/>"}]
            )  # fires the batch.* application bracket
            dd.checkpoint()
    finally:
        hooks.clear_all_failpoints()
    assert fired == set(hooks.FAILPOINT_NAMES)
