"""Replay equivalence: a journaled history reconstructs the exact database.

Property-style tests driving a random structural-op sequence through a
:class:`DurableDatabase` and an identical plain :class:`LazyXMLDatabase`
in lockstep, then recovering the durable directory from scratch and
asserting the replayed database matches the directly built one on every
observable: serialized state, ``stats()``, text, and structural join
results.
"""

from __future__ import annotations

import pytest

from repro.core.database import LazyXMLDatabase
from repro.durability.database import DurableDatabase
from repro.errors import InvalidSegmentError
from repro.storage import dumps
from tests.helpers import normalized_join

FRAGMENTS = [
    '<item n="{i}"><name>thing-{i}</name><price/></item>',
    "<note><name>n{i}</name></note>",
    '<bundle><item n="inner-{i}"><price/></item></bundle>',
    "<price/>",
]

JOIN_PAIRS = [("item", "price"), ("bundle", "item"), ("item", "name")]


def random_op(rng, db, step: int):
    """Pick one valid op for the current state; returns (name, args)."""
    live = [node.sid for node in db.log.ertree.nodes() if node.parent is not None]
    roll = rng.random()
    if not live or roll < 0.55:
        template = rng.choice(FRAGMENTS)
        fragment = template.replace("{i}", str(step))
        while True:  # any offset the fragment splices into cleanly
            position = rng.randint(0, db.document_length)
            try:
                db.check_insert(fragment, position)
            except InvalidSegmentError:
                continue
            return "insert", (fragment, position)
    if roll < 0.75:
        return "remove_segment", (rng.choice(live),)
    if roll < 0.85:
        node = db.log.node(rng.choice(live))
        return "remove", (node.gp, node.length)
    if roll < 0.95:
        return "repack", (rng.choice(live),)
    return "compact", ()


def apply(db, name, args):
    getattr(db, name)(*args)


def assert_equivalent(direct: LazyXMLDatabase, replayed: LazyXMLDatabase):
    assert dumps(replayed) == dumps(direct)
    assert replayed.text == direct.text
    assert replayed.stats() == direct.stats()
    assert replayed.segment_count == direct.segment_count
    assert replayed.element_count == direct.element_count
    for tag_a, tag_d in JOIN_PAIRS:
        got = normalized_join(replayed, replayed.structural_join(tag_a, tag_d))
        want = normalized_join(direct, direct.structural_join(tag_a, tag_d))
        assert got == want, f"{tag_a}//{tag_d} differs after replay"


@pytest.mark.parametrize("steps", [30, 60])
def test_replay_equals_direct_application(tmp_path, rng, steps):
    """Pure journal replay (no checkpoint): recovery rebuilds from scratch."""
    direct = LazyXMLDatabase()
    dd = DurableDatabase(tmp_path / "state")
    for step in range(steps):
        name, args = random_op(rng, direct, step)
        apply(direct, name, args)
        apply(dd, name, args)
    assert_equivalent(direct, dd.db)
    dd.close()

    recovered = DurableDatabase(tmp_path / "state")
    assert not recovered.recovery_report.checkpoint_found
    assert recovered.recovery_report.ops_replayed == steps
    recovered.check_invariants()
    assert_equivalent(direct, recovered.db)
    recovered.close()


def test_replay_equivalence_across_checkpoints(tmp_path, rng):
    """Random checkpoints mid-history: checkpoint + tail replay still lands
    on the directly built state."""
    direct = LazyXMLDatabase()
    dd = DurableDatabase(tmp_path / "state")
    for step in range(60):
        name, args = random_op(rng, direct, step)
        apply(direct, name, args)
        apply(dd, name, args)
        if rng.random() < 0.15:
            dd.checkpoint()
    dd.close()

    recovered = DurableDatabase(tmp_path / "state")
    recovered.check_invariants()
    assert_equivalent(direct, recovered.db)
    recovered.close()


def test_replay_equivalence_across_many_reopens(tmp_path, rng):
    """Close/reopen every few ops: recovery composes over generations."""
    direct = LazyXMLDatabase()
    directory = tmp_path / "state"
    dd = DurableDatabase(directory)
    for step in range(40):
        name, args = random_op(rng, direct, step)
        apply(direct, name, args)
        apply(dd, name, args)
        if step % 7 == 6:
            dd.close()
            dd = DurableDatabase(directory)
    dd.close()
    recovered = DurableDatabase(directory)
    recovered.check_invariants()
    assert_equivalent(direct, recovered.db)
    recovered.close()
