"""Database-building helpers shared by the benchmark experiments.

All builders are deterministic (seeded) and work against either LD or LS
databases.  The central primitive is :func:`insert_under` — insert a
fragment just before a segment's root-element close tag — which lets the
experiments construct segment trees of any shape without tracking text.
"""

from __future__ import annotations

from repro.core.database import LazyXMLDatabase
from repro.errors import UpdateError
from repro.workloads.generator import generate_uniform_fragment, tag_pool
from repro.workloads.join_mix import parent_plan

__all__ = [
    "insert_under",
    "build_uniform_segments",
]


def insert_under(db: LazyXMLDatabase, parent_sid: int, fragment: str, root_tag: str):
    """Insert ``fragment`` at the end of segment ``parent_sid``'s content.

    The insertion position is just before the close tag of the parent
    segment's root element (whose tag name the caller supplies) — always a
    valid insertion point, and it nests the new segment inside the parent.
    """
    node = db.log.node(parent_sid)
    close_len = len(root_tag) + 3  # </tag>
    position = node.end - close_len
    return db.insert(fragment, position)


def build_uniform_segments(
    db: LazyXMLDatabase,
    n_segments: int,
    shape: str,
    *,
    elements_per_segment: int = 20,
    n_tags: int = 8,
    branching: int = 8,
) -> list[int]:
    """Populate ``db`` with uniform segments in the given ER-tree shape.

    Every segment contains every tag (``n_elements >= n_tags`` required) —
    the paper's worst case for tag-list growth (Fig. 11).  Returns the sids
    in insertion order.
    """
    if elements_per_segment < n_tags:
        raise UpdateError(
            "elements_per_segment must be >= n_tags so every segment "
            "contains every tag"
        )
    tags = tag_pool(n_tags)
    fragment = generate_uniform_fragment(elements_per_segment, tags)
    parents = parent_plan(n_segments, shape, branching)
    sids: list[int] = []
    for i in range(n_segments):
        if parents[i] < 0:
            receipt = db.insert(fragment, db.document_length)
        else:
            receipt = insert_under(db, sids[parents[i]], fragment, tags[0])
        sids.append(receipt.sid)
    return sids
