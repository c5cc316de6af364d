"""Workloads with a controlled cross-segment-join percentage (Fig. 12 knob).

The paper's first query experiment fixes the number of segments and the
number of A- and D-elements, then sweeps the *percentage of cross-segment
joins*.  This module constructs such super documents directly, segment by
segment, with exactly predictable pair counts.

Geometry
--------
Segments form a chain (``"nested"``) or a complete b-ary tree
(``"balanced"``).  Each non-root segment carries one ``<d/>`` element (a
cross-join target).  A child segment's insertion point in its parent is
either *wrapped* in ``wrappers`` nested ``<a>`` elements or left bare:
wrapping child ``c`` contributes ``wrappers × |subtree(c)|`` cross pairs
(the wrapper elements contain every D in the subtree below the insertion
point).  In-segment pairs come from flat ``<a><d/></a>`` blocks placed in
the *root* segment only, where no wrapper can see them — one pair each, so
cross and in-segment counts are fully decoupled.

Free ``<a/>`` and ``<d/>`` elements in the root pad |A| and |D| to fixed
targets across a sweep.  :func:`sweep_configs` picks wrapped-children
subsets greedily so the realized cross percentage tracks the requested one
while the *total* pair count stays constant.

The builder returns a :class:`JoinMixInfo` with the predicted counts, which
the test suite verifies against actual join output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.database import LazyXMLDatabase
from repro.errors import UpdateError

__all__ = [
    "JoinMixConfig", "JoinMixInfo", "build_join_mix", "parent_plan", "sweep_configs",
]

_SHAPES = ("nested", "balanced")

TAG_ROOT = "seg"
TAG_A = "a"
TAG_D = "d"
TAG_FILL = "f"


@dataclass
class JoinMixConfig:
    """Shape and content knobs for the mix builder."""

    n_segments: int = 50
    shape: str = "nested"  #: "nested" chain or "balanced" b-ary tree
    branching: int = 4  #: children per segment in the balanced shape
    wrappers: int = 1  #: nested A-elements around each *wrapped* insertion point
    wrapped_children: frozenset[int] | None = None  #: segment indices whose
    #: insertion point is wrapped; ``None`` wraps every child
    cross_d_per_segment: int = 1  #: cross-target <d/> per non-root segment
    in_blocks_per_segment: int = 0  #: <a><d/></a> blocks in *every* segment
    in_blocks_by_segment: dict[int, int] | None = None  #: per-segment
    #: in-block counts added on top of ``in_blocks_per_segment``
    in_blocks_root: int = 2  #: additional <a><d/></a> blocks in the root
    free_a_root: int = 0  #: pair-free <a/> padding (root)
    free_d_root: int = 0  #: pair-free <d/> padding (root)
    pad_a_elements: int = 0  #: <a/> padding in a dedicated sibling segment
    pad_d_elements: int = 0  #: <d/> padding in a dedicated sibling segment
    filler_per_segment: int = 0  #: neutral <f/> padding per segment

    def is_wrapped(self, child_index: int) -> bool:
        return self.wrapped_children is None or child_index in self.wrapped_children

    def in_blocks_for(self, segment_index: int) -> int:
        extra = (self.in_blocks_by_segment or {}).get(segment_index, 0)
        base = self.in_blocks_per_segment + extra
        if segment_index == 0:
            base += self.in_blocks_root
        return base


@dataclass
class JoinMixInfo:
    """What the builder created and what a correct A//D join must return."""

    sids: list[int] = field(default_factory=list)
    expected_cross: int = 0
    expected_in: int = 0
    a_elements: int = 0
    d_elements: int = 0

    @property
    def expected_total(self) -> int:
        return self.expected_cross + self.expected_in

    @property
    def cross_fraction(self) -> float:
        total = self.expected_total
        return self.expected_cross / total if total else 0.0


def parent_plan(n_segments: int, shape: str, branching: int = 8) -> list[int]:
    """Parent index for each of ``n_segments`` segments; -1 for the first.

    ``"nested"`` → a chain (segment i inside segment i-1): the paper's
    worst-case ER-tree.  ``"balanced"`` → a complete ``branching``-ary tree:
    the paper's realistic case.  ``"flat"`` → every segment directly under
    the first.
    """
    if shape == "nested":
        return [-1] + list(range(n_segments - 1))
    if shape == "balanced":
        return [-1] + [(i - 1) // branching for i in range(1, n_segments)]
    if shape == "flat":
        return [-1] + [0] * (n_segments - 1)
    raise UpdateError(f"unknown shape {shape!r}")


def subtree_sizes(parents: list[int]) -> list[int]:
    """Number of segments in each segment's subtree (itself included)."""
    sizes = [1] * len(parents)
    for i in range(len(parents) - 1, 0, -1):
        sizes[parents[i]] += sizes[i]
    return sizes


def _segment_fragment(
    config: JoinMixConfig, segment_index: int, child_indices: list[int]
) -> tuple[str, dict[int, int]]:
    """Build one segment's text; return it plus each child's anchor offset.

    The anchor offset is the local position where that child's segment must
    be inserted (inside the innermost wrapper A when wrapped, directly under
    the segment root otherwise, always just before a ``<f/>`` anchor).
    """
    parts: list[str] = [f"<{TAG_ROOT}>"]
    offset = len(parts[0])
    anchors: dict[int, int] = {}
    anchor = f"<{TAG_FILL}/>"
    for child in child_indices:
        wraps = config.wrappers if config.is_wrapped(child) else 0
        open_run = f"<{TAG_A}>" * wraps
        close_run = f"</{TAG_A}>" * wraps
        parts.append(open_run)
        anchors[child] = offset + len(open_run)
        parts.append(anchor)
        parts.append(close_run)
        offset += len(open_run) + len(anchor) + len(close_run)
    is_root = segment_index == 0
    blocks: list[str] = []
    for _ in range(config.cross_d_per_segment if not is_root else 0):
        blocks.append(f"<{TAG_D}/>")
    for _ in range(config.in_blocks_for(segment_index)):
        blocks.append(f"<{TAG_A}><{TAG_D}/></{TAG_A}>")
    if is_root:
        for _ in range(config.free_a_root):
            blocks.append(f"<{TAG_A}/>")
        for _ in range(config.free_d_root):
            blocks.append(f"<{TAG_D}/>")
    for _ in range(config.filler_per_segment):
        blocks.append(f"<{TAG_FILL}/>")
    parts.extend(blocks)
    parts.append(f"</{TAG_ROOT}>")
    return "".join(parts), anchors


def build_join_mix(
    db: LazyXMLDatabase, config: JoinMixConfig | None = None
) -> JoinMixInfo:
    """Populate ``db`` with the configured workload; return expected counts.

    ``db`` must be empty.  Works in both LD and LS modes (insertion
    positions come from the ER-tree, which both maintain).
    """
    if config is None:
        config = JoinMixConfig()
    if config.shape not in _SHAPES:
        raise UpdateError(f"shape must be one of {_SHAPES}, got {config.shape!r}")
    if db.segment_count != 0:
        raise UpdateError("build_join_mix requires an empty database")
    parents = parent_plan(config.n_segments, config.shape, config.branching)
    children_of: dict[int, list[int]] = {}
    for child, parent in enumerate(parents):
        if parent >= 0:
            children_of.setdefault(parent, []).append(child)

    # Dedicated pad segments: they pin |A| and |D| without ever being read
    # by Lazy-Join — the <d/> pad comes first in document order (skipped on
    # an empty stack), the <a/> pad contains no descendant segment (skipped
    # at the push test).  STD, which scans whole element lists, reads both.
    pad_sids: list[int] = []
    if config.pad_d_elements:
        body = f"<{TAG_D}/>" * config.pad_d_elements
        pad_sids.append(
            db.insert(f"<{TAG_ROOT}>{body}</{TAG_ROOT}>", db.document_length).sid
        )
    if config.pad_a_elements:
        body = f"<{TAG_A}/>" * config.pad_a_elements
        pad_sids.append(
            db.insert(f"<{TAG_ROOT}>{body}</{TAG_ROOT}>", db.document_length).sid
        )

    sids: list[int] = []
    anchor_maps: list[dict[int, int]] = []
    for i in range(config.n_segments):
        fragment, anchors = _segment_fragment(config, i, children_of.get(i, []))
        anchor_maps.append(anchors)
        if i == 0:
            position = db.document_length
        else:
            parent_node = db.log.node(sids[parents[i]])
            position = parent_node.to_global(anchor_maps[parents[i]][i])
        sids.append(db.insert(fragment, position).sid)

    # Predicted counts from the model.  Every D inside a non-root segment
    # (cross targets *and* in-block D's) lies under that segment's wrapped
    # ancestors' wrapper A's, so the subtree propagation counts them all;
    # root-level D's are under no wrapper and never contribute cross pairs.
    d_own = [
        config.cross_d_per_segment + config.in_blocks_for(i)
        for i in range(config.n_segments)
    ]
    d_own[0] = config.in_blocks_for(0) + config.free_d_root
    d_subtree = list(d_own)
    for i in range(config.n_segments - 1, 0, -1):
        d_subtree[parents[i]] += d_subtree[i]
    expected_cross = sum(
        config.wrappers * d_subtree[i]
        for i in range(1, config.n_segments)
        if config.is_wrapped(i)
    )
    block_count = sum(
        config.in_blocks_for(i) for i in range(config.n_segments)
    )
    expected_in = block_count
    wrapper_count = sum(
        config.wrappers
        for i in range(1, config.n_segments)
        if config.is_wrapped(i)
    )
    a_elements = (
        wrapper_count + block_count + config.free_a_root + config.pad_a_elements
    )
    d_elements = (
        (config.n_segments - 1) * config.cross_d_per_segment
        + block_count
        + config.free_d_root
        + config.pad_d_elements
    )
    return JoinMixInfo(
        sids=sids,
        expected_cross=expected_cross,
        expected_in=expected_in,
        a_elements=a_elements,
        d_elements=d_elements,
    )


def sweep_configs(
    n_segments: int,
    shape: str,
    fractions: list[float],
    *,
    branching: int = 4,
    wrappers: int = 1,
) -> list[JoinMixConfig]:
    """Configs hitting the requested cross-join fractions at constant totals.

    Every config produces (as near as subset granularity allows) the same
    total pair count ``W = Σ non-root subtree sizes`` and the same |A| and
    |D|; only the cross/in split moves.  Greedy largest-first subset
    selection picks which children's insertion points are wrapped.
    """
    parents = parent_plan(n_segments, shape, branching)
    sizes = subtree_sizes(parents)
    child_sizes = sorted(
        ((sizes[i], i) for i in range(1, n_segments)), reverse=True
    )
    # Strategy: wrap the *deepest* segments (chain suffix / deepest leaves)
    # and place in-segment blocks only in segments with no wrapped ancestor.
    # Wrapped segments then carry a bare <d/> each (pure cross targets), and
    # raising the fraction converts A+D segments into D-only segments that
    # Lazy-Join skips outright — the mechanism behind the paper's Fig. 12
    # trend.  Cross counts stay exactly predictable (subtree sums over the
    # wrapped suffix); in-segment blocks spread evenly over the unwrapped
    # prefix; free elements in the root pin |A| and |D| across the sweep.
    depths: list[int] = [0] * n_segments
    for i in range(1, n_segments):
        depths[i] = depths[parents[i]] + 1
    by_depth = sorted(range(1, n_segments), key=lambda i: -depths[i])
    total_pairs = wrappers * sum(size for size, _ in child_sizes)
    sizes = subtree_sizes(parents)
    max_wrapper_elements = wrappers * (n_segments - 1)
    configs: list[JoinMixConfig] = []
    for fraction in fractions:
        target = round(fraction * total_pairs)
        wrapped: set[int] = set()
        achieved = 0
        for index in by_depth:
            # Wrapping deepest-first keeps every wrapped subtree free of
            # in-segment blocks (blocks go strictly above the frontier).
            gain = wrappers * sizes[index]
            if achieved + gain <= target:
                wrapped.add(index)
                achieved += gain
        in_needed = total_pairs - achieved
        # Hosts for in-blocks: segments none of whose ancestors are wrapped
        # (the root plus the unwrapped prefix above the wrapped frontier).
        hosts = []
        for i in range(n_segments):
            node, clean = i, True
            while node != -1:
                if node in wrapped:
                    clean = False
                    break
                node = parents[node]
            if clean:
                hosts.append(i)
        blocks: dict[int, int] = {}
        for offset in range(in_needed):
            host = hosts[offset % len(hosts)]
            blocks[host] = blocks.get(host, 0) + 1
        wrapper_elements = wrappers * len(wrapped)
        configs.append(
            JoinMixConfig(
                n_segments=n_segments,
                shape=shape,
                branching=branching,
                wrappers=wrappers,
                wrapped_children=frozenset(wrapped),
                cross_d_per_segment=1,
                in_blocks_per_segment=0,
                in_blocks_by_segment=blocks,
                in_blocks_root=0,
                pad_a_elements=(max_wrapper_elements - wrapper_elements)
                + achieved,
                pad_d_elements=achieved,
            )
        )
    return configs
