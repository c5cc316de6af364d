"""XMark-style query workload over a chopped database (paper Section 5.3).

Generates an XMark-like auction site document, chops it into segments with
a balanced ER-tree, and answers the paper's five queries (Fig. 14) with
Lazy-Join and Stack-Tree-Desc, printing cardinalities, timings and
cross-segment statistics.

Run:  python examples/xmark_queries.py [scale] [n_segments]
"""

import sys
import time

from repro import JoinStatistics
from repro.joins import std_join
from repro.workloads.chopper import chop_text
from repro.workloads.xmark import XMARK_QUERIES, XMarkConfig, generate_site


def main(scale: float = 0.05, n_segments: int = 60) -> None:
    print(f"generating XMark-like site (scale={scale}) ...")
    text = generate_site(XMarkConfig(scale=scale, seed=7)).to_xml()
    print(f"  {len(text)} characters")

    print(f"chopping into {n_segments} segments (balanced ER-tree) ...")
    started = time.perf_counter()
    db, _ = chop_text(text, n_segments, "balanced", seed=1)
    print(f"  loaded in {(time.perf_counter() - started) * 1e3:.1f} ms: "
          f"{db.element_count} elements, {db.segment_count} segments")
    assert db.text == text  # chopping reproduces the document exactly

    header = f"{'query':6} {'xpath':22} {'pairs':>8} {'cross%':>7} " \
             f"{'lazy ms':>9} {'std ms':>9}"
    print("\n" + header)
    print("-" * len(header))
    for qid, tag_a, tag_d in XMARK_QUERIES:
        stats = JoinStatistics()
        started = time.perf_counter()
        pairs = db.structural_join(tag_a, tag_d, stats=stats)
        lazy_ms = (time.perf_counter() - started) * 1e3

        started = time.perf_counter()
        std_join(db, tag_a, tag_d)
        std_ms = (time.perf_counter() - started) * 1e3

        print(f"{qid:6} {tag_a + '//' + tag_d:22} {len(pairs):>8} "
              f"{stats.cross_fraction * 100:>6.1f} "
              f"{lazy_ms:>9.2f} {std_ms:>9.2f}")

    # Bonus: a parent/child query through the same machinery.
    pairs = db.structural_join("person", "profile", axis="child")
    print(f"\nperson/profile (child axis): {len(pairs)} pairs")


if __name__ == "__main__":
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    segments = int(sys.argv[2]) if len(sys.argv) > 2 else 60
    main(scale, segments)
