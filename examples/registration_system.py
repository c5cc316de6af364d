"""The paper's online-registration scenario (Section 1), end to end.

Every submitted form becomes one XML segment appended to the database —
20–30 elements at a time, exactly the batch-update pattern the lazy approach
targets.  The script streams registrations in, interleaves queries,
processes a few cancellations, and prints update-log statistics along the
way.

Run:  python examples/registration_system.py [n_forms]
"""

import sys
import time

from repro import LazyXMLDatabase
from repro.workloads.scenarios import registration_stream


def main(n_forms: int = 200) -> None:
    db = LazyXMLDatabase()

    print(f"accepting {n_forms} registration forms ...")
    started = time.perf_counter()
    sids = []
    for fragment in registration_stream(n_forms):
        sids.append(db.insert(fragment).sid)
    elapsed = time.perf_counter() - started
    print(f"  {n_forms} segments / {db.element_count} elements "
          f"in {elapsed * 1e3:.1f} ms "
          f"({elapsed / n_forms * 1e6:.1f} µs per form)")

    stats = db.stats()
    print(f"  update log: SB-tree {stats.sbtree_bytes / 1024:.1f} KB + "
          f"tag-list {stats.taglist_bytes / 1024:.1f} KB "
          f"= {stats.total_bytes / 1024:.1f} KB in memory")

    # Marketing wants to know who registered interests.
    started = time.perf_counter()
    pairs = db.structural_join("registration", "interest")
    print(f"registration//interest: {len(pairs)} pairs "
          f"in {(time.perf_counter() - started) * 1e3:.2f} ms")

    # Direct-child query: users and their occupations.
    pairs = db.structural_join("user", "occupation", axis="child")
    print(f"user/occupation: {len(pairs)} pairs")

    # A few users cancel: remove their whole form segments. No surviving
    # element label is touched.
    cancelled = sids[10:20]
    started = time.perf_counter()
    removed_elements = sum(db.remove_segment(sid).elements_removed for sid in cancelled)
    print(f"cancelled {len(cancelled)} registrations "
          f"({removed_elements} element records) "
          f"in {(time.perf_counter() - started) * 1e3:.2f} ms")

    pairs = db.structural_join("registration", "interest")
    print(f"registration//interest after cancellations: {len(pairs)} pairs")
    print(f"database now holds {db.segment_count} segments, "
          f"{db.element_count} elements, {db.document_length} characters")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 200)
