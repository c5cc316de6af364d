"""The paper's DBLP scenario: daily batch updates in LS (lazy static) mode.

A bibliography server receives batches of new entries during the day and
answers queries at night.  LS mode makes updates as cheap as possible —
only the ER-tree is maintained and the tag-list takes unsorted appends;
sorting is deferred into one ``prepare_for_query()`` call before the query
window.

Run:  python examples/dblp_batch.py [n_days] [entries_per_day]
"""

import sys
import time

from repro import LazyXMLDatabase
from repro.workloads.scenarios import dblp_stream


def main(n_days: int = 5, entries_per_day: int = 80) -> None:
    db = LazyXMLDatabase(mode="static")

    for day in range(n_days):
        # Daytime: entries stream in; nothing but the ER-tree is maintained.
        started = time.perf_counter()
        for entry in dblp_stream(entries_per_day, seed=1000 + day):
            db.insert(entry)
        update_ms = (time.perf_counter() - started) * 1e3

        # Nightfall: make the log query-ready, then answer queries.
        started = time.perf_counter()
        db.prepare_for_query()
        prepare_ms = (time.perf_counter() - started) * 1e3

        started = time.perf_counter()
        by_author = db.structural_join("article", "author")
        in_proc = db.structural_join("inproceedings", "booktitle")
        query_ms = (time.perf_counter() - started) * 1e3

        print(
            f"day {day + 1}: +{entries_per_day} entries "
            f"(ingest {update_ms:.2f} ms, prepare {prepare_ms:.2f} ms, "
            f"queries {query_ms:.2f} ms) — "
            f"{len(by_author)} article//author, "
            f"{len(in_proc)} inproceedings//booktitle"
        )

    stats = db.stats()
    print(
        f"\nfinal: {db.segment_count} segments, {db.element_count} elements; "
        f"update log {stats.total_bytes / 1024:.1f} KB "
        f"(tag-list {stats.taglist_bytes / 1024:.1f} KB)"
    )
    print(
        "LS trade-off: every daytime insert skipped tag-list sorting;\n"
        "the one-off prepare step paid it back at night."
    )


if __name__ == "__main__":
    days = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    per_day = int(sys.argv[2]) if len(sys.argv) > 2 else 80
    main(days, per_day)
