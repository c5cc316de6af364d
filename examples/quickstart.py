"""Quickstart: the lazy XML database in five minutes.

Creates a database, performs text-level inserts and removals, runs
structural joins, and shows the laziness invariant in action: element index
keys never change even as their global positions shift.

Run:  python examples/quickstart.py
"""

from repro import JoinStatistics, LazyXMLDatabase
from repro.joins import std_join


def main() -> None:
    db = LazyXMLDatabase()  # LD mode: update log maintained on every update

    # 1. Insert a document. The whole database is one "super document";
    #    every insert adds a well-formed XML segment at a character offset.
    receipt = db.insert("<library><shelf><book><title/></book></shelf></library>")
    print("inserted segment", receipt.sid, "path", receipt.path)
    print("document:", db.text)

    # 2. Insert another segment *inside* the existing one. Only the text
    #    offset matters — exactly the paper's text-editing model.
    position = db.text.index("<book>")
    db.insert("<book><title/><author/></book>", position)
    print("after nested insert:", db.text)

    # 3. Structural join: all shelf//title pairs, straight off the update
    #    log and element index (Lazy-Join, Fig. 9 of the paper).
    stats = JoinStatistics()
    pairs = db.structural_join("shelf", "title", stats=stats)
    print(f"shelf//title -> {len(pairs)} pairs "
          f"({stats.cross_pairs} cross-segment, {stats.in_segment_pairs} in-segment)")
    for anc, desc in pairs:
        print("   ancestor", db.global_span(anc), "descendant", db.global_span(desc))

    # 4. The laziness invariant: the <title/> of segment 1 keeps its local
    #    label forever, while its *global* position is derived on demand.
    tid_title = db.log.tags.tid_of("title")
    record = db.index.block(1).tag(tid_title)[0]
    print("segment-1 title local label:", (record.sid, record.start, record.end))
    print("derived global span:", db.global_span(record))
    db.insert("<pamphlet/>", db.text.index("<shelf>"))  # shifts everything after
    print("same local label:", (record.sid, record.start, record.end))
    print("new global span:  ", db.global_span(record))

    # 5. Removal is also just (position, length).
    start = db.text.index("<pamphlet/>")
    outcome = db.remove(start, len("<pamphlet/>"))
    print("removed", outcome.elements_removed, "element(s); document:", db.text)

    # 6. Compare with the baseline: Stack-Tree-Desc over derived global
    #    labels (std_join) — identical answers.
    lazy = {(db.global_span(a), db.global_span(d))
            for a, d in db.structural_join("library", "title")}
    std = {(db.global_span(a), db.global_span(d))
           for a, d in std_join(db, "library", "title")}
    assert lazy == std
    print("lazy == std on library//title:", len(lazy), "pairs")


if __name__ == "__main__":
    main()
