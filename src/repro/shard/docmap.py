"""The document map: global document order -> owning shard.

Every top-level document in the virtual super document is one entry; the
entry's value is the shard index that stores it.  Because each shard keeps
its own documents as the (ordered) children of its dummy root, the map is
deliberately minimal — document *lengths* and spans are never duplicated
here, they are read live from the owning shard's ER-tree.  The structural
invariant the coordinator maintains (and ``check_invariants`` asserts):

    the documents mapped to shard *s*, taken in global order, correspond
    1:1 and in order to shard *s*'s dummy-root children.

That correspondence is what makes the virtual-global <-> shard-local
coordinate translation a pair of prefix sums.
"""

from __future__ import annotations

__all__ = ["DocumentMap"]


class DocumentMap:
    """Ordered document -> shard assignment (see module docstring)."""

    __slots__ = ("_docs",)

    def __init__(self):
        self._docs: list[int] = []

    # ------------------------------------------------------------------
    # reads

    def __len__(self) -> int:
        return len(self._docs)

    @property
    def docs(self) -> list[int]:
        """Shard index per document, in global document order (a copy)."""
        return list(self._docs)

    def ordinal(self, doc_index: int) -> int:
        """The document's position among its shard's documents.

        Equals the index of the matching dummy-root child on the owning
        shard — the 1:1 correspondence invariant.
        """
        shard = self._docs[doc_index]
        return sum(1 for s in self._docs[:doc_index] if s == shard)

    def docs_on(self, shard: int) -> int:
        """Number of documents assigned to ``shard``."""
        return sum(1 for s in self._docs if s == shard)

    # ------------------------------------------------------------------
    # updates (called by the coordinator under its write lock)

    def insert_doc(self, doc_index: int, shard: int) -> None:
        """Record a new document at global position ``doc_index``."""
        if not 0 <= doc_index <= len(self._docs):
            raise ValueError(
                f"document index {doc_index} outside [0, {len(self._docs)}]"
            )
        self._docs.insert(doc_index, shard)

    def remove_doc(self, doc_index: int) -> int:
        """Drop the document at ``doc_index``; returns its shard."""
        return self._docs.pop(doc_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DocumentMap docs={self._docs}>"
