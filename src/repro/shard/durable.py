"""Durable sharding: per-shard WAL directories + a coordinated manifest.

Directory layout::

    <root>/
      manifest.json        # atomic: epoch, shard count, per-shard seq+crc,
                           # and the document map at checkpoint time
      docmap.wal           # meta journal of document-map changes
      shard-00/            # one DurableDatabase directory per shard
        journal.wal
        checkpoint-<epoch>.json
      shard-01/ ...

**Commit protocol.**  An op that changes the document map (new document /
document removal) first appends a meta record to ``docmap.wal`` carrying
the *shard journal seq the shard op is about to get* — then commits on
the shard (validate -> shard journal fsync -> apply).  Recovery replays a
meta record only when the shard's recovered journal actually reached that
seq; a record whose seq the manifest already covers was folded into the
manifest's document list at checkpoint time and is skipped.  A dangling
(unreached) record can only be the tail (one op in flight at a time) and
is discarded *durably* — rewritten out of ``docmap.wal``, since a later
commit reaching the predicted seq would otherwise resurrect it as a
phantom document.  A dangling record anywhere else means the directory
was tampered with — a typed :class:`~repro.storage.SnapshotError`.

**Coordinated checkpoint (all-or-nothing).**  Phase 1 writes every
shard's snapshot under the *next* epoch's name (journals untouched — the
old epoch stays fully recoverable).  The single atomic commit point is
the manifest replace: it names the new epoch, the per-shard ``last_seq``
and payload crc32, and the document map.  Phase 2 truncates the shard
journals and the meta journal and deletes old-epoch snapshots.  A crash
anywhere leaves either a complete old epoch or a complete new one; on
reopen, a shard checkpoint that is missing or disagrees with the manifest
(crc or seq — a mixed-epoch set) is refused with a typed
:class:`~repro.storage.SnapshotError` instead of silently loading.

One honest caveat (also in DESIGN.md §4f): a multi-document removal
decomposes into per-document commits, so a crash mid-decomposition
durably keeps a *prefix* of the removals — each individually consistent,
but not atomic as a set.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.durability import hooks
from repro.durability.atomic import atomic_write_text
from repro.durability.recovery import validate_op
from repro.durability.database import DurableDatabase
from repro.durability.wal import Journal, read_journal
from repro.errors import RecoveryError
from repro.shard.database import ShardedDatabase
from repro.shard.docmap import DocumentMap
from repro.storage import SnapshotError

__all__ = ["ShardedDurableDatabase", "MANIFEST_NAME", "DOCMAP_JOURNAL_NAME"]

MANIFEST_NAME = "manifest.json"
DOCMAP_JOURNAL_NAME = "docmap.wal"
MANIFEST_FORMAT = "repro-shard-manifest"
MANIFEST_VERSION = 1


def _shard_dirname(index: int) -> str:
    return f"shard-{index:02d}"


def _checkpoint_name(epoch: int) -> str:
    return f"checkpoint-{epoch}.json"


def read_manifest(directory: Path) -> dict | None:
    """Load and structurally validate ``manifest.json`` (None if absent)."""
    path = directory / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable shard manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise SnapshotError(f"{path} is not a shard manifest")
    if manifest.get("version") != MANIFEST_VERSION:
        raise SnapshotError(
            f"unsupported shard manifest version {manifest.get('version')!r}"
        )
    n = manifest.get("n_shards")
    epoch = manifest.get("epoch")
    docs = manifest.get("docs")
    shards = manifest.get("shards")
    if (
        not isinstance(n, int)
        or n < 1
        or not isinstance(epoch, int)
        or epoch < 0
        or not isinstance(docs, list)
        or not all(isinstance(s, int) and 0 <= s < n for s in docs)
        or not isinstance(shards, list)
        or len(shards) != n
    ):
        raise SnapshotError(f"shard manifest {path} has ill-typed fields")
    for index, entry in enumerate(shards):
        if (
            not isinstance(entry, dict)
            or entry.get("index") != index
            or not isinstance(entry.get("last_seq"), int)
            or not (entry.get("crc32") is None or isinstance(entry["crc32"], int))
        ):
            raise SnapshotError(
                f"shard manifest {path} entry {index} is malformed"
            )
    return manifest


class ShardedDurableDatabase(ShardedDatabase):
    """A :class:`ShardedDatabase` whose shards are durable directories.

    Parameters
    ----------
    directory:
        The sharded root (see module docstring).  Created when missing;
        an existing directory is opened through coordinated recovery.
    n_shards:
        Required when creating a fresh directory; on reopen it must match
        the manifest (or be omitted).

    A coordinated checkpoint is taken when :meth:`checkpoint` is called.
    """

    def __init__(
        self,
        directory: str | Path,
        n_shards: int | None = None,
        *,
        executor="inprocess",
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = read_manifest(self.directory)
        if manifest is None:
            if n_shards is None:
                n_shards = 1
            epoch = 0
            docs: list[int] = []
            entries = [
                {"index": i, "last_seq": 0, "crc32": None} for i in range(n_shards)
            ]
        else:
            if n_shards is not None and n_shards != manifest["n_shards"]:
                raise SnapshotError(
                    f"directory {self.directory} holds {manifest['n_shards']} "
                    f"shards; cannot open with n_shards={n_shards}"
                )
            n_shards = manifest["n_shards"]
            epoch = manifest["epoch"]
            docs = list(manifest["docs"])
            entries = manifest["shards"]
        self._epoch = epoch
        durables: list[DurableDatabase] = []
        for i in range(n_shards):
            shard_dir = self.directory / _shard_dirname(i)
            self._verify_epoch_checkpoint(shard_dir, i, epoch, entries[i])
            durables.append(
                DurableDatabase(
                    shard_dir,
                    checkpoint_name=_checkpoint_name(epoch),
                    sid_start=1 + i,
                    sid_stride=n_shards,
                )
            )
        docs, meta_seq, meta_scan, dangling = self._replay_docmap(
            durables, docs, entries
        )
        super().__init__(
            n_shards,
            executor=executor,
            shards=durables,
            docmap=DocumentMap(docs),
        )
        meta_path = self.directory / DOCMAP_JOURNAL_NAME
        if dangling:
            # The discard must be durable: a later commit will reach the
            # seq the dangling record predicted, and an on-disk copy would
            # then be replayed as a phantom document on the next open.
            self._meta_journal = Journal(meta_path, truncate_to=0)
            self._meta_journal.append_all(
                (rec["seq"], {k: v for k, v in rec.items() if k != "seq"})
                for rec in meta_scan.records[:-1]
            )
        else:
            self._meta_journal = Journal(
                meta_path,
                truncate_to=(
                    meta_scan.valid_bytes if meta_scan.torn_tail else None
                ),
            )
        self._meta_seq = meta_seq
        self._in_batch = False
        try:
            self.check_invariants()
        except AssertionError as exc:
            raise SnapshotError(
                f"recovered sharded directory {self.directory} fails the "
                f"document-map correspondence: {exc}"
            ) from exc
        if manifest is None:
            self._write_manifest()
        self._drop_stale_checkpoints()

    # ------------------------------------------------------------------
    # recovery pieces

    def _verify_epoch_checkpoint(
        self, shard_dir: Path, index: int, epoch: int, entry: dict
    ) -> None:
        """Refuse a checkpoint that is missing or from another epoch."""
        path = shard_dir / _checkpoint_name(epoch)
        if entry["crc32"] is None:
            # No coordinated checkpoint taken at this epoch (fresh set).
            return
        if not path.exists():
            raise SnapshotError(
                f"shard {index} is missing its epoch-{epoch} checkpoint "
                f"({path}): mixed-epoch shard checkpoint set refused"
            )
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SnapshotError(
                f"shard {index} epoch-{epoch} checkpoint unreadable: {exc}"
            ) from exc
        if (
            not isinstance(envelope, dict)
            or envelope.get("crc32") != entry["crc32"]
            or envelope.get("last_seq") != entry["last_seq"]
        ):
            raise SnapshotError(
                f"shard {index} checkpoint {path} does not match the "
                f"manifest (expected seq {entry['last_seq']}, "
                f"crc {entry['crc32']}): mixed-epoch shard checkpoint set "
                "refused"
            )

    def _replay_docmap(
        self,
        durables: list[DurableDatabase],
        docs: list[int],
        entries: list[dict],
    ):
        """Fold ``docmap.wal`` into the manifest's document list.

        A record whose ``shard_seq`` the manifest entry already covers was
        folded into the manifest's document list by the coordinated
        checkpoint and is skipped — a crash between the manifest swap and
        the meta-journal truncation leaves such records behind.  Otherwise
        a record is applied only when its shard's recovered journal
        reached the seq the record predicted; an unreached record is legal
        only as the tail (the crash window between the meta append and the
        shard commit) and is reported for durable discard.
        """
        scan = read_journal(self.directory / DOCMAP_JOURNAL_NAME)
        docs = list(docs)
        meta_seq = 0
        dangling = False
        for position, record in enumerate(scan.records):
            meta_seq = record["seq"]
            shard = record.get("shard")
            shard_seq = record.get("shard_seq")
            kind = record.get("op")
            if (
                not isinstance(shard, int)
                or not 0 <= shard < len(durables)
                or not isinstance(shard_seq, int)
                or kind not in ("doc_insert", "doc_remove")
            ):
                raise SnapshotError(
                    f"malformed docmap.wal record at seq {record.get('seq')}"
                )
            if shard_seq <= entries[shard]["last_seq"]:
                continue
            if durables[shard].last_seq >= shard_seq:
                index = record["index"]
                if kind == "doc_insert":
                    docs.insert(index, shard)
                else:
                    del docs[index]
            elif position != len(scan.records) - 1:
                raise SnapshotError(
                    f"docmap.wal seq {record['seq']} references shard "
                    f"{shard} seq {shard_seq}, which the shard journal "
                    "never reached — inconsistent sharded directory"
                )
            else:
                dangling = True
        return docs, meta_seq, scan, dangling

    def _drop_stale_checkpoints(self) -> None:
        """Delete snapshot files from other epochs (crashed phase 1s)."""
        keep = _checkpoint_name(self._epoch)
        for i in range(self.n_shards):
            shard_dir = self.directory / _shard_dirname(i)
            for path in shard_dir.glob("checkpoint-*.json"):
                if path.name != keep:
                    path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # commit protocol (meta record before shard commit)

    def _pre_commit(self, shard: int, op: dict, doc_change) -> None:
        # Validate read-only against the shard *first*: a rejected op must
        # not leave a dangling meta record behind.
        validate_op(self._base(shard), op)
        if doc_change is None:
            return
        kind, doc_index = doc_change
        self._meta_seq += 1
        self._meta_journal.append(
            self._meta_seq,
            {
                "op": "doc_insert" if kind == "insert" else "doc_remove",
                "index": doc_index,
                "shard": shard,
                "shard_seq": self._shards[shard].last_seq + 1,
            },
        )

    def _commit(self, shard: int, op: dict, doc_change=None):
        if self._in_batch and doc_change is not None:
            # Document-map changes keep the per-op meta protocol: the meta
            # record predicts the exact shard journal seq the commit is
            # about to take, so every pending batch buffer must flush
            # first (per-shard journal order == live apply order) and the
            # op itself journals immediately instead of riding the batch.
            self._flush_deferred()
            durable = self._shards[shard]
            durable.suspend_deferred()
            try:
                return super()._commit(shard, op, doc_change)
            finally:
                durable.resume_deferred()
        return super()._commit(shard, op, doc_change)

    # ------------------------------------------------------------------
    # batched commits (one journal record per shard share)

    @contextmanager
    def _batched_commits(self):
        """Per-shard deferred journaling for the span of one apply_batch.

        Every shard buffers its share of the batch and flushes it as a
        single CRC-framed journal record with one fsync — so the batch
        costs one fsync *per touched shard* instead of one per op, and
        recovery sees each shard's share apply all-or-nothing.  Atomicity
        is per shard: a crash between two shard flushes durably keeps one
        shard's share and not the other's (same caveat as multi-document
        removals, DESIGN.md §4f).  The flush runs even when a sub-op
        raises, keeping disk in lockstep with the already-applied prefix.
        """
        for durable in self._shards:
            durable.begin_deferred()
        self._in_batch = True
        try:
            yield
        finally:
            self._in_batch = False
            self._flush_deferred(end=True)

    def _flush_deferred(self, end: bool = False) -> None:
        """Flush every shard's buffer; first failure re-raised at the end.

        A failing shard poisons its own handle (its applied suffix can no
        longer be proven durable there), but the other shards' buffers
        still flush — their in-memory state must stay provably on disk.
        """
        first_error: Exception | None = None
        for durable in self._shards:
            try:
                durable.flush_deferred(end=end)
            except Exception as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    # ------------------------------------------------------------------
    # coordinated checkpoint

    @property
    def epoch(self) -> int:
        """Epoch of the current coordinated checkpoint set."""
        return self._epoch

    def checkpoint(self) -> None:
        """Take a coordinated, all-or-nothing checkpoint of every shard.

        Phase 1 snapshots each shard under the next epoch's name; the
        manifest replace is the single commit point; phase 2 truncates
        journals and reclaims the old epoch's files.
        """
        with self._lock:
            new_epoch = self._epoch + 1
            name = _checkpoint_name(new_epoch)
            entries = []
            for i, durable in enumerate(self._shards):
                crc = durable.export_checkpoint(name)
                entries.append(
                    {"index": i, "last_seq": durable.last_seq, "crc32": crc}
                )
            old_epoch = self._epoch
            self._epoch = new_epoch
            self._write_manifest(entries)
            for durable in self._shards:
                durable.confirm_checkpoint()
            self._meta_journal.truncate()
            for i in range(self.n_shards):
                old = (
                    self.directory
                    / _shard_dirname(i)
                    / _checkpoint_name(old_epoch)
                )
                old.unlink(missing_ok=True)

    def _write_manifest(self, entries: list[dict] | None = None) -> None:
        if entries is None:
            entries = [
                {"index": i, "last_seq": d.last_seq, "crc32": None}
                for i, d in enumerate(self._shards)
            ]
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "n_shards": self.n_shards,
            "epoch": self._epoch,
            "docs": self.docmap.to_list(),
            "shards": entries,
        }
        hooks.fire("manifest.before_write")
        atomic_write_text(self.directory / MANIFEST_NAME, json.dumps(manifest))
        hooks.fire("manifest.after_write")

    # ------------------------------------------------------------------
    # introspection / lifecycle

    @property
    def journal_size(self) -> int:
        """Bytes in the shard journals (a checkpoint truncates them)."""
        return sum(d.journal_size for d in self._shards)

    def recovery_reports(self):
        """The per-shard :class:`RecoveryReport` objects from opening."""
        return [d.recovery_report for d in self._shards]

    def close(self) -> None:
        super().close()
        for durable in self._shards:
            durable.close()
        self._meta_journal.close()
