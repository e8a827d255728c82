"""Persistent, content-addressed verdict store for the inspection daemon.

The in-memory :class:`~repro.service.cache.InspectionCache` makes one
daemon fast *while it lives*; the provider also needs the "judge the
binary once, reuse the attested verdict" economy to survive restarts.
:class:`VerdictStore` is the durable tier:

* **content-addressed layout** — one blob per cache key
  (``(sha256(elf), policy digest)``), filed under the sha256 of the
  joined key, so a daemon restarted over the same directory finds every
  verdict it published without an index to rebuild,
* **crash-consistent writes** — every publish goes to a temp file in
  the same directory, is flushed and ``fsync``-ed, then atomically
  ``os.replace``-d into place.  A reader concurrent with a publish (or
  a compaction) sees either the complete old blob, the complete new
  blob, or a clean miss — never a torn read,
* **self-verifying blobs** — each blob carries a magic/version header,
  its own key, the payload length, and a trailing sha256 over
  everything before it.  :meth:`load` re-checks all of it on every
  read; any mismatch (truncation, bitflip, a blob renamed onto the
  wrong key) raises a typed :class:`~repro.errors.StoreError` and the
  blob is discarded — **fail closed: a corrupt blob is a miss plus a
  typed error, never a false verdict hit**,
* **startup recovery** — :meth:`recover` (run by the constructor)
  sweeps the directory, deletes leftover temp files from interrupted
  publishes, and discards every blob that fails validation, so a daemon
  restarted over a crashed store serves only verdicts that verify.

:class:`TieredCache` stacks the existing in-memory LRU on top: memory
first, then the store (promoting hits), with puts written through.  It
is a drop-in :class:`InspectionCache`: ``repro serve --store DIR`` hands
one to :class:`~repro.service.daemon.InspectionDaemon` as its ``cache``,
and the daemon's :class:`BatchInspector` picks up persistence without
touching the inspection pipeline.  The daemon's ``store`` block in
STATUS/METRICS reads this cache's store.

Like the in-memory caches, the store is provider-side service
infrastructure outside the enclave TCB — it uses :mod:`hashlib` and the
host filesystem, not the from-scratch crypto plane.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import replace
from pathlib import Path

from ..core.report import ComplianceReport
from ..errors import StoreError
from .cache import InspectionCache

__all__ = ["VerdictStore", "TieredCache", "ZERO_STORE"]

#: blob header: magic, format version, key length, payload length
_BLOB_HEADER = struct.Struct(">4sBHI")
_BLOB_MAGIC = b"EGVS"
_BLOB_VERSION = 1
#: trailing sha256 over header + key + payload
_DIGEST_LEN = 32
#: separator joining key components before hashing/embedding (never
#: appears in hex-digest or decimal key parts)
_KEY_SEP = b"\x1f"

#: the stable, always-present shape of the daemon's STATUS/METRICS
#: ``store`` block when no store is attached — mirrors the
#: ``ZERO_RESILIENCE`` pattern so the schema never changes shape
ZERO_STORE = {
    "attached": False,
    "path": "",
    "blobs": 0,
    "hits": 0,
    "misses": 0,
    "puts": 0,
    "corrupt_discarded": 0,
    "recovered": 0,
    "recovery_discarded": 0,
    "compacted": 0,
}


def _encode_key(key) -> bytes:
    """The joined byte form of a cache key (any tuple of strings)."""
    if isinstance(key, str):
        key = (key,)
    return _KEY_SEP.join(part.encode() for part in key)


class VerdictStore:
    """Durable content-addressed verdict blobs under one directory.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Blobs live under
        ``root/blobs/<xx>/<key-digest>.blob``; temp files share the
        leaf directory so the final rename never crosses filesystems.
    fsync:
        Flush every publish to stable storage before the atomic rename
        (default).  ``False`` trades crash durability for speed in
        tests and benchmarks — atomicity is kept either way.
    capacity:
        Soft blob-count bound enforced by :meth:`compact` (``None`` =
        unbounded; :meth:`put` never blocks on compaction).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        fsync: bool = True,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise StoreError("store capacity must be >= 1 or None")
        self.root = Path(root)
        self.fsync = fsync
        self.capacity = capacity
        self._blob_dir = self.root / "blobs"
        try:
            self._blob_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(f"store root unusable: {exc}") from exc
        self._lock = threading.Lock()
        self._tmp_seq = 0
        self._stats = dict(ZERO_STORE)
        self._stats["attached"] = True
        self._stats["path"] = str(self.root)
        self.recover()

    # ------------------------------------------------------------ layout

    def _key_digest(self, key) -> str:
        return hashlib.sha256(_encode_key(key)).hexdigest()

    def _path_for(self, key) -> Path:
        digest = self._key_digest(key)
        return self._blob_dir / digest[:2] / f"{digest}.blob"

    # ------------------------------------------------------------- blobs

    @staticmethod
    def _encode_blob(key_bytes: bytes, payload: bytes) -> bytes:
        body = _BLOB_HEADER.pack(
            _BLOB_MAGIC, _BLOB_VERSION, len(key_bytes), len(payload)
        ) + key_bytes + payload
        return body + hashlib.sha256(body).digest()

    @staticmethod
    def _decode_blob(blob: bytes, *, what: str) -> tuple[bytes, bytes]:
        """(key bytes, payload) — raises typed :class:`StoreError` on any
        torn, truncated, or corrupted blob."""
        if len(blob) < _BLOB_HEADER.size + _DIGEST_LEN:
            raise StoreError(
                f"torn verdict blob {what}: {len(blob)} bytes is shorter "
                f"than the {_BLOB_HEADER.size + _DIGEST_LEN}-byte minimum"
            )
        magic, version, key_len, payload_len = _BLOB_HEADER.unpack_from(blob)
        if magic != _BLOB_MAGIC:
            raise StoreError(
                f"verdict blob {what} has bad magic {magic!r} "
                f"(expected {_BLOB_MAGIC!r})"
            )
        if version != _BLOB_VERSION:
            raise StoreError(
                f"verdict blob {what} has unsupported format version "
                f"{version} (this store writes {_BLOB_VERSION})"
            )
        expected = _BLOB_HEADER.size + key_len + payload_len + _DIGEST_LEN
        if len(blob) != expected:
            raise StoreError(
                f"verdict blob {what} length mismatch: header implies "
                f"{expected} bytes, file carries {len(blob)} (torn write?)"
            )
        body, digest = blob[:-_DIGEST_LEN], blob[-_DIGEST_LEN:]
        if hashlib.sha256(body).digest() != digest:
            raise StoreError(
                f"verdict blob {what} failed its sha256 integrity check"
            )
        off = _BLOB_HEADER.size
        return bytes(blob[off:off + key_len]), bytes(blob[off + key_len:-_DIGEST_LEN])

    # ---------------------------------------------------------------- io

    def put(self, key, wire: bytes) -> None:
        """Publish the report wire bytes for *key* (atomic, idempotent).

        A duplicate publish replaces the blob atomically — concurrent
        readers keep whichever complete version they opened.
        """
        if not isinstance(wire, (bytes, bytearray, memoryview)):
            raise StoreError(
                f"verdict payload must be bytes, got {type(wire).__name__}"
            )
        key_bytes = _encode_key(key)
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = self._encode_blob(key_bytes, bytes(wire))
        with self._lock:
            self._tmp_seq += 1
            seq = self._tmp_seq
        tmp = path.parent / f".{path.stem}.{os.getpid()}.{seq}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(blob)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            fresh = not path.exists()
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise StoreError(
                f"verdict blob publish failed: {type(exc).__name__}: {exc}"
            ) from exc
        with self._lock:
            self._stats["puts"] += 1
            if fresh:
                self._stats["blobs"] += 1

    def load(self, key) -> bytes | None:
        """The stored report wire for *key*, ``None`` when absent.

        Any validation failure discards the blob and raises a typed
        :class:`StoreError` — the caller decides whether to surface it
        or degrade to a miss (:class:`TieredCache` does the latter).
        """
        path = self._path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self._stats["misses"] += 1
            return None
        except OSError as exc:
            raise StoreError(
                f"verdict blob read failed: {type(exc).__name__}: {exc}"
            ) from exc
        try:
            stored_key, payload = self._decode_blob(blob, what=path.name)
            if stored_key != _encode_key(key):
                raise StoreError(
                    f"verdict blob {path.name} carries a different key than "
                    "it is filed under (misplaced or forged blob)"
                )
        except StoreError:
            self._discard(path)
            raise
        with self._lock:
            self._stats["hits"] += 1
        return payload

    def get(self, key) -> bytes | None:
        """:meth:`load` degraded fail-closed: corruption becomes a miss
        (the blob is still discarded and counted)."""
        try:
            return self.load(key)
        except StoreError:
            return None

    def __contains__(self, key) -> bool:
        return self._path_for(key).exists()

    def __len__(self) -> int:
        with self._lock:
            return self._stats["blobs"]

    def _discard(self, path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        with self._lock:
            self._stats["corrupt_discarded"] += 1
            self._stats["blobs"] = max(0, self._stats["blobs"] - 1)

    # ---------------------------------------------------------- recovery

    def recover(self) -> dict:
        """Sweep the directory: drop temp leftovers, validate every blob.

        Returns ``{"kept": n, "discarded": m}``.  Discards are
        unconditional — a blob that cannot prove its own integrity is
        deleted, never served.
        """
        kept = discarded = 0
        for path in sorted(self._blob_dir.rglob("*")):
            if not path.is_file():
                continue
            if path.suffix != ".blob":
                # interrupted publish: the rename never happened
                try:
                    path.unlink(missing_ok=True)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                discarded += 1
                continue
            try:
                stored_key, _ = self._decode_blob(
                    path.read_bytes(), what=path.name
                )
                if self._key_digest_bytes(stored_key) != path.stem:
                    raise StoreError(
                        f"verdict blob {path.name} is filed under the wrong "
                        "key digest"
                    )
            except (StoreError, OSError):
                try:
                    path.unlink(missing_ok=True)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                discarded += 1
                continue
            kept += 1
        with self._lock:
            self._stats["blobs"] = kept
            self._stats["recovered"] = kept
            self._stats["recovery_discarded"] += discarded
        return {"kept": kept, "discarded": discarded}

    @staticmethod
    def _key_digest_bytes(key_bytes: bytes) -> str:
        return hashlib.sha256(key_bytes).hexdigest()

    # -------------------------------------------------------- compaction

    def compact(self, *, max_blobs: int | None = None) -> int:
        """Prune oldest blobs until at most *max_blobs* remain.

        Removal is whole-file deletion, so a reader racing the
        compaction sees either the complete blob or a clean miss.
        Returns the number of blobs removed.
        """
        limit = self.capacity if max_blobs is None else max_blobs
        if limit is None:
            return 0
        if limit < 0:
            raise StoreError("compaction limit must be >= 0")
        entries = []
        for path in self._blob_dir.rglob("*.blob"):
            try:
                entries.append((path.stat().st_mtime_ns, str(path), path))
            except OSError:  # pragma: no cover - racing deletion
                continue
        removed = 0
        if len(entries) > limit:
            entries.sort()
            for _, _, path in entries[: len(entries) - limit]:
                try:
                    path.unlink(missing_ok=True)
                    removed += 1
                except OSError:  # pragma: no cover - racing deletion
                    continue
        if removed:
            with self._lock:
                self._stats["compacted"] += removed
                self._stats["blobs"] = max(0, self._stats["blobs"] - removed)
        return removed

    # ------------------------------------------------------------- stats

    def stats(self) -> dict:
        """JSON-ready counters — same key set as :data:`ZERO_STORE`."""
        with self._lock:
            return dict(self._stats)


# ------------------------------------------------------------------ tiering


class TieredCache(InspectionCache):
    """The in-memory LRU tiered over a :class:`VerdictStore`.

    * :meth:`get` — memory first; on a miss, the store.  A store hit is
      promoted into memory (label-stripped, LRU rules unchanged).  A
      corrupt or non-round-tripping blob is discarded by the store and
      degraded to a miss — the inspection re-runs, it is never served
      a wrong verdict.
    * :meth:`put` — memory plus write-through to the store, so a
      restarted process is warm from its first request.
    """

    def __init__(self, store: VerdictStore, capacity: int = 1024) -> None:
        super().__init__(capacity)
        self.store = store

    def get(self, key, *, benchmark: str = "") -> ComplianceReport | None:
        report = super().get(key, benchmark=benchmark)
        if report is not None:
            return report
        wire = self.store.get(key)
        if wire is None:
            return None
        try:
            report = ComplianceReport.deserialize(wire)
        except Exception:  # noqa: BLE001 — integrity boundary
            report = None
        if report is None or report.serialize() != wire:
            # a blob that validated its digest but does not round-trip
            # is still refused — fail closed to a re-inspection
            self.store._discard(self.store._path_for(key))
            return None
        super().put(key, report)
        if report.benchmark != benchmark:
            report = replace(report, benchmark=benchmark)
        return report

    def put(self, key, report: ComplianceReport) -> None:
        super().put(key, report)
        if report.benchmark:
            report = replace(report, benchmark="")
        try:
            self.store.put(key, report.serialize())
        except StoreError:
            # durability is best-effort from the cache's point of view;
            # the verdict is already served from memory
            pass

    def tier_stats(self) -> dict:
        """Both tiers' counters in one JSON-ready dict."""
        return {"memory": self.stats().as_dict(), "store": self.store.stats()}
