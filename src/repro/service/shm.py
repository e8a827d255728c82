"""Zero-copy shared-memory arena for the multicore batch executor.

Pickling every raw ELF into ``executor.submit(...)`` would cost two
full copies through a pipe the pool management thread owns, per binary,
per attempt.  For data-heavy binaries the pipe transfer costs more than
the inspection itself, and every byte funnels through one file
descriptor no matter how many workers exist.  This module removes that
boundary for ``BatchInspector(mode="process")``:

* the parent writes each binary **once** into a
  :class:`multiprocessing.shared_memory.SharedMemory` slab,
* workers attach a :class:`memoryview` directly into the slab and feed
  it straight to the resumable decoder and the ELF reader (both accept
  ``memoryview`` without copying),
* only a tiny :class:`ArenaTicket` (segment name, offset, length,
  generation) crosses the pickle boundary per task, and verdicts come
  back as the compact frozen report wire they always were.

Integrity is fail-closed, mirroring the rest of the service layer:

* every slot carries a 32-byte header (magic, generation, length,
  payload sha256-prefix is deliberately *not* included — content
  addressing already happens in :mod:`repro.service.cache`); a worker
  attaching with a stale or mismatched ticket gets a typed
  :class:`~repro.errors.ArenaError`, never silently-wrong bytes,
* slots are **refcounted** and reused; every reuse bumps the slot
  generation and tombstones the old header, so a ticket that outlives
  its slot can never read another binary's content,
* teardown (:meth:`SharedArena.close`) tombstones every live header
  before unlinking, so a straggling worker attached mid-teardown fails
  closed too.

The arena is provider-side service infrastructure (outside the enclave
TCB).  It never interprets the binaries it carries.
"""

from __future__ import annotations

import multiprocessing
import struct
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

from ..errors import ArenaError

__all__ = [
    "ArenaTicket",
    "SharedArena",
    "attach_view",
    "detach_all",
]

#: slot header: magic(4) pad(4) generation(8) length(8) reserved(8)
_HEADER = struct.Struct("<4s4xQQ8x")
HEADER_SIZE = _HEADER.size          # 32 bytes
_MAGIC = b"EGAR"
_TOMBSTONE = b"DEAD"
#: slot payloads start on a cache-line boundary
_ALIGN = 64
#: default size of the first segment; later segments grow to fit demand
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024


def _round_up(n: int, align: int = _ALIGN) -> int:
    return (n + align - 1) // align * align


@dataclass(frozen=True)
class ArenaTicket:
    """A picklable claim on one published payload (what workers receive)."""

    segment: str
    offset: int
    length: int
    generation: int


class _Segment:
    """One shared-memory slab plus its free list (parent-side only)."""

    def __init__(self, size: int) -> None:
        self.shm = shared_memory.SharedMemory(create=True, size=size)
        self.size = self.shm.size
        #: sorted, coalesced list of (offset, size) holes
        self.free: list[tuple[int, int]] = [(0, self.size)]

    def allocate(self, need: int) -> int | None:
        """First-fit: returns an offset or None when nothing fits."""
        for i, (off, size) in enumerate(self.free):
            if size >= need:
                if size == need:
                    del self.free[i]
                else:
                    self.free[i] = (off + need, size - need)
                return off
        return None

    def release(self, offset: int, size: int) -> None:
        """Return a block and coalesce with its neighbours."""
        self.free.append((offset, size))
        self.free.sort()
        merged: list[tuple[int, int]] = []
        for off, sz in self.free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        self.free = merged


@dataclass
class _Slot:
    segment: str
    offset: int
    alloc_size: int
    generation: int
    refs: int


class SharedArena:
    """Slab allocator over shared-memory segments, with slot generations.

    Thread-safe: the daemon submits concurrent batches through one
    inspector, so :meth:`publish`/:meth:`release` may race.  All
    bookkeeping lives parent-side; the shared segments carry only slot
    headers and payload bytes.
    """

    def __init__(self, *, segment_bytes: int = DEFAULT_SEGMENT_BYTES) -> None:
        if segment_bytes < HEADER_SIZE + _ALIGN:
            raise ValueError("segment_bytes too small for a single slot")
        self.segment_bytes = segment_bytes
        self._segments: dict[str, _Segment] = {}
        self._slots: dict[tuple[str, int], _Slot] = {}
        self._generation = 0
        self._closed = False
        self._lock = threading.Lock()
        # lifetime stats (exported by BatchSummary / METRICS consumers)
        self.publishes = 0
        self.released = 0
        self.bytes_published = 0
        self.peak_bytes_in_use = 0
        self._bytes_in_use = 0

    # ------------------------------------------------------------ publish

    def publish(self, data) -> ArenaTicket:
        """Write *data* into a slot and return the ticket for workers.

        The returned ticket holds one reference; :meth:`release` it when
        the last consumer is done.  Raises :class:`ArenaError` once the
        arena is closed or if the OS refuses more shared memory.
        """
        payload = memoryview(data)
        length = payload.nbytes
        need = _round_up(HEADER_SIZE + length)
        with self._lock:
            if self._closed:
                raise ArenaError("arena is closed")
            segment, offset = self._allocate(need)
            self._generation += 1
            gen = self._generation
            slot = _Slot(
                segment=segment, offset=offset, alloc_size=need,
                generation=gen, refs=1,
            )
            self._slots[(segment, offset)] = slot
            buf = self._segments[segment].shm.buf
            _HEADER.pack_into(buf, offset, _MAGIC, gen, length)
            buf[offset + HEADER_SIZE:offset + HEADER_SIZE + length] = payload
            self.publishes += 1
            self.bytes_published += length
            self._bytes_in_use += need
            self.peak_bytes_in_use = max(self.peak_bytes_in_use, self._bytes_in_use)
            return ArenaTicket(
                segment=segment, offset=offset, length=length, generation=gen,
            )

    def _allocate(self, need: int) -> tuple[str, int]:
        for name, seg in self._segments.items():
            offset = seg.allocate(need)
            if offset is not None:
                return name, offset
        size = max(self.segment_bytes, _round_up(need))
        try:
            seg = _Segment(size)
        except OSError as exc:
            raise ArenaError(
                f"cannot grow arena by {size} bytes: {exc}"
            ) from exc
        self._segments[seg.shm.name] = seg
        offset = seg.allocate(need)
        assert offset is not None
        return seg.shm.name, offset

    # ---------------------------------------------------------- refcounts

    def retain(self, ticket: ArenaTicket) -> None:
        """Add a reference so another consumer may outlive the first."""
        with self._lock:
            slot = self._live_slot(ticket)
            slot.refs += 1

    def release(self, ticket: ArenaTicket) -> None:
        """Drop one reference; the last drop tombstones and frees the slot."""
        with self._lock:
            if self._closed:
                return
            slot = self._slots.get((ticket.segment, ticket.offset))
            if slot is None or slot.generation != ticket.generation:
                return  # already freed (idempotent, like close())
            slot.refs -= 1
            if slot.refs > 0:
                return
            seg = self._segments[slot.segment]
            _HEADER.pack_into(seg.shm.buf, slot.offset, _TOMBSTONE, 0, 0)
            seg.release(slot.offset, slot.alloc_size)
            del self._slots[(slot.segment, slot.offset)]
            self.released += 1
            self._bytes_in_use -= slot.alloc_size

    def _live_slot(self, ticket: ArenaTicket) -> _Slot:
        if self._closed:
            raise ArenaError("arena is closed")
        slot = self._slots.get((ticket.segment, ticket.offset))
        if slot is None or slot.generation != ticket.generation:
            raise ArenaError(
                f"stale ticket (segment={ticket.segment} offset={ticket.offset} "
                f"generation={ticket.generation})"
            )
        return slot

    # ----------------------------------------------------------- teardown

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def bytes_in_use(self) -> int:
        with self._lock:
            return self._bytes_in_use

    @property
    def segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments": len(self._segments),
                "segment_bytes": self.segment_bytes,
                "publishes": self.publishes,
                "released": self.released,
                "bytes_published": self.bytes_published,
                "bytes_in_use": self._bytes_in_use,
                "peak_bytes_in_use": self.peak_bytes_in_use,
            }

    def close(self) -> None:
        """Tombstone every live slot, then close and unlink all segments.

        Idempotent.  Safe to call while workers may still hold stale
        tickets: their next :func:`attach_view` fails closed with a
        typed :class:`ArenaError` (tombstoned header or vanished
        segment), which the batch layer converts into an errored item —
        never a wrong verdict.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for slot in self._slots.values():
                seg = self._segments[slot.segment]
                _HEADER.pack_into(seg.shm.buf, slot.offset, _TOMBSTONE, 0, 0)
            self._slots.clear()
            for seg in self._segments.values():
                seg.shm.close()
                try:
                    seg.shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            self._segments.clear()
            self._bytes_in_use = 0

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: never leak /dev/shm segments
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


# ------------------------------------------------------------- worker side

#: segments this process has attached, by name — workers are long-lived,
#: so one attach per segment amortizes over every task it carries
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}
_ATTACH_LOCK = threading.Lock()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    with _ATTACH_LOCK:
        shm = _ATTACHED.get(name)
        if shm is None:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError) as exc:
                raise ArenaError(f"arena segment {name} is gone: {exc}") from exc
            if multiprocessing.get_start_method(allow_none=True) not in (
                None, "fork",
            ):  # pragma: no cover - non-fork platforms
                # Under spawn, each child runs its own resource tracker,
                # which would unlink the parent's live segment when the
                # child exits.  Under fork the tracker is shared and its
                # registry set dedupes, so the parent's unlink stays the
                # single cleanup point.
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
            _ATTACHED[name] = shm
        return shm


def attach_view(ticket: ArenaTicket) -> memoryview:
    """Map *ticket* to a zero-copy view of its payload, fail-closed.

    Validates the slot header (magic, generation, length) against the
    ticket before exposing any payload byte; a freed, reused, or
    torn-down slot raises :class:`ArenaError`.  Call ``.release()`` on
    the returned view when done — the segment itself stays mapped for
    the life of the worker.
    """
    shm = _attach_segment(ticket.segment)
    if ticket.offset < 0 or ticket.offset + HEADER_SIZE + ticket.length > shm.size:
        raise ArenaError("ticket extends past its arena segment")
    magic, gen, length = _HEADER.unpack_from(shm.buf, ticket.offset)
    if magic != _MAGIC or gen != ticket.generation or length != ticket.length:
        raise ArenaError(
            "slot integrity check failed "
            f"(magic={magic!r} generation={gen} length={length}; "
            f"expected generation={ticket.generation} length={ticket.length})"
        )
    start = ticket.offset + HEADER_SIZE
    return memoryview(shm.buf)[start:start + ticket.length]


def detach_all() -> None:
    """Close every segment this process attached (tests / worker exit)."""
    with _ATTACH_LOCK:
        for shm in _ATTACHED.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - already closed
                pass
        _ATTACHED.clear()
