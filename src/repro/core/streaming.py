"""Streaming provisioning: overlapped length pass + delta re-inspection.

Two pieces the streamed receive path composes:

* :class:`StreamingPipeline` — fed the provisioning buffer as each channel
  record lands, it speculatively locates the text segment from the ELF and
  program headers (the writer places ``.text`` early and the symbol table
  at the end of the file, so code arrives long before symbols) and drives
  a :class:`~repro.x86.StreamDecoder` -- the resumable length pass -- over
  every instruction the moment its bytes are available.  By the time the
  channel drains, the columns the validator and the policy context need
  (instruction offsets, kinds, branch targets, bundle offenders) are
  already done.  The pipeline is *speculative and fail-safe*: the
  disassembler verifies the scanned bytes against the exactly-parsed image
  and falls back to its whole-buffer pass on any mismatch or decode error.

* Delta re-inspection — :class:`DeltaIndex` remembering the previous
  version's adopted scan and one SHA-256 digest per function extent of
  its text, :func:`delta_scan` running the length pass again only over
  the extents whose digest changed and splicing the others' columns (and
  the records already decoded in them) from the indexed scan, and
  :class:`FunctionVerdictMemo` caching per-function stack-protection
  verdicts keyed by the function's bytes (plus every byte the original
  check read outside them).  An updated binary re-pays the length pass
  and the super-linear policy scan only for the functions that changed,
  while the wire transcript, MRENCLAVE, verdict bytes, and meter totals
  stay exactly those of a cold run.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass, field

from ..elf.constants import ELF_MAGIC, PF_X, PT_LOAD
from ..errors import DecodeError
from ..x86 import (
    Columns,
    InstructionBuffer,
    Instruction,
    OffsetIndex,
    StreamDecoder,
    length_pass,
)

__all__ = [
    "StreamScan",
    "StreamingPipeline",
    "RecordingMeter",
    "FunctionVerdictMemo",
    "DeltaIndex",
    "delta_scan",
    "build_delta_index",
]

_EHDR = struct.Struct("<16sHHIQQQIHHHHHH")
_PHDR = struct.Struct("<IIQQQQQQ")

# --------------------------------------------------------------------------
# Columnar scan + streamed length pass
# --------------------------------------------------------------------------


class StreamScan:
    """The columnar scan of one text blob (streamed, decoded in one pass
    or delta-spliced): the length pass's :class:`~repro.x86.Columns` and
    the instruction buffer over them.

    ``code`` is the byte slice the scan covers; the disassembler only
    trusts the scan after verifying ``code`` equals the text section of
    the exactly-parsed image.  ``instructions`` decodes a record the
    first time something reads it (*records* may hand over records
    already decoded, ``None`` elsewhere); ``by_offset`` maps an
    instruction start to its index.  ``error`` is the decode error a
    streamed scan stopped at, and ``delta`` the per-function verdict memo
    the provider threads into the policy context (None outside
    delta-capable provisioning).
    """

    def __init__(
        self, code: bytes, columns: Columns, records: list | None = None
    ) -> None:
        self.code = code
        self.columns = columns
        self.instructions = InstructionBuffer(code, columns.offsets, records)
        self.by_offset = OffsetIndex(columns.offsets)
        self.error: DecodeError | None = None
        self.delta: FunctionVerdictMemo | None = None

    @property
    def n_bytes(self) -> int:
        """Bytes the scanned instructions cover."""
        return self.columns.end

    def direct_calls(self) -> list[Instruction]:
        """The direct-call records, in buffer order, built from the
        columns without the decoder: a ``callq rel32`` decodes to exactly
        ``(offset, raw, "callq", (), len(raw) - 5, 1, 0, 4, False,
        target)``.  They also fill their slots of the buffer."""
        cols = self.columns
        offsets = cols.offsets
        records = self.instructions.decoded()
        calls = []
        for i in cols.call_idx:
            record = records[i]
            if record is None:
                start = offsets[i]
                end = offsets[i + 1] if i + 1 < len(offsets) else cols.end
                raw = self.code[start:end]
                record = records[i] = Instruction(
                    start, raw, "callq", (), len(raw) - 5, 1, 0, 4, False,
                    end + int.from_bytes(raw[-4:], "little", signed=True),
                )
            calls.append(record)
        return calls


class StreamingPipeline:
    """Incremental length pass over the provisioning receive buffer.

    The provider preallocates one buffer for the announced content size
    and decrypts each record in place; after every record it calls
    :meth:`advance` with the new valid-prefix length.  The pipeline shares
    the buffer (it hands the decoder a view of each new text piece, which
    the decoder copies once), parses the ELF/program headers as soon as
    their bytes land to locate the text segment, and feeds the stream
    decoder as text bytes arrive.
    ``decode=False`` keeps only the header tracking (the delta path
    splices after the drain instead).
    """

    def __init__(self, buf: bytearray, *, decode: bool = True) -> None:
        self._buf = buf
        self.decode = decode
        self.text_off: int | None = None
        self.text_size: int | None = None
        self._gave_up = False
        self._headers_done = False
        self._decoder = StreamDecoder()
        self._fed = 0
        self._decode_done = False
        self._valid = 0
        self.error: DecodeError | None = None

    # ------------------------------------------------------------ headers

    def _try_headers(self) -> None:
        buf = self._buf
        valid = self._valid
        if valid < _EHDR.size:
            return
        (ident, _t, _m, _v, _entry, phoff, _shoff, _f, _eh, phentsize,
         phnum, _she, _shn, _shs) = _EHDR.unpack_from(buf, 0)
        if (not ident.startswith(ELF_MAGIC) or phentsize != _PHDR.size
                or phnum == 0 or phoff <= 0):
            self._gave_up = True
            self._headers_done = True
            return
        table_end = phoff + phnum * _PHDR.size
        if valid < table_end or table_end > len(buf):
            if table_end > len(buf):
                self._gave_up = True
                self._headers_done = True
            return
        for i in range(phnum):
            (p_type, p_flags, p_offset, _va, _pa, p_filesz, _msz,
             _align) = _PHDR.unpack_from(buf, phoff + i * _PHDR.size)
            if p_type == PT_LOAD and p_flags & PF_X:
                if p_filesz <= 0 or p_offset + p_filesz > len(buf):
                    self._gave_up = True
                else:
                    self.text_off = p_offset
                    self.text_size = p_filesz
                break
        else:
            self._gave_up = True
        self._headers_done = True

    # ------------------------------------------------------------ pumping

    def advance(self, valid: int) -> None:
        """Bytes ``[0, valid)`` of the shared buffer are now plaintext."""
        self._valid = valid
        if not self._headers_done:
            self._try_headers()
        if (not self.decode or self._gave_up or self.error is not None
                or self.text_off is None or self._decode_done):
            return
        start = self.text_off + self._fed
        avail_end = min(valid, self.text_off + self.text_size)
        try:
            if avail_end > start:
                self._fed = avail_end - self.text_off
                with memoryview(self._buf)[start:avail_end] as piece:
                    self._decoder.feed(piece)
            if self._fed == self.text_size:
                self._decoder.finish()
                self._decode_done = True
        except DecodeError as exc:
            self.error = exc

    # ------------------------------------------------------------ results

    def text_slice(self) -> bytes | None:
        """The text bytes per the speculative header parse, or None."""
        if self._gave_up or self.text_off is None:
            return None
        if self._valid < self.text_off + self.text_size:
            return None
        return bytes(self._buf[self.text_off:self.text_off + self.text_size])

    def finish(self) -> StreamScan | None:
        """The completed scan, or None when the pipeline had to give up.

        A scan carrying a decode ``error`` is still returned: the
        disassembler scans the text again itself, so the rejection's
        error text and charge sequence are bit-exact — only the happy path
        skips work.
        """
        if not self.decode or self._gave_up or self.text_off is None:
            return None
        if self.error is None and not self._decode_done:
            return None  # stream ended before the announced text did
        scan = StreamScan(
            bytes(self._buf[self.text_off:self.text_off + self.text_size]),
            self._decoder.columns,
        )
        scan.error = self.error
        return scan


# --------------------------------------------------------------------------
# Charge recording (delta replay)
# --------------------------------------------------------------------------


class RecordingMeter:
    """Meter proxy that forwards charges and keeps a replayable trace.

    Swapped in front of the real :class:`~repro.sgx.cpu.CycleMeter` while
    a function's policy check runs; a later memo hit re-issues the exact
    recorded sequence so meter totals are tick-identical to re-running.
    """

    def __init__(self, meter) -> None:
        self._meter = meter
        self.events: list[tuple] = []

    def charge(self, event: str, count: int = 1) -> int:
        self.events.append(("charge", event, count))
        return self._meter.charge(event, count)

    def charge_batch(self, counts) -> int:
        counts = dict(counts)
        self.events.append(("charge_batch", counts))
        return self._meter.charge_batch(counts)

    def __getattr__(self, name):
        return getattr(self._meter, name)

    @staticmethod
    def replay(meter, events) -> None:
        for ev in events:
            if ev[0] == "charge":
                meter.charge(ev[1], ev[2])
            else:
                meter.charge_batch(ev[1])


# --------------------------------------------------------------------------
# Per-function stack-protection verdict memo
# --------------------------------------------------------------------------

#: bytes past a function's extent whose change conservatively invalidates
#: its memo entry (the check's tail walk can peek past the extent)
SPILL_WINDOW = 64


class FunctionVerdictMemo:
    """Cross-run cache of per-function policy verdicts (fail-closed).

    An entry is only replayed when *everything* the original check could
    have observed is provably unchanged: the policy configuration digest,
    the symbol-table digest, the text length, the function's own bytes at
    the *same* start offset (a moved function never hits), a spill window
    past the extent, and the full extent bytes of every out-of-extent
    instruction the check actually read (captured at record time).  Any
    doubt is a miss — the function is simply re-inspected.
    """

    def __init__(self) -> None:
        self._policy_digest: bytes | None = None
        self._symtab_digest: bytes | None = None
        self._text_len: int | None = None
        self._entries: dict[tuple, tuple] = {}

    def session(self, ctx, policy_digest: bytes) -> "_MemoSession | None":
        """Bind to one check invocation; wipes stale state (fail closed)."""
        sections = ctx.image.text_sections
        if len(sections) != 1:
            return None
        text = sections[0].data
        symtab_digest = hashlib.sha256(
            repr(sorted(ctx.symtab.items())).encode()
        ).digest()
        if (self._policy_digest != policy_digest
                or self._symtab_digest != symtab_digest
                or self._text_len != len(text)):
            self._entries = {}
            self._policy_digest = policy_digest
            self._symtab_digest = symtab_digest
            self._text_len = len(text)
        boundaries = sorted(offset for offset, _ in ctx.symtab.items())
        return _MemoSession(self._entries, text, boundaries)


class _MemoSession:
    """One check invocation's view of the memo over the current text."""

    def __init__(
        self, entries: dict, text: bytes, boundaries: list[int]
    ) -> None:
        self._entries = entries
        self._text = text
        self._boundaries = boundaries

    def _extent(self, offset: int) -> tuple[int, int]:
        """Byte extent of the function containing *offset*."""
        bounds = self._boundaries
        idx = bisect_right(bounds, offset)
        start = bounds[idx - 1] if idx else 0
        end = bounds[idx] if idx < len(bounds) else len(self._text)
        return start, end

    def _key(self, name: str, start: int) -> tuple | None:
        _, end = self._extent(start)
        text = self._text
        body_digest = hashlib.sha256(text[start:end]).digest()
        spill_digest = hashlib.sha256(
            text[end:end + SPILL_WINDOW]
        ).digest()
        return (name, start, body_digest, spill_digest)

    def lookup(self, name: str, start: int):
        """(checked_increment, violation, charges) or None on any doubt."""
        entry = self._entries.get(self._key(name, start))
        if entry is None:
            return None
        inc, violation, charges, windows = entry
        text = self._text
        for w_start, w_end, digest in windows:
            if hashlib.sha256(text[w_start:w_end]).digest() != digest:
                return None
        return inc, violation, charges

    def record(
        self,
        name: str,
        start: int,
        inc: int,
        violation: str | None,
        charges: list[tuple],
        read_offsets: list[int],
    ) -> None:
        own = self._extent(start)
        windows: dict[tuple[int, int], bytes] = {}
        text = self._text
        for offset in read_offsets:
            if not 0 <= offset < len(text):
                continue  # out-of-bounds reads stay out of bounds (len pinned)
            extent = self._extent(offset)
            if extent == own or extent in windows:
                continue
            windows[extent] = hashlib.sha256(
                text[extent[0]:extent[1]]
            ).digest()
        self._entries[self._key(name, start)] = (
            inc, violation, charges,
            tuple((s, e, d) for (s, e), d in windows.items()),
        )


# --------------------------------------------------------------------------
# Delta re-inspection over updated binaries
# --------------------------------------------------------------------------


@dataclass
class DeltaIndex:
    """Everything remembered from the last inspected version of a binary."""

    memo: FunctionVerdictMemo = field(default_factory=FunctionVerdictMemo)
    #: the indexed version's adopted scan (None until populated)
    scan: StreamScan | None = None
    text_digest: bytes = b""
    #: ``(start, end, SHA-256)`` of each function extent of ``scan.code``
    extents: list[tuple[int, int, bytes]] = field(default_factory=list)

    @property
    def populated(self) -> bool:
        return self.scan is not None


def build_delta_index(
    index: DeltaIndex, scan: StreamScan, symbol_offsets
) -> DeltaIndex:
    """(Re)populate *index* from a just-inspected version's adopted scan.

    The extents partition the scanned text at its symbol offsets: their
    edges are 0, the text length and every symbol offset in between.
    """
    text = scan.code
    digest = hashlib.sha256(text).digest()
    if index.populated and index.text_digest == digest:
        return index  # identical version: everything indexed still holds
    n = len(text)
    edges = [0, *sorted({o for o in symbol_offsets if 0 < o < n}), n]
    sha = hashlib.sha256
    index.scan = scan
    index.text_digest = digest
    index.extents = [
        (s, e, sha(text[s:e]).digest()) for s, e in zip(edges, edges[1:])
    ]
    return index


def delta_scan(prev: DeltaIndex, text: bytes) -> StreamScan | None:
    """Splice the previous version's columns with rescanned dirty extents.

    An extent is dirty when its bytes no longer match the indexed digest;
    the length pass runs again over it alone.  A clean extent's columns
    -- and the records already decoded in it -- are copied from the
    indexed scan, its instruction indices shifted to their new place;
    nothing in it is scanned or decoded again.  Every bundle offender is
    in the columns, so the splice's are exact whether or not the indexed
    scan's first one lay in a dirty extent.

    Returns a :class:`StreamScan` equal to a full pass over *text*, or
    None whenever that equality cannot be proven cheaply (length change,
    a clean extent whose edges are not instruction starts of the indexed
    scan, or a dirty extent the decoder would reject) — the caller then
    scans in full.  The indexed scan is never mutated: it stays the
    entry's scan when this one is not adopted.
    """
    indexed = prev.scan
    if indexed is None or len(text) != len(indexed.code):
        return None
    if hashlib.sha256(text).digest() == prev.text_digest:
        # Identical bytes: the indexed scan IS this text's scan.
        return indexed
    old = indexed.columns
    old_records = indexed.instructions.decoded()
    index = indexed.by_offset
    n = len(text)
    sha = hashlib.sha256
    out = Columns()
    records: list = []
    run: list[int] | None = None  # [first, last) of the pending clean run

    def flush() -> None:
        if run is not None:
            out.extend_from(old, *run)
            records.extend(old_records[run[0]:run[1]])

    for s, e, digest in prev.extents:
        if sha(text[s:e]).digest() == digest:
            first = index.get(s)
            last = index.get(e) if e < n else len(old)
            if first is None or last is None:
                return None
            if run is None:
                run = [first, last]
            else:
                run[1] = last  # extents are contiguous: first == run[1]
            continue
        flush()
        run = None
        before = len(out)
        if length_pass(text, s, e, out).end != e:
            return None
        records.extend([None] * (len(out) - before))
    flush()
    return StreamScan(text, out, records)
