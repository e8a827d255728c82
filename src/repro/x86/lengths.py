"""Table-driven length pass: instruction boundaries, kinds and targets.

NaCl's validator needs only where each instruction starts, what kind of
control transfer it is and where a direct branch goes; it never builds
operands.  This module is that pass for the decoder's x86-64 subset.  One
loop over the text emits the scan's columns (:class:`Columns`):

* ``offsets`` -- every instruction's start offset, ascending,
* ``kinds`` -- one kind code per instruction (``K_*`` below),
* ``targets`` -- the static target of every direct branch, in order,
* ``bundles`` -- the index of every instruction that straddles a
  bundle boundary (recorded, never raised: decode errors keep
  precedence over the bundle check),
* ``end`` -- the offset just past the last instruction,

and the index lists the validator and the policy context read (branch,
terminator, direct-call and indirect-site indices) are derived from the
kind column on first use.

The pass accepts exactly the byte sequences :func:`~repro.x86.decoder.
iter_decode` decodes, with the same lengths.  On anything else it stops
at the offending instruction and leaves ``end`` there: the caller hands
that instruction to the full decoder, which raises the exact
:class:`~repro.errors.DecodeError`.  Records (operands, mnemonics) are
decoded only where something reads them
(:class:`~repro.x86.decoder.InstructionBuffer`).

The loop looks two bytes up in one 64-Ki-entry table (the opcode and the
ModRM byte, after an optional REX prefix) for the instructions whose
length those bytes fix and whose kind is plain; everything else -- legacy
prefixes, a SIB byte that may carry a 32-bit displacement, ``mov $imm64``,
the ``0F`` page, any non-plain kind, and every encoding the decoder
rejects -- takes the second, fully checked path of the same iteration.
"""

from __future__ import annotations

import re
import struct
from array import array
from bisect import bisect_left
from collections.abc import Mapping

from .asm import BUNDLE_SIZE
from .opcodes import GROUP2, GROUP3, GROUP5

__all__ = [
    "Columns", "OffsetIndex", "length_pass",
    "K_PLAIN", "K_JCC", "K_CALL", "K_JMP", "K_ICALL", "K_IJMP", "K_STOP",
    "K_NOP",
]

#: kind codes: plain, conditional branch, direct call, direct jump,
#: indirect call, indirect jump, ret/ud2/hlt, nop/nopl
K_PLAIN, K_JCC, K_CALL, K_JMP, K_ICALL, K_IJMP, K_STOP, K_NOP = range(8)

_BRANCHES = re.compile(b"[\x01-\x03]")       # a static target
_TERMINATORS = re.compile(b"[\x03\x05\x06]")  # no fall-through
_CALLS = re.compile(b"\x02")
_INDIRECT = re.compile(b"[\x04\x05]")

_I32 = struct.Struct("<i").unpack_from
_PAD = bytes(16)
_EDGE = BUNDLE_SIZE - 1  # offset | _EDGE, plus one, is the next bundle edge

# ---------------------------------------------------------------- tables
#
# _LEN[(opcode << 8) | next]: bytes from the opcode to the instruction's
# end, 0 where the decoder rejects, plus one flag in the high bits:
_SIB = 0x20    # mod=00 rm=100: a SIB base of 101 adds a 32-bit displacement
_IMM64 = 0x40  # B8+r: REX.W widens the immediate to 8 bytes
_PAGE2 = 0x80  # 0F: look up (op2 << 8) | modrm in _LEN2 / _KIND2

_ALL_REGS = range(8)


def _modrm_bytes(modrm: int) -> int:
    """ModRM plus SIB plus displacement bytes (without the SIB-base-101
    displacement, which the _SIB flag adds)."""
    mod, rm = modrm >> 6, modrm & 7
    if mod == 3:
        return 1
    if rm == 4:
        return 2 + (0, 1, 4)[mod]
    if mod == 0:
        return 5 if rm == 5 else 1
    return 2 if mod == 1 else 5


def _build_tables():
    length = bytearray(65536)
    kind = bytearray(65536)
    length2 = bytearray(65536)
    kind2 = bytearray(65536)

    def modrm(table, ktable, op, regs=_ALL_REGS, imm=0, k=K_PLAIN,
              memory_only=False):
        for m in range(256):
            if (m >> 3) & 7 not in regs or (memory_only and m >> 6 == 3):
                continue
            value = 1 + _modrm_bytes(m) + imm
            if m >> 6 == 0 and m & 7 == 4:
                value |= _SIB
            table[op << 8 | m] = value
            ktable[op << 8 | m] = k

    def fixed(table, ktable, op, value, k=K_PLAIN):
        for nxt in range(256):
            table[op << 8 | nxt] = value
            ktable[op << 8 | nxt] = k

    for op in (*(i * 8 + 1 for i in range(8)), *(i * 8 + 3 for i in range(8)),
               0x63, 0x85, 0x87, 0x89, 0x8B):
        modrm(length, kind, op)
    modrm(length, kind, 0x8D, memory_only=True)            # lea
    modrm(length, kind, 0x81, imm=4)
    modrm(length, kind, 0x83, imm=1)
    modrm(length, kind, 0xC1, regs=GROUP2, imm=1)
    modrm(length, kind, 0xC7, regs=(0,), imm=4)
    modrm(length, kind, 0xF7, regs=(0,), imm=4)
    modrm(length, kind, 0xF7, regs=[r for r in GROUP3 if r])
    modrm(length, kind, 0xFF, regs=[r for r in GROUP5 if r not in (2, 4)])
    modrm(length, kind, 0xFF, regs=(2,), k=K_ICALL)
    modrm(length, kind, 0xFF, regs=(4,), k=K_IJMP)
    for op in (*range(0x50, 0x60), 0xC9, 0xCC):
        fixed(length, kind, op, 1)
    fixed(length, kind, 0x90, 1, K_NOP)
    fixed(length, kind, 0xC3, 1, K_STOP)
    fixed(length, kind, 0xF4, 1, K_STOP)
    for op in range(0x70, 0x80):
        fixed(length, kind, op, 2, K_JCC)
    fixed(length, kind, 0xEB, 2, K_JMP)
    fixed(length, kind, 0xE8, 5, K_CALL)
    fixed(length, kind, 0xE9, 5, K_JMP)
    for op in range(0xB8, 0xC0):
        fixed(length, kind, op, 5 | _IMM64)
    fixed(length, kind, 0x0F, _PAGE2)

    for op in (*range(0x40, 0x50), 0xAF):
        modrm(length2, kind2, op)
    modrm(length2, kind2, 0x1F, k=K_NOP)
    fixed(length2, kind2, 0x05, 1)
    fixed(length2, kind2, 0x0B, 1, K_STOP)
    for op in range(0x80, 0x90):
        fixed(length2, kind2, op, 5, K_JCC)

    # The first lookup: a plain instruction's whole length, or 255 for
    # everything the checked path must see.
    fast = [
        n if n and not n & 0xE0 and not k else 255
        for n, k in zip(length, kind)
    ]
    return fast, bytes(length), bytes(kind), bytes(length2), bytes(kind2)


_FAST, _LEN, _KIND, _LEN2, _KIND2 = _build_tables()


# ------------------------------------------------------------------ columns

class Columns:
    """The length pass's output for one region (see the module docstring).

    The derived index lists (:attr:`branch_idx`, :attr:`term_idx`,
    :attr:`call_idx`, :attr:`indirect_idx`) are computed from ``kinds`` on
    first use and kept, so they assume the columns are complete by then.
    """

    __slots__ = ("offsets", "kinds", "targets", "bundles", "end", "_derived")

    def __init__(self, start: int = 0) -> None:
        self.offsets = array("I")
        self.kinds = bytearray()
        self.targets: list[int] = []
        self.bundles: list[int] = []
        self.end = start
        self._derived: dict = {}

    def __len__(self) -> int:
        return len(self.offsets)

    def _where(self, pattern) -> list[int]:
        found = self._derived.get(pattern)
        if found is None:
            found = self._derived[pattern] = [
                m.start() for m in pattern.finditer(self.kinds)
            ]
        return found

    @property
    def branch_idx(self) -> list[int]:
        """Indices of the instructions with a static target (``targets``
        holds their targets in the same order)."""
        return self._where(_BRANCHES)

    @property
    def term_idx(self) -> list[int]:
        """Indices of the instructions control never falls through."""
        return self._where(_TERMINATORS)

    @property
    def call_idx(self) -> list[int]:
        """Indices of the direct calls."""
        return self._where(_CALLS)

    @property
    def indirect_idx(self) -> list[int]:
        """Indices of the indirect calls and jumps."""
        return self._where(_INDIRECT)

    def extend_from(self, other: "Columns", lo: int, hi: int) -> None:
        """Append *other*'s instructions ``[lo, hi)``, which must start at
        this region's end: offsets and targets are absolute and carry
        over; instruction indices shift to their place here."""
        shift = len(self.offsets) - lo
        self.offsets += other.offsets[lo:hi]
        self.kinds += other.kinds[lo:hi]
        branches = other.branch_idx
        self.targets += other.targets[
            bisect_left(branches, lo):bisect_left(branches, hi)
        ]
        bundles = other.bundles
        self.bundles += [
            i + shift for i in
            bundles[bisect_left(bundles, lo):bisect_left(bundles, hi)]
        ]
        self.end = other.offsets[hi] if hi < len(other.offsets) else other.end


class OffsetIndex(Mapping):
    """Read-only ``offset -> instruction index`` view of an offsets column
    (a binary search; nothing is stored per instruction)."""

    __slots__ = ("_offsets",)

    def __init__(self, offsets) -> None:
        self._offsets = offsets

    def get(self, offset, default=None):
        offsets = self._offsets
        i = bisect_left(offsets, offset)
        if i < len(offsets) and offsets[i] == offset:
            return i
        return default

    def __getitem__(self, offset) -> int:
        i = self.get(offset)
        if i is None:
            raise KeyError(offset)
        return i

    def __contains__(self, offset) -> bool:
        return self.get(offset) is not None

    def __len__(self) -> int:
        return len(self._offsets)

    def __iter__(self):
        return iter(self._offsets)


# --------------------------------------------------------------------- pass

def scan_into(buf, pos: int, stop: int, end: int, base: int,
              cols: Columns) -> int:
    """Run the length pass over ``buf[pos:]``, appending to *cols*.

    Starts instructions while ``pos < stop``; each must end by *end*.
    Offsets in *buf* are ``base`` less than the absolute offsets the
    columns record.  *buf* must hold at least 8 bytes past *stop* (the
    lookup reads ahead of an instruction's end).  Returns the position
    reached: the last instruction's end, or the start of the instruction
    the decoder would reject (or that overruns *end*), which is not
    recorded.
    """
    if pos >= stop:
        return pos
    offsets = cols.offsets
    append = offsets.append
    kinds = cols.kinds
    kinds.extend(bytes(stop - pos))  # room for a kind per instruction
    target = cols.targets.append
    bundle = cols.bundles.append
    fast, table, kind_of, table2, kind2_of = _FAST, _LEN, _KIND, _LEN2, _KIND2
    edge = _EDGE
    bnd = ((pos + base) | edge) + 1 - base  # next bundle edge past pos
    lim = bnd if bnd < stop else stop
    while True:
        b = buf[pos]
        if 0x40 <= b <= 0x4F:
            n = fast[buf[pos + 1] << 8 | buf[pos + 2]] + 1
        else:
            n = fast[b << 8 | buf[pos + 1]]
        if n >= 16:
            # The checked path: parse the prefixes exactly as the decoder
            # does, then look the opcode up with its flags and kind.
            q = pos
            opsize = False
            if b == 0x66 or b == 0x64 or b == 0x65:
                c = buf[q + 1]
                if c == 0x66 or c == 0x64 or c == 0x65:
                    # at most one operand-size and one segment prefix
                    d = buf[q + 2]
                    if ((b == 0x66) == (c == 0x66)
                            or d == 0x66 or d == 0x64 or d == 0x65):
                        break
                    q += 2
                    opsize = True
                else:
                    q += 1
                    opsize = b == 0x66
                b = buf[q]
            wide = False
            if 0x40 <= b <= 0x4F:
                wide = b & 8
                q += 1
                b = buf[q]
            if opsize and b != 0x90 and (b != 0x0F or buf[q + 1] != 0x1F):
                break
            key = b << 8 | buf[q + 1]
            n = table[key]
            k = kind_of[key]
            if n & _PAGE2:
                q += 1
                key = buf[q] << 8 | buf[q + 1]
                n = table2[key]
                k = kind2_of[key]
            if not n:
                break
            if n & _SIB:
                n = (n & 15) + (4 if buf[q + 2] & 7 == 5 else 0)
            elif n & _IMM64:
                n = (n & 15) + (4 if wide else 0)
            n += q - pos
            if k:
                nxt = pos + n
                if nxt > end:
                    break
                kinds[len(offsets)] = k
                if k <= K_JMP:
                    if nxt - q == 2:  # rel8
                        rel = buf[nxt - 1]
                        rel -= (rel & 0x80) << 1
                    else:
                        rel = _I32(buf, nxt - 4)[0]
                    target(base + nxt + rel)
        nxt = pos + n
        if nxt >= lim:
            if nxt > end:
                break
            if nxt > bnd:
                bundle(len(offsets))
            if nxt >= stop:
                append(pos + base)
                pos = nxt
                break
            bnd = ((nxt + base) | edge) + 1 - base
            lim = bnd if bnd < stop else stop
        append(pos + base)
        pos = nxt
    del kinds[len(offsets):]
    cols.end = pos + base
    return pos


def length_pass(code, start: int = 0, end: int | None = None,
                into: Columns | None = None) -> Columns:
    """The length pass over ``code[start:end)``, appended to *into* (or a
    new :class:`Columns`).  ``end`` of the result is *end* when every
    instruction was accepted, else the offset of the first one the
    decoder would reject."""
    if end is None:
        end = len(code)
    cols = Columns(start) if into is None else into
    if len(code) < end + 16:
        code = bytes(code[:end]) + _PAD
    scan_into(code, start, end, end, 0, cols)
    return cols
