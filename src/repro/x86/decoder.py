"""Table-driven x86-64 decoder (the NaCl-style disassembler core).

Decodes the same byte sequences the encoder produces — plus anything else
within the supported subset — into :class:`~repro.x86.insn.Instruction`
records carrying NaCl-style metadata (prefix/opcode/displacement/immediate
byte counts).  Used by EnGarde's in-enclave disassembly stage.

Unknown opcodes raise :class:`~repro.errors.DecodeError`; EnGarde converts
that into a rejection of the client's binary, exactly as NaCl's validator
rejects binaries it cannot disassemble unambiguously.

An inspection does not decode the whole text up front: the length pass
(:mod:`repro.x86.lengths`, resumable as :class:`StreamDecoder`) finds the
instruction boundaries, kinds and targets, and an
:class:`InstructionBuffer` decodes a record the first time a policy reads
it.  The full decoder also gives the exact error text where the length
pass refuses (:func:`decode_error`).  Where it runs, the decode loop is
engineered for speed:

* opcode selection is a 256-entry handler dispatch table (plus a second
  table for the ``0F`` page) built once at import, not a sequential
  if/elif chain walked per instruction;
* :func:`iter_decode` drives a single resumable cursor across the region
  instead of re-slicing and re-bounds-checking from scratch per
  instruction;
* register operands come from the interned :data:`~repro.x86.registers.GPR64`
  / :data:`~repro.x86.registers.GPR32` banks instead of fresh ``Reg``
  allocations;
* each decode interns its other operands in tables its cursor owns:
  :class:`~repro.x86.insn.Mem` by base and index register numbers,
  scale, displacement, segment and the RIP flag, :class:`~repro.x86.insn.Imm`
  by value and size, and whole operand tuples by the instruction's raw
  bytes (which fully determine them).  A record then costs one tracked
  object, the tuple :func:`_build` makes in one C call, and the tables
  die with the decode (an :class:`InstructionBuffer`'s with the buffer).

The pre-optimization decoder is preserved verbatim in
:mod:`repro.x86.refdecode`; differential tests assert both produce
identical instruction streams and identical error messages.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from ..errors import DecodeError
from .insn import Imm, Instruction, Mem
from .lengths import _PAD, Columns, scan_into
from .opcodes import (
    CC_BY_CODE,
    GROUP1,
    GROUP2,
    GROUP3,
    GROUP5,
    PREFIX_FS,
    PREFIX_GS,
    PREFIX_OPSIZE,
)
from .registers import GPR32, GPR64, Reg

__all__ = [
    "decode_one", "decode_all", "iter_decode", "decode_error",
    "StreamDecoder", "InstructionBuffer",
]

_I8 = struct.Struct("<b").unpack_from
_I32 = struct.Struct("<i").unpack_from
_I64 = struct.Struct("<q").unpack_from

# ALU opcodes of the 0x01/0x03 families, derived from the group table.
_ALU_MR = {i * 8 + 0x01: name for i, name in enumerate(GROUP1.values())}
_ALU_RM = {i * 8 + 0x03: name for i, name in enumerate(GROUP1.values())}
# reg -> r/m and r/m -> reg mnemonics by opcode, covering mov/test too.
_MR_MNEM = {**_ALU_MR, 0x89: "mov", 0x85: "test"}
_RM_MNEM = {**_ALU_RM, 0x8B: "mov"}

_CMOV_MNEM = tuple("cmov" + CC_BY_CODE[cc][1:] for cc in range(16))

_MAX_INSN = 15  # architectural limit

_TUPLE_NEW = tuple.__new__


class _Cursor:
    """Resumable byte reader with bounds checking over the code buffer.

    One cursor decodes a whole region: per-instruction state (prefix
    count, REX byte, segment override, operand width) lives on the cursor
    and is reset by :func:`_decode_next`, so linear decoding never
    re-slices or re-scans bytes it has already consumed.

    ``pos`` and ``start`` index ``code``, which begins at absolute offset
    ``base`` of the region (non-zero only when :func:`decode_error` reads
    a :class:`StreamDecoder`'s buffer, which drops the bytes it finished
    with); offsets, branch targets and error texts are absolute.
    ``mems``, ``imms`` and ``operand_sets`` are the decode's interning
    tables.
    """

    __slots__ = ("code", "pos", "start", "base", "rex", "seg", "wbits",
                 "bank", "n_prefix", "n_opcode", "mems", "imms",
                 "operand_sets")

    def __init__(self, code: bytes, pos: int) -> None:
        self.code = code
        self.pos = pos
        self.start = pos
        self.base = 0
        self.mems: dict[tuple, Mem] = {}
        self.imms: dict[tuple[int, int], Imm] = {}
        self.operand_sets: dict[bytes, tuple] = {}

    @property
    def at(self) -> int:
        """Absolute offset of the instruction being decoded."""
        return self.base + self.start

    def u8(self) -> int:
        try:
            b = self.code[self.pos]
        except IndexError:
            raise DecodeError(
                f"truncated instruction at offset {self.at:#x}"
            ) from None
        self.pos += 1
        return b

    def peek(self) -> int:
        try:
            return self.code[self.pos]
        except IndexError:
            raise DecodeError(
                f"truncated instruction at offset {self.at:#x}"
            ) from None

    def i8(self) -> int:
        pos = self.pos
        if pos + 1 > len(self.code):
            raise DecodeError(f"truncated instruction at offset {self.at:#x}")
        self.pos = pos + 1
        return _I8(self.code, pos)[0]

    def i32(self) -> int:
        pos = self.pos
        if pos + 4 > len(self.code):
            raise DecodeError(f"truncated instruction at offset {self.at:#x}")
        self.pos = pos + 4
        return _I32(self.code, pos)[0]

    def i64(self) -> int:
        pos = self.pos
        if pos + 8 > len(self.code):
            raise DecodeError(f"truncated instruction at offset {self.at:#x}")
        self.pos = pos + 8
        return _I64(self.code, pos)[0]


def _build(
    cur: _Cursor,
    mnemonic: str,
    operands: tuple = (),
    disp: int = 0,
    imm: int = 0,
    modrm: bool = False,
    target: int | None = None,
) -> Instruction:
    """Materialise the Instruction for the bytes [cur.start, cur.pos).

    Field-for-field equal to calling ``Instruction(...)``, built with one
    ``tuple.__new__`` call instead of the constructor's Python-level
    ``__new__`` (this runs once per decoded instruction).  A non-empty
    operand tuple is swapped for the decode's first tuple with the same
    raw bytes, so equal instructions share one.  Equality with the keyword
    constructor is pinned by tests.
    """
    start = cur.start
    pos = cur.pos
    if pos - start > _MAX_INSN:
        raise DecodeError(f"instruction longer than 15 bytes at {cur.at:#x}")
    raw = cur.code[start:pos]
    if operands:
        operands = cur.operand_sets.setdefault(raw, operands)
    return _TUPLE_NEW(Instruction, (
        cur.base + start, raw, mnemonic, operands, cur.n_prefix,
        cur.n_opcode, disp, imm, modrm, target,
    ))


def _imm(cur: _Cursor, value: int, size: int) -> Imm:
    """The decode's interned ``Imm(value, size)``."""
    key = (value, size)
    imm = cur.imms.get(key)
    if imm is None:
        imm = cur.imms[key] = Imm(value, size)
    return imm


def _parse_modrm(cur: _Cursor, rm_bits: int) -> tuple[int, Reg | Mem, int]:
    """Parse ModRM (+SIB +disp).  Returns (reg_field, rm_operand, disp_bytes)."""
    rex = cur.rex
    seg = cur.seg
    modrm = cur.u8()
    mod = modrm >> 6
    reg_field = ((rex & 0b100) << 1) | ((modrm >> 3) & 0b111)
    rm = modrm & 0b111

    if mod == 0b11:
        bank = GPR64 if rm_bits == 64 else GPR32
        return reg_field, bank[((rex & 1) << 3) | rm], 0

    disp_bytes = 0
    index_num = None
    scale = 1
    rip = False
    if rm == 0b100:
        sib = cur.u8()
        scale = 1 << (sib >> 6)
        index_num = ((rex & 0b10) << 2) | ((sib >> 3) & 0b111)
        if index_num == 0b100:
            index_num = None
        if (sib & 0b111) == 0b101 and mod == 0b00:
            base_num = None
            disp = cur.i32()
            disp_bytes = 4
        else:
            base_num = ((rex & 1) << 3) | (sib & 0b111)
            if mod == 0b01:
                disp, disp_bytes = cur.i8(), 1
            elif mod == 0b10:
                disp, disp_bytes = cur.i32(), 4
            else:
                disp = 0
    elif rm == 0b101 and mod == 0b00:
        base_num = None
        disp = cur.i32()
        disp_bytes = 4
        rip = True
    else:
        base_num = ((rex & 1) << 3) | rm
        if mod == 0b01:
            disp, disp_bytes = cur.i8(), 1
        elif mod == 0b10:
            disp, disp_bytes = cur.i32(), 4
        else:
            disp = 0
    key = (base_num, index_num, scale, disp, seg, rip)
    operand = cur.mems.get(key)
    if operand is None:
        operand = cur.mems[key] = Mem(
            base=None if base_num is None else GPR64[base_num],
            index=None if index_num is None else GPR64[index_num],
            scale=scale, disp=disp, seg=seg, rip_relative=rip,
        )
    return reg_field, operand, disp_bytes


# --------------------------------------------------------------- handlers
#
# One function per opcode family.  Each receives the cursor (positioned
# just past the opcode byte) and the opcode byte itself, and returns the
# finished Instruction.  The dispatch tables below map opcode -> handler.

def _h_mr(cur: _Cursor, op: int) -> Instruction:  # ALU/mov/test reg -> r/m
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, _MR_MNEM[op], (cur.bank[reg_field], rm_op),
                  disp=dbytes, modrm=True)


def _h_rm(cur: _Cursor, op: int) -> Instruction:  # ALU/mov r/m -> reg
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, _RM_MNEM[op], (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


def _h_xchg(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, "xchg", (cur.bank[reg_field], rm_op),
                  disp=dbytes, modrm=True)


def _h_lea(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    if not isinstance(rm_op, Mem):
        raise DecodeError(f"lea with register operand at {cur.at:#x}")
    return _build(cur, "lea", (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


def _h_movsxd(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, 32)
    return _build(cur, "movsxd", (rm_op, GPR64[reg_field]),
                  disp=dbytes, modrm=True)


def _h_push(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "push", (GPR64[((cur.rex & 1) << 3) | (op - 0x50)],))


def _h_pop(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "pop", (GPR64[((cur.rex & 1) << 3) | (op - 0x58)],))


def _h_jcc8(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i8()
    return _build(cur, CC_BY_CODE[op - 0x70], imm=1,
                  target=cur.base + cur.pos + rel)


def _h_group1(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    mnem = GROUP1[reg_field & 0b111]
    if op == 0x81:
        value, isize = cur.i32(), 4
    else:
        value, isize = cur.i8(), 1
    return _build(cur, mnem, (_imm(cur, value, isize), rm_op),
                  disp=dbytes, imm=isize, modrm=True)


def _h_nop(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "nop")


def _h_mov_imm_reg(cur: _Cursor, op: int) -> Instruction:
    dst = cur.bank[((cur.rex & 1) << 3) | (op - 0xB8)]
    if cur.wbits == 64:
        value, isize = cur.i64(), 8
    else:
        value, isize = cur.i32(), 4
    return _build(cur, "mov", (_imm(cur, value, isize), dst), imm=isize)


def _h_group2(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    ext = reg_field & 0b111
    if ext not in GROUP2:
        raise DecodeError(f"unsupported shift /{ext} at {cur.at:#x}")
    amount = cur.u8()
    return _build(cur, GROUP2[ext], (_imm(cur, amount, 1), rm_op),
                  disp=dbytes, imm=1, modrm=True)


def _h_ret(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "ret")


def _h_mov_imm_rm(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    if reg_field & 0b111:
        raise DecodeError(f"unsupported opcode c7 /{reg_field & 7} at {cur.at:#x}")
    value = cur.i32()
    return _build(cur, "mov", (_imm(cur, value, 4), rm_op),
                  disp=dbytes, imm=4, modrm=True)


def _h_leave(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "leave")


def _h_int3(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "int3")


def _h_call_rel32(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i32()
    return _build(cur, "callq", imm=4, target=cur.base + cur.pos + rel)


def _h_jmp_rel32(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i32()
    return _build(cur, "jmpq", imm=4, target=cur.base + cur.pos + rel)


def _h_jmp_rel8(cur: _Cursor, op: int) -> Instruction:
    rel = cur.i8()
    return _build(cur, "jmpq", imm=1, target=cur.base + cur.pos + rel)


def _h_hlt(cur: _Cursor, op: int) -> Instruction:
    return _build(cur, "hlt")


def _h_group3(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    ext = reg_field & 0b111
    if ext not in GROUP3:
        raise DecodeError(f"unsupported opcode f7 /{ext} at {cur.at:#x}")
    if ext == 0:  # test imm32
        value = cur.i32()
        return _build(cur, "test", (_imm(cur, value, 4), rm_op),
                      disp=dbytes, imm=4, modrm=True)
    return _build(cur, GROUP3[ext], (rm_op,), disp=dbytes, modrm=True)


def _h_group5(cur: _Cursor, op: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, 64)
    ext = reg_field & 0b111
    if ext not in GROUP5:
        raise DecodeError(f"unsupported opcode ff /{ext} at {cur.at:#x}")
    mnem = GROUP5[ext]
    if mnem in ("inc", "dec") and isinstance(rm_op, Reg):
        rm_op = cur.bank[rm_op.num]
    return _build(cur, mnem, (rm_op,), disp=dbytes, modrm=True)


# -- two-byte (0F) page -------------------------------------------------

def _h_twobyte(cur: _Cursor, op: int) -> Instruction:
    op2 = cur.u8()
    cur.n_opcode = 2
    handler = _DISPATCH_0F[op2]
    if handler is None:
        raise DecodeError(
            f"unsupported two-byte opcode 0f {op2:02x} at {cur.at:#x}"
        )
    return handler(cur, op2)


def _h_syscall(cur: _Cursor, op2: int) -> Instruction:
    return _build(cur, "syscall")


def _h_ud2(cur: _Cursor, op2: int) -> Instruction:
    return _build(cur, "ud2")


def _h_nopl(cur: _Cursor, op2: int) -> Instruction:
    _, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, "nopl", (rm_op,), disp=dbytes, modrm=True)


def _h_cmov(cur: _Cursor, op2: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, _CMOV_MNEM[op2 - 0x40], (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


def _h_jcc32(cur: _Cursor, op2: int) -> Instruction:
    rel = cur.i32()
    return _build(cur, CC_BY_CODE[op2 - 0x80], imm=4,
                  target=cur.base + cur.pos + rel)


def _h_imul(cur: _Cursor, op2: int) -> Instruction:
    reg_field, rm_op, dbytes = _parse_modrm(cur, cur.wbits)
    return _build(cur, "imul", (rm_op, cur.bank[reg_field]),
                  disp=dbytes, modrm=True)


# ------------------------------------------------------- dispatch tables

_DISPATCH: list = [None] * 256
_DISPATCH_0F: list = [None] * 256

for _op in _MR_MNEM:
    _DISPATCH[_op] = _h_mr
for _op in _RM_MNEM:
    _DISPATCH[_op] = _h_rm
_DISPATCH[0x0F] = _h_twobyte
for _op in range(0x50, 0x58):
    _DISPATCH[_op] = _h_push
for _op in range(0x58, 0x60):
    _DISPATCH[_op] = _h_pop
_DISPATCH[0x63] = _h_movsxd
for _op in range(0x70, 0x80):
    _DISPATCH[_op] = _h_jcc8
_DISPATCH[0x81] = _DISPATCH[0x83] = _h_group1
_DISPATCH[0x87] = _h_xchg
_DISPATCH[0x8D] = _h_lea
_DISPATCH[0x90] = _h_nop
for _op in range(0xB8, 0xC0):
    _DISPATCH[_op] = _h_mov_imm_reg
_DISPATCH[0xC1] = _h_group2
_DISPATCH[0xC3] = _h_ret
_DISPATCH[0xC7] = _h_mov_imm_rm
_DISPATCH[0xC9] = _h_leave
_DISPATCH[0xCC] = _h_int3
_DISPATCH[0xE8] = _h_call_rel32
_DISPATCH[0xE9] = _h_jmp_rel32
_DISPATCH[0xEB] = _h_jmp_rel8
_DISPATCH[0xF4] = _h_hlt
_DISPATCH[0xF7] = _h_group3
_DISPATCH[0xFF] = _h_group5

_DISPATCH_0F[0x05] = _h_syscall
_DISPATCH_0F[0x0B] = _h_ud2
_DISPATCH_0F[0x1F] = _h_nopl
for _op in range(0x40, 0x50):
    _DISPATCH_0F[_op] = _h_cmov
for _op in range(0x80, 0x90):
    _DISPATCH_0F[_op] = _h_jcc32
_DISPATCH_0F[0xAF] = _h_imul

del _op


# ------------------------------------------------------------ decode loop

def _decode_next(cur: _Cursor) -> Instruction:
    """Decode the instruction at the cursor, advancing it past the end."""
    code = cur.code
    pos = cur.start = cur.pos
    limit = len(code)
    if pos >= limit:
        raise DecodeError(f"truncated instruction at offset {cur.at:#x}")
    b = code[pos]

    # -- legacy prefixes --------------------------------------------------
    seg: str | None = None
    opsize = False
    n_prefix = 0
    while b == PREFIX_FS or b == PREFIX_GS or b == PREFIX_OPSIZE:
        if b == PREFIX_OPSIZE:
            if opsize:
                raise DecodeError(f"duplicate operand-size prefix at {cur.at:#x}")
            opsize = True
        else:
            if seg is not None:
                raise DecodeError(f"duplicate segment prefix at {cur.at:#x}")
            seg = "fs" if b == PREFIX_FS else "gs"
        pos += 1
        n_prefix += 1
        if n_prefix > 4:
            raise DecodeError(f"too many prefixes at {cur.at:#x}")
        if pos >= limit:
            raise DecodeError(f"truncated instruction at offset {cur.at:#x}")
        b = code[pos]

    # -- REX --------------------------------------------------------------
    rex = 0
    if 0x40 <= b <= 0x4F:
        rex = b
        n_prefix += 1
        pos += 1
        if pos >= limit:
            raise DecodeError(f"truncated instruction at offset {cur.at:#x}")
        b = code[pos]

    cur.pos = pos + 1
    cur.rex = rex
    cur.seg = seg
    cur.n_prefix = n_prefix
    cur.n_opcode = 1
    if rex & 0b1000:
        cur.wbits = 64
        cur.bank = GPR64
    else:
        cur.wbits = 32
        cur.bank = GPR32

    # The operand-size prefix is only meaningful (and only emitted) for the
    # canonical NOP forms in our subset; anywhere else it is ambiguous.
    if opsize and b != 0x90 and not (b == 0x0F and cur.peek() == 0x1F):
        raise DecodeError(f"operand-size prefix on non-NOP opcode {b:#04x}")

    handler = _DISPATCH[b]
    if handler is None:
        raise DecodeError(f"unsupported opcode {b:#04x} at offset {cur.at:#x}")
    return handler(cur, b)


def decode_one(code: bytes, offset: int) -> Instruction:
    """Decode a single instruction starting at *offset* within *code*."""
    if type(code) is not bytes:
        code = bytes(code)
    return _decode_next(_Cursor(code, offset))


def iter_decode(code: bytes, start: int = 0, end: int | None = None) -> Iterator[Instruction]:
    """Linearly decode [start, end) — the NaCl 'sequential decode' pass.

    Runs a single resumable cursor over the region: each instruction picks
    up exactly where the previous one ended, with no per-instruction
    cursor construction or re-slicing.
    """
    if type(code) is not bytes:
        code = bytes(code)
    end = len(code) if end is None else end
    cur = _Cursor(code, start)
    while cur.pos < end:
        insn = _decode_next(cur)
        if insn.end > end:
            raise DecodeError(
                f"instruction at {insn.offset:#x} extends past region end {end:#x}"
            )
        yield insn


def decode_all(code: bytes, start: int = 0, end: int | None = None) -> list[Instruction]:
    """Decode a whole region, materialising the instruction list."""
    return list(iter_decode(code, start, end))


def decode_error(code, pos: int, base: int = 0) -> DecodeError:
    """The decoder's error for the instruction at *pos* that the length
    pass refused (see :mod:`repro.x86.lengths`), the region ending with
    *code*: exactly what :func:`iter_decode` raises there, with offsets
    ``base`` past *code*'s.  Should the decoder accept it after all, the
    refusal still stands, with a message saying so."""
    cur = _Cursor(code, pos)
    cur.base = base
    try:
        insn = _decode_next(cur)
    except DecodeError as exc:
        return exc
    return DecodeError(f"length pass refused the instruction at {insn.offset:#x}")


class StreamDecoder:
    """Chunk-resumable length pass over a byte stream.

    Runs :func:`~repro.x86.lengths.scan_into` over bytes that arrive as
    channel records, filling one :class:`~repro.x86.lengths.Columns`.
    ``feed`` scans every instruction that *provably* fits in the bytes
    received so far -- it never starts an instruction unless a full
    ``_MAX_INSN``-byte lookahead window is available, so a chunk boundary
    can never manufacture a spurious truncation error.  ``finish`` drains
    the tail once the last byte has been fed (the region ends there),
    applying the same past-the-end check as :func:`iter_decode`.

    The decoder keeps only the bytes from the next unscanned instruction
    on (fewer than ``_MAX_INSN`` of them after a feed), so each fed byte
    is copied a bounded number of times, not once per later chunk.

    The columns (and any :class:`DecodeError`, message included) are
    identical to a whole-buffer :func:`~repro.x86.lengths.length_pass` of
    the concatenated chunks (and its decoder error); tests pin this at
    every split point.
    """

    __slots__ = ("columns", "_code", "_pos", "_base", "_finished")

    def __init__(self) -> None:
        self.columns = Columns()
        self._code = b""
        self._pos = 0    # next unscanned byte, relative to _code
        self._base = 0   # absolute offset of _code[0]
        self._finished = False

    @property
    def pos(self) -> int:
        """Offset of the next unscanned byte."""
        return self._base + self._pos

    @property
    def buffered(self) -> int:
        """Total bytes fed so far."""
        return self._base + len(self._code)

    def feed(self, chunk) -> None:
        """Absorb *chunk* (any bytes-like object) and scan every
        instruction that fits with its lookahead."""
        if self._finished:
            raise ValueError("feed() after finish()")
        if chunk:
            keep = self._pos
            self._code = self._code[keep:] + chunk
            self._base += keep
            self._pos = 0
        code = self._code
        # Start instructions only while the architectural 15-byte
        # lookahead is buffered: a refusal here is one the whole-buffer
        # pass makes too, never a chunking artifact.
        stop = len(code) - _MAX_INSN + 1
        pos = scan_into(code, self._pos, stop, len(code), self._base,
                        self.columns)
        self._pos = pos
        if pos < stop:
            raise decode_error(code, pos, self._base)

    def finish(self) -> Columns:
        """Scan the remaining tail (the stream ends at the last byte fed)
        and return the completed columns."""
        self._finished = True
        code = self._code
        end = len(code)
        pos = scan_into(code + _PAD, self._pos, end, end, self._base,
                        self.columns)
        self._pos = pos
        if pos < end:
            raise decode_error(code, pos, self._base)
        return self.columns


class InstructionBuffer:
    """The paper's instruction buffer over one scan's offsets column.

    A read-only sequence of :class:`Instruction` records, each decoded the
    first time something reads it and kept from then on.  Missing records
    are decoded in runs through one :class:`_Cursor` for the buffer's
    lifetime, so the ``Mem``/``Imm``/operand interning holds across runs.
    *records* may supply records already decoded (``None`` where not).
    """

    __slots__ = ("_code", "_offsets", "_records", "_cursor")

    def __init__(self, code: bytes, offsets, records=None) -> None:
        self._code = code
        self._offsets = offsets
        self._records = [None] * len(offsets) if records is None else records
        self._cursor: _Cursor | None = None

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        records = self._records
        if isinstance(index, slice):
            part = records[index]
            if None in part:
                lo, hi, step = index.indices(len(records))
                if step == 1:
                    self._decode(lo, hi)
                else:
                    self._decode(0, len(records))
                part = records[index]
            return part
        record = records[index]
        if record is None:
            if index < 0:
                index += len(records)
            self._decode(index, index + 1)
            record = records[index]
        return record

    def __iter__(self):
        records = self._records
        if None in records:
            self._decode(0, len(records))
        return iter(records)

    def decoded(self) -> list:
        """The buffer's own record list: decoded records, ``None`` where
        unread.  A caller may fill a slot only with the very record the
        decoder would build there."""
        return self._records

    def _decode(self, lo: int, hi: int) -> None:
        """Decode every missing record in ``[lo, hi)``."""
        cur = self._cursor
        if cur is None:
            cur = self._cursor = _Cursor(self._code, 0)
        records = self._records
        offsets = self._offsets
        i = lo
        while i < hi:
            if records[i] is not None:
                i += 1
                continue
            cur.pos = offsets[i]
            while i < hi and records[i] is None:
                records[i] = _decode_next(cur)
                i += 1
