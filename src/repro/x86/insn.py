"""Decoded-instruction representation.

Mirrors the metadata NaCl's disassembler attaches to each instruction (the
paper, section 4 "Binary Disassembly": "the number of prefix bytes, number
of opcode bytes and number of displacement bytes").  Policy modules consume
these records from a buffer that can outlive the inspection (a label's
delta index, from its second provisioning on, holds its adopted scan with
the records read so far), so a record costs one GC-tracked object:
:class:`Instruction` is a tuple whose fields are read by name, and the
decoder shares equal operands (:class:`Mem`, :class:`Imm` and whole
operand tuples) between the records of one decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .registers import Reg, reg_name

__all__ = ["Mem", "Imm", "Instruction", "Operand"]

# Segment override markers (we only model %fs and %gs, which is all the
# stack-protector idiom needs).
SEG_FS = "fs"
SEG_GS = "gs"


@dataclass(frozen=True)
class Mem:
    """A memory operand: seg:[base + index*scale + disp] or RIP-relative."""

    base: Reg | None = None
    index: Reg | None = None
    scale: int = 1
    disp: int = 0
    seg: str | None = None  # "fs", "gs", or None
    rip_relative: bool = False

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"bad scale {self.scale}")
        if self.rip_relative and (self.base or self.index):
            raise ValueError("RIP-relative addressing takes no base/index")

    def __str__(self) -> str:
        prefix = f"%{self.seg}:" if self.seg else ""
        disp = f"{self.disp:#x}" if self.disp else ""
        if self.rip_relative:
            return f"{prefix}{disp}(%rip)"
        parts = ""
        if self.base is not None:
            parts += f"%{self.base.name}"
        if self.index is not None:
            parts += f",%{self.index.name},{self.scale}"
        if parts:
            return f"{prefix}{disp}({parts})"
        return f"{prefix}{disp or '0x0'}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand with its encoded width in bytes."""

    value: int
    size: int  # 1, 2, 4, or 8 bytes as encoded

    def __str__(self) -> str:
        return f"${self.value:#x}"


Operand = Reg | Mem | Imm


class Instruction(NamedTuple):
    """One decoded x86-64 instruction.

    *operands* are in AT&T order (source first, destination last) to match
    the listings in the paper.  Branch-like instructions store their decoded
    absolute *target* when it is statically known (rel8/rel32 forms).

    A tuple-backed record: one GC-tracked object, immutable, compared and
    hashed by its fields, built with the keyword constructor or (by the
    decoder) with one ``tuple.__new__`` call.  Read it by field name; its
    tuple-ness is a storage detail.
    """

    offset: int               # address relative to the text-section start
    raw: bytes                # the exact encoded bytes
    mnemonic: str             # e.g. "mov", "callq", "jne"
    operands: tuple[Operand, ...] = ()
    #: NaCl-style byte-structure metadata
    num_prefix_bytes: int = 0
    num_opcode_bytes: int = 1
    num_displacement_bytes: int = 0
    num_immediate_bytes: int = 0
    has_modrm: bool = False
    #: statically-known absolute branch/call target (text-relative), or None
    target: int | None = None

    @property
    def length(self) -> int:
        return len(self.raw)

    @property
    def end(self) -> int:
        return self.offset + len(self.raw)

    # -- classification helpers used by the policy modules ---------------

    @property
    def is_direct_call(self) -> bool:
        return self.mnemonic == "callq" and self.target is not None

    @property
    def is_indirect_call(self) -> bool:
        return self.mnemonic == "callq" and self.target is None

    @property
    def is_direct_jump(self) -> bool:
        return self.mnemonic in ("jmp", "jmpq") and self.target is not None

    @property
    def is_indirect_jump(self) -> bool:
        return self.mnemonic in ("jmp", "jmpq") and self.target is None

    @property
    def is_conditional_branch(self) -> bool:
        return self.mnemonic.startswith("j") and self.mnemonic not in ("jmp", "jmpq")

    @property
    def is_return(self) -> bool:
        return self.mnemonic in ("ret", "retq")

    @property
    def is_terminator(self) -> bool:
        """True if control never falls through to the next instruction."""
        return self.is_return or self.mnemonic in ("jmp", "jmpq", "ud2", "hlt")

    @property
    def is_control_transfer(self) -> bool:
        return (
            self.mnemonic in ("callq", "jmp", "jmpq", "ret", "retq")
            or self.is_conditional_branch
        )

    def reads_fs_offset(self, disp: int) -> bool:
        """True if any memory operand reads %fs:disp (stack-canary idiom)."""
        return any(
            isinstance(op, Mem) and op.seg == "fs" and op.disp == disp
            and op.base is None and op.index is None
            for op in self.operands
        )

    def memory_operand(self) -> Mem | None:
        for op in self.operands:
            if isinstance(op, Mem):
                return op
        return None

    def __str__(self) -> str:
        ops = ", ".join(self._fmt(op) for op in self.operands)
        text = f"{self.offset:#x}: {self.mnemonic}"
        if ops:
            text += f" {ops}"
        if self.target is not None:
            text += f" -> {self.target:#x}"
        return text

    @staticmethod
    def _fmt(op: Operand) -> str:
        if isinstance(op, Reg):
            return f"%{reg_name(op.num, op.bits)}"
        return str(op)
