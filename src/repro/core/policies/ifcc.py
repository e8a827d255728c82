"""Indirect function-call compliance — IFCC (paper section 5, Figure 5).

Verifies that the executable was compiled with LLVM's forward-edge CFI
(IFCC patch, reviews.llvm.org/D4167): every indirect call must be
preceded by the jump-table masking sequence::

    1b459: lea  0x85c70(%rip),%rax   # jump-table base
    1b460: sub  %eax,%ecx
    1b462: and  $0x1ff8,%rcx          # mask to an 8-byte-aligned entry
    1b469: add  %rax,%rcx
    1b475: callq *%rcx

and jump-table entries have the canonical 8-byte format::

    a19d0: jmpq 41090 <target>
    a19d5: nopl (%rax)

The module first determines the table's range from the
``__llvm_jump_instr_table_0_*`` symbols (validating each entry's format),
then linearly scans the buffer; at each indirect call it walks backward
through the lea/sub/and/add chain checking register dataflow, verifies
the mask matches the table size, and checks the lea target lies at the
table base.  A single linear pass with a short backward window per call
site — which is why Figure 5's policy-checking column is two orders of
magnitude cheaper than the other policies'.
"""

from __future__ import annotations

from ...x86 import Imm, Instruction, Mem
from ...x86.registers import Reg
from ..policy import PolicyContext, PolicyModule, PolicyResult

__all__ = ["IfccPolicy", "JUMP_TABLE_PREFIX"]

JUMP_TABLE_PREFIX = "__llvm_jump_instr_table_0_"
_ENTRY_SIZE = 8


class IfccPolicy(PolicyModule):
    """Checks indirect calls against the IFCC jump-table discipline."""

    name = "indirect-function-call"

    def __init__(self, *, backward_window: int = 12) -> None:
        self.backward_window = backward_window

    def config_digest(self) -> bytes:
        return self.backward_window.to_bytes(2, "big")

    def check(self, ctx: PolicyContext) -> PolicyResult:
        result = self.result()
        meter = ctx.meter

        table_range = self._find_jump_table(ctx, result)
        indirect_calls = 0
        meter.charge("policy_scan_insn", len(ctx.instructions))
        instructions = ctx.instructions
        for idx in ctx.indirect_calls():
            insn = instructions[idx]
            indirect_calls += 1
            if table_range is None:
                result.add_violation(
                    "indirect call present but no IFCC jump table found"
                )
                continue
            if not self._check_call_site(ctx, idx, table_range):
                result.add_violation(
                    f"indirect call at +{insn.offset:#x} is not IFCC-protected"
                )
        result.stats["indirect_calls"] = indirect_calls
        return result

    # ------------------------------------------------------------------

    def _find_jump_table(
        self, ctx: PolicyContext, result: PolicyResult
    ) -> tuple[int, int] | None:
        """Locate and format-check the jump table; returns (start, end)."""
        meter = ctx.meter
        entries = sorted(
            addr for addr, name in ctx.symtab.items()
            if name.startswith(JUMP_TABLE_PREFIX)
        )
        if not entries:
            return None
        start, end = entries[0], entries[-1] + _ENTRY_SIZE
        # Entries must tile the range contiguously at 8-byte stride and
        # each must be "jmpq ...; nopl".
        expected = set(range(start, end, _ENTRY_SIZE))
        if set(entries) != expected:
            result.add_violation("jump table entries are not contiguous")
            return None
        # Two comparisons per entry, accumulated locally and flushed in one
        # batched charge even when a malformed entry aborts the loop early.
        compares = 0
        try:
            for addr in entries:
                compares += 2
                jmp = ctx.at(addr)
                if jmp is None or not jmp.is_direct_jump or jmp.length != 5:
                    result.add_violation("malformed jump-table entry (no jmpq)")
                    return None
                pad = ctx.at(addr + 5)
                if pad is None or pad.mnemonic != "nopl" or pad.length != 3:
                    result.add_violation("malformed jump-table entry (no nopl)")
                    return None
        finally:
            if compares:
                meter.charge("policy_compare", compares)
        size = end - start
        if size & (size - 1):
            result.add_violation("jump table size is not a power of two")
            return None
        return start, end

    def _check_call_site(
        self, ctx: PolicyContext, idx: int, table_range: tuple[int, int]
    ) -> bool:
        """Walk backward over add/and/sub/lea verifying register dataflow.

        Reads (and so decodes) only the call and the *backward_window*
        instructions before it."""
        window = ctx.instructions[max(idx - self.backward_window, 0):idx + 1]
        ok, steps = _walk_call_site(window, table_range)
        if steps:
            ctx.meter.charge("policy_compare", steps)
        return ok


def _walk_call_site(
    window: list[Instruction],
    table_range: tuple[int, int],
) -> tuple[bool, int]:
    """The IFCC backward dataflow walk, meter-free.

    *window* ends with the call and holds the instructions the walk may
    step back over before it.  Returns ``(protected, steps)`` where
    *steps* is the number of backward comparisons the walk performed —
    the caller charges ``policy_compare`` with it (one charge per call
    site, whichever way the walk exits).
    """
    call = window[-1]
    target = call.operands[0] if call.operands else None
    if not isinstance(target, Reg):
        return False, 0  # memory-indirect calls are never IFCC-emitted

    table_start, table_end = table_range
    ptr = target  # e.g. %rcx
    base: Reg | None = None
    mask_value: int | None = None
    state = "add"  # expected next (walking backward): add, and, sub, lea
    # One comparison per backward step; counted and returned whichever
    # way the walk exits.
    steps = 0
    for insn in reversed(window[:-1]):
        steps += 1
        if insn.mnemonic in ("nop", "nopl"):
            continue
        if state == "add":
            # add %base,%ptr
            if (insn.mnemonic == "add" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Reg)
                    and isinstance(insn.operands[1], Reg)
                    and insn.operands[1].num == ptr.num):
                base = insn.operands[0]
                state = "and"
                continue
            return False, steps
        if state == "and":
            # and $mask,%ptr
            if (insn.mnemonic == "and" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Imm)
                    and isinstance(insn.operands[1], Reg)
                    and insn.operands[1].num == ptr.num):
                mask_value = insn.operands[0].value
                state = "sub"
                continue
            return False, steps
        if state == "sub":
            # sub %base(32),%ptr(32)
            if (insn.mnemonic == "sub" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Reg)
                    and isinstance(insn.operands[1], Reg)
                    and base is not None
                    and insn.operands[0].num == base.num
                    and insn.operands[1].num == ptr.num):
                state = "lea"
                continue
            return False, steps
        if state == "lea":
            # lea table(%rip),%base
            if (insn.mnemonic == "lea" and len(insn.operands) == 2
                    and isinstance(insn.operands[0], Mem)
                    and insn.operands[0].rip_relative
                    and isinstance(insn.operands[1], Reg)
                    and base is not None
                    and insn.operands[1].num == base.num):
                lea_target = insn.end + insn.operands[0].disp
                if lea_target != table_start:
                    return False, steps
                if mask_value != (table_end - table_start) - _ENTRY_SIZE:
                    return False, steps
                return True, steps
            # tolerate the pointer load interleaved in the chain
            if _writes_reg(insn, ptr) or (base is not None and _writes_reg(insn, base)):
                return False, steps
            continue
    return False, steps


def _writes_reg(insn: Instruction, reg: Reg) -> bool:
    if not insn.operands:
        return False
    dst = insn.operands[-1]
    return (
        isinstance(dst, Reg)
        and dst.num == reg.num
        and insn.mnemonic not in ("cmp", "test", "push")
    )
