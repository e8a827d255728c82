"""NaCl-style structural validation of disassembled code.

The paper (section 3) lists the constraints NaCl's disassembler imposes and
EnGarde inherits:

* no instruction may overlap a 32-byte boundary,
* all control transfers must target valid instruction starts,
* all valid instructions must be reachable from the start address.

`validate` enforces all three over a decoded instruction list.  Reachability
treats the entry point plus any caller-supplied *roots* (function symbols,
relocation targets — e.g. IFCC jump-table entries reached only through
indirect calls) as sources, and propagates through fall-through edges and
direct branch/call targets.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

from ..errors import ValidationError
from .asm import BUNDLE_SIZE
from .insn import Instruction
from .lengths import K_NOP, Columns, OffsetIndex

__all__ = [
    "validate",
    "validate_fast",
    "check_bundles",
    "check_targets",
    "check_reachability",
]


def check_bundles(instructions: list[Instruction], bundle_size: int = BUNDLE_SIZE) -> None:
    """Reject any instruction overlapping a *bundle_size*-byte boundary."""
    for insn in instructions:
        first_bundle = insn.offset // bundle_size
        last_bundle = (insn.end - 1) // bundle_size
        if first_bundle != last_bundle:
            raise ValidationError(
                f"instruction at {insn.offset:#x} ({insn.mnemonic}, "
                f"{insn.length} bytes) overlaps a {bundle_size}-byte boundary"
            )


def check_targets(
    instructions: list[Instruction],
    starts: "set[int] | None" = None,
) -> set[int]:
    """Check all static branch targets land on instruction starts.

    Returns the set of valid instruction-start offsets for reuse.  Pass a
    precomputed *starts* set (or dict keyed by offset) to skip rebuilding
    it.
    """
    if starts is None:
        starts = {insn.offset for insn in instructions}
    for insn in instructions:
        if insn.target is None:
            continue
        if insn.target not in starts:
            raise ValidationError(
                f"{insn.mnemonic} at {insn.offset:#x} targets {insn.target:#x}, "
                "which is not a valid instruction start"
            )
    return starts


def check_reachability(
    instructions: list[Instruction],
    entry: int = 0,
    roots: Iterable[int] = (),
    by_offset: "dict[int, int] | None" = None,
) -> None:
    """Check every instruction is reachable from *entry* or a root.

    NOP padding inserted for bundle alignment after an unconditional
    terminator is exempt (it can never execute, and compilers routinely
    emit it); everything else must be reachable.  Pass a precomputed
    offset->index map as *by_offset* to skip rebuilding it.
    """
    if by_offset is None:
        by_offset = {insn.offset: i for i, insn in enumerate(instructions)}
    if entry not in by_offset and instructions:
        raise ValidationError(f"entry point {entry:#x} is not an instruction start")

    reachable = [False] * len(instructions)
    stack = []
    for origin in [entry, *roots]:
        idx = by_offset.get(origin)
        if idx is None:
            raise ValidationError(f"root {origin:#x} is not an instruction start")
        stack.append(idx)

    while stack:
        idx = stack.pop()
        if idx >= len(instructions) or reachable[idx]:
            continue
        reachable[idx] = True
        insn = instructions[idx]
        if insn.target is not None:
            tgt = by_offset.get(insn.target)
            if tgt is not None and not reachable[tgt]:
                stack.append(tgt)
        if not insn.is_terminator and idx + 1 < len(instructions):
            if not reachable[idx + 1]:
                stack.append(idx + 1)

    for idx, insn in enumerate(instructions):
        if reachable[idx]:
            continue
        if insn.mnemonic in ("nop", "nopl"):
            continue  # dead alignment padding
        raise ValidationError(
            f"unreachable instruction at {insn.offset:#x} ({insn.mnemonic})"
        )


def validate(
    instructions: list[Instruction],
    *,
    entry: int = 0,
    roots: Iterable[int] = (),
    bundle_size: int = BUNDLE_SIZE,
) -> None:
    """Run all three NaCl constraints; raises :class:`ValidationError`."""
    if not instructions:
        raise ValidationError("empty instruction stream")
    check_bundles(instructions, bundle_size)
    # The offset->index map serves both as the target start-set and the
    # reachability index — built once for the whole validation.
    by_offset = {insn.offset: i for i, insn in enumerate(instructions)}
    check_targets(instructions, by_offset.keys())
    check_reachability(instructions, entry, roots, by_offset)


def validate_fast(
    columns: Columns,
    instructions,
    *,
    entry: int = 0,
    roots: Iterable[int] = (),
) -> None:
    """:func:`validate` over the length pass's columns.

    Reads the offsets, kind and target columns and the first bundle
    offender the pass recorded (recorded, not raised, during the pass --
    decode errors must keep precedence exactly as in the phased order).
    *instructions* is the scan's buffer; a record is read from it only to
    format an error.  Check order and every error message match
    :func:`validate`.

    Reachability marks whole fall-through runs at a time: from an index,
    control falls through to the next terminator, so the worklist marks
    ``[idx, next_terminator]`` with one ``bytearray`` slice-assign and
    enqueues only the branch targets inside the span.
    """
    offsets = columns.offsets
    n = len(offsets)
    if not n:
        raise ValidationError("empty instruction stream")
    if columns.bundles:
        insn = instructions[columns.bundles[0]]
        raise ValidationError(
            f"instruction at {insn.offset:#x} ({insn.mnemonic}, "
            f"{insn.length} bytes) overlaps a {BUNDLE_SIZE}-byte boundary"
        )
    branch_idx = columns.branch_idx
    target_idx = []
    for k, target in enumerate(columns.targets):
        i = bisect_left(offsets, target)
        if i == n or offsets[i] != target:
            insn = instructions[branch_idx[k]]
            raise ValidationError(
                f"{insn.mnemonic} at {insn.offset:#x} targets {insn.target:#x}, "
                "which is not a valid instruction start"
            )
        target_idx.append(i)

    index = OffsetIndex(offsets)
    if entry not in index:
        raise ValidationError(f"entry point {entry:#x} is not an instruction start")
    stack = []
    for origin in [entry, *roots]:
        idx = index.get(origin)
        if idx is None:
            raise ValidationError(f"root {origin:#x} is not an instruction start")
        stack.append(idx)

    term_idx = columns.term_idx
    covered = bytearray(n)
    nterm = len(term_idx)
    nbranch = len(branch_idx)
    while stack:
        idx = stack.pop()
        if covered[idx]:
            continue
        j = bisect_left(term_idx, idx)
        span_end = term_idx[j] if j < nterm else n - 1
        covered[idx:span_end + 1] = b"\x01" * (span_end + 1 - idx)
        k = bisect_left(branch_idx, idx)
        while k < nbranch and branch_idx[k] <= span_end:
            tgt = target_idx[k]
            if not covered[tgt]:
                stack.append(tgt)
            k += 1

    kinds = columns.kinds
    idx = covered.find(0)
    while idx >= 0:
        if kinds[idx] != K_NOP:  # dead alignment padding is exempt
            insn = instructions[idx]
            raise ValidationError(
                f"unreachable instruction at {insn.offset:#x} ({insn.mnemonic})"
            )
        idx = covered.find(0, idx + 1)
