"""EnGarde's in-enclave disassembly stage.

Follows the paper's pipeline (sections 3-4):

1. split the received content into page-level chunks and reject pages that
   mix code and data (EnGarde "operates at the granularity of memory
   pages"),
2. validate the ELF header (signature, class) and extract the text
   sections,
3. disassemble with the NaCl-style decoder into a **dynamically allocated
   instruction buffer** — unlike NaCl, which validates instruction-by-
   instruction with a small ring buffer, EnGarde keeps every instruction
   for the policy modules; buffer memory is requested from the host a page
   at a time because each ``malloc`` trampoline costs an enclave
   exit/re-entry (two SGX instructions),
4. enforce the NaCl structural constraints (32-byte bundles, valid branch
   targets, reachability),
5. read the symbol table into the symbol hash table (address -> name),
   auto-rejecting binaries without symbols.

Every step charges the cycle meter; the harness attributes this stage to
the "Disassembly" column of Figures 3-5.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..elf import ElfImage, read_elf
from ..errors import DecodeError, ElfError, RejectionError, ValidationError
from ..faults import hooks as _faults
from ..sgx.cpu import CycleMeter
from ..sgx.params import PAGE_SIZE
from ..x86 import Instruction, iter_decode, validate, validate_fast
from ..x86.refdecode import ref_decode_one
from .policy import PolicyContext, SymbolHashTable
from .streaming import StreamScan

__all__ = ["DisassemblyResult", "Disassembler", "INSN_RECORD_BYTES"]

#: size of one stored instruction record in the buffer (NaCl keeps raw
#: bytes + decoded metadata; 64 bytes is the C struct's footprint)
INSN_RECORD_BYTES = 64


@dataclass
class DisassemblyResult:
    """Output of the stage, consumed by the policy engine and the loader."""

    image: ElfImage
    instructions: list[Instruction]
    symtab: SymbolHashTable
    text_vaddr: int
    #: pages of instruction-buffer memory requested from the host
    buffer_pages_allocated: int
    #: prescan artifacts the buffer was validated with (None on the
    #: ``optimized=False`` reference path)
    scan: StreamScan | None = None

    def policy_context(self, meter: CycleMeter, *, cached: bool = True) -> PolicyContext:
        """The policy modules' view; uncached for a result without a scan
        (the reference path), which has no prescan views to share."""
        if not cached or self.scan is None:
            return PolicyContext(
                instructions=self.instructions,
                symtab=self.symtab,
                image=self.image,
                meter=meter,
                cached=False,
            )
        # Seed the context with the prescan's byproducts: the offset index
        # and call-site views were collected with the decode, so the
        # policy stage starts warm.
        scan = self.scan
        return PolicyContext(
            instructions=self.instructions,
            symtab=self.symtab,
            image=self.image,
            meter=meter,
            index_by_offset=scan.by_offset,
            call_sites=(scan.direct_calls, scan.indirect_idx),
            delta=scan.delta,
        )


class Disassembler:
    """The in-enclave disassembly component.

    *alloc_pages* is the host trampoline for growing the instruction
    buffer (``HostOS.svc_alloc_pages`` in the full stack; a counter stub in
    unit tests).  *per_insn_malloc* reproduces the naive strategy the
    paper optimised away — one trampoline per instruction record instead
    of one per page — for the ablation benchmark.

    *optimized* selects the front end: the default decodes the text with
    the resumable-cursor decoder, prescans it once and validates over the
    prescan artifacts (:meth:`run`); ``optimized=False`` runs the frozen
    pre-optimization stage (per-instruction ``ref_decode_one`` + three
    per-instruction ``charge`` calls, then the reference ``validate``
    passes) for differential testing and baseline benchmarks.  Both
    produce identical instructions, identical trampoline call sequences,
    and tick-identical meter totals.
    """

    def __init__(
        self,
        meter: CycleMeter,
        *,
        alloc_pages=None,
        per_insn_malloc: bool = False,
        optimized: bool = True,
    ) -> None:
        self.meter = meter
        self._alloc_pages = alloc_pages or (lambda n: 0)
        self.per_insn_malloc = per_insn_malloc
        self.optimized = optimized

    # ------------------------------------------------------------ stages

    def check_page_separation(self, image: ElfImage) -> None:
        """Reject pages containing both code and data (paper section 3)."""
        code_pages: set[int] = set()
        data_pages: set[int] = set()
        for section in image.sections:
            if not section.size or not section.vaddr:
                continue
            pages = range(
                section.vaddr // PAGE_SIZE,
                (section.vaddr + section.size - 1) // PAGE_SIZE + 1,
            )
            if section.is_text:
                code_pages.update(pages)
            else:
                data_pages.update(pages)
        mixed = code_pages & data_pages
        if mixed:
            raise RejectionError(
                f"{len(mixed)} page(s) contain mixed code and data "
                "(compile with separated sections)",
                stage="page-split",
            )

    def parse_elf(self, raw: bytes) -> ElfImage:
        """Header validation + parsing; ElfError becomes a rejection."""
        try:
            image = read_elf(raw)
        except ElfError as exc:
            raise RejectionError(f"malformed ELF: {exc}", stage="elf") from exc
        if not image.text_sections:
            raise RejectionError("no executable sections", stage="elf")
        if not image.function_symbols():
            # Paper section 6: stripped binaries are auto-rejected.
            raise RejectionError(
                "binary carries no function symbols (stripped binaries "
                "are rejected)",
                stage="elf",
            )
        return image

    @staticmethod
    def _text_section(image: ElfImage):
        if len(image.text_sections) != 1:
            raise RejectionError(
                "expected exactly one text section", stage="disasm"
            )
        return image.text_sections[0]

    def run(self, raw: bytes, scan: StreamScan | None = None) -> DisassemblyResult:
        """Full stage: parse, page-split check, decode, validate.

        *scan* is an optional speculative :class:`StreamScan` of the text,
        collected while the content streamed in (or spliced from the
        previous version's).  It is adopted only when it completed without
        a decode error, no fault plan watches the decoder, and the bytes
        it decoded equal the exactly-parsed text section.  Otherwise the
        text is decoded and prescanned here (:meth:`_decode`).  Either way
        the stage ends in :meth:`_disassemble_from_scan`, so the adopted
        and the fresh scan give the same verdict, trampoline sequence and
        meter totals.
        """
        image = self.parse_elf(raw)
        self.check_page_separation(image)
        if not self.optimized:
            return self.disassemble(image)
        code = self._text_section(image).data
        if (
            scan is None
            or scan.error is not None
            or _faults.wants("x86.decoder")
            or scan.code != code
        ):
            scan = self._decode(code)
        return self._disassemble_from_scan(image, scan)

    #: alias of :meth:`run`, kept because perfbench's span table binds
    #: both names
    run_streamed = run

    def _decode(self, code: bytes) -> StreamScan:
        """Decode *code* into the instruction buffer, then prescan it.

        A decode error replays the buffer growth and charges of the
        instructions completed before it — what the per-instruction
        reference loop charges — and rejects.
        """
        instructions: list[Instruction] = []
        try:
            if _faults.wants("x86.decoder"):
                for insn in iter_decode(code, 0, len(code)):
                    _faults.fault_hook("x86.decoder", error=DecodeError)
                    instructions.append(insn)
            else:
                instructions.extend(iter_decode(code, 0, len(code)))
        except DecodeError as exc:
            n_bytes = instructions[-1].end if instructions else 0
            self._fill_buffer(len(instructions), n_bytes)
            raise RejectionError(
                f"disassembly failed: {exc}", stage="disasm"
            ) from exc
        return StreamScan.from_instructions(code, instructions)

    def _fill_buffer(self, n: int, n_bytes: int) -> int:
        """Replay the decode loop's observable effects for *n* records of
        *n_bytes* in total: the buffer-growth trampolines (one-page
        requests, in order) and the batched decode charges.  Returns the
        pages requested."""
        if self.per_insn_malloc:
            pages = n
        else:
            pages = -(-n * INSN_RECORD_BYTES // PAGE_SIZE)
        for _ in range(pages):
            self._alloc_pages(1)
        self.meter.charge_batch({
            "decode_byte": n_bytes,
            "decode_insn": n,
            "buffer_store": n,
        })
        return pages

    def _disassemble_from_scan(
        self, image: ElfImage, scan: StreamScan
    ) -> DisassemblyResult:
        """Fill the buffer from *scan* and validate over its artifacts.

        The fast validator reads the prescan's offset index, bundle
        offender and branch/terminator indices; its check order and error
        strings match the reference validator byte for byte.
        """
        text = image.text_sections[0]
        instructions = scan.instructions
        buffer_pages = self._fill_buffer(len(instructions), scan.n_bytes)

        symtab, roots = self._build_symtab(image, text)

        entry_offset = image.entry - text.vaddr
        try:
            validate_fast(
                instructions,
                entry=entry_offset,
                roots=roots,
                by_offset=scan.by_offset,
                bundle_violation=scan.bundle_violation,
                branch_idx=scan.branch_idx,
                term_idx=scan.term_idx,
            )
        except ValidationError as exc:
            raise RejectionError(
                f"NaCl constraint violated: {exc}", stage="disasm"
            ) from exc

        return DisassemblyResult(
            image=image,
            instructions=instructions,
            symtab=symtab,
            text_vaddr=text.vaddr,
            buffer_pages_allocated=buffer_pages,
            scan=scan,
        )

    def _build_symtab(self, image: ElfImage, text):
        """Symbol hash table + reachability roots (shared by both paths)."""
        symtab = SymbolHashTable(self.meter)
        roots = []
        for sym in image.function_symbols():
            offset = sym.value - text.vaddr
            if not 0 <= offset < len(text.data):
                raise RejectionError(
                    f"symbol {sym.name!r} lies outside the text section",
                    stage="disasm",
                )
            symtab.insert(offset, sym.name)
            roots.append(offset)
        return symtab, roots

    # ------------------------------------------------- reference path

    def disassemble(self, image: ElfImage) -> DisassemblyResult:
        """The frozen reference stage: decode the text one instruction at
        a time, then check the NaCl constraints in separate passes."""
        text = self._text_section(image)
        instructions, buffer_pages = self._decode_reference(text.data)

        symtab, roots = self._build_symtab(image, text)

        entry_offset = image.entry - text.vaddr
        try:
            validate(instructions, entry=entry_offset, roots=roots)
        except ValidationError as exc:
            raise RejectionError(
                f"NaCl constraint violated: {exc}", stage="disasm"
            ) from exc

        return DisassemblyResult(
            image=image,
            instructions=instructions,
            symtab=symtab,
            text_vaddr=text.vaddr,
            buffer_pages_allocated=buffer_pages,
        )

    def _decode_reference(self, code: bytes) -> tuple[list[Instruction], int]:
        """Frozen pre-optimization loop (differential oracle / baseline)."""
        meter = self.meter
        instructions: list[Instruction] = []
        buffer_bytes_used = 0
        buffer_pages = 0
        pos = 0
        hooked = _faults.wants("x86.decoder")
        try:
            while pos < len(code):
                insn = ref_decode_one(code, pos)
                if hooked:
                    _faults.fault_hook("x86.decoder", error=DecodeError)
                if insn.end > len(code):
                    raise DecodeError("instruction extends past section end")
                meter.charge("decode_byte", insn.length)
                meter.charge("decode_insn")
                if self.per_insn_malloc:
                    self._alloc_pages(1)
                    buffer_pages += 1
                else:
                    buffer_bytes_used += INSN_RECORD_BYTES
                    if buffer_bytes_used > buffer_pages * PAGE_SIZE:
                        self._alloc_pages(1)
                        buffer_pages += 1
                meter.charge("buffer_store")
                instructions.append(insn)
                pos = insn.end
        except DecodeError as exc:
            raise RejectionError(
                f"disassembly failed: {exc}", stage="disasm"
            ) from exc
        return instructions, buffer_pages
