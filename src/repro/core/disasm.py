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
    #: streamed prescan artifacts when the scan was verified and used
    scan: StreamScan | None = None

    def policy_context(self, meter: CycleMeter, *, cached: bool = True) -> PolicyContext:
        scan = self.scan
        if scan is not None and cached:
            # Seed the context with the prescan's byproducts: the offset
            # index and call-site views were already collected while the
            # content streamed in, so the policy stage starts warm.
            ctx = PolicyContext(
                instructions=self.instructions,
                symtab=self.symtab,
                image=self.image,
                meter=meter,
                index_by_offset=scan.by_offset,
                cached=cached,
            )
            ctx._call_sites = (scan.direct_calls, scan.indirect_idx)
            ctx.delta = scan.delta
            return ctx
        return PolicyContext(
            instructions=self.instructions,
            symtab=self.symtab,
            image=self.image,
            meter=meter,
            cached=cached,
        )


class Disassembler:
    """The in-enclave disassembly component.

    *alloc_pages* is the host trampoline for growing the instruction
    buffer (``HostOS.svc_alloc_pages`` in the full stack; a counter stub in
    unit tests).  *per_insn_malloc* reproduces the naive strategy the
    paper optimised away — one trampoline per instruction record instead
    of one per page — for the ablation benchmark.

    *optimized* selects the decode loop: the default drives the
    dispatch-table decoder through a resumable cursor and flushes meter
    charges once per stage; ``optimized=False`` runs the frozen
    pre-optimization loop (per-instruction ``ref_decode_one`` + three
    per-instruction ``charge`` calls) for differential testing and
    baseline benchmarks.  Both produce identical instructions, identical
    trampoline call sequences, and tick-identical meter totals.
    """

    def __init__(
        self,
        meter: CycleMeter,
        *,
        alloc_pages=None,
        per_insn_malloc: bool = False,
        allow_stripped: bool = False,
        optimized: bool = True,
    ) -> None:
        self.meter = meter
        self._alloc_pages = alloc_pages or (lambda n: 0)
        self.per_insn_malloc = per_insn_malloc
        #: extension (paper section 6): recover function starts in
        #: stripped binaries instead of auto-rejecting them
        self.allow_stripped = allow_stripped
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
        if not image.function_symbols() and not self.allow_stripped:
            # Paper section 6: stripped binaries are auto-rejected.
            raise RejectionError(
                "binary carries no function symbols (stripped binaries "
                "are rejected)",
                stage="elf",
            )
        return image

    def disassemble(self, image: ElfImage) -> DisassemblyResult:
        """Decode all text sections into the dynamic instruction buffer."""
        meter = self.meter
        if len(image.text_sections) != 1:
            raise RejectionError(
                "expected exactly one text section", stage="disasm"
            )
        text = image.text_sections[0]

        if self.optimized:
            instructions, buffer_pages = self._decode_fast(text.data)
        else:
            instructions, buffer_pages = self._decode_reference(text.data)

        symtab, roots = self._build_symtab(image, text, instructions)

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

    def _build_symtab(self, image: ElfImage, text, instructions):
        """Symbol hash table + reachability roots (shared by both paths)."""
        code = text.data
        symtab = SymbolHashTable(self.meter)
        roots = []
        if image.function_symbols():
            for sym in image.function_symbols():
                offset = sym.value - text.vaddr
                if not 0 <= offset < len(code):
                    raise RejectionError(
                        f"symbol {sym.name!r} lies outside the text section",
                        stage="disasm",
                    )
                symtab.insert(offset, sym.name)
                roots.append(offset)
        else:
            # Stripped-binary extension: recover function starts
            # structurally (paper section 6's "future enhancement").
            from .funcid import recognize_functions

            entry_off = image.entry - text.vaddr
            recognized = recognize_functions(instructions, entry=entry_off)
            for offset, name in recognized.synthetic_names().items():
                symtab.insert(offset, name)
                roots.append(offset)
        return symtab, roots

    def _disassemble_from_scan(
        self, image: ElfImage, scan: StreamScan
    ) -> DisassemblyResult:
        """Adopt a verified streamed scan instead of re-decoding.

        The decode already happened while the content streamed in, so this
        replays its *observable* effects exactly: the same buffer-growth
        trampoline sequence (all one-page requests, in order), the same
        batched decode charges, and the fast validator over the prescan
        artifacts — whose check order and error strings match the
        reference validator byte for byte.
        """
        meter = self.meter
        text = image.text_sections[0]
        instructions = scan.instructions
        n = len(instructions)
        if self.per_insn_malloc:
            buffer_pages = n
            for _ in range(n):
                self._alloc_pages(1)
        else:
            buffer_pages = -(-n * INSN_RECORD_BYTES // PAGE_SIZE)
            for _ in range(buffer_pages):
                self._alloc_pages(1)
        meter.charge_batch({
            "decode_byte": scan.n_bytes,
            "decode_insn": n,
            "buffer_store": n,
        })

        symtab, roots = self._build_symtab(image, text, instructions)

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

    # ------------------------------------------------------- decode loops

    def _decode_fast(self, code: bytes) -> tuple[list[Instruction], int]:
        """Hot decode loop: resumable-cursor decoding, batched charges.

        Meter counts are accumulated in locals and flushed with one
        :meth:`CycleMeter.charge_batch` call per stage — including on the
        rejection path, so a binary that fails mid-stream still charges
        exactly what the per-instruction reference loop would have charged
        for the instructions completed before the failure.
        """
        instructions: list[Instruction] = []
        append = instructions.append
        alloc = self._alloc_pages
        per_insn = self.per_insn_malloc
        buffer_bytes_used = 0
        buffer_pages = 0
        n_bytes = 0
        # Hot path: the per-instruction fault hook only exists when a plan
        # actually watches the decoder — zero overhead otherwise.
        hooked = _faults.wants("x86.decoder")
        try:
            for insn in iter_decode(code, 0, len(code)):
                if hooked:
                    _faults.fault_hook("x86.decoder", error=DecodeError)
                n_bytes += insn.length
                # Dynamic buffer bookkeeping: allocate via the trampoline
                # page-at-a-time (or per record, for the ablation).
                if per_insn:
                    alloc(1)
                    buffer_pages += 1
                else:
                    buffer_bytes_used += INSN_RECORD_BYTES
                    if buffer_bytes_used > buffer_pages * PAGE_SIZE:
                        alloc(1)
                        buffer_pages += 1
                append(insn)
        except DecodeError as exc:
            self.meter.charge_batch({
                "decode_byte": n_bytes,
                "decode_insn": len(instructions),
                "buffer_store": len(instructions),
            })
            raise RejectionError(
                f"disassembly failed: {exc}", stage="disasm"
            ) from exc
        self.meter.charge_batch({
            "decode_byte": n_bytes,
            "decode_insn": len(instructions),
            "buffer_store": len(instructions),
        })
        return instructions, buffer_pages

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

    def run(self, raw: bytes) -> DisassemblyResult:
        """Full stage: parse, page-split check, disassemble, validate."""
        image = self.parse_elf(raw)
        self.check_page_separation(image)
        return self.disassemble(image)

    def run_streamed(self, raw: bytes, scan: StreamScan | None) -> DisassemblyResult:
        """:meth:`run` reusing a speculative streamed *scan* when safe.

        The scan was produced against bytes decrypted straight off the
        channel, before the exact ELF parse; it is only adopted when the
        parsed image has exactly one text section whose bytes equal what
        the scan decoded and the scan completed without error.  Everything
        else — decode errors (their message and charge sequence must be
        bit-exact), multi-section images, header/extent mismatches, fault
        plans watching the decoder — falls back to :meth:`disassemble`.
        """
        image = self.parse_elf(raw)
        self.check_page_separation(image)
        if (
            scan is not None
            and scan.error is None
            and self.optimized
            and not _faults.wants("x86.decoder")
            and len(image.text_sections) == 1
            and image.text_sections[0].data == scan.code
        ):
            return self._disassemble_from_scan(image, scan)
        return self.disassemble(image)
