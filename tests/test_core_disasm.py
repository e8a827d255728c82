"""EnGarde's in-enclave disassembly stage: checks, rejection, buffers."""

from __future__ import annotations

import pytest

from repro.core import Disassembler
from repro.elf import ElfSymbol, Layout, write_elf
from repro.errors import RejectionError
from repro.sgx import CycleMeter
from repro.x86 import Assembler, Enc, RAX
from tests.conftest import compile_demo


@pytest.fixture()
def disassembler():
    return Disassembler(CycleMeter())


def tiny_elf(*, text=None, symbols="ok", entry_delta=0):
    asm = Assembler()
    asm.mov_imm(1, RAX)
    asm.ret()
    text = asm.finish() if text is None else text
    layout = Layout.compute(len(text), 0, 16, 16)
    syms = []
    if symbols == "ok":
        syms = [ElfSymbol("_start", layout.text_vaddr, len(text), "func", "text")]
    elif symbols == "outside":
        syms = [
            ElfSymbol("_start", layout.text_vaddr, len(text), "func", "text"),
            ElfSymbol("ghost", layout.text_vaddr + len(text) + 64, 4, "func", "text"),
        ]
    return write_elf(
        text=text, data=b"\x00" * 16, bss_size=16, symbols=syms,
        relocations=[], entry_vaddr=layout.text_vaddr + entry_delta,
        layout=layout,
    )


class TestRun:
    def test_accepts_demo_binary(self, disassembler, demo_plain):
        result = disassembler.run(demo_plain.elf)
        assert len(result.instructions) == demo_plain.insn_count
        assert len(result.symtab) > 0
        assert result.text_vaddr == 0x1000

    def test_symbol_table_is_offset_to_name(self, disassembler, demo_plain):
        result = disassembler.run(demo_plain.elf)
        entry_off = result.image.entry - result.text_vaddr
        assert result.symtab.lookup(entry_off) == "_start"

    def test_buffer_pages_tracked(self, disassembler, demo_plain):
        result = disassembler.run(demo_plain.elf)
        expected = (demo_plain.insn_count * 64 + 4095) // 4096
        assert result.buffer_pages_allocated == expected

    def test_alloc_callback_invoked(self, demo_plain):
        calls = []
        d = Disassembler(CycleMeter(), alloc_pages=lambda n: calls.append(n))
        d.run(demo_plain.elf)
        assert len(calls) == (demo_plain.insn_count * 64 + 4095) // 4096

    def test_per_insn_malloc_ablation(self, demo_plain):
        calls = []
        d = Disassembler(
            CycleMeter(), alloc_pages=lambda n: calls.append(n),
            per_insn_malloc=True,
        )
        d.run(demo_plain.elf)
        assert len(calls) == demo_plain.insn_count


class TestRejections:
    def test_not_an_elf(self, disassembler):
        with pytest.raises(RejectionError) as exc:
            disassembler.run(b"\x7fNOT-ELF" + bytes(200))
        assert exc.value.stage == "elf"

    def test_stripped_binary_rejected(self, disassembler):
        blob = tiny_elf(symbols="none")
        with pytest.raises(RejectionError, match="stripped"):
            disassembler.run(blob)

    def test_undecodable_code_rejected(self, disassembler):
        blob = tiny_elf(text=b"\x06\x07\x08" + Enc.ret())
        with pytest.raises(RejectionError) as exc:
            disassembler.run(blob)
        assert exc.value.stage == "disasm"

    def test_bundle_straddling_rejected(self, disassembler):
        asm = Assembler(bundle=False)
        for _ in range(5):
            asm.mov_imm(0x1122334455667788, RAX)  # 10 bytes, will straddle
        asm.ret()
        with pytest.raises(RejectionError, match="NaCl"):
            disassembler.run(tiny_elf(text=asm.finish()))

    def test_unreachable_code_rejected(self, disassembler):
        text = Enc.ret() + Enc.mov_imm(1, RAX) + Enc.ret()
        with pytest.raises(RejectionError, match="NaCl"):
            disassembler.run(tiny_elf(text=text))

    def test_branch_into_instruction_rejected(self, disassembler):
        text = Enc.jmp_rel8(3) + Enc.mov_imm(7, RAX.as_bits(32)) + Enc.ret()
        with pytest.raises(RejectionError, match="NaCl"):
            disassembler.run(tiny_elf(text=text))

    def test_symbol_outside_text_rejected(self, disassembler):
        with pytest.raises(RejectionError, match="outside"):
            disassembler.run(tiny_elf(symbols="outside"))

    def test_entry_mid_instruction_rejected(self, disassembler):
        with pytest.raises(RejectionError):
            disassembler.run(tiny_elf(entry_delta=1))


class TestCycleCharging:
    def test_charges_per_byte_and_insn(self, demo_plain):
        meter = CycleMeter()
        Disassembler(meter).run(demo_plain.elf)
        events = meter.total.events
        assert events["decode_insn"] == demo_plain.insn_count
        assert events["buffer_store"] == demo_plain.insn_count
        assert events["decode_byte"] == demo_plain.text_size
        assert events["symtab_insert"] == len(
            Disassembler(CycleMeter()).run(demo_plain.elf).symtab
        )

    def test_deterministic_cycles(self, demo_plain):
        def run():
            meter = CycleMeter()
            Disassembler(meter).run(demo_plain.elf)
            return meter.total_cycles

        assert run() == run()


class TestTextSectionArity:
    """The one-text-section check must run before any indexing (PR 3
    reordered it so multi-/zero-text images reject with stage="disasm"
    instead of depending on parse order), on the reference path
    (``disassemble``) and on the front end (``run``) alike."""

    @staticmethod
    def _assert_rejected(disassembler, image):
        with pytest.raises(RejectionError) as excinfo:
            disassembler.disassemble(image)
        assert excinfo.value.stage == "disasm"
        # run() parses raw bytes; hand it the crafted image instead.
        disassembler.parse_elf = lambda raw: image
        with pytest.raises(RejectionError) as excinfo:
            disassembler.run(b"")
        assert excinfo.value.stage == "disasm"

    def test_multi_text_image_rejects_with_disasm_stage(self, disassembler):
        import dataclasses

        from repro.elf import read_elf

        image = read_elf(tiny_elf())
        clone = dataclasses.replace(
            image.text_sections[0], name=".text.clone"
        )
        multi = dataclasses.replace(
            image, sections=image.sections + [clone]
        )
        assert len(multi.text_sections) == 2
        self._assert_rejected(disassembler, multi)

    def test_textless_image_rejects_instead_of_crashing(self, disassembler):
        import dataclasses

        from repro.elf import read_elf

        image = read_elf(tiny_elf())
        textless = dataclasses.replace(
            image, sections=[s for s in image.sections if not s.is_text]
        )
        assert not textless.text_sections
        # Indexing text_sections[0] first would raise IndexError here.
        self._assert_rejected(disassembler, textless)
