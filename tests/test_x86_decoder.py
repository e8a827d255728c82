"""Decoder: paper sequences, metadata, operand structure, error paths."""

from __future__ import annotations

import pytest

from repro.errors import DecodeError
from repro.x86 import (
    EAX, ECX, RAX, RCX, RSP,
    Enc, Imm, Mem, Reg, decode_all, decode_one,
)


class TestPaperSequences:
    def test_stack_protector_idiom(self):
        code = (
            Enc.mov_load(Mem(seg="fs", disp=0x28), RAX)
            + Enc.mov_store(RAX, Mem(base=RSP))
            + Enc.alu_load("cmp", Mem(base=RSP), RAX)
            + Enc.jcc_rel8("jne", 5)
        )
        insns = decode_all(code)
        assert [i.mnemonic for i in insns] == ["mov", "mov", "cmp", "jne"]
        assert insns[0].reads_fs_offset(0x28)
        load_src, load_dst = insns[0].operands
        assert isinstance(load_src, Mem) and load_src.seg == "fs"
        assert isinstance(load_dst, Reg) and load_dst.num == 0
        assert insns[3].target == insns[3].end + 5

    def test_ifcc_idiom(self):
        code = (
            Enc.lea(Mem(rip_relative=True, disp=0x85C70), RAX)
            + Enc.alu_rr("sub", EAX, ECX)
            + Enc.alu_imm("and", 0x1FF8, RCX)
            + Enc.alu_rr("add", RAX, RCX)
            + Enc.call_rm(RCX)
        )
        insns = decode_all(code)
        assert [i.mnemonic for i in insns] == ["lea", "sub", "and", "add", "callq"]
        lea_mem = insns[0].operands[0]
        assert lea_mem.rip_relative and lea_mem.disp == 0x85C70
        sub_src, sub_dst = insns[1].operands
        assert sub_src.bits == 32 and sub_dst.bits == 32
        and_imm = insns[2].operands[0]
        assert isinstance(and_imm, Imm) and and_imm.value == 0x1FF8
        assert insns[4].is_indirect_call and not insns[4].is_direct_call

    def test_jump_table_entry(self):
        code = Enc.jmp_rel32(0x100) + Enc.nop(3)
        insns = decode_all(code)
        assert insns[0].mnemonic == "jmpq" and insns[0].is_direct_jump
        assert insns[0].length == 5
        assert insns[1].mnemonic == "nopl" and insns[1].length == 3


class TestMetadata:
    def test_nacl_byte_counts(self):
        insn = decode_one(Enc.mov_load(Mem(seg="fs", disp=0x28), RAX), 0)
        assert insn.num_prefix_bytes == 2      # fs override + REX.W
        assert insn.num_opcode_bytes == 1
        assert insn.num_displacement_bytes == 4
        assert insn.num_immediate_bytes == 0
        assert insn.has_modrm

    def test_imm_counting(self):
        insn = decode_one(Enc.mov_imm(0x11223344556677, RAX), 0)
        assert insn.num_immediate_bytes == 8
        insn = decode_one(Enc.alu_imm("sub", 8, RSP), 0)
        assert insn.num_immediate_bytes == 1

    def test_call_rel_counted_as_immediate(self):
        insn = decode_one(Enc.call_rel32(0x10), 0)
        assert insn.num_immediate_bytes == 4
        assert insn.is_direct_call and insn.target == 5 + 0x10

    def test_length_and_end(self):
        code = Enc.push(RAX) + Enc.ret()
        insns = decode_all(code)
        assert insns[0].length == 1 and insns[0].end == 1
        assert insns[1].offset == 1


class TestOperandStructure:
    def test_att_order_store(self):
        insn = decode_one(Enc.mov_store(RAX, Mem(base=RSP, disp=16)), 0)
        src, dst = insn.operands
        assert isinstance(src, Reg) and isinstance(dst, Mem)
        assert dst.disp == 16 and dst.base.num == 4

    def test_att_order_load(self):
        insn = decode_one(Enc.mov_load(Mem(base=RSP, disp=16), RAX), 0)
        src, dst = insn.operands
        assert isinstance(src, Mem) and isinstance(dst, Reg)

    def test_negative_displacement(self):
        insn = decode_one(Enc.mov_store(RAX, Mem(base=RSP, disp=-8)), 0)
        assert insn.operands[1].disp == -8

    def test_width_from_rex(self):
        assert decode_one(Enc.mov_rr(RAX, RCX), 0).operands[0].bits == 64
        assert decode_one(Enc.mov_rr(EAX, ECX), 0).operands[0].bits == 32

    def test_sib_decoding(self):
        insn = decode_one(Enc.mov_load(Mem(base=RAX, index=RCX, scale=4), RSP), 0)
        mem = insn.operands[0]
        assert mem.base.num == 0 and mem.index.num == 1 and mem.scale == 4

    def test_group_opcodes(self):
        assert decode_one(Enc.unary("neg", RAX), 0).mnemonic == "neg"
        assert decode_one(Enc.unary("div", RCX), 0).mnemonic == "div"
        assert decode_one(Enc.incdec("inc", RAX), 0).mnemonic == "inc"
        assert decode_one(Enc.incdec("dec", RAX), 0).mnemonic == "dec"
        assert decode_one(Enc.shift_imm("sar", 3, RAX), 0).mnemonic == "sar"


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(DecodeError):
            decode_one(b"\x06", 0)  # push es: invalid in 64-bit mode

    def test_truncated_instruction(self):
        code = Enc.mov_imm(0x1122334455667788, RAX)
        with pytest.raises(DecodeError):
            decode_one(code[:-2], 0)

    def test_truncated_modrm(self):
        with pytest.raises(DecodeError):
            decode_one(b"\x48\x8b", 0)

    def test_duplicate_prefixes(self):
        with pytest.raises(DecodeError):
            decode_one(b"\x64\x64\x8b\x04\x25\x00\x00\x00\x00", 0)

    def test_opsize_prefix_on_alu_rejected(self):
        # 66 prefix is only accepted on the canonical NOP forms
        with pytest.raises(DecodeError):
            decode_one(b"\x66\x01\xc8", 0)

    def test_lea_register_operand_rejected(self):
        with pytest.raises(DecodeError):
            decode_one(b"\x48\x8d\xc1", 0)

    def test_region_overrun(self):
        code = Enc.call_rel32(0)
        with pytest.raises(DecodeError):
            decode_all(code[:3])


class TestNops:
    def test_all_canonical_nops_decode(self):
        for n in range(1, 10):
            insns = decode_all(Enc.nop(n))
            assert len(insns) == 1
            assert insns[0].mnemonic in ("nop", "nopl")
            assert insns[0].length == n

    def test_misc_opcodes(self):
        for encoded, mnemonic in [
            (Enc.ud2(), "ud2"), (Enc.int3(), "int3"), (Enc.hlt(), "hlt"),
            (Enc.syscall(), "syscall"), (Enc.leave(), "leave"),
        ]:
            assert decode_one(encoded, 0).mnemonic == mnemonic


class TestCmovXchgDecode:
    def test_cmov_all_conditions_roundtrip(self):
        from repro.x86 import RAX, RCX

        for cond in ("o", "no", "b", "ae", "e", "ne", "be", "a",
                     "s", "ns", "p", "np", "l", "ge", "le", "g"):
            insn = decode_one(Enc.cmov(cond, RCX, RAX), 0)
            assert insn.mnemonic == f"cmov{cond}"
            assert insn.operands == (RCX, RAX)

    def test_xchg_roundtrip(self):
        from repro.x86 import RAX, RCX

        insn = decode_one(Enc.xchg_rr(RAX, RCX), 0)
        assert insn.mnemonic == "xchg"
        insn = decode_one(Enc.xchg_rm(RAX, Mem(base=RSP, disp=8)), 0)
        assert insn.mnemonic == "xchg"
        assert insn.operands[1].disp == 8


class TestStreamDecoder:
    """The chunk-resumable length pass must be indistinguishable from the
    whole-buffer decode — the records its columns lead to, and the error
    text — at every possible split point."""

    def _code(self) -> bytes:
        from repro.x86 import RAX, RSP

        return (
            Enc.mov_load(Mem(seg="fs", disp=0x28), RAX)
            + Enc.mov_store(RAX, Mem(base=RSP))
            + Enc.alu_load("cmp", Mem(base=RSP), RAX)
            + Enc.jcc_rel8("jne", 5)
            + Enc.lea(Mem(rip_relative=True, disp=0x85C70), RAX)
            + Enc.alu_rr("sub", EAX, ECX)
            + Enc.alu_imm("and", 0x1FF8, RCX)
            + Enc.call_rm(RCX)
            + Enc.mov_imm(0x1122334455667788, RAX)
            + Enc.nop(9) + Enc.nop(3) + Enc.nop(1)
            + Enc.jmp_rel32(0x100)
        )

    @staticmethod
    def _stream(code: bytes, splits) -> list:
        """*code* fed in chunks split at *splits*: the records the streamed
        columns lead to, after checking the columns against them (branch
        targets included, which must come out absolute)."""
        from repro.x86 import InstructionBuffer, StreamDecoder
        from tests.test_x86_lengths import columns_of, view

        dec = StreamDecoder()
        prev = 0
        for cut in splits:
            dec.feed(code[prev:cut])
            prev = cut
        dec.feed(code[prev:])
        cols = dec.finish()
        records = list(InstructionBuffer(code, cols.offsets))
        assert view(cols) == columns_of(records, len(code))
        return records

    @staticmethod
    def _tokens(insns):
        return [(i.offset, i.mnemonic, bytes(i.raw)) for i in insns]

    def test_every_split_point_token_identical(self):
        code = self._code()
        oracle = self._tokens(decode_all(code))
        for cut in range(len(code) + 1):
            got = self._tokens(self._stream(code, [cut]))
            assert got == oracle, f"split at byte {cut} diverged"

    def test_every_split_point_record_identical(self):
        """Whole records, branch targets and operands included: the
        decoder drops the bytes it has finished with on every feed, so
        offsets and targets must come out absolute."""
        code = self._code()
        oracle = decode_all(code)
        for cut in range(len(code) + 1):
            assert self._stream(code, [cut]) == oracle, f"split at byte {cut}"
        assert self._stream(code, range(1, len(code))) == oracle

    def test_byte_at_a_time_feed(self):
        code = self._code()
        assert self._tokens(self._stream(code, range(1, len(code)))) \
            == self._tokens(decode_all(code))

    def test_split_inside_prefix_and_immediate(self):
        code = self._code()
        oracle = self._tokens(decode_all(code))
        # the fs-prefixed load starts at 0 (prefix bytes 0..1); the
        # 10-byte mov imm64 sits mid-buffer — split inside both at once
        imm_start = next(
            i.offset for i in decode_all(code) if i.mnemonic == "mov"
            and i.num_immediate_bytes == 8
        )
        assert self._tokens(self._stream(code, [1, imm_start + 3])) == oracle

    def test_error_text_identical_to_whole_buffer(self):
        # a region ending mid-instruction must raise the same DecodeError
        # whether the bytes arrived chunked or at once
        code = self._code()[:-2]
        with pytest.raises(DecodeError) as whole:
            decode_all(code)
        with pytest.raises(DecodeError) as streamed:
            self._stream(code, range(3, len(code), 3))
        assert str(streamed.value) == str(whole.value)

    def test_finish_ends_the_region_at_the_last_byte_fed(self):
        """Regression: ``finish(end)`` with *end* below the bytes fed
        returned records past *end* (86 for 100 ``nop``s and end 50, where
        ``decode_all(code, 0, 50)`` gives 50).  The region now always ends
        at the last byte fed, and no other end can be named."""
        from repro.x86 import StreamDecoder

        code = Enc.nop(1) * 100
        dec = StreamDecoder()
        dec.feed(code[:50])
        dec.feed(code[50:])
        cols = dec.finish()
        assert list(cols.offsets) == [i.offset for i in decode_all(code)]
        with pytest.raises(TypeError):
            StreamDecoder().finish(50)

    def test_feed_after_finish_raises(self):
        from repro.x86 import StreamDecoder

        dec = StreamDecoder()
        dec.feed(Enc.nop(1))
        dec.finish()
        with pytest.raises(ValueError):
            dec.feed(b"\x90")

    def test_feed_copies_stay_bounded_by_the_chunk(self):
        """Regression: feed() used to re-copy every byte fed so far, so a
        text arriving in n records cost O(n^2) bytes of copying.  A small
        feed after a large one must now allocate about the chunk, not the
        history; ``pos`` and ``buffered`` keep their absolute meaning."""
        import tracemalloc

        from repro.x86 import StreamDecoder

        unit = Enc.mov_imm(0x1122334455667788, RAX)  # 10 bytes
        history = unit * 20_000
        dec = StreamDecoder()
        dec.feed(memoryview(history))
        tracemalloc.start()
        try:
            worst = 0
            for _ in range(8):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                dec.feed(unit)
                worst = max(worst, tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert worst < len(history) // 8, worst
        assert dec.buffered == len(history) + 8 * len(unit)
        assert dec.pos == dec.columns.end
        cols = dec.finish()
        assert list(cols.offsets) == [
            i.offset for i in decode_all(history + 8 * unit)
        ]
