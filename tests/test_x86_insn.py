"""Instruction record: classification helpers, formatting, the record's
own contract and the decoder's per-decode operand interning."""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.x86 import (
    EAX, Enc, Imm, Instruction, InstructionBuffer, Mem, RAX, RCX, RSP, Reg,
    StreamDecoder,
    decode_all, decode_one,
)


def insn(encoded: bytes) -> Instruction:
    return decode_one(encoded, 0)


class TestClassification:
    def test_direct_vs_indirect_call(self):
        direct = insn(Enc.call_rel32(0x10))
        indirect = insn(Enc.call_rm(RCX))
        assert direct.is_direct_call and not direct.is_indirect_call
        assert indirect.is_indirect_call and not indirect.is_direct_call

    def test_jumps(self):
        direct = insn(Enc.jmp_rel32(8))
        indirect = insn(Enc.jmp_rm(RAX))
        assert direct.is_direct_jump and direct.is_terminator
        assert indirect.is_indirect_jump and indirect.is_terminator

    def test_conditional_branch_not_terminator(self):
        jne = insn(Enc.jcc_rel8("jne", 2))
        assert jne.is_conditional_branch
        assert not jne.is_terminator
        assert jne.is_control_transfer

    def test_return(self):
        ret = insn(Enc.ret())
        assert ret.is_return and ret.is_terminator and ret.is_control_transfer

    def test_plain_op_is_nothing_special(self):
        mov = insn(Enc.mov_rr(RAX, RCX))
        assert not mov.is_control_transfer
        assert not mov.is_terminator
        assert not mov.is_conditional_branch

    def test_ud2_terminates(self):
        assert insn(Enc.ud2()).is_terminator

    def test_reads_fs_offset(self):
        canary = insn(Enc.mov_load(Mem(seg="fs", disp=0x28), RAX))
        assert canary.reads_fs_offset(0x28)
        assert not canary.reads_fs_offset(0x30)
        other = insn(Enc.mov_load(Mem(base=RSP, disp=0x28), RAX))
        assert not other.reads_fs_offset(0x28)

    def test_memory_operand_helper(self):
        store = insn(Enc.mov_store(RAX, Mem(base=RSP, disp=8)))
        assert store.memory_operand().disp == 8
        assert insn(Enc.mov_rr(RAX, RCX)).memory_operand() is None


class TestFormatting:
    def test_str_includes_offset_and_mnemonic(self):
        text = str(insn(Enc.mov_rr(RAX, RCX)))
        assert "mov" in text and "%rax" in text and "%rcx" in text

    def test_mem_formatting(self):
        assert str(Mem(seg="fs", disp=0x28)) == "%fs:0x28"
        assert str(Mem(base=RSP)) == "(%rsp)"
        assert str(Mem(base=RSP, disp=16)) == "0x10(%rsp)"
        assert str(Mem(rip_relative=True, disp=0x85C70)) == "0x85c70(%rip)"
        assert "%rcx" in str(Mem(base=RAX, index=RCX, scale=8))

    def test_imm_formatting(self):
        assert str(Imm(0x1FF8, 4)) == "$0x1ff8"

    def test_branch_target_formatting(self):
        text = str(insn(Enc.call_rel32(0x100)))
        assert "->" in text


class TestMemValidation:
    def test_bad_scale(self):
        with pytest.raises(ValueError):
            Mem(base=RAX, index=RCX, scale=3)

    def test_rip_with_base_rejected(self):
        with pytest.raises(ValueError):
            Mem(rip_relative=True, base=RAX)


class TestRecord:
    def test_fields_are_read_only(self):
        record = insn(Enc.mov_rr(RAX, RCX))
        with pytest.raises(AttributeError):
            record.offset = 4
        with pytest.raises(AttributeError):
            record.note = "x"

    def test_pickle_round_trip(self):
        record = insn(Enc.alu_imm("and", 0x1FF8, RCX))
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and type(clone) is Instruction
        assert hash(clone) == hash(record)

    def test_keyword_defaults(self):
        record = Instruction(offset=3, raw=b"\x90", mnemonic="nop")
        assert record.operands == () and record.target is None
        assert (record.num_prefix_bytes, record.num_opcode_bytes) == (0, 1)
        assert record == decode_one(Enc.nop(1) * 4, 3)


class TestInterning:
    def test_equal_raw_bytes_share_one_operand_tuple(self):
        store = Enc.mov_store(RAX, Mem(base=RSP, disp=8))
        first, _, second = decode_all(
            store + Enc.mov_rr(RAX, RCX) + store
        )
        assert first.raw == second.raw and first.offset != second.offset
        assert first.operands is second.operands

    def test_equal_operands_share_one_object(self):
        mem = Mem(base=RSP, disp=8)
        store_a, store_b, and_a, and_b = decode_all(
            Enc.mov_store(RAX, mem) + Enc.mov_store(RCX, mem)
            + Enc.alu_imm("and", 0x1FF8, RCX) + Enc.alu_imm("and", 0x1FF8, RAX)
        )
        assert store_a.operands[1] == mem
        assert store_a.operands[1] is store_b.operands[1]
        assert and_a.operands[0] == Imm(0x1FF8, 4)
        assert and_a.operands[0] is and_b.operands[0]

    def test_interning_keeps_every_distinct_operand_apart(self):
        """Each table is keyed by every field that tells two operands
        apart; checked against the reference decoder, which shares
        nothing."""
        from repro.x86.refdecode import ref_decode_all

        disp = 0x28
        mems = (
            Mem(seg="fs", disp=disp), Mem(seg="gs", disp=disp),
            Mem(disp=disp), Mem(rip_relative=True, disp=disp),
            Mem(base=RSP, disp=disp), Mem(base=RAX, index=RCX, disp=disp),
            Mem(base=RAX, index=RCX, scale=2, disp=disp),
            Mem(seg="fs", base=RAX, index=RCX, scale=2, disp=disp),
        )
        code = b"".join((
            Enc.alu_imm("and", 8, RCX), Enc.mov_imm(8, EAX),
            Enc.shift_imm("shl", 8, RAX), Enc.mov_imm(8, RAX),
            *(Enc.mov_load(mem, RAX) for mem in mems),
        ))
        insns = decode_all(code)
        assert insns == ref_decode_all(code)
        assert [i.operands[0] for i in insns[4:]] == list(mems)

    def test_no_interning_table_outlives_its_decode(self):
        code = (
            Enc.mov_store(RAX, Mem(base=RSP, disp=8)) * 3
            + Enc.alu_imm("and", 0x1FF8, RCX) * 3
            + Enc.lea(Mem(rip_relative=True, disp=0x40), RAX) * 3
        ) * 4
        whole = decode_all(code)
        decoder = StreamDecoder()  # kept alive through the check below
        for cut in range(0, len(code), 7):
            decoder.feed(code[cut:cut + 7])
        # an instruction buffer's tables die with the buffer
        streamed = list(InstructionBuffer(code, decoder.finish().offsets))
        assert streamed == whole
        gc.collect()
        shared = {  # registers come from module-level banks: not interned
            id(obj) for record in whole + streamed
            for obj in (record.operands, *record.operands)
            if not isinstance(obj, Reg)
        }
        leaked = [
            obj for obj in gc.get_objects()
            if type(obj) is dict and any(id(v) in shared for v in obj.values())
        ]
        assert leaked == []
        assert decoder.pos == decoder.buffered == len(code)

    def test_held_decode_retains_at_most_1_6_tracked_objects_per_insn(
        self, libc
    ):
        """The provider's delta index holds whole decodes, so every tracked
        object a record keeps alive is walked by each full collection.  A
        dataclass record with its ``__dict__`` and fresh operands kept 3.5
        per instruction."""
        from repro.elf import read_elf
        from repro.toolchain.workloads import build_workload

        program = build_workload(
            "nginx", stack_protector=True, ifcc=True, libc=libc, scale=0.1
        )
        code = bytes(read_elf(program.elf).text_sections[0].data)
        gc.collect()
        before = len(gc.get_objects())
        insns = decode_all(code)
        gc.collect()
        retained = len(gc.get_objects()) - before
        assert len(insns) > 20_000
        assert retained / len(insns) <= 1.6, retained / len(insns)
