"""The length pass against the full decoder.

The pass must accept exactly what ``decode_all`` decodes and emit the
columns the decoded records imply: offsets, kind codes, branch targets,
every bundle offender and the end offset.  Checked on the golden binaries
and a seeded variant corpus, on seeded mutants of compliant text (byte
writes, prefix stacks, truncations: it refuses if and only if
``decode_all`` raises, at the instruction where it raises), on every
opcode with every ModRM byte behind each prefix combination, and, for
the resumable :class:`~repro.x86.StreamDecoder`, at every chunk split.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from pathlib import Path

import pytest

from repro.elf import read_elf
from repro.errors import DecodeError
from repro.service import generate_variant_corpus
from repro.x86 import (
    Columns,
    InstructionBuffer,
    OffsetIndex,
    StreamDecoder,
    decode_all,
    decode_error,
    length_pass,
)
from repro.x86.lengths import (
    K_CALL, K_ICALL, K_IJMP, K_JCC, K_JMP, K_NOP, K_PLAIN, K_STOP,
)

GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def kind_of(insn) -> int:
    """The kind code a decoded record implies."""
    if insn.mnemonic == "callq":
        return K_CALL if insn.target is not None else K_ICALL
    if insn.mnemonic in ("jmp", "jmpq"):
        return K_JMP if insn.target is not None else K_IJMP
    if insn.target is not None:
        return K_JCC
    if insn.mnemonic in ("ret", "retq", "ud2", "hlt"):
        return K_STOP
    if insn.mnemonic in ("nop", "nopl"):
        return K_NOP
    return K_PLAIN


def columns_of(records, end: int) -> tuple:
    """(offsets, kinds, targets, bundle offenders, end) of *records*."""
    return (
        [insn.offset for insn in records],
        bytes(kind_of(insn) for insn in records),
        [insn.target for insn in records if insn.target is not None],
        [i for i, insn in enumerate(records)
         if insn.offset // 32 != (insn.end - 1) // 32],
        end,
    )


def view(cols: Columns) -> tuple:
    return (list(cols.offsets), bytes(cols.kinds), cols.targets,
            cols.bundles, cols.end)


def assert_pass_matches_decoder(code: bytes) -> bool:
    """The pass over *code* against ``decode_all``; True if accepted."""
    cols = length_pass(code)
    try:
        records = decode_all(code)
    except DecodeError as exc:
        assert cols.end < len(code), code.hex()
        # the pass stopped at the instruction the decoder fails on, and
        # everything before it decodes to the columns it emitted
        assert view(cols) == columns_of(decode_all(code, 0, cols.end),
                                        cols.end), code.hex()
        assert str(decode_error(code, cols.end)) == str(exc)
        return False
    assert view(cols) == columns_of(records, len(code)), code.hex()
    return True


def _texts(raws) -> list[bytes]:
    out = []
    for raw in raws:
        try:
            out.append(bytes(read_elf(raw).text_sections[0].data))
        except Exception:
            continue
    return out


@pytest.fixture(scope="module")
def corpus_texts(libc):
    raws = [(GOLDEN / f"{name}.bin").read_bytes()
            for name in ("instrumented", "plain", "truncated", "garbage")]
    raws += [raw for _label, raw in
             generate_variant_corpus(18, libc=libc, seed=b"front-end")]
    return _texts(raws)


def test_columns_equal_decode_all_on_the_corpus(corpus_texts):
    accepted = sum(map(assert_pass_matches_decoder, corpus_texts))
    assert accepted >= 2 + 18 - 4, accepted


def test_derived_indices_match_the_records(corpus_texts):
    for code in corpus_texts:
        cols = length_pass(code)
        if cols.end != len(code):
            continue
        records = decode_all(code)
        idx = range(len(records))
        assert cols.branch_idx == [
            i for i in idx if records[i].target is not None]
        assert cols.term_idx == [i for i in idx if records[i].is_terminator]
        assert cols.call_idx == [i for i in idx if records[i].is_direct_call]
        assert cols.indirect_idx == [
            i for i in idx
            if records[i].is_indirect_call or records[i].is_indirect_jump]
        index = OffsetIndex(cols.offsets)
        assert dict(index) == {r.offset: i for i, r in enumerate(records)}
        assert index.get(records[0].offset + 1 if records[0].length > 1
                         else -1) is None


_PREFIX_STACKS = (
    b"\x66", b"\x64", b"\x65", b"\x48", b"\x41", b"\x66\x64", b"\x64\x66",
    b"\x66\x66", b"\x64\x65", b"\x66\x48", b"\x64\x4c", b"\x48\x48",
    b"\x66\x64\x48", b"\x64\x66\x65",
)


def test_refuses_exactly_where_the_decoder_raises_on_mutants(corpus_texts):
    """2,400 seeded mutants of compliant text: 1-3 byte writes, a prefix
    stack planted at an instruction start, or a truncation."""
    rng = random.Random(27)
    texts = []  # the first KiB or so of each compliant text, and its starts
    for text in corpus_texts:
        cols = length_pass(text)
        if cols.end == len(text):
            cut = cols.offsets[bisect_left(cols.offsets, 1024)]
            texts.append((text[:cut], cols.offsets[:256]))
    outcomes = {True: 0, False: 0}
    for trial in range(2400):
        text, offsets = texts[rng.randrange(len(texts))]
        text = bytearray(text)
        pick = trial % 3
        if pick == 0:
            for _ in range(rng.randint(1, 3)):
                text[rng.randrange(len(text))] = rng.randrange(256)
        elif pick == 1:
            at = offsets[rng.randrange(len(offsets))]
            text[at:at] = rng.choice(_PREFIX_STACKS)
        else:
            del text[rng.randrange(1, len(text)):]
        outcomes[assert_pass_matches_decoder(bytes(text))] += 1
    assert min(outcomes.values()) >= 400, outcomes


#: ModRM bytes covering every mod, reg and rm value (a stride coprime to
#: 8), plus the SIB forms whose base-101 case adds a displacement
_MODRMS = (*range(0, 256, 7), 0x04, 0x44, 0x84, 0x05, 0xC4)


@pytest.mark.parametrize("prefix", [b"", *_PREFIX_STACKS[:8]])
def test_every_opcode_behind_prefixes(prefix):
    """Every one- and two-byte opcode with a spread of ModRM bytes, each
    followed by a SIB byte with base 101 or by 0xff bytes, behind each
    prefix stack."""
    for op in range(256):
        opcodes = ([bytes((0x0F, op2)) for op2 in range(256)]
                   if op == 0x0F else [bytes((op,))])
        for opcode in opcodes:
            for modrm in _MODRMS:
                for tail in (b"\x25" + bytes(11), b"\xff" * 12):
                    assert_pass_matches_decoder(
                        prefix + opcode + bytes((modrm,)) + tail)


# ------------------------------------------------------------ streamed pass

def _stream(code: bytes, cuts) -> Columns:
    dec = StreamDecoder()
    prev = 0
    for cut in cuts:
        dec.feed(code[prev:cut])
        prev = cut
    dec.feed(code[prev:])
    return dec.finish()


def test_streamed_columns_identical_at_every_split(corpus_texts):
    code = corpus_texts[0][:1500]
    code = code[:length_pass(code).offsets[-1]]  # end on a boundary
    whole = view(length_pass(code))
    for cut in range(len(code) + 1):
        assert view(_stream(code, [cut])) == whole, cut
    assert view(_stream(code, range(1, len(code), 7))) == whole


def test_streamed_error_identical_to_whole_buffer(corpus_texts):
    rng = random.Random(7)
    code = corpus_texts[0][:800]
    at = length_pass(code).offsets[60]
    code = code[:at] + b"\x66\x66\x90" + code[at:]  # duplicate prefix
    with pytest.raises(DecodeError) as whole:
        decode_all(code)
    for _ in range(40):
        cuts = sorted(rng.sample(range(1, len(code)), 5))
        with pytest.raises(DecodeError) as streamed:
            _stream(code, cuts)
        assert str(streamed.value) == str(whole.value)


# --------------------------------------------------------- lazy records

def test_buffer_decodes_records_only_when_read(corpus_texts):
    code = corpus_texts[0]
    cols = length_pass(code)
    records = decode_all(code)
    buf = InstructionBuffer(code, cols.offsets)
    assert len(buf) == len(records)
    assert buf.decoded().count(None) == len(records)
    assert buf[5] == records[5] and buf[-1] == records[-1]
    assert buf[10:20] == records[10:20]
    assert len(records) - buf.decoded().count(None) == 12
    assert list(buf) == records
    assert buf[::3] == records[::3]
