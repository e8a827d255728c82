"""The one inspection front end: ``Disassembler.run`` with or without a scan.

Every optimized inspection runs the length pass over the text into a
columnar :class:`~repro.core.streaming.StreamScan` (or adopts the streamed
one), validates with ``validate_fast`` over its columns and decodes a
record only where something reads it.  These tests pin that front end
against its independent definitions:

* the scan ``run`` builds has the columns and the records of a plain
  ``decode_all``,
* inspections through the front end -- fresh, streamed or adopted --
  give the frozen ``optimized=False`` oracle's report wire, meter phases,
  buffer-growth trampoline sequence and ``PolicyResult.stats``,
* a decode error (seeded truncations and garbles of compliant text, or
  an injected ``x86.decoder`` fault) rejects with the oracle's report,
  meter phases and trampoline sequence,
* ``validate_fast`` over the columns agrees with the reference
  ``validate`` — outcome and message — on seeded byte-write mutants of
  compliant text,
* decoding is lazy: an inspection decodes no record of an exempt libc
  function except where an IFCC window or a jump-table entry reaches it.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.core import (
    Disassembler,
    EnGarde,
    IfccPolicy,
    LibraryLinkingPolicy,
    PolicyRegistry,
    StackProtectionPolicy,
)
from repro.core.streaming import StreamingPipeline, StreamScan
from repro.elf import ElfSymbol, Layout, read_elf, write_elf
from repro.errors import DecodeError, RejectionError, ValidationError
from repro.faults.hooks import injected
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service import generate_variant_corpus
from repro.sgx.cpu import CycleMeter
from repro.x86 import (
    InstructionBuffer,
    decode_all,
    length_pass,
    validate,
    validate_fast,
)
from tests.test_x86_lengths import columns_of, view

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
GOLDEN_BINARIES = ("instrumented", "plain", "truncated", "garbage")


def _golden(name: str) -> bytes:
    return (GOLDEN / f"{name}.bin").read_bytes()


def _compliant_text(name: str) -> tuple[bytes, int, list[int]]:
    """(text, entry offset, function-symbol offsets) of a golden binary
    that passes the NaCl constraints."""
    image = read_elf(_golden(name))
    text = image.text_sections[0]
    roots = [sym.value - text.vaddr for sym in image.function_symbols()]
    return bytes(text.data), image.entry - text.vaddr, roots


class _Side(NamedTuple):
    """What one inspection showed: report, meter phases, trampolines."""

    report: object
    phases: dict
    calls: list

    def observed(self) -> tuple:
        return self.report.serialize(), self.phases, self.calls


def _inspect_both(blob: bytes, *, plan_factory=None, scan=None):
    """Inspect *blob* with the front end, then with the reference oracle."""
    sides = []
    for optimized in (True, False):
        meter, calls = CycleMeter(), []
        engarde = EnGarde(
            PolicyRegistry([IfccPolicy()]), meter,
            alloc_pages=calls.append, optimized=optimized,
        )
        with injected(plan_factory() if plan_factory else None):
            outcome = engarde.inspect(
                blob, benchmark="m", scan=scan if optimized else None
            )
        sides.append(_Side(outcome.report, meter.phases, calls))
    return sides


def _decoded(phases) -> int:
    """Instructions the disassembly phase charged decode for."""
    phase = phases.get("disassembly")
    return phase.events.get("decode_insn", 0) if phase else 0


# ------------------------------------------------------------ scan equality

@pytest.fixture(scope="module")
def front_end_corpus(libc):
    """Golden binaries plus a seeded variant corpus (two rotations)."""
    corpus = [(name, _golden(name)) for name in GOLDEN_BINARIES]
    corpus += generate_variant_corpus(18, libc=libc, seed=b"front-end")
    return corpus


def test_fresh_scan_equals_prescan_of_decode_all(front_end_corpus):
    compared = 0
    for label, raw in front_end_corpus:
        try:
            result = Disassembler(CycleMeter()).run(raw)
        except RejectionError:
            continue
        text = bytes(result.image.text_sections[0].data)
        records = decode_all(text)
        scan = result.scan
        assert scan.code == text, label
        assert view(scan.columns) == columns_of(records, len(text)), label
        assert scan.direct_calls() == [r for r in records if r.is_direct_call]
        assert list(scan.instructions) == records, label
        assert result.instructions is scan.instructions
        compared += 1
    # both compliant golden texts and every built variant but the
    # truncated ones (two rotations: 4 truncated, 4 garbage)
    assert compared == 2 + 18 - 4


# --------------------------------------------------------- oracle parity

def _registry(libc) -> PolicyRegistry:
    """The paper's three policies, libc functions exempt from the
    stack-protection check (the benchmark's registry)."""
    return PolicyRegistry([
        LibraryLinkingPolicy(libc.reference_hashes()),
        StackProtectionPolicy(exempt_functions=set(libc.offsets)),
        IfccPolicy(),
    ])


def _streamed_scan(raw: bytes, record: int = 1000):
    """The scan a streamed receive of *raw* in *record*-byte records
    leaves (None where the pipeline gives up)."""
    pipeline = StreamingPipeline(bytearray(raw))
    for valid in range(record, len(raw) + record, record):
        pipeline.advance(min(valid, len(raw)))
    return pipeline.finish()


def _observed(engarde: EnGarde, raw: bytes, calls: list, scan=None) -> tuple:
    outcome = engarde.inspect(raw, benchmark="m", scan=scan)
    return (
        outcome.report.serialize(), engarde.meter.phases, calls,
        [(r.policy, r.compliant, r.violations, r.stats)
         for r in outcome.policy_results],
    )


def test_front_end_matches_the_oracle(front_end_corpus, libc):
    """Report wire, meter phases, buffer-growth trampolines and every
    PolicyResult: the oracle's, for a fresh and for a streamed scan."""
    adopted = 0
    for label, raw in front_end_corpus:
        sides = []
        for optimized, streamed in ((False, False), (True, False),
                                    (True, True)):
            calls: list = []
            engarde = EnGarde(_registry(libc), CycleMeter(),
                              alloc_pages=calls.append, optimized=optimized)
            scan = _streamed_scan(raw) if streamed else None
            sides.append(_observed(engarde, raw, calls, scan))
            if scan is not None and scan.error is None:
                adopted += 1
        assert sides[1] == sides[0], label
        assert sides[2] == sides[0], label
    assert adopted >= 2 + 18 - 8, adopted


# --------------------------------------------------------------- laziness

#: ceiling on the share of a variant's records one inspection decodes
#: (about 8-10% on this corpus: the client functions' bodies, the IFCC
#: windows and the jump-table entries)
DECODED_SHARE_CEILING = 0.2


def test_inspection_decodes_only_what_the_policies_read(
    front_end_corpus, libc, monkeypatch
):
    """No record of an exempt libc function is decoded, except inside an
    IFCC window (the call and the 12 instructions before it) or at a
    jump-table entry; and the decoded share stays under its ceiling."""
    import repro.x86.decoder as decoder

    decoded: list[int] = []
    real = decoder._decode_next

    def spy(cur):
        decoded.append(cur.base + cur.pos)
        return real(cur)

    monkeypatch.setattr(decoder, "_decode_next", spy)
    exempt = set(libc.offsets)
    window = IfccPolicy().backward_window
    total = read = checked = 0
    for label, raw in front_end_corpus:
        del decoded[:]
        outcome = EnGarde(_registry(libc)).inspect(raw, benchmark=label)
        disasm = outcome.disassembly
        if disasm is None or disasm.scan is None:
            continue
        scan = disasm.scan
        offsets = scan.columns.offsets
        starts = sorted(disasm.symtab.items())
        allowed = set()
        for idx in scan.columns.indirect_idx:
            allowed.update(offsets[max(idx - window, 0):idx + 1])
        for addr, name in starts:
            if name.startswith("__llvm_jump_instr_table_0_"):
                allowed.update((addr, addr + 5))
        bounds = [addr for addr, _name in starts]
        for offset in decoded:
            name = starts[bisect_right(bounds, offset) - 1][1]
            if name in exempt:
                assert offset in allowed, (label, name, hex(offset))
        assert len(decoded) == len(set(decoded)), label  # each at most once
        total += len(offsets)
        read += len(decoded)
        checked += 1
    assert checked >= 2 + 18 - 4, checked
    assert read / total <= DECODED_SHARE_CEILING, read / total


# ------------------------------------------------------ decode-error parity

def _wrap(text: bytes) -> bytes:
    """A one-function ELF around *text* (entry and symbol at its start)."""
    layout = Layout.compute(len(text), 0, 16, 16)
    return write_elf(
        text=text, data=b"\x00" * 16, bss_size=16,
        symbols=[ElfSymbol("_start", layout.text_vaddr, len(text), "func",
                           "text")],
        relocations=[], entry_vaddr=layout.text_vaddr, layout=layout,
    )


def _decode_error_mutants(seed: int, count: int):
    """Seeded truncations and garbles of compliant text that fail decode."""
    rng = random.Random(seed)
    texts = [_compliant_text(name)[0] for name in ("instrumented", "plain")]
    found = 0
    while found < count:
        text = texts[rng.randrange(len(texts))]
        insns = decode_all(text)
        insn = insns[rng.randrange(len(insns))]
        if rng.random() < 0.5:
            if insn.length < 2:
                continue
            mutant = text[:insn.offset + rng.randrange(1, insn.length)]
            kind = "truncation"
        else:
            at = insn.offset + rng.randrange(insn.length)
            patch = bytes(rng.randrange(256) for _ in range(rng.randint(1, 3)))
            mutant = text[:at] + patch + text[at + len(patch):]
            mutant = mutant[:len(text)]
            kind = "garble"
        try:
            decode_all(mutant)
        except DecodeError:
            found += 1
            yield kind, mutant


def test_decode_errors_match_the_oracle():
    kinds = {"truncation": 0, "garble": 0}
    partial = 0
    for kind, text in _decode_error_mutants(seed=26, count=40):
        opt, ref = _inspect_both(_wrap(text))
        assert opt.report.rejected_stage == "disasm", kind
        assert opt.observed() == ref.observed(), kind
        kinds[kind] += 1
        partial += _decoded(opt.phases) > 0
    assert min(kinds.values()) >= 10, kinds
    # most errors strike mid-text, after some instructions were charged
    assert partial >= 30


@pytest.mark.parametrize("k", [0, 1, 64, 1000])
@pytest.mark.parametrize("with_scan", [False, True])
def test_decoder_fault_at_instruction_k_charges_k(k, with_scan):
    """A plan firing at the decoder's (k+1)-th instruction rejects at
    stage ``disasm`` and charges the k instructions before it — also when
    a valid streamed scan is offered, which such a plan must not adopt."""
    blob = _golden("instrumented")
    scan = None
    if with_scan:
        text = bytes(read_elf(blob).text_sections[0].data)
        scan = StreamScan(text, length_pass(text))

    def plan():
        return FaultPlan([FaultSpec("x86.decoder", "raise", after=k)])

    opt, ref = _inspect_both(blob, plan_factory=plan, scan=scan)
    assert opt.report.rejected_stage == "disasm"
    assert _decoded(opt.phases) == k
    assert opt.observed() == ref.observed()


# ------------------------------------------------------ validator oracle

def _outcome(check) -> tuple[str, str]:
    """(kind, message) of one validator run."""
    try:
        check()
    except ValidationError as exc:
        message = str(exc)
    else:
        return "pass", ""
    for kind, marker in (
        ("entry", "entry point"), ("root", "root "),
        ("target", "not a valid instruction start"),
        ("bundle", "-byte boundary"), ("unreachable", "unreachable"),
    ):
        if marker in message:
            return kind, message
    return "other", message


def test_fast_validator_matches_reference_on_mutants():
    """1-3 byte writes to compliant texts, sometimes with a random entry
    or an extra random root: on every decodable mutant both validators
    give the same outcome and the same message."""
    rng = random.Random(2026)
    texts = [_compliant_text(name) for name in ("instrumented", "plain")]
    counts: dict[str, int] = {}
    decodable = 0
    for _ in range(1000):
        text, entry, roots = texts[rng.randrange(len(texts))]
        writes = rng.randint(1, 3)
        mutant = bytearray(text)
        for _ in range(writes):
            at = rng.randrange(len(text))
            mutant[at] = rng.randrange(256)
        mutant = bytes(mutant)
        try:
            insns = decode_all(mutant)
        except DecodeError:
            continue
        decodable += 1
        pick = rng.random()
        if pick < 0.15:
            entry = rng.randrange(len(text))
        elif pick < 0.3:
            roots = [*roots, rng.randrange(len(text))]
        cols = length_pass(mutant)
        ref = _outcome(lambda: validate(insns, entry=entry, roots=roots))
        fast = _outcome(lambda: validate_fast(
            cols, InstructionBuffer(mutant, cols.offsets),
            entry=entry, roots=roots,
        ))
        assert fast == ref, mutant.hex()
        counts[ref[0]] = counts.get(ref[0], 0) + 1
    # the seed gives 315 decodable mutants: 214 pass, 32 entry, 27 root,
    # 28 target, 10 bundle and 4 unreachable
    floors = {"pass": 150, "entry": 20, "root": 20, "target": 15,
              "bundle": 5, "unreachable": 2}
    assert decodable >= 250, decodable
    for kind, floor in floors.items():
        assert counts.get(kind, 0) >= floor, counts
    assert "other" not in counts, counts
