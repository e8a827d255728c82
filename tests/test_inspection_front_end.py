"""The one inspection front end: ``Disassembler.run`` with or without a scan.

Every optimized inspection decodes the text once, prescans it into a
:class:`~repro.core.streaming.StreamScan` (or adopts the streamed one) and
validates with ``validate_fast`` over the prescan artifacts.  These tests
pin that front end against its independent definitions:

* the scan ``run`` builds equals a prescan of a plain ``decode_all``,
* a decode error (seeded truncations and garbles of compliant text, or
  an injected ``x86.decoder`` fault) rejects with the same report, meter
  phases and buffer-growth trampoline sequence as the frozen
  ``optimized=False`` oracle,
* ``validate_fast`` over prescan artifacts agrees with the reference
  ``validate`` — outcome and message — on seeded byte-write mutants of
  compliant text.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.core import Disassembler, EnGarde, IfccPolicy, PolicyRegistry
from repro.core.streaming import StreamScan
from repro.elf import ElfSymbol, Layout, read_elf, write_elf
from repro.errors import DecodeError, RejectionError, ValidationError
from repro.faults.hooks import injected
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service import generate_variant_corpus
from repro.sgx.cpu import CycleMeter
from repro.x86 import decode_all, validate, validate_fast

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
GOLDEN_BINARIES = ("instrumented", "plain", "truncated", "garbage")
#: every StreamScan field the validator or the policy context reads
SCAN_ARTIFACTS = (
    "code", "instructions", "by_offset", "branch_idx", "term_idx",
    "direct_calls", "indirect_idx", "bundle_violation", "n_bytes",
)


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
        expected = StreamScan.from_instructions(text, decode_all(text))
        for artifact in SCAN_ARTIFACTS:
            assert getattr(result.scan, artifact) == getattr(
                expected, artifact
            ), (label, artifact)
        assert result.instructions is result.scan.instructions
        compared += 1
    # both compliant golden texts and every built variant but the
    # truncated ones (two rotations: 4 truncated, 4 garbage)
    assert compared == 2 + 18 - 4


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
        scan = StreamScan.from_instructions(text, decode_all(text))

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
        try:
            insns = decode_all(bytes(mutant))
        except DecodeError:
            continue
        decodable += 1
        pick = rng.random()
        if pick < 0.15:
            entry = rng.randrange(len(text))
        elif pick < 0.3:
            roots = [*roots, rng.randrange(len(text))]
        scan = StreamScan.from_instructions(bytes(mutant), insns)
        ref = _outcome(lambda: validate(insns, entry=entry, roots=roots))
        fast = _outcome(lambda: validate_fast(
            insns, entry=entry, roots=roots, by_offset=scan.by_offset,
            bundle_violation=scan.bundle_violation,
            branch_idx=scan.branch_idx, term_idx=scan.term_idx,
        ))
        assert fast == ref, bytes(mutant).hex()
        counts[ref[0]] = counts.get(ref[0], 0) + 1
    # the seed gives 315 decodable mutants: 214 pass, 32 entry, 27 root,
    # 28 target, 10 bundle and 4 unreachable
    floors = {"pass": 150, "entry": 20, "root": 20, "target": 15,
              "bundle": 5, "unreachable": 2}
    assert decodable >= 250, decodable
    for kind, floor in floors.items():
        assert counts.get(kind, 0) >= floor, counts
    assert "other" not in counts, counts
