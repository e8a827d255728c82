"""Differential equivalence of the optimized hot path vs the frozen reference.

PR 3 rebuilt the static-inspection hot path (dispatch-table decoder,
batched metering, shared policy prescan, library-linking digest index) under
one invariant: **optimize wall-clock, never observable behaviour**.  These
tests pin that invariant corpus-wide:

* the table-driven decoder matches ``repro.x86.refdecode`` instruction-for-
  instruction and error-for-error,
* ``CycleMeter.charge_batch`` is tick-identical to per-occurrence charging,
* the optimized pipeline produces byte-identical ``ComplianceReport`` wire
  text, identical ``PolicyResult.stats``, and identical meter totals (per
  phase, per event) over the golden fixtures and the service variant
  corpus — the same check the perf-smoke benchmark runs in CI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import (
    EnGarde,
    IfccPolicy,
    LibraryLinkingPolicy,
    PolicyRegistry,
    StackProtectionPolicy,
)
from repro.errors import DecodeError
from repro.sgx.cpu import CycleMeter
from repro.service import generate_variant_corpus
from repro.x86 import decode_all, decode_one
from repro.x86.refdecode import ref_decode_all, ref_decode_one

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
GOLDEN_BINARIES = ("instrumented", "plain", "truncated", "garbage")
POLICY_NAMES = ("library-linking", "stack-protection", "indirect-function-call")
CORPUS_SIZE = 26  # two full rotations of the 13 variant kinds


@pytest.fixture(scope="module")
def libc():
    from repro.toolchain import build_libc

    return build_libc()


def _frozen_policy(name: str, config: dict):
    if name == "library-linking":
        return LibraryLinkingPolicy({
            fn: bytes.fromhex(digest)
            for fn, digest in config["reference_hashes"].items()
        })
    if name == "stack-protection":
        return StackProtectionPolicy(
            exempt_functions=set(config["exempt_functions"])
        )
    return IfccPolicy()


def _assert_equivalent(blob: bytes, label: str, make_registry) -> None:
    """Both pipelines over *blob*: reports, stats, and meter must match."""
    meter_opt, meter_ref = CycleMeter(), CycleMeter()
    opt = EnGarde(make_registry(), meter_opt, optimized=True).inspect(
        blob, benchmark=label
    )
    ref = EnGarde(make_registry(), meter_ref, optimized=False).inspect(
        blob, benchmark=label
    )
    assert opt.report.serialize() == ref.report.serialize(), label
    assert [r.stats for r in opt.policy_results] == [
        r.stats for r in ref.policy_results
    ], label
    # PhaseBreakdown equality covers cycles, sgx counts, AND the per-event
    # counts — so batched charging cannot hide behind matching totals.
    assert meter_opt.phases == meter_ref.phases, label
    assert meter_opt.total == meter_ref.total, label


# ---------------------------------------------------------------- decoder

def test_decoder_matches_reference_on_golden_text():
    """Stream equivalence on real generated code (the golden binaries)."""
    from repro.elf import read_elf

    checked = 0
    for name in ("instrumented", "plain"):
        blob = (GOLDEN / f"{name}.bin").read_bytes()
        code = bytes(read_elf(blob).text_sections[0].data)
        new = decode_all(code)
        old = ref_decode_all(code)
        assert new == old, name
        checked += len(new)
    assert checked > 1000  # the corpus actually exercised the decoder


def test_decoder_matches_reference_on_byte_fuzz():
    """Same instruction *or* same DecodeError message, byte-for-byte."""
    from repro.crypto import HmacDrbg

    rng = HmacDrbg(b"decoder-differential")
    for trial in range(3000):
        blob = bytes(rng.generate(1 + trial % 18))
        try:
            new = decode_one(blob, 0)
            new_err = None
        except DecodeError as exc:
            new, new_err = None, str(exc)
        try:
            old = ref_decode_one(blob, 0)
            old_err = None
        except DecodeError as exc:
            old, old_err = None, str(exc)
        assert (new, new_err) == (old, old_err), blob.hex()


def test_decoder_fast_construction_matches_keyword_constructor():
    """Every decoder-built record (one ``tuple.__new__`` call, interned
    operands) equals and hashes like a keyword-built Instruction."""
    from repro.elf import read_elf
    from repro.x86.insn import Instruction

    blob = (GOLDEN / "instrumented.bin").read_bytes()
    code = bytes(read_elf(blob).text_sections[0].data)
    for insn in decode_all(code):
        rebuilt = Instruction(
            offset=insn.offset,
            raw=insn.raw,
            mnemonic=insn.mnemonic,
            operands=insn.operands,
            num_prefix_bytes=insn.num_prefix_bytes,
            num_opcode_bytes=insn.num_opcode_bytes,
            num_displacement_bytes=insn.num_displacement_bytes,
            num_immediate_bytes=insn.num_immediate_bytes,
            has_modrm=insn.has_modrm,
            target=insn.target,
        )
        assert type(insn) is Instruction
        assert rebuilt == insn, str(insn)
        assert hash(rebuilt) == hash(insn)


# --------------------------------------------------------------- metering

def test_charge_batch_matches_per_occurrence_charging():
    """Identical cycles AND identical per-event counts, per phase."""
    batched, severally = CycleMeter(), CycleMeter()
    counts = {"decode_byte": 371, "decode_insn": 98, "buffer_store": 98,
              "policy_compare": 0}

    with batched.phase("disassembly"):
        batched.charge_batch(counts)
    with severally.phase("disassembly"):
        for event, count in counts.items():
            for _ in range(count):
                severally.charge(event)

    assert batched.total == severally.total
    assert batched.phases == severally.phases
    # Zero-count events must not materialise spurious keys.
    assert "policy_compare" not in batched.total.events
    # Nor may a batch of zeros open a phase entry.
    with batched.phase("policy"):
        batched.charge_batch({"policy_compare": 0})
    assert "policy" not in batched.phases


def test_charge_batch_rejects_unknown_event():
    meter = CycleMeter()
    with pytest.raises(KeyError):
        meter.charge_batch({"decode_insn": 1, "no-such-event": 2})


def test_charge_batch_returns_total_cycles():
    meter = CycleMeter()
    cycles = meter.charge_batch({"decode_insn": 3, "decode_byte": 10})
    assert cycles == (3 * meter.cost.decode_insn
                      + 10 * meter.cost.decode_byte)
    assert meter.total_cycles == cycles


# --------------------------------------------------------------- pipeline

@pytest.mark.parametrize("fixture_name", GOLDEN_BINARIES)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_pipeline_differential_golden(fixture_name, policy_name):
    """Golden corpus: accept, policy-reject, and structural-reject paths."""
    config = json.loads((GOLDEN / "policy_config.json").read_text())
    blob = (GOLDEN / f"{fixture_name}.bin").read_bytes()
    _assert_equivalent(
        blob, fixture_name,
        lambda: PolicyRegistry([_frozen_policy(policy_name, config)]),
    )


def test_pipeline_differential_variant_corpus(libc):
    """Service corpus: every variant kind (incl. truncated/garbage/dup)
    through all three policies at once."""
    def make_registry():
        return PolicyRegistry([
            LibraryLinkingPolicy(libc.reference_hashes()),
            StackProtectionPolicy(exempt_functions=set(libc.offsets)),
            IfccPolicy(),
        ])

    corpus = generate_variant_corpus(CORPUS_SIZE, libc=libc)
    assert len(corpus) == CORPUS_SIZE
    for label, blob in corpus:
        _assert_equivalent(blob, label, make_registry)
