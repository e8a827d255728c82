"""Streaming provisioning: pipeline, delta splice, and differential pins.

Four battle fronts, matching the streamed receive path's promises:

* the chunk-resumable length pass gives the columns and the records of
  the whole-buffer decode at adversarial record boundaries;
* a delta splice equals a full pass over the edited text, column by
  column and record by record, runs the length pass again only over the
  function extents whose bytes changed, and decodes no record;
* delta re-inspection **fails closed** — a moved or changed function
  never reuses a stale verdict, and a swapped binary is re-inspected;
* a delta re-inspection gives the verdict bytes and per-phase meter
  charges of a cold run of the same binary, and the streamed receive
  fails closed (or recovers through ARQ) under seeded channel faults.

The streamed receive's wire transcript, MRENCLAVE and meter breakdown
are pinned in ``tests/fixtures/provisioning_wire.json``
(``tests/test_provisioning_wire.py``).
"""

from __future__ import annotations

import copy
import hashlib
import os
import random
import subprocess
import sys
from bisect import bisect_right

import pytest

import repro
from repro.core import EnclaveClient, provision
from repro.core import streaming as st
from repro.core.provisioning import ResilienceConfig
from repro.core.streaming import (
    SPILL_WINDOW,
    DeltaIndex,
    FunctionVerdictMemo,
    StreamingPipeline,
    StreamScan,
    _MemoSession,
    build_delta_index,
    delta_scan,
)
from repro.crypto import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.elf import read_elf
from repro.errors import DecodeError
from repro.faults import FakeClock, FaultPlan, FaultSpec, injected
from repro.x86 import BUNDLE_SIZE, decode_all, iter_decode, length_pass
from tests.conftest import compile_demo, meter_breakdown, small_provider
from tests.test_x86_lengths import columns_of, view


def _blob(n: int, seed: bytes = b"streaming-test") -> bytes:
    """Deterministic pseudo-random bytes (no process randomness)."""
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:n])


def _tokens(insns) -> list[tuple[int, str, bytes]]:
    return [(i.offset, i.mnemonic, bytes(i.raw)) for i in insns]


def test_no_module_imports_numpy():
    """No process pays for NumPy: the delta index hashes function extents
    with hashlib, and nothing else in the package needs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [sys.executable, "-c",
         "import repro, repro.core, repro.service, sys; "
         "assert 'numpy' not in sys.modules, 'numpy was imported'"],
        env=env, check=True, timeout=60,
    )


# --------------------------------------------------------------------------
# Streaming pipeline vs whole-buffer decode
# --------------------------------------------------------------------------


class TestStreamingPipeline:
    def _drive(self, raw: bytes, cut_points) -> StreamingPipeline:
        buf = bytearray(raw)
        pipeline = StreamingPipeline(buf)
        prev = 0
        for cut in cut_points:
            assert cut >= prev
            pipeline.advance(cut)
            prev = cut
        pipeline.advance(len(raw))
        return pipeline

    def test_scan_token_identical_to_phased_decode(self, demo_instrumented):
        raw = demo_instrumented.elf
        text = read_elf(raw).text_sections[0]
        oracle = _tokens(iter_decode(text.data, 0, len(text.data)))
        # adversarial record boundaries: tiny prefixes through the ELF and
        # program headers, then cuts straddling the text both mid-record
        # and exactly at the text end
        text_end = text.offset + len(text.data)
        cuts = sorted(set(
            list(range(1, 80, 7))
            + [text.offset - 1, text.offset, text.offset + 1]
            + list(range(text.offset, text_end, 61))
            + [text_end - 1, text_end, text_end + 3]
        ))
        pipeline = self._drive(raw, [c for c in cuts if 0 <= c <= len(raw)])
        scan = pipeline.finish()
        assert scan is not None and scan.error is None
        assert scan.code == text.data
        assert _tokens(scan.instructions) == oracle

    def test_prescan_artifacts_match_from_instructions(self, demo_instrumented):
        """The streamed columns are those the decoded records imply, and
        equal a whole-buffer length pass's."""
        raw = demo_instrumented.elf
        pipeline = self._drive(raw, range(0, len(raw), 97))
        scan = pipeline.finish()
        assert scan is not None
        assert view(scan.columns) == columns_of(
            decode_all(scan.code), len(scan.code)
        )
        assert view(scan.columns) == view(length_pass(scan.code))
        assert scan.n_bytes == len(scan.code)

    def test_prescan_artifacts_match_the_record_classification(
        self, demo_instrumented
    ):
        """The streamed and the rebuilt scan share one prescan loop, so
        check its output against the records' own classification."""
        raw = demo_instrumented.elf
        scan = self._drive(raw, range(0, len(raw), 97)).finish()
        cols = scan.columns
        calls = scan.direct_calls()  # built from the columns, undecoded
        insns = list(scan.instructions)
        indices = range(len(insns))
        assert scan.by_offset == {insn.offset: i for i, insn in enumerate(insns)}
        assert cols.branch_idx == [i for i in indices if insns[i].target is not None]
        assert cols.term_idx == [i for i in indices if insns[i].is_terminator]
        assert calls == [i for i in insns if i.is_direct_call]
        assert cols.indirect_idx == [
            i for i in indices
            if insns[i].is_indirect_call or insns[i].is_indirect_jump
        ]
        assert scan.n_bytes == sum(insn.length for insn in insns) == len(scan.code)
        assert cols.bundles == []
        assert len(cols.term_idx) > 0 and len(calls) > 0

    def test_single_byte_records_near_headers(self, demo_instrumented):
        raw = demo_instrumented.elf
        text = read_elf(raw).text_sections[0]
        cuts = list(range(1, 200)) + list(range(200, len(raw), 997))
        pipeline = self._drive(raw, cuts)
        scan = pipeline.finish()
        assert scan is not None
        assert _tokens(scan.instructions) == _tokens(
            iter_decode(text.data, 0, len(text.data))
        )

    def test_text_slice_none_until_text_complete(self, demo_instrumented):
        raw = demo_instrumented.elf
        text = read_elf(raw).text_sections[0]
        buf = bytearray(raw)
        pipeline = StreamingPipeline(buf)
        pipeline.advance(text.offset + len(text.data) - 1)
        assert pipeline.text_slice() is None
        pipeline.advance(text.offset + len(text.data))
        assert pipeline.text_slice() == text.data

    def test_non_elf_content_gives_up_cleanly(self):
        raw = _blob(8192)
        buf = bytearray(raw)
        pipeline = StreamingPipeline(buf)
        for cut in range(0, len(raw) + 1, 512):
            pipeline.advance(cut)
        assert pipeline.finish() is None

    def test_decode_disabled_keeps_header_tracking_only(self, demo_instrumented):
        raw = demo_instrumented.elf
        text = read_elf(raw).text_sections[0]
        buf = bytearray(raw)
        pipeline = StreamingPipeline(buf, decode=False)
        pipeline.advance(len(raw))
        assert pipeline.finish() is None
        assert pipeline.text_slice() == text.data
        assert pipeline._decoder.pos == 0 and not len(pipeline._decoder.columns)


# --------------------------------------------------------------------------
# Per-function verdict memo: fail-closed properties
# --------------------------------------------------------------------------


def _session(text: bytes, boundaries: list[int]) -> _MemoSession:
    return _MemoSession({}, text, boundaries)


class TestFunctionVerdictMemoFailClosed:
    BOUNDS = [0, 1024, 2048, 3072]

    def _recorded(self, text: bytes):
        """One memo session over *text* with a verdict recorded for the
        function at 1024 that also read a byte inside [3072, 4096)."""
        entries: dict = {}
        session = _MemoSession(entries, text, list(self.BOUNDS))
        session.record("f", 1024, 7, None, [("charge", "x", 1)], [3100])
        return entries

    def test_hit_when_nothing_changed(self):
        text = _blob(4096)
        entries = self._recorded(text)
        again = _MemoSession(entries, text, list(self.BOUNDS))
        assert again.lookup("f", 1024) == (7, None, [("charge", "x", 1)])

    def test_changed_function_bytes_never_hit(self):
        text = _blob(4096)
        entries = self._recorded(text)
        mutated = bytearray(text)
        mutated[1500] ^= 0x01
        session = _MemoSession(entries, bytes(mutated), list(self.BOUNDS))
        assert session.lookup("f", 1024) is None

    def test_moved_function_never_hits_even_with_identical_bytes(self):
        text = _blob(4096)
        entries = self._recorded(text)
        # same function bytes relocated 16 bytes later: the memo key pins
        # the start offset, so this must re-inspect
        moved = text[:1024] + b"\x90" * 16 + text[1024:2032] + text[2048:]
        assert len(moved) == len(text)
        session = _MemoSession(entries, moved, [0, 1040, 2048, 3072])
        assert session.lookup("f", 1040) is None

    def test_spill_window_change_never_hits(self):
        text = _blob(4096)
        entries = self._recorded(text)
        mutated = bytearray(text)
        mutated[2048 + SPILL_WINDOW - 1] ^= 0xFF
        session = _MemoSession(entries, bytes(mutated), list(self.BOUNDS))
        assert session.lookup("f", 1024) is None

    def test_change_outside_everything_observed_still_hits(self):
        text = _blob(4096)
        entries = self._recorded(text)
        mutated = bytearray(text)
        # inside [2048, 3072) but past the spill window, and not in the
        # recorded out-of-extent read window [3072, 4096)
        mutated[2048 + SPILL_WINDOW] ^= 0xFF
        session = _MemoSession(entries, bytes(mutated), list(self.BOUNDS))
        assert session.lookup("f", 1024) is not None

    def test_out_of_extent_read_window_invalidates(self):
        text = _blob(4096)
        entries = self._recorded(text)
        mutated = bytearray(text)
        mutated[3500] ^= 0x10  # the extent the original check peeked into
        session = _MemoSession(entries, bytes(mutated), list(self.BOUNDS))
        assert session.lookup("f", 1024) is None

    def test_policy_or_symtab_change_wipes_the_memo(self):
        text = _blob(4096)

        class _Sec:
            data = text

        class _Img:
            text_sections = [_Sec()]

        class _Tab:
            def __init__(self, d):
                self._d = d

            def items(self):
                return self._d.items()

        class _Ctx:
            image = _Img()

            def __init__(self, symbols):
                self.symtab = _Tab(symbols)

        memo = FunctionVerdictMemo()
        ctx = _Ctx({0: "a", 1024: "f", 2048: "g", 3072: "h"})
        s1 = memo.session(ctx, b"policy-v1")
        assert s1 is not None
        s1.record("f", 1024, 3, None, [], [])
        assert memo.session(ctx, b"policy-v1").lookup("f", 1024) is not None
        # different policy configuration: everything cached is stale
        assert memo.session(ctx, b"policy-v2").lookup("f", 1024) is None
        # different symbol table: likewise
        memo2 = FunctionVerdictMemo()
        s2 = memo2.session(ctx, b"p")
        s2.record("f", 1024, 3, None, [], [])
        ctx2 = _Ctx({0: "a", 1024: "f", 2048: "renamed", 3072: "h"})
        assert memo2.session(ctx2, b"p").lookup("f", 1024) is None


# --------------------------------------------------------------------------
# Delta scan: splice correctness and fallbacks
# --------------------------------------------------------------------------


def assert_scan_of(scan: StreamScan, text: bytes) -> None:
    """*scan* is a full pass over *text*: its columns are those the
    decoded records imply, and its buffer reads as those records."""
    full = decode_all(text)
    assert scan.code == text
    assert view(scan.columns) == columns_of(full, len(text))
    assert list(scan.instructions) == full


def _demo_text(elf: bytes) -> tuple[bytes, list[int]]:
    """The demo's text bytes and its function-start offsets."""
    img = read_elf(elf)
    text = img.text_sections[0]
    bounds = sorted(s.value - text.vaddr for s in img.function_symbols())
    return text.data, bounds


def _index_for(text: bytes, boundaries: list[int]) -> DeltaIndex:
    scan = StreamScan(text, length_pass(text))
    return build_delta_index(DeltaIndex(), scan, boundaries)


def _first_mov_imm32(text: bytes):
    for insn in iter_decode(text, 0, len(text)):
        if (insn.mnemonic == "mov" and insn.target is None
                and insn.num_immediate_bytes >= 4):
            return insn
    raise AssertionError("demo program must contain a mov imm32")


def _seeded_edit(text: bytes, insns, rng: random.Random) -> bytes:
    """1-3 edits of *text*: an instruction overwritten by as many nops
    (moving instruction boundaries), one XORed byte, ``0xb8``
    (``mov $imm32, %eax``, 5 bytes) planted at an instruction start, which
    can run past the end of its function, or one XORed byte of an
    instruction's immediate, which keeps every instruction boundary."""
    out = bytearray(text)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        insn = insns[rng.randrange(len(insns))]
        if kind == 0:
            out[insn.offset:insn.offset + insn.length] = b"\x90" * insn.length
        elif kind == 1:
            out[rng.randrange(len(out))] ^= rng.randint(1, 255)
        elif kind == 2:
            out[insn.offset] = 0xB8
        else:
            insn = rng.choice([i for i in insns if i.num_immediate_bytes])
            imm = rng.randrange(insn.num_immediate_bytes)
            out[insn.end - 1 - imm] ^= rng.randint(1, 255)
    return bytes(out)


def _perfbench_edit(text: bytes) -> bytes:
    """perfbench's provision-update edit: the first byte of one mov
    immediate XORed with 0x5A, a one-function, boundary-keeping edit."""
    target = _first_mov_imm32(text)
    out = bytearray(text)
    out[target.end - target.num_immediate_bytes] ^= 0x5A
    return bytes(out)


def _plant_bundle_violation(text: bytes, insns, after: int = 0):
    """Swap the first bundle-ending nop at or after *after* with the
    non-branch instruction C that follows it, so that C straddles the
    bundle edge.  Returns the new text and C's new offset.  Every other
    instruction keeps its start, so the instruction count is unchanged."""
    for nop, c in zip(insns, insns[1:]):
        if (nop.offset >= after and nop.raw == b"\x90"
                and nop.end % BUNDLE_SIZE == 0 and c.length >= 2
                and c.target is None):
            out = bytearray(text)
            out[nop.offset:c.end] = c.raw + b"\x90"
            return bytes(out), nop.offset
    raise AssertionError("demo program must contain a bundle-edge nop")


@pytest.fixture
def passes(monkeypatch) -> list:
    """The ``(start, end)`` regions ``delta_scan`` runs the length pass
    over, in call order."""
    calls = []

    def spy(code, start=0, end=None, into=None):
        calls.append((start, end))
        return length_pass(code, start, end, into)

    monkeypatch.setattr(st, "length_pass", spy)
    return calls


def _dirty_extents(index: DeltaIndex, text: bytes) -> list:
    return [(s, e) for s, e, digest in index.extents
            if hashlib.sha256(text[s:e]).digest() != digest]


class TestDeltaScan:
    def test_identity_reuses_indexed_artifacts(self, demo_instrumented):
        text, bounds = _demo_text(demo_instrumented.elf)
        index = _index_for(text, bounds)
        assert delta_scan(index, text) is index.scan

    def test_one_byte_flip_splices_to_full_decode(self, demo_instrumented):
        text, bounds = _demo_text(demo_instrumented.elf)
        index = _index_for(text, bounds)
        # flip a displacement/immediate byte so the edit keeps decoding:
        # find a mov with a >= 4-byte immediate and perturb its last byte
        target = _first_mov_imm32(text)
        mutated = bytearray(text)
        mutated[target.offset + target.length - 1] ^= 0x5A
        mutated = bytes(mutated)
        scan = delta_scan(index, mutated)
        assert scan is not None
        assert_scan_of(scan, mutated)

    def test_one_function_edit_redecodes_only_its_extent(
        self, demo_instrumented, passes
    ):
        """The length pass runs over the edited function alone; the clean
        extents carry the indexed scan's records (decoded or not) and no
        record is decoded."""
        text, bounds = _demo_text(demo_instrumented.elf)
        index = _index_for(text, bounds)
        held = index.scan.instructions
        held[len(held) // 2]  # one record of the indexed scan was read
        target = _first_mov_imm32(text)
        mutated = bytearray(text)
        mutated[target.offset + target.length - 1] ^= 0x5A
        scan = delta_scan(index, bytes(mutated))
        assert scan is not None
        edges = sorted({0, *bounds, len(text)})
        k = bisect_right(edges, target.offset) - 1
        assert passes == [(edges[k], edges[k + 1])]
        first, last = (scan.by_offset[edges[k]],
                       scan.by_offset.get(edges[k + 1], len(held)))
        carried = scan.instructions.decoded()
        indexed = held.decoded()
        assert carried[:first] == indexed[:first]
        assert carried[last:] == indexed[last:]
        assert carried[first:last] == [None] * (last - first)
        assert sum(r is not None for r in carried) == 1

    def test_splice_matches_full_decode_under_seeded_edits(
        self, demo_instrumented
    ):
        """Oracle: whenever ``delta_scan`` returns a scan, every column and
        record equals a full decode's, whether the dirty extents kept
        their instruction counts (indices unshifted) or not, and it never
        returns one for a text whose full decode raises."""
        text, bounds = _demo_text(demo_instrumented.elf)
        index = _index_for(text, bounds)
        insns = decode_all(text)
        rng = random.Random(20261019)
        same_count = shifted = fell_back = 0
        for trial in range(300):
            edited = _seeded_edit(text, insns, rng)
            scan = delta_scan(index, edited)
            try:
                full = decode_all(edited)
            except DecodeError:
                assert scan is None, trial
                fell_back += 1
                continue
            if scan is None:
                fell_back += 1
                continue
            if len(full) == len(insns):
                same_count += 1
            else:
                shifted += 1
            assert_scan_of(scan, edited)
        # every outcome is exercised, not just some of them
        assert same_count >= 50 and shifted >= 50 and fell_back >= 50, (
            same_count, shifted, fell_back)

    def test_perfbench_edit_patches_without_a_prescan(
        self, demo_instrumented, passes
    ):
        """No pass over the whole text: only the edited extent is
        scanned, and the splice equals a full decode."""
        text, bounds = _demo_text(demo_instrumented.elf)
        index = _index_for(text, bounds)
        mutated = _perfbench_edit(text)
        scan = delta_scan(index, mutated)
        assert passes == _dirty_extents(index, mutated)
        assert len(passes) == 1
        assert_scan_of(scan, mutated)

    def test_patch_leaves_the_indexed_scan_untouched(self, demo_instrumented):
        """The entry keeps its scan when the spliced one is not adopted,
        so splicing works on copies."""
        text, bounds = _demo_text(demo_instrumented.elf)
        index = _index_for(text, bounds)
        indexed = index.scan
        cols = indexed.columns
        columns = {name: getattr(cols, name)
                   for name in ("offsets", "kinds", "targets", "bundles")}
        snapshot = {name: copy.copy(v) for name, v in columns.items()}
        records = indexed.instructions.decoded()
        held = list(records)
        scan = delta_scan(index, _perfbench_edit(text))
        assert scan is not indexed and index.scan is indexed
        assert indexed.columns is cols and indexed.code == text
        assert indexed.instructions.decoded() is records and records == held
        for name, value in columns.items():
            assert getattr(cols, name) is value, name
            assert value == snapshot[name], name
            assert getattr(scan.columns, name) is not value, name

    def test_bundle_violation_removed_from_a_dirty_extent_reveals_the_next(
        self, demo_instrumented, passes
    ):
        """The columns record every bundle offender.  When the update
        removes the first one, the splice carries the next one over from
        the clean extent it lies in, without scanning that extent."""
        text, bounds = _demo_text(demo_instrumented.elf)
        insns = decode_all(text)
        edges = sorted({0, *bounds, len(text)})
        later, second = _plant_bundle_violation(text, insns, after=edges[2])
        both, first = _plant_bundle_violation(later, insns)
        assert bisect_right(edges, first) < bisect_right(edges, second)
        index = _index_for(both, bounds)
        offenders = index.scan.columns.bundles
        assert index.scan.columns.offsets[offenders[0]] == first
        scan = delta_scan(index, later)  # the first plant undone
        assert passes == _dirty_extents(index, later)
        assert all(not s <= second < e for s, e in passes)
        assert scan.columns.offsets[scan.columns.bundles[0]] == second
        assert_scan_of(scan, later)

    def test_extent_edge_inside_an_instruction_falls_back(
        self, demo_instrumented
    ):
        """A clean extent whose edge is not an instruction start of the
        indexed decode cannot be spliced from it."""
        text, bounds = _demo_text(demo_instrumented.elf)
        target = _first_mov_imm32(text)
        later = max(bounds)
        assert target.offset < later
        mid = next(insn.offset + 1 for insn in decode_all(text)
                   if insn.offset >= later and insn.length > 1)
        index = _index_for(text, [*bounds, mid])
        mutated = bytearray(text)
        mutated[target.offset + target.length - 1] ^= 0x5A
        assert delta_scan(index, bytes(mutated)) is None

    def test_length_change_falls_back(self, demo_instrumented):
        text, bounds = _demo_text(demo_instrumented.elf)
        index = _index_for(text, bounds)
        assert delta_scan(index, text[:-16]) is None

    def test_unpopulated_index_falls_back(self):
        assert delta_scan(DeltaIndex(), b"\x90" * 64) is None


# --------------------------------------------------------------------------
# Delta provisioning and fault injection through the provider
# --------------------------------------------------------------------------


class TestDeltaProvisioning:
    """A label enters the provider's delta index on its second provisioning.

    The first provisioning of a label only records it, as an empty entry,
    and its scan carries no function-verdict memo; the second decodes in
    full with the memo recording and populates the entry; the third and
    later splice their scan from it, or decode in full and re-populate
    it when their text was resized.  Every op that reaches the content
    receive keeps the index within its cap.
    """

    LABEL = "client"  # EnclaveClient's default benchmark label

    @pytest.fixture(scope="class")
    def keypair(self):
        """Pre-generated channel key so each provisioning run skips keygen."""
        return generate_keypair(768, HmacDrbg(b"delta-provisioning-keypair"))

    @staticmethod
    def _spy_on_delta_scan(monkeypatch) -> list:
        """Record every scan ``delta_scan`` hands the provider."""
        from repro.core import provisioning as prov_module

        spliced = []

        def spy(index, text):
            scan = st.delta_scan(index, text)
            spliced.append(scan)
            return scan

        monkeypatch.setattr(prov_module, "delta_scan", spy)
        return spliced

    def _v2_one_immediate_flipped(self, raw: bytes) -> bytes:
        """Same binary with one mov-immediate byte flipped inside .text."""
        text = read_elf(raw).text_sections[0]
        for insn in iter_decode(text.data, 0, len(text.data)):
            if (insn.mnemonic == "mov" and insn.target is None
                    and insn.num_immediate_bytes >= 4):
                file_off = text.offset + insn.offset + insn.length - 1
                mutated = bytearray(raw)
                mutated[file_off] ^= 0x5A
                return bytes(mutated)
        raise AssertionError("no mov imm32 found in the demo text")

    @staticmethod
    def _undecodable(raw: bytes) -> bytes:
        """The binary with ``0x06`` (invalid in 64-bit mode) written at its
        51st instruction start, so inspection rejects it at ``disasm``."""
        text = read_elf(raw).text_sections[0]
        insns = list(iter_decode(text.data, 0, len(text.data)))
        mutated = bytearray(raw)
        mutated[text.offset + insns[50].offset] = 0x06
        return bytes(mutated)

    def test_first_sighting_retains_nothing(
        self, monkeypatch, all_policies, demo_instrumented, keypair
    ):
        spliced = self._spy_on_delta_scan(monkeypatch)
        provider = small_provider(all_policies, channel_keypair=keypair)
        result = provision(provider, EnclaveClient(
            demo_instrumented.elf, policies=all_policies,
        ))
        assert result.accepted and not spliced
        scan = result.outcome.disassembly.scan
        assert scan is not None and scan.delta is None
        entry = provider._delta_index[self.LABEL]
        assert entry.scan is None and entry.extents == []

    def test_second_sighting_decodes_in_full_and_populates_the_index(
        self, monkeypatch, all_policies, demo_instrumented, keypair
    ):
        spliced = self._spy_on_delta_scan(monkeypatch)
        provider = small_provider(all_policies, channel_keypair=keypair)
        for _ in range(2):
            second = provision(provider, EnclaveClient(
                demo_instrumented.elf, policies=all_policies,
            ))
            assert second.accepted
        assert not spliced
        scan = second.outcome.disassembly.scan
        entry = provider._delta_index[self.LABEL]
        assert entry.populated
        assert entry.scan is scan
        # the memo rode the full decode and recorded its verdicts
        assert scan.delta is entry.memo and entry.memo._entries

    def test_third_sighting_splices_from_the_index(
        self, monkeypatch, all_policies, demo_instrumented, keypair
    ):
        spliced = self._spy_on_delta_scan(monkeypatch)
        provider = small_provider(all_policies, channel_keypair=keypair)
        for _ in range(2):
            assert provision(provider, EnclaveClient(
                demo_instrumented.elf, policies=all_policies,
            )).accepted
        third = provision(provider, EnclaveClient(
            demo_instrumented.elf, policies=all_policies,
        ))
        assert third.accepted
        assert len(spliced) == 1 and spliced[0] is not None
        assert third.outcome.disassembly.scan is spliced[0]
        entry = provider._delta_index[self.LABEL]
        # identical text: the spliced scan is the indexed scan itself
        assert spliced[0] is entry.scan
        assert spliced[0].delta is entry.memo

    def test_resized_update_is_decoded_in_full_and_reindexed(
        self, monkeypatch, libc, all_policies, demo_instrumented, keypair
    ):
        """Regression: once a label's entry was populated, an update whose
        text length differed got no scan at all (the receive had not
        decoded and the splice gave up), and the entry kept the old
        version for good, so later ops could not splice either."""
        demo2 = compile_demo(libc, stack_protector=True, ifcc=True,
                             name="demo2")
        spliced = self._spy_on_delta_scan(monkeypatch)
        provider = small_provider(all_policies, channel_keypair=keypair)
        for _ in range(2):
            assert provision(provider, EnclaveClient(
                demo_instrumented.elf, policies=all_policies,
            )).accepted
        entry = provider._delta_index[self.LABEL]
        assert len(entry.scan.code) == 8448
        provider.machine.meter.reset()  # count the first demo2's charges
        results = []
        for _ in range(4):
            result = provision(provider, EnclaveClient(
                demo2.elf, policies=all_policies,
            ))
            if not results:
                first_charges = meter_breakdown(result.meter)
            assert result.accepted
            scan = result.outcome.disassembly.scan
            assert scan is not None and scan.delta is entry.memo
            assert entry.scan is scan and len(entry.scan.code) == 8384
            results.append(result)
        assert spliced[0] is None
        assert [s is r.outcome.disassembly.scan
                for s, r in zip(spliced[1:], results[1:])] == [True] * 3

        cold = provision(
            small_provider(all_policies, channel_keypair=keypair),
            EnclaveClient(demo2.elf, policies=all_policies),
        )
        assert results[0].report.serialize() == cold.report.serialize()
        assert first_charges == meter_breakdown(cold.meter)

    def test_one_shot_labels_leave_no_decoded_records(
        self, all_policies, demo_instrumented, keypair
    ):
        """Regression: every first sighting used to keep its full decode,
        so the index held the records of the last eight one-shot labels."""
        provider = small_provider(all_policies, channel_keypair=keypair)
        cap = provider._delta_index_cap
        for i in range(cap + 1):
            assert provision(provider, EnclaveClient(
                demo_instrumented.elf, policies=all_policies,
                benchmark=f"cold-{i}",
            )).accepted
        entries = provider._delta_index
        assert len(entries) == cap
        assert [label for label, entry in entries.items()
                if entry.populated or entry.extents] == []

    def test_disasm_rejections_stay_within_the_cap(
        self, all_policies, demo_instrumented, keypair
    ):
        """Regression: the receive inserted a label's entry but only an
        index update evicted, and a disasm-stage rejection never reaches
        one, so fresh-label rejections grew the index past its cap."""
        bad = self._undecodable(demo_instrumented.elf)
        provider = small_provider(all_policies, channel_keypair=keypair)
        cap = provider._delta_index_cap
        for i in range(cap + 4):
            result = provision(provider, EnclaveClient(
                bad, policies=all_policies, benchmark=f"cold-{i}",
            ))
            assert not result.accepted
            assert result.report.rejected_stage == "disasm"
        assert len(provider._delta_index) <= cap

    def test_delta_run_matches_cold_run(
        self, monkeypatch, all_policies, demo_instrumented
    ):
        """v2 after two provisionings of v1 rides the delta index; v2 on a
        provider that has never seen the label is inspected cold.  Same
        report bytes, same per-phase meter charges."""
        v1 = demo_instrumented.elf
        v2 = self._v2_one_immediate_flipped(v1)
        spliced = self._spy_on_delta_scan(monkeypatch)
        warm = small_provider(all_policies)
        for _ in range(2):
            assert provision(
                warm, EnclaveClient(v1, policies=all_policies)
            ).accepted
        assert not spliced
        warm.machine.meter.reset()  # count v2's charges alone
        delta = provision(warm, EnclaveClient(v2, policies=all_policies))
        # the delta index spliced v2's scan and the disassembler adopted it
        assert len(spliced) == 1 and spliced[0] is not None
        assert delta.outcome.disassembly.scan is spliced[0]

        cold = provision(
            small_provider(all_policies),
            EnclaveClient(v2, policies=all_policies),
        )
        assert len(spliced) == 1
        assert delta.accepted and cold.accepted
        assert delta.report.serialize() == cold.report.serialize()
        assert delta.client_verdict == cold.client_verdict
        assert meter_breakdown(delta.meter) == meter_breakdown(cold.meter)

    def test_swapped_binary_is_reinspected_not_stale_accepted(
        self, all_policies, demo_instrumented, demo_plain
    ):
        """After two ACCEPTs of v1 (the second records its function
        verdicts in the memo), provisioning a *different* (and
        non-compliant) binary under the same benchmark label must be
        re-inspected and rejected — never served a stale verdict."""
        provider = small_provider(all_policies)
        for _ in range(2):
            accepted = provision(provider, EnclaveClient(
                demo_instrumented.elf, policies=all_policies,
            ))
            assert accepted.accepted
        memo = provider._delta_index[self.LABEL].memo
        assert accepted.outcome.disassembly.scan.delta is memo
        assert memo._entries
        swapped = provision(provider, EnclaveClient(
            demo_plain.elf, policies=all_policies,
        ))
        assert not swapped.accepted
        assert swapped.report.policies_failed


class TestStreamedFaultInjection:
    def test_seeded_plan_over_streamed_path_fails_closed(
        self, all_policies, demo_instrumented
    ):
        """A persistent channel fault on the streamed receive ends in a
        typed REJECT, never a false ACCEPT."""
        clock = FakeClock()
        plan = FaultPlan(
            [FaultSpec(hook="crypto.channel.recv", kind="bitflip",
                       max_triggers=None)],
            clock=clock, hang_seconds=10.0,
        )
        provider = small_provider(all_policies)
        client = EnclaveClient(
            demo_instrumented.elf, policies=all_policies,
        )
        with injected(plan):
            result = provision(
                provider, client,
                resilience=ResilienceConfig(max_retransmits=2, clock=clock),
            )
        assert plan.events, "the seeded fault never fired"
        assert not result.accepted
        assert result.error is not None

    def test_transient_drop_recovers_through_streamed_arq(
        self, all_policies, demo_instrumented
    ):
        clock = FakeClock()
        plan = FaultPlan(
            [FaultSpec(hook="crypto.channel.send", kind="drop",
                       after=3, max_triggers=1)],
            clock=clock,
        )
        provider = small_provider(all_policies)
        client = EnclaveClient(
            demo_instrumented.elf, policies=all_policies,
        )
        with injected(plan):
            result = provision(
                provider, client,
                resilience=ResilienceConfig(max_retransmits=3, clock=clock),
            )
        assert plan.events and plan.events[0].kind == "drop"
        assert result.accepted and result.error is None
