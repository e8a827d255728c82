"""Streaming provisioning: pipeline, CDC/delta, and differential pins.

Four battle fronts, matching the streamed receive path's promises:

* the chunk-resumable decode and the fused prescan are token-identical
  to the whole-buffer phased decode at adversarial record boundaries;
* content-defined chunking is bit-identical between the vectorised and
  scalar gear walks, and the dirty-range differ localises edits;
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

import hashlib

import pytest

from repro.core import EnclaveClient, provision
from repro.core import streaming as st
from repro.core.provisioning import ResilienceConfig
from repro.core.streaming import (
    SPILL_WINDOW,
    DeltaIndex,
    FunctionVerdictMemo,
    StreamingPipeline,
    StreamScan,
    _dirty_ranges,
    _MemoSession,
    build_delta_index,
    cdc_chunks,
    delta_scan,
)
from repro.elf import read_elf
from repro.faults import FakeClock, FaultPlan, FaultSpec, injected
from repro.x86 import iter_decode
from tests.conftest import meter_breakdown, small_provider


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


# --------------------------------------------------------------------------
# Content-defined chunking
# --------------------------------------------------------------------------


class TestCdcChunks:
    def test_partition_invariants(self):
        data = _blob(50_000)
        chunks = cdc_chunks(data)
        assert chunks[0][0] == 0 and chunks[-1][1] == len(data)
        for (s0, e0, _), (s1, _e1, _) in zip(chunks, chunks[1:]):
            assert e0 == s1 and s0 < e0
        for s, e, digest in chunks:
            assert digest == hashlib.sha256(data[s:e]).digest()
            assert e - s <= 16384

    def test_vectorised_matches_scalar_reference(self):
        if st._np is None:
            pytest.skip("numpy unavailable; only the scalar walk runs")
        for seed in (b"a", b"b", b"c"):
            for n in (0, 1, 63, 64, 511, 512, 513, 5000, 70_000):
                data = _blob(n, seed)
                for params in (
                    dict(min_size=512, avg_bits=12, max_size=16384),
                    dict(min_size=64, avg_bits=6, max_size=1024),
                    dict(min_size=128, avg_bits=8, max_size=4096),
                ):
                    assert cdc_chunks(data, **params) == \
                        st._cdc_chunks_scalar(data, **params), (seed, n, params)

    def test_empty_input(self):
        assert cdc_chunks(b"") == []

    def test_input_below_min_size_is_one_chunk(self):
        data = _blob(100)
        assert cdc_chunks(data) == [
            (0, 100, hashlib.sha256(data).digest())
        ]

    def test_local_edit_preserves_distant_chunks(self):
        data = _blob(60_000)
        edited = bytearray(data)
        edited[30_000] ^= 0xFF
        before = cdc_chunks(data)
        after = cdc_chunks(bytes(edited))
        # boundaries re-synchronise: chunk triples far from the edit agree
        shared = set(before) & set(after)
        assert any(e <= 20_000 for _s, e, _d in shared)
        assert any(s >= 40_000 for s, _e, _d in shared)


class TestDirtyRanges:
    def _chunked(self, data: bytes):
        return cdc_chunks(data)

    def test_identical_chunkings_have_no_dirty_ranges(self):
        chunks = self._chunked(_blob(40_000))
        assert _dirty_ranges(chunks, list(chunks)) == []

    def test_edit_is_localised_and_covered(self):
        data = _blob(60_000)
        edited = bytearray(data)
        edited[33_333] ^= 0x5A
        dirty = _dirty_ranges(self._chunked(data), self._chunked(bytes(edited)))
        assert dirty is not None and dirty
        assert any(s <= 33_333 < e for s, e in dirty)
        total = sum(e - s for s, e in dirty)
        assert total < len(data) // 2, "edit should stay localised"

    def test_length_change_returns_none(self):
        data = _blob(40_000)
        assert _dirty_ranges(
            self._chunked(data), self._chunked(data[:-1000])
        ) is None


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
        raw = demo_instrumented.elf
        text = read_elf(raw).text_sections[0]
        pipeline = self._drive(raw, range(0, len(raw), 97))
        scan = pipeline.finish()
        assert scan is not None
        rebuilt = StreamScan.from_instructions(scan.code, scan.instructions)
        assert scan.by_offset == rebuilt.by_offset
        assert scan.branch_idx == rebuilt.branch_idx
        assert scan.term_idx == rebuilt.term_idx
        assert _tokens(scan.direct_calls) == _tokens(rebuilt.direct_calls)
        assert scan.indirect_idx == rebuilt.indirect_idx
        assert scan.bundle_violation == rebuilt.bundle_violation
        assert scan.n_bytes == rebuilt.n_bytes

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
        assert not pipeline.instructions


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


class TestDeltaScan:
    def _index_for(self, text: bytes, boundaries: list[int]) -> DeltaIndex:
        scan = StreamScan.from_instructions(
            text, list(iter_decode(text, 0, len(text)))
        )
        return build_delta_index(DeltaIndex(), text, scan, boundaries)

    def test_identity_reuses_indexed_artifacts(self, demo_instrumented):
        img = read_elf(demo_instrumented.elf)
        text = img.text_sections[0]
        bounds = sorted(
            s.value - text.vaddr for s in img.function_symbols()
        )
        index = self._index_for(text.data, bounds)
        scan = delta_scan(index, text.data)
        assert scan is not None
        assert scan.instructions is index.instructions
        assert scan.chunks is index.chunks

    def test_one_byte_flip_splices_to_full_decode(self, demo_instrumented):
        img = read_elf(demo_instrumented.elf)
        text = img.text_sections[0]
        bounds = sorted(
            s.value - text.vaddr for s in img.function_symbols()
        )
        index = self._index_for(text.data, bounds)
        # flip a displacement/immediate byte so the edit keeps decoding:
        # find a mov with a >= 4-byte immediate and perturb its last byte
        target = None
        for insn in iter_decode(text.data, 0, len(text.data)):
            if (insn.mnemonic == "mov" and insn.target is None
                    and insn.num_immediate_bytes >= 4):
                target = insn
                break
        assert target is not None, "demo program must contain a mov imm32"
        mutated = bytearray(text.data)
        mutated[target.offset + target.length - 1] ^= 0x5A
        mutated = bytes(mutated)
        scan = delta_scan(index, mutated)
        if scan is None:
            pytest.skip("chunking did not re-align on this text; fallback path")
        assert _tokens(scan.instructions) == _tokens(
            iter_decode(mutated, 0, len(mutated))
        )

    def test_length_change_falls_back(self, demo_instrumented):
        img = read_elf(demo_instrumented.elf)
        text = img.text_sections[0]
        bounds = sorted(
            s.value - text.vaddr for s in img.function_symbols()
        )
        index = self._index_for(text.data, bounds)
        assert delta_scan(index, text.data[:-16]) is None

    def test_unpopulated_index_falls_back(self):
        assert delta_scan(DeltaIndex(), b"\x90" * 64) is None


# --------------------------------------------------------------------------
# Delta provisioning and fault injection through the provider
# --------------------------------------------------------------------------


class TestDeltaProvisioning:
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

    def test_delta_run_matches_cold_run(
        self, monkeypatch, all_policies, demo_instrumented
    ):
        """v2 after v1 rides the delta index; v2 on a provider that has
        never seen the label is inspected cold.  Same report bytes, same
        per-phase meter charges."""
        from repro.core import provisioning as prov_module

        v1 = demo_instrumented.elf
        v2 = self._v2_one_immediate_flipped(v1)
        spliced = []

        def spy(index, text):
            scan = st.delta_scan(index, text)
            spliced.append(scan)
            return scan

        monkeypatch.setattr(prov_module, "delta_scan", spy)
        warm = small_provider(all_policies)
        assert provision(warm, EnclaveClient(v1, policies=all_policies)).accepted
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
        """After an ACCEPT of v1, provisioning a *different* (and
        non-compliant) binary under the same benchmark label must be
        re-inspected and rejected — never served a stale verdict."""
        provider = small_provider(all_policies)
        first = provision(provider, EnclaveClient(
            demo_instrumented.elf, policies=all_policies,
        ))
        assert first.accepted
        second = provision(provider, EnclaveClient(
            demo_plain.elf, policies=all_policies,
        ))
        assert not second.accepted
        assert second.report.policies_failed


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
