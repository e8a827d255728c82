"""Protocol edge cases and error paths in provisioning."""

from __future__ import annotations

import struct

import pytest

from repro.core import EnclaveClient, PolicyRegistry, provision
from repro.core.provisioning import _CONTENT_HEADER, ResilienceConfig
from repro.crypto import channel as channel_module
from repro.errors import OverrunError, ProtocolError
from repro.faults import FakeClock
from repro.net import SocketPair
from tests.conftest import small_provider


class _OverSender(EnclaveClient):
    """Announces 4 KiB, then sends twenty 64 KiB records."""

    retransmits = 0

    def send_content(self):
        self.channel.send(_CONTENT_HEADER.pack(4096, 20))
        for _ in range(20):
            self.channel.send(bytes(64 * 1024))

    def retransmit(self, from_seq):
        self.retransmits += 1
        return super().retransmit(from_seq)


class TestContentFraming:
    def _session_with_channel(self, all_policies, payload_builder):
        provider = small_provider(all_policies)
        pair = SocketPair()
        session = provider.start_session(pair.right)
        from repro.crypto import HmacDrbg
        from repro.crypto.channel import client_handshake

        channel, _ = client_handshake(pair.left, HmacDrbg(b"c"))
        payload_builder(channel)
        return provider, session

    def test_truncated_content_rejected(self, all_policies):
        def build(channel):
            channel.send(_CONTENT_HEADER.pack(1000, 2))
            channel.send(b"x" * 100)  # announces 1000, sends 100 in 1 record
            channel.send(b"")

        provider, session = self._session_with_channel(all_policies, build)
        with pytest.raises(ProtocolError, match="truncated"):
            provider.run_engarde(session)

    def test_oversized_announcement_rejected(self, all_policies):
        def build(channel):
            channel.send(_CONTENT_HEADER.pack(1 << 40, 1))

        provider, session = self._session_with_channel(all_policies, build)
        with pytest.raises(ProtocolError, match="sane"):
            provider.run_engarde(session)

    def test_malformed_header_rejected(self, all_policies):
        def build(channel):
            channel.send(b"tiny")

        provider, session = self._session_with_channel(all_policies, build)
        with pytest.raises(ProtocolError, match="header"):
            provider.run_engarde(session)

    def test_more_records_than_bytes_rejected(self, all_policies):
        def build(channel):
            channel.send(_CONTENT_HEADER.pack(10, 11))

        provider, session = self._session_with_channel(all_policies, build)
        with pytest.raises(ProtocolError, match="11 records for 10 bytes"):
            provider.run_engarde(session)

    def test_oversend_fails_before_the_buffer_grows(
        self, all_policies, monkeypatch
    ):
        """Content past the announced size fails on the first record that
        would overrun it, before that record is written."""
        buffers = []
        original = channel_module.ctr_xor_into

        def spy(cipher, nonce, data, out, offset, **kwargs):
            n = original(cipher, nonce, data, out, offset, **kwargs)
            buffers.append(len(out))
            return n

        monkeypatch.setattr(channel_module, "ctr_xor_into", spy)

        def build(channel):
            channel.send(_CONTENT_HEADER.pack(4096, 3))
            for _ in range(3):
                channel.send(b"y" * 2048)

        provider, session = self._session_with_channel(all_policies, build)
        with pytest.raises(OverrunError, match="content overrun"):
            provider.run_engarde(session)
        # the header and two records were written; the third never was
        assert buffers == [_CONTENT_HEADER.size, 4096, 4096]
        assert session.channel.expected_recv_seq == 4

    def test_resilient_oversend_is_a_typed_reject(
        self, all_policies, demo_instrumented
    ):
        provider = small_provider(all_policies)
        client = _OverSender(demo_instrumented.elf, policies=all_policies)
        result = provision(
            provider, client,
            resilience=ResilienceConfig(clock=FakeClock()),
        )
        assert not result.accepted
        assert result.report.rejected_stage == "protocol"
        assert result.error.startswith("OverrunError: content overrun")
        assert client.retransmits == 0  # the peer's own bytes: no ARQ

    def test_finalize_before_run_rejected(self, all_policies):
        provider = small_provider(all_policies)
        pair = SocketPair()
        session = provider.start_session(pair.right)
        with pytest.raises(ProtocolError):
            provider.finalize(session)


class TestClientStates:
    def test_send_before_channel(self, all_policies, demo_plain):
        client = EnclaveClient(demo_plain.elf, policies=all_policies)
        with pytest.raises(ProtocolError):
            client.send_content()
        with pytest.raises(ProtocolError):
            client.receive_verdict()

    def test_challenge_is_fresh(self, all_policies, demo_plain):
        client = EnclaveClient(demo_plain.elf, policies=all_policies)
        assert client.challenge() != client.challenge()


class TestResourceSizing:
    def test_image_too_big_for_client_region(self, all_policies,
                                             demo_instrumented):
        provider = small_provider(all_policies, client_pages=4)
        client = EnclaveClient(demo_instrumented.elf, policies=all_policies)
        result = provision(provider, client)
        assert not result.accepted
        assert result.report.rejected_stage == "load"

    def test_trampolines_counted(self, all_policies, demo_instrumented):
        provider = small_provider(all_policies)
        client = EnclaveClient(demo_instrumented.elf, policies=all_policies)
        provision(provider, client)
        # at minimum: socket registration + content records + buffer mallocs
        # all exited/re-entered the enclave
        runtime_list = list(provider.host.runtimes.values())
        assert runtime_list[0].trampoline_calls > 3


class TestPerInsnMallocProvider:
    def test_ablation_config_costs_more(self, all_policies, demo_instrumented):
        def total_cycles(per_insn):
            provider = small_provider(all_policies, per_insn_malloc=per_insn)
            client = EnclaveClient(demo_instrumented.elf, policies=all_policies)
            result = provision(provider, client)
            assert result.accepted
            return result.meter.phase_cycles("disassembly")

        assert total_cycles(True) > 2 * total_cycles(False)
