"""Protocol battery for the inspection daemon.

Hostile and broken clients: truncated frames, oversized lengths, bad
magic/version bytes, out-of-order verbs, mid-handshake disconnects,
garbage key-wraps, and seeded fault plans firing inside the daemon's
own read/write paths.  Everything must surface as a typed error (the
chaos oracle's ``ExcName: detail`` shape) or a clean close — never a
hang, never a false ACCEPT.
"""

from __future__ import annotations

import re
import struct
import time

import pytest

from repro.core import EnGarde
from repro.core.provisioning import ResilienceConfig
from repro.crypto import HmacDrbg, generate_keypair
from repro.errors import NetError
from repro.faults.chaos import _TYPED_ERROR
from repro.faults.clock import FakeClock
from repro.faults.hooks import injected
from repro.faults.plan import FaultPlan
from repro.service import generate_variant_corpus
from repro.service import protocol as proto

from tests.conftest import daemon_client, small_daemon

CORPUS_SIZE = 8
#: any single negative-path exchange must finish well inside this
MAX_WALL_SECONDS = 30.0


@pytest.fixture(scope="module")
def corpus(libc):
    return generate_variant_corpus(CORPUS_SIZE, libc=libc)


@pytest.fixture(scope="module")
def baseline(corpus, all_policies):
    engarde = EnGarde(all_policies)
    return {
        label: engarde.inspect(raw, benchmark=label).report.serialize()
        for label, raw in corpus
    }


@pytest.fixture()
def daemon(all_policies):
    d = small_daemon(all_policies, read_timeout=2.0)
    yield d
    d.stop()


def _expect_typed_error(sock, pattern: str) -> tuple[str, str]:
    """The daemon must answer with ``ERROR`` carrying a typed message."""
    rtype, body = proto.decode_message(sock.recv())
    assert rtype == proto.T_ERROR, proto.MESSAGE_TYPES.get(rtype)
    stage, error = proto.decode_error(body)
    assert _TYPED_ERROR.match(error), error
    assert re.search(pattern, error), (pattern, error)
    return stage, error


def _expect_channel_error(channel, pattern: str) -> str:
    """The daemon must answer an authenticated typed ERROR on the channel."""
    rtype, body = proto.decode_message(channel.recv())
    assert rtype == proto.T_ERROR, proto.MESSAGE_TYPES.get(rtype)
    _, error = proto.decode_error(body)
    assert _TYPED_ERROR.match(error), error
    assert re.search(pattern, error), (pattern, error)
    return error


def _await_cleanup(daemon, *, timeout: float = 10.0) -> None:
    """The connection must be reaped and its pool entry returned."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with daemon._conn_lock:
            live = len(daemon._connections)
        if live == 0 and daemon.pool.stats()["available"] >= daemon.pool.size:
            return
        time.sleep(0.02)
    raise AssertionError("daemon failed to reap a broken connection")


class TestMalformedFrames:
    def test_truncated_header(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(b"EG")
        _expect_typed_error(sock, "truncated message")
        _await_cleanup(daemon)

    def test_bad_magic(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(b"XX" + bytes([proto.PROTOCOL_VERSION, proto.T_HELLO])
                  + struct.pack(">I", 0))
        _expect_typed_error(sock, "bad magic")

    def test_version_skew(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(b"EG" + bytes([proto.PROTOCOL_VERSION + 1, proto.T_HELLO])
                  + struct.pack(">I", 0))
        _expect_typed_error(sock, "unsupported protocol version")

    def test_unknown_verb(self, daemon):
        # 0x07/0x08/0x87/0x88 are the retired streamed-submit codes
        for mtype in (0x6F, 0x07, 0x08, 0x87, 0x88):
            sock = daemon.connect_inproc(timeout=5.0)
            sock.send(b"EG" + bytes([proto.PROTOCOL_VERSION, mtype])
                      + struct.pack(">I", 0))
            _expect_typed_error(sock, "unknown message type")

    def test_oversized_declared_length(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(b"EG" + bytes([proto.PROTOCOL_VERSION, proto.T_SUBMIT])
                  + struct.pack(">I", proto.MAX_BODY + 1) + b"tiny")
        _expect_typed_error(sock, "exceeds protocol limit")

    def test_header_body_length_mismatch(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        # declares 64 body bytes, carries 3 — a frame truncated in transit
        sock.send(b"EG" + bytes([proto.PROTOCOL_VERSION, proto.T_HELLO])
                  + struct.pack(">I", 64) + b"abc")
        _expect_typed_error(sock, "length mismatch")

    def test_trailing_garbage_after_body(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(proto.encode_message(proto.T_HELLO) + b"\x00garbage")
        _expect_typed_error(sock, "length mismatch")

    def test_oversized_frame_rejected_by_transport(self, daemon):
        from repro.net.sock import MAX_MESSAGE

        sock = daemon.connect_inproc(timeout=5.0)
        with pytest.raises(NetError, match="exceeds frame limit"):
            sock.send(b"\x00" * (MAX_MESSAGE + 1))


class TestOrderliness:
    def test_submit_before_attest_is_rejected(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(proto.encode_message(
            proto.T_SUBMIT, proto.encode_submit("sneak", b"\x7fELF")
        ))
        _expect_typed_error(sock, "out-of-order SUBMIT")

    def test_response_verb_from_client_is_rejected(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(proto.encode_message(proto.T_VERDICT, b"\x00fake"))
        _expect_typed_error(sock, "protocol violation")

    def test_second_attest_inside_channel_is_rejected(
        self, daemon, all_policies
    ):
        client = daemon_client(daemon, all_policies)
        client.open()
        client._channel.send(proto.encode_message(proto.T_ATTEST, b"x" * 16))
        rtype, body = proto.decode_message(client._channel.recv())
        assert rtype == proto.T_ERROR
        _, error = proto.decode_error(body)
        assert _TYPED_ERROR.match(error)
        assert "out-of-order ATTEST" in error
        client._abandon()

    def test_unknown_verb_inside_channel_is_rejected(
        self, daemon, all_policies
    ):
        client = daemon_client(daemon, all_policies)
        client.open()
        # a retired streamed-submit code; encode_message refuses it
        client._channel.send(
            b"EG" + bytes([proto.PROTOCOL_VERSION, 0x07])
            + struct.pack(">I", 0)
        )
        _expect_channel_error(client._channel, "unknown message type")
        client._abandon()
        _await_cleanup(daemon)

    def test_bad_challenge_length_is_rejected(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(proto.encode_message(proto.T_ATTEST, b"tiny"))
        _expect_typed_error(sock, "challenge must be 8..64 bytes")
        _await_cleanup(daemon)


class TestHandshakeAbuse:
    def test_disconnect_mid_handshake_is_reaped(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(proto.encode_message(proto.T_ATTEST, b"c" * 16))
        rtype, body = proto.decode_message(sock.recv())
        assert rtype == proto.T_ATTEST_OK
        proto.quote_from_bytes(body)  # a well-formed quote came back
        assert sock.recv().startswith(b"EG-PUBKEY")
        # vanish instead of sending the key wrap
        sock.close()
        _await_cleanup(daemon)

    def test_garbage_keywrap_is_typed_error(self, daemon):
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(proto.encode_message(proto.T_ATTEST, b"c" * 16))
        rtype, _ = proto.decode_message(sock.recv())
        assert rtype == proto.T_ATTEST_OK
        sock.recv()  # server public key
        sock.send(b"EG-NOT-A-KEYWRAP" + b"\x00" * 32)
        _expect_typed_error(sock, "key-wrap")
        _await_cleanup(daemon)

    def test_silent_client_is_timed_out_not_hung(self, daemon):
        t0 = time.monotonic()
        sock = daemon.connect_inproc(timeout=5.0)
        sock.send(proto.encode_message(proto.T_ATTEST, b"c" * 16))
        proto.decode_message(sock.recv())
        sock.recv()
        # ...then say nothing: the daemon's read timeout must reap us
        _await_cleanup(daemon)
        assert time.monotonic() - t0 < MAX_WALL_SECONDS

    def test_record_garbage_inside_channel_fails_closed(
        self, daemon, all_policies
    ):
        client = daemon_client(daemon, all_policies)
        client.open()
        # raw bytes that are not a valid channel record
        client._sock.send(b"\x17\x03garbage-record")
        # daemon answers a typed error in plaintext and hangs up
        rtype, body = proto.decode_message(client._sock.recv())
        assert rtype == proto.T_ERROR
        _, error = proto.decode_error(body)
        assert _TYPED_ERROR.match(error)
        client._abandon()
        _await_cleanup(daemon)


class TestSdkVerification:
    def test_wrong_device_key_fails_closed_without_retry(
        self, daemon, all_policies, corpus
    ):
        from repro.service import InspectionClient

        impostor = generate_keypair(768, HmacDrbg(b"impostor")).public_key
        client = InspectionClient(
            all_policies, impostor, daemon.connect_inproc, timeout=5.0,
            resilience=ResilienceConfig(
                max_retransmits=3, backoff_base=0.0, clock=FakeClock()
            ),
        )
        label, raw = corpus[0]
        verdict = client.inspect(raw, label)
        assert verdict.report is None
        assert verdict.error.startswith("AttestationError:")
        # attestation failures must not burn the retry budget
        assert verdict.attempts == 1

    def test_unencodable_submit_fails_without_connecting(
        self, daemon, all_policies, corpus
    ):
        from repro.service import InspectionClient

        client = InspectionClient(
            all_policies, daemon.pool.quoting_enclave.device_public_key,
            daemon.connect_inproc, timeout=5.0,
            resilience=ResilienceConfig(
                max_retransmits=3, backoff_base=0.0, clock=FakeClock()
            ),
        )
        _, raw = corpus[0]
        verdict = client.inspect(raw, "x" * 70_000)
        assert verdict.report is None
        assert verdict.error.startswith("ProtocolError:")
        assert "label exceeds" in verdict.error
        # retrying cannot shrink the label: no connection, no attestation
        assert verdict.attempts == 0
        assert daemon.metrics.get("connections.opened") == 0
        assert daemon.metrics.get("requests.ATTEST") == 0

    def test_policy_digest_mismatch_fails_closed(self, daemon, libc, corpus):
        from repro.core import PolicyRegistry
        from repro.harness.runner import make_policy
        from repro.service import InspectionClient

        other = PolicyRegistry([make_policy("stack-protection", libc)])
        client = InspectionClient(
            other, daemon.pool.quoting_enclave.device_public_key,
            daemon.connect_inproc, timeout=5.0,
        )
        label, raw = corpus[0]
        verdict = client.inspect(raw, label)
        assert verdict.report is None
        assert _TYPED_ERROR.match(verdict.error)
        assert "policy digest mismatch" in verdict.error


class TestSeededFaultPlans:
    """The daemon's accept/read/write paths under the 12-hook vocabulary.

    Per seed: a randomized plan armed over the socket, channel, and
    batch hook sites while an SDK client walks the corpus.  The oracle
    is ``run_soak``'s: every outcome is either byte-identical to the
    clean serial baseline or a typed error — and the pass stays inside
    a hard wall bound.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_seeded_plan_yields_typed_outcomes_only(
        self, daemon, all_policies, corpus, baseline, seed
    ):
        plan = FaultPlan.randomized(
            seed=seed,
            hooks=(
                "net.sock.send", "net.sock.recv",
                "crypto.channel.send", "crypto.channel.recv",
                "core.provisioning.handshake",
                "service.batch.worker", "service.batch.verdict",
            ),
            n_specs=6,
            probability=0.3,
            clock=FakeClock(),
            hang_seconds=30.0,
        )
        client = daemon_client(
            daemon, all_policies, timeout=1.0,
            resilience=ResilienceConfig(
                max_retransmits=2, backoff_base=0.0, clock=FakeClock()
            ),
        )
        t0 = time.monotonic()
        with injected(plan):
            outcomes = [
                (label, client.inspect(raw, label)) for label, raw in corpus
            ]
            client.close()
        assert time.monotonic() - t0 < MAX_WALL_SECONDS, "protocol hang"
        for label, v in outcomes:
            if v.report is not None:
                assert v.wire == baseline[label], label  # no corruption
            else:
                assert v.error is not None
                assert _TYPED_ERROR.match(v.error), (label, v.error)
        # after the storm the daemon still serves clean clients
        clean = daemon_client(daemon, all_policies)
        label, raw = corpus[0]
        verdict = clean.inspect(raw, label)
        assert verdict.wire == baseline[label]
        clean.close()


class TestStoreSchemaPins:
    """Every daemon carries the ``store`` schema, zeroed when storeless.

    The ``ZERO_RESILIENCE`` pattern: STATUS/METRICS consumers never
    branch on key presence — a daemon without a verdict store reports
    exactly ``ZERO_STORE``, and a daemon whose cache is a
    ``TieredCache`` reports the same key set with live values.
    """

    def test_storeless_daemon_reports_zero_store(self, daemon):
        from repro.service.store import ZERO_STORE

        for doc in (daemon.status(), daemon.metrics_snapshot()):
            assert doc["store"] == ZERO_STORE
            assert "shard" not in doc
            assert "verdict_cache" not in doc

    def test_zero_store_schema_is_pinned(self):
        from repro.service.store import ZERO_STORE

        assert set(ZERO_STORE) == {
            "attached", "path", "blobs", "hits", "misses", "puts",
            "corrupt_discarded", "recovered", "recovery_discarded",
            "compacted",
        }
        assert ZERO_STORE["attached"] is False

    def test_tiered_cache_daemon_keeps_the_same_key_set(
        self, all_policies, tmp_path
    ):
        from repro.service import TieredCache, VerdictStore
        from repro.service.store import ZERO_STORE

        store_dir = tmp_path / "store"
        daemon = small_daemon(
            all_policies,
            cache=TieredCache(VerdictStore(store_dir, fsync=False), 16),
        )
        try:
            for doc in (daemon.status(), daemon.metrics_snapshot()):
                assert set(doc["store"]) == set(ZERO_STORE)
                assert doc["store"]["attached"] is True
                assert doc["store"]["path"] == str(store_dir)
                assert "shard" not in doc
                assert "verdict_cache" not in doc
        finally:
            daemon.stop()
