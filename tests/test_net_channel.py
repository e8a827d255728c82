"""Simulated sockets and the authenticated provisioning channel."""

from __future__ import annotations

import pytest

from repro.crypto import HmacDrbg, generate_keypair
from repro.crypto.channel import SecureChannel, ServerHandshake, client_handshake
from repro.errors import CryptoError, NetError, ProtocolError
from repro.net import SimSocket, SocketPair


class TestSimSocket:
    def test_send_recv(self):
        pair = SocketPair()
        pair.left.send(b"hello")
        assert pair.right.recv() == b"hello"

    def test_fifo_order(self):
        pair = SocketPair()
        for i in range(5):
            pair.left.send(bytes([i]))
        assert [pair.right.recv() for _ in range(5)] == [bytes([i]) for i in range(5)]

    def test_duplex(self):
        pair = SocketPair()
        pair.left.send(b"ping")
        pair.right.send(b"pong")
        assert pair.right.recv() == b"ping"
        assert pair.left.recv() == b"pong"

    def test_recv_empty_raises(self):
        pair = SocketPair()
        with pytest.raises(NetError):
            pair.left.recv()

    def test_closed_socket(self):
        pair = SocketPair()
        pair.left.close()
        with pytest.raises(NetError):
            pair.left.send(b"x")
        with pytest.raises(NetError):
            pair.right.send(b"x")  # peer closed

    def test_byte_accounting(self):
        pair = SocketPair()
        pair.left.send(b"12345")
        pair.right.recv()
        assert pair.left.bytes_sent == 4 + 5  # length prefix + body
        assert pair.right.bytes_received == 9

    def test_pending(self):
        pair = SocketPair()
        assert pair.right.pending() == 0
        pair.left.send(b"a")
        pair.left.send(b"b")
        assert pair.right.pending() == 2

    def test_oversized_frame(self):
        pair = SocketPair()
        with pytest.raises(NetError):
            pair.left.send(b"x" * (64 * 1024 * 1024 + 1))


def _handshake(rsa_bits=512, fingerprint_check=True):
    pair = SocketPair()
    hs = ServerHandshake(pair.right, HmacDrbg(b"srv"), rsa_bits=rsa_bits)
    keypair = hs.send_public_key()
    expected = keypair.public_key.fingerprint() if fingerprint_check else None
    cli, _pub = client_handshake(
        pair.left, HmacDrbg(b"cli"), expected_fingerprint=expected
    )
    srv = hs.complete()
    return cli, srv, pair


class TestHandshake:
    def test_establishes_channel(self):
        cli, srv, _ = _handshake()
        cli.send(b"content block")
        assert srv.recv() == b"content block"
        srv.send(b"verdict")
        assert cli.recv() == b"verdict"

    def test_complete_before_send_rejected(self):
        pair = SocketPair()
        hs = ServerHandshake(pair.right, HmacDrbg(b"s"), rsa_bits=512)
        with pytest.raises(ProtocolError):
            hs.complete()

    def test_double_send_rejected(self):
        pair = SocketPair()
        hs = ServerHandshake(pair.right, HmacDrbg(b"s"), rsa_bits=512)
        hs.send_public_key()
        with pytest.raises(ProtocolError):
            hs.send_public_key()

    def test_fingerprint_mismatch_detected(self):
        # A man-in-the-middle provider substituting its own key is caught
        # because the client pins the fingerprint from the attestation quote.
        pair = SocketPair()
        hs = ServerHandshake(pair.right, HmacDrbg(b"srv"), rsa_bits=512)
        hs.send_public_key()
        other = generate_keypair(512, HmacDrbg(b"mitm"))
        with pytest.raises(ProtocolError):
            client_handshake(
                pair.left, HmacDrbg(b"cli"),
                expected_fingerprint=other.public_key.fingerprint(),
            )

    @pytest.mark.parametrize("body", [b"", b"\x00\x01\x00\x01"])
    def test_short_public_key_message_is_a_protocol_error(self, body):
        """A public-key message too short for its (e, n_len) header is a
        typed rejection, not a ``struct.error``."""
        pair = SocketPair()
        pair.right.send(b"EG-PUBKEY" + body)
        with pytest.raises(ProtocolError, match="malformed public-key"):
            client_handshake(pair.left, HmacDrbg(b"cli"))

    def test_preprovided_keypair(self):
        keypair = generate_keypair(512, HmacDrbg(b"pre"))
        pair = SocketPair()
        hs = ServerHandshake(pair.right, HmacDrbg(b"srv"), keypair=keypair)
        assert hs.send_public_key() is keypair


class TestSecureChannel:
    def test_record_roundtrip_various_sizes(self):
        cli, srv, _ = _handshake()
        for size in (0, 1, 15, 16, 17, 4096, 70000):
            cli.send(b"q" * size)
            assert srv.recv() == b"q" * size

    def test_tampered_record_rejected(self):
        cli, srv, pair = _handshake()
        cli.send(b"sensitive")
        frame = bytearray(pair.right._inbox[0])
        frame[len(frame) // 2] ^= 0x01
        pair.right._inbox[0] = bytes(frame)
        with pytest.raises((CryptoError, NetError)):
            srv.recv()

    def test_replay_rejected(self):
        cli, srv, pair = _handshake()
        cli.send(b"block")
        raw = pair.right._inbox[0]
        srv.recv()
        pair.right._inbox.append(raw)  # replay the same record
        with pytest.raises(CryptoError):
            srv.recv()

    def test_reflection_rejected(self):
        # A record sent client->server cannot be decrypted as server->client.
        cli, srv, pair = _handshake()
        cli.send(b"block")
        frame = pair.right._inbox.popleft()
        pair.left._inbox.append(frame)
        with pytest.raises(CryptoError):
            cli.recv()

    def test_ciphertext_hides_plaintext(self):
        cli, srv, pair = _handshake()
        secret = b"SECRET-CLIENT-CODE" * 10
        cli.send(secret)
        wire = bytes(pair.right._inbox[0])
        assert secret not in wire
        assert srv.recv() == secret

    def test_wrong_session_key_fails(self):
        cli, _, _ = _handshake()
        other_srv_sock = SocketPair()
        bad = SecureChannel(other_srv_sock.left, b"\x00" * 32, is_server=True)
        cli.send(b"data")
        # ciphertexts produced under different keys are not interchangeable
        with pytest.raises((CryptoError, NetError)):
            bad.recv()
