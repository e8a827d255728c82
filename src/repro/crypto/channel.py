"""The provisioning channel: RSA key exchange + authenticated AES transport.

Mirrors the protocol in the paper (section 3, "Overall Design"):

1. The bootstrap code in the fresh enclave generates an RSA key pair and
   sends the public key to the client (its fingerprint is also embedded in
   the attestation quote, binding the key to the measured enclave).
2. The client generates a 256-bit AES session key, encrypts it under the
   enclave's public key, and sends it back.
3. All subsequent content flows as encrypted blocks.  We use AES-CTR with
   an HMAC-SHA256 tag per record (encrypt-then-MAC) and a strictly
   monotonic sequence number, giving the "encrypted, authenticated channel"
   the paper requires.

Both endpoints share the :class:`SecureChannel` record layer; the handshake
helpers :func:`server_handshake` / :func:`client_handshake` run the key
exchange over a :class:`~repro.net.SimSocket`.

The record layer holds per-direction expanded AES schedules and HMAC
midstates for the whole session and assembles records from memoryviews.
Its records decrypt and verify under the frozen :mod:`repro.crypto.ref`
oracles (``tests/test_crypto_fastpath.py``).
"""

from __future__ import annotations

import struct
from collections import deque

from ..errors import CryptoError, OverrunError, ProtocolError
from ..faults.hooks import DROP, fault_hook
from ..net import SimSocket
from .aes import _MEMO_MIN_BLOCKS, Aes, ctr_xor, ctr_xor_into
from .mac import HmacDrbg, HmacKey, constant_time_eq, hmac_sha256
from .rsa import RsaPrivateKey, RsaPublicKey, generate_keypair

__all__ = [
    "SecureChannel",
    "ServerHandshake",
    "client_handshake",
    "AES_KEY_SIZE",
    "DEFAULT_RSA_BITS",
]

AES_KEY_SIZE = 32  # 256-bit AES, as in the paper
DEFAULT_RSA_BITS = 2048
TAG_SIZE = 32
_HDR = struct.Struct(">QI")  # sequence number, payload length

# Key-exchange message types.
_MSG_PUBKEY = b"EG-PUBKEY"
_MSG_KEYWRAP = b"EG-KEYWRAP"


class SecureChannel:
    """Authenticated-encryption record layer over a :class:`SimSocket`.

    Each direction derives its own AES-CTR nonce and MAC key from the
    session key, so records cannot be reflected back to their sender.
    """

    #: payloads kept for :meth:`resend_from` (bounds retransmit memory)
    RESEND_WINDOW = 64

    def __init__(
        self,
        sock: SimSocket,
        session_key: bytes,
        *,
        is_server: bool,
    ) -> None:
        if len(session_key) != AES_KEY_SIZE:
            raise CryptoError(f"session key must be {AES_KEY_SIZE} bytes")
        self._sock = sock
        self._send_seq = 0
        self._recv_seq = 0
        #: (seq, plaintext payload) of the most recent sends
        self._sent_window: deque[tuple[int, bytes]] = deque(maxlen=self.RESEND_WINDOW)
        send_label, recv_label = (b"srv->cli", b"cli->srv") if is_server else (b"cli->srv", b"srv->cli")
        self._send_nonce = hmac_sha256(session_key, b"nonce" + send_label)[:8]
        self._recv_nonce = hmac_sha256(session_key, b"nonce" + recv_label)[:8]
        # Session-lifetime cipher state: expanded AES schedules and HMAC
        # midstates per direction.
        self._send_aes = Aes.for_key(hmac_sha256(session_key, b"enc" + send_label))
        self._recv_aes = Aes.for_key(hmac_sha256(session_key, b"enc" + recv_label))
        self._send_hmac = HmacKey(hmac_sha256(session_key, b"mac" + send_label))
        self._recv_hmac = HmacKey(hmac_sha256(session_key, b"mac" + recv_label))

    # Each record gets a disjoint CTR-counter window: 2**20 blocks (16 MiB)
    # per sequence number, far above the socket frame limit per record.
    _CTR_WINDOW = 1 << 20

    def send(self, payload: bytes) -> None:
        """Encrypt, authenticate, and transmit one record."""
        self._sent_window.append((self._send_seq, payload))
        self._transmit(self._send_seq, payload)
        self._send_seq += 1

    def warm_send_keystream(self, lengths) -> None:
        """Precompute the CTR keystream for the next ``len(lengths)`` sends.

        *lengths* are upcoming payload sizes in order.  One columnar batch
        pass covers the whole stream; the per-record keystreams land in the
        process-wide memo where this channel's sends, the peer's receives,
        and any ARQ retransmit pick them up.
        """
        ranges = []
        seq = self._send_seq
        for i, length in enumerate(lengths):
            nblocks = -(-int(length) // 16)
            if nblocks >= _MEMO_MIN_BLOCKS:
                ranges.append(((seq + i) * self._CTR_WINDOW, nblocks))
        if ranges:
            self._send_aes.warm_ctr_ranges(self._send_nonce, ranges)

    def _transmit(self, seq: int, payload) -> None:
        header = _HDR.pack(seq, len(payload))
        ciphertext = ctr_xor(
            self._send_aes, self._send_nonce, payload,
            initial_counter=seq * self._CTR_WINDOW,
        )
        tag = self._send_hmac.mac(header, ciphertext)
        record = fault_hook(
            "crypto.channel.send", b"".join((header, ciphertext, tag)),
            error=CryptoError,
        )
        if record is DROP:
            return  # the record vanished in transit; the peer fails closed
        self._sock.send(record)

    def resend_from(self, seq: int) -> int:
        """Re-encrypt and re-transmit every buffered record from *seq* on.

        The retransmit half of the provisioning ARQ: a record re-encrypted
        under its original sequence number is byte-identical (CTR stream
        and MAC are functions of the sequence number), so replaying the
        window is safe.  Raises :class:`CryptoError` when *seq* has
        already slid out of the bounded window.  Returns the number of
        records re-sent.
        """
        if seq >= self._send_seq:
            return 0
        buffered = [entry for entry in self._sent_window if entry[0] >= seq]
        if not buffered or buffered[0][0] != seq:
            raise CryptoError(
                f"cannot retransmit from seq {seq}: outside the "
                f"{self.RESEND_WINDOW}-record resend window"
            )
        for record_seq, payload in buffered:
            self._transmit(record_seq, payload)
        return len(buffered)

    @property
    def expected_recv_seq(self) -> int:
        """The sequence number the next :meth:`recv` will insist on."""
        return self._recv_seq

    def drain_pending(self) -> int:
        """Flush queued frames after a broken record (pre-retransmit)."""
        return self._sock.drain()

    def recv(self) -> bytes:
        """Receive, verify, and decrypt one record."""
        seq, ciphertext = self._open_record()
        return ctr_xor(
            self._recv_aes, self._recv_nonce, ciphertext,
            initial_counter=seq * self._CTR_WINDOW,
        )

    def recv_into(self, out: bytearray, offset: int) -> int:
        """:meth:`recv` decrypting straight into *out* at *offset*.

        The provisioning receive loop preallocates one buffer for the
        announced content size and lands every record's plaintext in place,
        so the per-record path does zero redundant copies.  Wire handling
        (fault hook, sequence, MAC and length checks) is the same as
        :meth:`recv`.  A verified record that would run past the end of
        *out* raises :class:`OverrunError` before anything is written.
        Returns the payload length.
        """
        seq, ciphertext = self._open_record()
        if offset + len(ciphertext) > len(out):
            raise OverrunError(
                f"content overrun: a {len(ciphertext)}-byte record at offset "
                f"{offset} runs past the {len(out)}-byte receive buffer"
            )
        return ctr_xor_into(
            self._recv_aes, self._recv_nonce, ciphertext, out, offset,
            initial_counter=seq * self._CTR_WINDOW,
        )

    def _open_record(self) -> tuple[int, memoryview]:
        """Take one record off the socket and verify it.

        Returns ``(seq, ciphertext)``; the header and tag are checked from
        memoryviews against the session-lifetime HMAC midstate.
        """
        record = fault_hook("crypto.channel.recv", self._sock.recv(),
                            error=CryptoError)
        if record is DROP:
            raise CryptoError(
                "[fault:crypto.channel.recv:drop] record lost before receipt"
            )
        if len(record) < _HDR.size + TAG_SIZE:
            raise CryptoError("record too short")
        view = memoryview(record)
        header = view[:_HDR.size]
        ciphertext = view[_HDR.size:-TAG_SIZE]
        tag = view[-TAG_SIZE:]
        seq, length = _HDR.unpack(header)
        if seq != self._recv_seq:
            raise CryptoError(f"bad sequence number: expected {self._recv_seq}, got {seq}")
        expected = self._recv_hmac.mac(header, ciphertext)
        if not constant_time_eq(tag, expected):
            raise CryptoError("record MAC verification failed")
        if length != len(ciphertext):
            raise CryptoError("record length mismatch")
        self._recv_seq += 1
        return seq, ciphertext


class ServerHandshake:
    """Enclave-side handshake, split into two phases.

    The simulation is single-threaded and protocol-driven, so the enclave
    first *sends* its public key (:meth:`send_public_key`), control returns
    to the client which wraps the session key, and the enclave then
    *completes* (:meth:`complete`) by unwrapping it:

    >>> hs = ServerHandshake(enclave_sock, rng, rsa_bits=512)   # doctest: +SKIP
    >>> keypair = hs.send_public_key()                          # doctest: +SKIP
    >>> channel, _ = client_handshake(client_sock, client_rng)  # doctest: +SKIP
    >>> enclave_channel = hs.complete()                         # doctest: +SKIP
    """

    def __init__(
        self,
        sock: SimSocket,
        rng: HmacDrbg,
        *,
        rsa_bits: int = DEFAULT_RSA_BITS,
        keypair: RsaPrivateKey | None = None,
    ) -> None:
        self._sock = sock
        self._rng = rng
        self._rsa_bits = rsa_bits
        self._keypair = keypair
        self._sent = False

    def send_public_key(self) -> RsaPrivateKey:
        """Phase 1: generate (if needed) and transmit the ephemeral key.

        Returns the private key so the caller can embed its public
        fingerprint in the attestation quote.
        """
        if self._sent:
            raise ProtocolError("public key already sent")
        if self._keypair is None:
            self._keypair = generate_keypair(self._rsa_bits, self._rng)
        pub = self._keypair.public_key
        n_bytes = pub.n.to_bytes(pub.size_bytes, "big")
        self._sock.send(_MSG_PUBKEY + struct.pack(">II", pub.e, len(n_bytes)) + n_bytes)
        self._sent = True
        return self._keypair

    def complete(self) -> SecureChannel:
        """Phase 2: receive the wrapped AES key and build the record layer."""
        if not self._sent:
            raise ProtocolError("must send the public key before completing")
        wrapped = self._sock.recv()
        if not wrapped.startswith(_MSG_KEYWRAP):
            raise ProtocolError("expected key-wrap message")
        assert self._keypair is not None
        session_key = self._keypair.decrypt(wrapped[len(_MSG_KEYWRAP):])
        if len(session_key) != AES_KEY_SIZE:
            raise ProtocolError(
                f"unwrapped session key has wrong size {len(session_key)}"
            )
        return SecureChannel(self._sock, session_key, is_server=True)


def client_handshake(
    sock: SimSocket,
    rng: HmacDrbg,
    *,
    expected_fingerprint: bytes | None = None,
) -> tuple[SecureChannel, RsaPublicKey]:
    """Client-side handshake: receive the enclave key, wrap a fresh AES key.

    When *expected_fingerprint* is given (taken from a verified attestation
    quote), the received public key must match it — this is the binding that
    stops the cloud provider from inserting itself in the middle.
    """
    hello = sock.recv()
    if not hello.startswith(_MSG_PUBKEY):
        raise ProtocolError("expected public-key message")
    body = hello[len(_MSG_PUBKEY):]
    if len(body) < 8:
        raise ProtocolError("malformed public-key message")
    e, n_len = struct.unpack_from(">II", body)
    if len(body) != 8 + n_len:
        raise ProtocolError("malformed public-key message")
    n = int.from_bytes(body[8:], "big")
    pub = RsaPublicKey(n=n, e=e)
    if expected_fingerprint is not None and pub.fingerprint() != expected_fingerprint:
        raise ProtocolError("enclave public key does not match attested fingerprint")

    session_key = rng.generate(AES_KEY_SIZE)
    sock.send(_MSG_KEYWRAP + pub.encrypt(session_key, rng))
    return SecureChannel(sock, session_key, is_server=False), pub
