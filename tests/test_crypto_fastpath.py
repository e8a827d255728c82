"""The optimized crypto data plane vs the frozen reference oracles.

The provisioning overhaul (docs/PERFORMANCE.md, "Provisioning data
plane") rebuilt AES-CTR, SHA-256, and HMAC around cached key schedules,
batched keystream generation, and hash midstates — with the hard
requirement that every output byte stays identical to the frozen
pre-overhaul implementations now living in :mod:`repro.crypto.ref`.
These tests pin that identity: NIST SP 800-38A counter-mode vectors,
counter windows crossing the 2^32 word boundary, the process-wide
keystream memo, SHA-256 midstate resumption, and the channel's record
layer sharing one wire format with the reference kernels.
"""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import Aes, aes_ctr, ctr_xor
from repro.crypto.channel import SecureChannel
from repro.crypto.ref import (
    RefAes,
    RefSHA256,
    ref_aes_ctr,
    ref_channel_hmac,
    ref_hmac_sha256,
    ref_sha256,
)
from repro.crypto.sha256 import SHA256
from repro.errors import CryptoError
from repro.net import SocketPair

# --------------------------------------------------------------------------
# NIST SP 800-38A, section F.5: CTR mode, all three key sizes.  The
# standard's initial counter block f0f1...feff maps onto this layout as
# an 8-byte nonce f0..f7 and initial counter 0xf8f9fafbfcfdfeff.

_NIST_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
_NIST_NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7")
_NIST_CTR0 = 0xF8F9FAFBFCFDFEFF

_NIST_VECTORS = [
    (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee",
    ),
    (
        "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050",
    ),
    (
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6",
    ),
]


@pytest.mark.parametrize(
    "key_hex,ct_hex", _NIST_VECTORS, ids=["aes128", "aes192", "aes256"]
)
def test_sp800_38a_ctr_vectors(key_hex, ct_hex):
    key = bytes.fromhex(key_hex)
    ct = aes_ctr(key, _NIST_NONCE, _NIST_PT, initial_counter=_NIST_CTR0)
    assert ct.hex() == ct_hex
    # decryption is the same operation
    assert aes_ctr(
        key, _NIST_NONCE, ct, initial_counter=_NIST_CTR0
    ) == _NIST_PT
    # and the frozen reference produces the same standardised bytes
    assert ref_aes_ctr(
        key, _NIST_NONCE, _NIST_PT, initial_counter=_NIST_CTR0
    ).hex() == ct_hex


class TestCtrDifferential:
    """Optimized CTR vs the frozen per-block reference."""

    KEY = bytes(range(32))
    NONCE = b"fastnonc"

    @pytest.mark.parametrize(
        "counter0",
        [
            0,
            1,
            (1 << 32) - 2,      # low word rolls over mid-batch
            (1 << 32) - 1,
            (1 << 40) - 3,
            (1 << 64) - 512,    # near the top of the counter space
        ],
        ids=["zero", "one", "2^32-2", "2^32-1", "2^40-3", "2^64-512"],
    )
    def test_counter_positions(self, counter0):
        data = bytes(range(256)) * 25  # 400 blocks
        assert aes_ctr(
            self.KEY, self.NONCE, data, initial_counter=counter0
        ) == ref_aes_ctr(self.KEY, self.NONCE, data, initial_counter=counter0)

    def test_counter_word_rollover_is_a_true_carry(self):
        """The batch builder's per-position counter bytes must carry
        across the 2^32 word boundary, not wrap within it."""
        data = b"\x00" * (16 * 8)
        before = aes_ctr(
            self.KEY, self.NONCE, data, initial_counter=(1 << 32) - 4
        )
        # block 4 of `before` is the keystream at exactly counter 2^32
        at = aes_ctr(self.KEY, self.NONCE, b"\x00" * 16,
                     initial_counter=1 << 32)
        assert before[64:80] == at

    @given(
        st.binary(min_size=0, max_size=700),
        st.integers(min_value=0, max_value=(1 << 64) - 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_lengths_and_counters(self, data, counter0):
        for key_len in (16, 32):
            key = bytes(range(key_len))
            assert aes_ctr(key, self.NONCE, data, initial_counter=counter0) \
                == ref_aes_ctr(key, self.NONCE, data, initial_counter=counter0)

    def test_counter_space_exhaustion_raises(self):
        aes = Aes(self.KEY)
        with pytest.raises(CryptoError):
            aes.ctr_keystream(self.NONCE, (1 << 64) - 1, 2)


class TestKeystreamMemo:
    """The process-wide (key, nonce, window) -> keystream memo."""

    KEY = bytes(range(16, 48))
    NONCE = b"memononc"

    def test_memoized_xor_is_identical(self):
        aes = Aes.for_key(self.KEY)
        data = bytes(range(256)) * 8
        first = ctr_xor(aes, self.NONCE, data, initial_counter=77)
        second = ctr_xor(aes, self.NONCE, data, initial_counter=77)
        assert first == second
        assert first == ref_aes_ctr(self.KEY, self.NONCE, data,
                                    initial_counter=77)

    def test_warm_ranges_match_cold_computation(self):
        aes = Aes.for_key(self.KEY)
        ranges = [(i * (1 << 20), 256) for i in range(5)]
        aes.warm_ctr_ranges(self.NONCE, ranges)
        data = bytes(4096)
        for counter0, _nblocks in ranges:
            warmed = ctr_xor(aes, self.NONCE, data, initial_counter=counter0)
            cold = ref_aes_ctr(self.KEY, self.NONCE, data,
                               initial_counter=counter0)
            assert warmed == cold

    def test_for_key_returns_shared_schedule(self):
        assert Aes.for_key(self.KEY) is Aes.for_key(self.KEY)
        assert Aes.for_key(self.KEY).encrypt_block(bytes(16)) \
            == RefAes(self.KEY).encrypt_block(bytes(16))


class TestSha256Midstate:
    def test_midstate_roundtrip_matches_oneshot(self):
        data = bytes(range(256)) * 40
        for split in (0, 1, 55, 56, 63, 64, 65, 128, 1000, len(data)):
            h = SHA256()
            h.update(data[:split])
            resumed = SHA256.from_midstate(h.midstate())
            resumed.update(data[split:])
            assert resumed.digest() == hashlib.sha256(data).digest()
            assert resumed.digest() == ref_sha256(data)

    def test_copy_equivalence(self):
        base = SHA256()
        base.update(b"common prefix " * 10)
        fork_a = base.copy()
        fork_b = SHA256.from_midstate(base.midstate())
        fork_a.update(b"suffix-a")
        fork_b.update(b"suffix-a")
        assert fork_a.digest() == fork_b.digest()
        assert fork_a.digest() == hashlib.sha256(
            b"common prefix " * 10 + b"suffix-a"
        ).digest()
        # the original is unaffected by either fork
        assert base.digest() == hashlib.sha256(b"common prefix " * 10).digest()

    @given(st.binary(max_size=300), st.binary(max_size=300))
    @settings(max_examples=80, deadline=None)
    def test_unrolled_compression_matches_reference(self, a, b):
        h = SHA256()
        h.update(a)
        h.update(b)
        r = RefSHA256()
        r.update(a)
        r.update(b)
        assert h.digest() == r.digest() == hashlib.sha256(a + b).digest()


class TestChannelModesShareOneWire:
    """The record layer and the reference kernels share one wire.

    Records a :class:`SecureChannel` sends decrypt and verify under
    ``ref_aes_ctr`` / ``ref_channel_hmac``, and a channel accepts records
    built with those two functions — with every per-direction key derived
    through the reference HMAC, independently of the channel.
    """

    KEY = bytes(range(100, 132))
    PAYLOADS = [b"", b"x", bytes(range(256)) * 16, b"tail" * 333]

    @classmethod
    def _ref_keys(cls, label: bytes):
        return (
            ref_hmac_sha256(cls.KEY, b"enc" + label),
            ref_hmac_sha256(cls.KEY, b"nonce" + label)[:8],
            ref_hmac_sha256(cls.KEY, b"mac" + label),
        )

    @classmethod
    def _ref_record(cls, label: bytes, seq: int, payload: bytes) -> bytes:
        enc, nonce, mac = cls._ref_keys(label)
        header = struct.pack(">QI", seq, len(payload))
        body = ref_aes_ctr(enc, nonce, payload, initial_counter=seq << 20)
        return header + body + ref_channel_hmac(mac, header + body)

    def test_wire_bytes_identical_across_modes(self):
        """Sent records verify and decrypt under the reference kernels."""
        pair = SocketPair("a", "b")
        sender = SecureChannel(pair.left, self.KEY, is_server=False)
        sender.warm_send_keystream([len(p) for p in self.PAYLOADS])
        enc, nonce, mac = self._ref_keys(b"cli->srv")
        for seq, payload in enumerate(self.PAYLOADS):
            sender.send(payload)
            record = pair.right.recv()
            header, body, tag = record[:12], record[12:-32], record[-32:]
            assert struct.unpack(">QI", header) == (seq, len(payload))
            assert tag == ref_channel_hmac(mac, header + body)
            assert ref_aes_ctr(
                enc, nonce, body, initial_counter=seq << 20
            ) == payload
            assert record == self._ref_record(b"cli->srv", seq, payload)

    def test_cross_mode_interop(self):
        """A channel accepts records built with the reference kernels."""
        pair = SocketPair("a", "b")
        receiver = SecureChannel(pair.right, self.KEY, is_server=True)
        for seq, payload in enumerate(self.PAYLOADS):
            pair.left.send(self._ref_record(b"cli->srv", seq, payload))
            assert receiver.recv() == payload
        out = bytearray(64)
        pair.left.send(self._ref_record(b"cli->srv", len(self.PAYLOADS), b"q" * 40))
        assert receiver.recv_into(out, 24) == 40
        assert out == bytes(24) + b"q" * 40

    def test_record_tag_matches_reference_hmac(self):
        pair = SocketPair("a", "b")
        chan = SecureChannel(pair.left, self.KEY, is_server=False)
        chan.send(b"attested payload")
        record = pair.right._inbox[0][4:]  # strip the socket length prefix
        header, body, tag = record[:12], record[12:-32], record[-32:]
        _enc, _nonce, mac = self._ref_keys(b"cli->srv")
        assert tag == ref_hmac_sha256(mac, header + body)
