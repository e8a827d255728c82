"""Frozen reference crypto: the differential oracles for the fast kernels.

This module is a verbatim freeze of the straightforward pure-Python
primitives that :mod:`repro.crypto` shipped before it was optimized:
the word-at-a-time T-table AES with the per-call CTR loop, the textbook
SHA-256 compression loop, the re-pad-every-call HMAC, and the prime
generator that exponentiates all 40 Miller-Rabin rounds.  The optimized
implementations in :mod:`repro.crypto.aes` / :mod:`~repro.crypto.sha256`
/ :mod:`~repro.crypto.mac` / :mod:`~repro.crypto.primes` are required to
be **byte-identical** to these oracles for every input (for
``generate_prime``: the prime and the DRBG state it leaves, barring the
<= 2**-100 event its docstring names); the differential tests enforce
that (and the primitive table in ``benchmarks/bench_provisioning.py``
measures the speed difference), and the known-answer self-check at the
bottom of this file pins the oracles themselves to FIPS-197 / FIPS 180-4
/ RFC 4231 vectors at import time.

Do not modify this module for performance.  It exists so future perf
work always has a slow-but-obviously-correct implementation to diff
against (the same role :mod:`repro.x86.refdecode` plays for the
decoder).
"""

from __future__ import annotations

import hashlib
import struct

from ..errors import CryptoError
from .mac import HmacDrbg
from .primes import is_probable_prime

__all__ = [
    "RefAes",
    "ref_aes_ctr",
    "RefSHA256",
    "ref_sha256",
    "ref_hmac_sha256",
    "ref_channel_hmac",
    "ref_constant_time_eq",
    "ref_generate_prime",
]

BLOCK = 16

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and table construction (frozen copy).
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gmul(x, 3)
    exp[255] = exp[0]  # generator order is 255, so exp wraps

    def inv(a: int) -> int:
        return 0 if a == 0 else exp[255 - log[a]]

    sbox = bytearray(256)
    for i in range(256):
        q = inv(i)
        s = q
        for shift in (1, 2, 3, 4):
            s ^= ((q << shift) | (q >> (8 - shift))) & 0xFF
        sbox[i] = s ^ 0x63
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()
_MUL9 = bytes(_gmul(i, 9) for i in range(256))
_MUL11 = bytes(_gmul(i, 11) for i in range(256))
_MUL13 = bytes(_gmul(i, 13) for i in range(256))
_MUL14 = bytes(_gmul(i, 14) for i in range(256))
_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8)

_T0 = tuple(
    (_gmul(s, 2) << 24) | (s << 16) | (s << 8) | _gmul(s, 3) for s in _SBOX
)
_T1 = tuple(((t >> 8) | (t << 24)) & 0xFFFFFFFF for t in _T0)
_T2 = tuple(((t >> 16) | (t << 16)) & 0xFFFFFFFF for t in _T0)
_T3 = tuple(((t >> 24) | (t << 8)) & 0xFFFFFFFF for t in _T0)

_INV_SHIFT = (0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)

_WORDS = struct.Struct(">4I")


class RefAes:
    """AES block cipher for 128/192/256-bit keys (frozen reference)."""

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._rk = self._expand_key(key)  # flat list of 32-bit words

    def _expand_key(self, key: bytes) -> list[int]:
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        total = 4 * (self.rounds + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (_SBOX[temp >> 24] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (_SBOX[temp >> 24] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK:
            raise CryptoError("AES block must be 16 bytes")
        rk = self._rk
        s0, s1, s2, s3 = _WORDS.unpack(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        t0_tab, t1_tab, t2_tab, t3_tab = _T0, _T1, _T2, _T3
        for r in range(1, self.rounds):
            k = 4 * r
            t0 = (t0_tab[s0 >> 24] ^ t1_tab[(s1 >> 16) & 0xFF]
                  ^ t2_tab[(s2 >> 8) & 0xFF] ^ t3_tab[s3 & 0xFF] ^ rk[k])
            t1 = (t0_tab[s1 >> 24] ^ t1_tab[(s2 >> 16) & 0xFF]
                  ^ t2_tab[(s3 >> 8) & 0xFF] ^ t3_tab[s0 & 0xFF] ^ rk[k + 1])
            t2 = (t0_tab[s2 >> 24] ^ t1_tab[(s3 >> 16) & 0xFF]
                  ^ t2_tab[(s0 >> 8) & 0xFF] ^ t3_tab[s1 & 0xFF] ^ rk[k + 2])
            t3 = (t0_tab[s3 >> 24] ^ t1_tab[(s0 >> 16) & 0xFF]
                  ^ t2_tab[(s1 >> 8) & 0xFF] ^ t3_tab[s2 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = t0, t1, t2, t3
        k = 4 * self.rounds
        sbox = _SBOX
        o0 = ((sbox[s0 >> 24] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
              | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ rk[k]
        o1 = ((sbox[s1 >> 24] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
              | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ rk[k + 1]
        o2 = ((sbox[s2 >> 24] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
              | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ rk[k + 2]
        o3 = ((sbox[s3 >> 24] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
              | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ rk[k + 3]
        return _WORDS.pack(o0, o1, o2, o3)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK:
            raise CryptoError("AES block must be 16 bytes")
        round_keys = [
            _WORDS.pack(*self._rk[4 * r:4 * r + 4]) for r in range(self.rounds + 1)
        ]
        state = bytes(a ^ b for a, b in zip(block, round_keys[self.rounds]))
        for rnd in range(self.rounds - 1, 0, -1):
            state = bytes(_INV_SBOX[state[_INV_SHIFT[i]]] for i in range(16))
            state = bytes(a ^ b for a, b in zip(state, round_keys[rnd]))
            out = bytearray(16)
            for c in range(0, 16, 4):
                s0, s1, s2, s3 = state[c:c + 4]
                out[c] = _MUL14[s0] ^ _MUL11[s1] ^ _MUL13[s2] ^ _MUL9[s3]
                out[c + 1] = _MUL9[s0] ^ _MUL14[s1] ^ _MUL11[s2] ^ _MUL13[s3]
                out[c + 2] = _MUL13[s0] ^ _MUL9[s1] ^ _MUL14[s2] ^ _MUL11[s3]
                out[c + 3] = _MUL11[s0] ^ _MUL13[s1] ^ _MUL9[s2] ^ _MUL14[s3]
            state = bytes(out)
        state = bytes(_INV_SBOX[state[_INV_SHIFT[i]]] for i in range(16))
        return bytes(a ^ b for a, b in zip(state, round_keys[0]))


def ref_aes_ctr(
    key: bytes, nonce: bytes, data: bytes, initial_counter: int = 0
) -> bytes:
    """CTR-mode keystream XOR, one ``encrypt_block`` call per counter.

    This is the exact pre-overhaul ``aes_ctr``: the key schedule is
    re-expanded on every call and the keystream is produced block by
    block — the cost model the fast path is measured against.
    """
    if len(nonce) != 8:
        raise CryptoError("CTR nonce must be 8 bytes")
    cipher = RefAes(key)
    nblocks = (len(data) + BLOCK - 1) // BLOCK
    keystream = bytearray(nblocks * BLOCK)
    encrypt = cipher.encrypt_block
    pack = struct.Struct(">Q").pack
    for i in range(nblocks):
        keystream[i * BLOCK:(i + 1) * BLOCK] = encrypt(
            nonce + pack(initial_counter + i)
        )
    mask = int.from_bytes(keystream[:len(data)], "big")
    value = int.from_bytes(data, "big") ^ mask
    return value.to_bytes(len(data), "big")


# ---------------------------------------------------------------------------
# SHA-256 (frozen copy of the loop-based compression function).
# ---------------------------------------------------------------------------

_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF

BLOCK_SIZE = 64
DIGEST_SIZE = 32


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


class RefSHA256:
    """Incremental SHA-256 with the textbook compression loop (frozen)."""

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE
    name = "sha256"

    def __init__(self, data: bytes = b"") -> None:
        self._h = list(_IV)
        self._buffer = bytearray()  # partial block, always < BLOCK_SIZE
        self._length = 0  # total message length in bytes
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        if type(data) is not bytes:
            if not isinstance(data, (bytes, bytearray, memoryview)):
                raise TypeError(f"expected bytes-like, got {type(data).__name__}")
            view = memoryview(data)
            if view.itemsize != 1:
                try:
                    view = view.cast("B")
                except TypeError:
                    view = memoryview(view.tobytes())
            data = view
        nbytes = len(data)
        self._length += nbytes
        buffer = self._buffer
        compress = self._compress
        start = 0
        if buffer:
            need = BLOCK_SIZE - len(buffer)
            if nbytes < need:
                buffer += data
                return
            buffer += data[:need]
            compress(buffer)
            buffer.clear()
            start = need
        end = start + ((nbytes - start) - (nbytes - start) % BLOCK_SIZE)
        for offset in range(start, end, BLOCK_SIZE):
            compress(data[offset:offset + BLOCK_SIZE])
        if end < nbytes:
            buffer += data[end:]

    def digest(self) -> bytes:
        clone = self.copy()
        bit_length = clone._length * 8
        pad_len = (55 - clone._length) % 64
        clone.update(b"\x80" + b"\x00" * pad_len + struct.pack(">Q", bit_length))
        assert not clone._buffer
        return struct.pack(">8I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "RefSHA256":
        clone = RefSHA256()
        clone._h = list(self._h)
        clone._buffer = bytearray(self._buffer)
        clone._length = self._length
        return clone

    def _compress(self, block: bytes) -> None:
        w = list(struct.unpack(">16I", block))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)

        a, b, c, d, e, f, g, h = self._h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            temp1 = (h + s1 + ch + _K[i] + w[i]) & _MASK
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            temp2 = (s0 + maj) & _MASK
            h, g, f, e = g, f, e, (d + temp1) & _MASK
            d, c, b, a = c, b, a, (temp1 + temp2) & _MASK

        self._h = [
            (x + y) & _MASK for x, y in zip(self._h, (a, b, c, d, e, f, g, h))
        ]


def ref_sha256(data: bytes) -> bytes:
    """One-shot digest using the frozen from-scratch implementation."""
    return RefSHA256(data).digest()


# ---------------------------------------------------------------------------
# HMAC-SHA256 (frozen: full key preparation on every call).
# ---------------------------------------------------------------------------


def ref_hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 per RFC 2104 over the frozen SHA-256.

    Unlike the pre-overhaul ``hmac_sha256`` (which delegated the digest
    to :mod:`hashlib`), the oracle runs entirely on :class:`RefSHA256`
    so a differential failure always localises to exactly one fast
    kernel.  The output is identical either way; the RFC 4231 self-check
    below pins it.
    """
    if len(key) > BLOCK_SIZE:
        key = ref_sha256(key)
    key = key.ljust(BLOCK_SIZE, b"\x00")
    inner = bytes(b ^ 0x36 for b in key)
    outer = bytes(b ^ 0x5C for b in key)
    return ref_sha256(outer + ref_sha256(inner + message))


def ref_channel_hmac(key: bytes, message: bytes) -> bytes:
    """The pre-overhaul ``hmac_sha256`` verbatim: full ipad/opad key
    preparation on every call, digests delegated to :mod:`hashlib`.

    This is how the pre-overhaul record layer computed record MACs: it
    hashed with C-speed digests but re-prepared the key per record.
    Tests build reference channel records with it.  For kernel-localised
    differential checks use :func:`ref_hmac_sha256` instead.
    """
    if len(key) > BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(BLOCK_SIZE, b"\x00")
    inner = bytes(b ^ 0x36 for b in key)
    outer = bytes(b ^ 0x5C for b in key)
    return hashlib.sha256(
        outer + hashlib.sha256(inner + message).digest()
    ).digest()


def ref_constant_time_eq(a: bytes, b: bytes) -> bool:
    """The original hand-rolled zip-loop comparison from the channel."""
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0


# ---------------------------------------------------------------------------
# Prime generation (frozen: all 40 Miller-Rabin rounds exponentiated).
# ---------------------------------------------------------------------------


def ref_generate_prime(bits: int, rng: HmacDrbg) -> int:
    """Generate a random prime with exactly *bits* bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly 2*bits bits (the standard RSA trick).
    """
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rng.randbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2))  # full size
        candidate |= 1  # odd
        if is_probable_prime(candidate, rng=rng):
            return candidate


# ---------------------------------------------------------------------------
# Import-time known-answer pins.  If any of these fail the oracle itself
# is broken and no differential result can be trusted, so fail loudly.
# ---------------------------------------------------------------------------


def _self_check() -> None:
    # FIPS-197 appendix C.3 (AES-256).
    key = bytes(range(32))
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
    if RefAes(key).encrypt_block(pt) != ct:
        raise AssertionError("RefAes failed the FIPS-197 known answer")
    # FIPS 180-4: SHA-256("abc").
    if ref_sha256(b"abc") != bytes.fromhex(
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    ):
        raise AssertionError("RefSHA256 failed the FIPS 180-4 known answer")
    # RFC 4231 test case 2.
    if ref_hmac_sha256(b"Jefe", b"what do ya want for nothing?") != bytes.fromhex(
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    ):
        raise AssertionError("ref_hmac_sha256 failed the RFC 4231 known answer")


_self_check()
