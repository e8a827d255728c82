"""From-scratch AES (FIPS 197) with CBC and CTR modes.

The provisioning channel encrypts the client's binary with a 256-bit AES key
(paper section 3).  The S-box is derived from GF(2^8) inversion plus the
affine map at import time; single blocks use the classic 32-bit T-table
formulation, and bulk CTR keystream uses a *columnar* batch engine: the
state of W counter blocks is held as 16 position-major byte chunks so that
AddRoundKey+SubBytes collapse into one ``bytes.translate`` per chunk per
round (the round-key byte is fused into the translation table), ShiftRows
becomes a free chunk relabeling, and MixColumns runs as whole-chunk big-int
XORs plus one xtime translate.  That turns ~600 Python operations per block
into ~80 Python operations per *batch*, which is what lets pure Python
stream an Nginx-sized binary through the channel in well under a second.

Everything here is byte-identical to the frozen oracle in
:mod:`repro.crypto.ref`; the test suite enforces that, on top of the
FIPS-197 known-answer vectors.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict

from ..errors import CryptoError

__all__ = [
    "Aes",
    "aes_cbc_encrypt",
    "aes_cbc_decrypt",
    "aes_ctr",
    "ctr_xor",
    "pkcs7_pad",
    "pkcs7_unpad",
]

BLOCK = 16

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and table construction.
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

# Encryption T-tables: T0[x] packs MixColumns(SubBytes(x)) for a byte in
# row 0 of a column; T1..T3 are byte rotations of T0.
_T0 = tuple(
    (_gmul(s, 2) << 24) | (s << 16) | (s << 8) | _gmul(s, 3) for s in _SBOX
)
_T1 = tuple(((t >> 8) | (t << 24)) & 0xFFFFFFFF for t in _T0)
_T2 = tuple(((t >> 16) | (t << 16)) & 0xFFFFFFFF for t in _T0)
_T3 = tuple(((t >> 24) | (t << 8)) & 0xFFFFFFFF for t in _T0)

# InvShiftRows source index for each position of the (column-major) state.
_INV_SHIFT = (0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)

_WORDS = struct.Struct(">4I")

# --------------------------------------------------------------------------
# Columnar CTR batch-engine tables.
#
# The engine represents W counter blocks as 16 chunks of W bytes, chunk p
# holding byte p of every block.  AddRoundKey-then-SubBytes for a fixed
# round-key byte k is the single byte map x -> SBOX[x ^ k], precomposed as
# ``_XOR_TABS[k].translate(_SBOX)``; xtime (the GF(2^8) doubling inside
# MixColumns) is a byte map too.  ShiftRows only permutes *positions*, so
# on chunks it is a free relabeling through ``_SR_SRC``.
# --------------------------------------------------------------------------

_XTIME_TAB = bytes(_xtime(b) for b in range(256))
_XOR_TABS = tuple(bytes(b ^ k for b in range(256)) for k in range(256))
# _SR_SRC[p]: state position that ShiftRows moves into position p
# (position p = 4*column + row, matching the block's byte order).
_SR_SRC = tuple((p % 4) + 4 * (((p // 4) + (p % 4)) % 4) for p in range(16))

_BYTE_RANGE = bytes(range(256))

#: below this many blocks the per-block T-table path wins (batch setup cost)
_BATCH_MIN_BLOCKS = 8
#: engine segment bound: caps chunk/bigint sizes during one batch pass
_SEGMENT_BLOCKS = 1 << 16


def _counter_chunk(j: int, counter0: int, nblocks: int) -> bytes:
    """Byte *j* (0 = most significant) of counters counter0..+nblocks-1."""
    shift = 8 * (7 - j)
    first = (counter0 >> shift) & 0xFF
    if shift >= 64 or (counter0 >> shift) == ((counter0 + nblocks - 1) >> shift):
        return bytes((first,)) * nblocks
    if shift == 0:
        lo = counter0 & 0xFF
        head = _BYTE_RANGE[lo:]
        if len(head) >= nblocks:
            return head[:nblocks]
        remaining = nblocks - len(head)
        return b"".join(
            (head, _BYTE_RANGE * (remaining // 256), _BYTE_RANGE[:remaining % 256])
        )
    # Runs of 2**shift identical bytes, clipped to the requested window.
    pieces = []
    c = counter0
    end = counter0 + nblocks
    while c < end:
        run_end = min((((c >> shift) + 1) << shift), end)
        pieces.append(bytes(((c >> shift) & 0xFF,)) * (run_end - c))
        c = run_end
    return b"".join(pieces)


class Aes:
    """AES block cipher for 128/192/256-bit keys."""

    #: process-wide schedule cache for :meth:`for_key` (sessions reuse a
    #: handful of derived keys; re-expanding per record dominated CTR cost)
    _KEY_CACHE: "OrderedDict[bytes, Aes]" = OrderedDict()
    _KEY_CACHE_CAP = 64
    _KEY_CACHE_LOCK = threading.Lock()

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._key_bytes = bytes(key)
        self._rk = self._expand_key(key)  # flat list of 32-bit words
        self._ctr_tables: tuple[list, list] | None = None  # lazy, CTR only

    @classmethod
    def for_key(cls, key: bytes) -> "Aes":
        """Return a (cached) cipher for *key*, reusing its key schedule."""
        key = bytes(key)
        cache = cls._KEY_CACHE
        with cls._KEY_CACHE_LOCK:
            cipher = cache.get(key)
            if cipher is not None:
                cache.move_to_end(key)
                return cipher
        cipher = cls(key)
        with cls._KEY_CACHE_LOCK:
            cache[key] = cipher
            if len(cache) > cls._KEY_CACHE_CAP:
                cache.popitem(last=False)
        return cipher

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
        # Decryption is off the hot path (the channel uses CTR, which only
        # ever encrypts), so the straightforward byte-wise form is kept.
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

    # ------------------------------------------------- columnar CTR engine

    def _batch_tables(self) -> tuple[list, list]:
        """Per-key fused round tables for the columnar engine (lazy).

        ``T[r][p]`` maps an input byte x at position p to
        ``SBOX[x ^ rk_{r-1}[p]]`` — the whole AddRoundKey+SubBytes step of
        round r as one translation; ``F[p]`` additionally folds in the
        final round key, so the last round is a single translate per chunk.
        """
        tables = self._ctr_tables
        if tables is not None:
            return tables
        rounds = self.rounds
        rkb = [
            _WORDS.pack(*self._rk[4 * r:4 * r + 4]) for r in range(rounds + 1)
        ]
        T: list = [None]
        for r in range(1, rounds + 1):
            T.append([_XOR_TABS[rkb[r - 1][p]].translate(_SBOX) for p in range(16)])
        F = [
            T[rounds][_SR_SRC[p]].translate(_XOR_TABS[rkb[rounds][p]])
            for p in range(16)
        ]
        tables = (T, F)
        self._ctr_tables = tables
        return tables

    def _ctr_batch(self, nonce: bytes, ranges) -> bytes:
        """Keystream for one engine pass over *ranges* of counter blocks."""
        T, F = self._batch_tables()
        width = sum(n for _, n in ranges)
        if len(ranges) == 1:
            counter0, nblocks = ranges[0]
            chunks = [_counter_chunk(j, counter0, nblocks) for j in range(8)]
        else:
            chunks = [
                b"".join(_counter_chunk(j, c0, n) for c0, n in ranges)
                for j in range(8)
            ]
        B = [bytes((nonce[p],)) * width for p in range(8)] + chunks
        frm = int.from_bytes
        xt = _XTIME_TAB
        for r in range(1, self.rounds):
            Tr = T[r]
            a = [frm(B[s].translate(Tr[s]), "big") for s in _SR_SRC]
            B = []
            for c4 in (0, 4, 8, 12):
                a0, a1, a2, a3 = a[c4], a[c4 + 1], a[c4 + 2], a[c4 + 3]
                t = a0 ^ a1 ^ a2 ^ a3
                B.append(
                    a0 ^ t
                    ^ frm((a0 ^ a1).to_bytes(width, "big").translate(xt), "big")
                )
                B.append(
                    a1 ^ t
                    ^ frm((a1 ^ a2).to_bytes(width, "big").translate(xt), "big")
                )
                B.append(
                    a2 ^ t
                    ^ frm((a2 ^ a3).to_bytes(width, "big").translate(xt), "big")
                )
                B.append(
                    a3 ^ t
                    ^ frm((a3 ^ a0).to_bytes(width, "big").translate(xt), "big")
                )
            B = [v.to_bytes(width, "big") for v in B]
        out = bytearray(16 * width)
        for p in range(16):
            out[p::16] = B[_SR_SRC[p]].translate(F[p])
        return bytes(out)

    def ctr_keystream(self, nonce: bytes, initial_counter: int, nblocks: int) -> bytes:
        """*nblocks* blocks of CTR keystream starting at *initial_counter*.

        Byte-identical to encrypting successive ``nonce || counter`` blocks
        with :meth:`encrypt_block` (the reference formulation); the columnar
        engine only changes the cost, not the bytes.
        """
        if len(nonce) != 8:
            raise CryptoError("CTR nonce must be 8 bytes")
        if nblocks <= 0:
            return b""
        if initial_counter < 0 or initial_counter + nblocks > 1 << 64:
            raise CryptoError("CTR counter window exceeds 2**64")
        if nblocks < _BATCH_MIN_BLOCKS:
            encrypt = self.encrypt_block
            pack = struct.Struct(">Q").pack
            return b"".join(
                encrypt(nonce + pack(initial_counter + i)) for i in range(nblocks)
            )
        if nblocks <= _SEGMENT_BLOCKS:
            return self._ctr_batch(nonce, ((initial_counter, nblocks),))
        pieces = []
        done = 0
        while done < nblocks:
            step = min(_SEGMENT_BLOCKS, nblocks - done)
            pieces.append(
                self._ctr_batch(nonce, ((initial_counter + done, step),))
            )
            done += step
        return b"".join(pieces)

    def warm_ctr_ranges(self, nonce: bytes, ranges) -> None:
        """Precompute keystream for many (counter, nblocks) ranges at once.

        One engine pass amortises the per-batch setup over a whole content
        stream; each range's keystream is published to the process-wide
        memo so both the sending and the receiving endpoint (and any
        retransmit) reuse it instead of recomputing.
        """
        if len(nonce) != 8:
            raise CryptoError("CTR nonce must be 8 bytes")
        todo = []
        for counter0, nblocks in ranges:
            if nblocks <= 0:
                continue
            if counter0 < 0 or counter0 + nblocks > 1 << 64:
                raise CryptoError("CTR counter window exceeds 2**64")
            if _memo_get(self._key_bytes, nonce, counter0, nblocks) is None:
                todo.append((counter0, int(nblocks)))
        while todo:
            group = []
            total = 0
            while todo and total + todo[0][1] <= _SEGMENT_BLOCKS:
                rng = todo.pop(0)
                group.append(rng)
                total += rng[1]
            if not group:  # single range larger than one segment
                rng = todo.pop(0)
                stream = self.ctr_keystream(nonce, rng[0], rng[1])
                _memo_put(self._key_bytes, nonce, rng[0], rng[1], stream)
                continue
            stream = self._ctr_batch(nonce, tuple(group))
            offset = 0
            for counter0, nblocks in group:
                size = nblocks * BLOCK
                _memo_put(
                    self._key_bytes, nonce, counter0, nblocks,
                    stream[offset:offset + size],
                )
                offset += size


# ---------------------------------------------------------------------------
# Cross-endpoint keystream memo.
#
# Both provisioning endpoints run in this process and CTR keystream is a
# pure function of (key, nonce, counter, length), so the stream computed by
# the sender can be reused verbatim by the receiver (and by ARQ
# retransmits, which are *required* to be byte-identical).  Bounded LRU;
# entries are page-sized record streams.
# ---------------------------------------------------------------------------

_KS_MEMO: "OrderedDict[tuple, bytes]" = OrderedDict()
_KS_MEMO_CAP = 512
_KS_MEMO_LOCK = threading.Lock()
#: don't bother memoising tiny records (handshake/verdict-sized)
_MEMO_MIN_BLOCKS = 4


def _memo_get(key: bytes, nonce: bytes, counter0: int, nblocks: int):
    token = (key, nonce, counter0, nblocks)
    with _KS_MEMO_LOCK:
        stream = _KS_MEMO.get(token)
        if stream is not None:
            _KS_MEMO.move_to_end(token)
        return stream


def _memo_put(key: bytes, nonce: bytes, counter0: int, nblocks: int, stream: bytes) -> None:
    token = (key, nonce, counter0, nblocks)
    with _KS_MEMO_LOCK:
        _KS_MEMO[token] = stream
        _KS_MEMO.move_to_end(token)
        while len(_KS_MEMO) > _KS_MEMO_CAP:
            _KS_MEMO.popitem(last=False)


# ---------------------------------------------------------------------------
# Modes of operation.
# ---------------------------------------------------------------------------


def pkcs7_pad(data: bytes) -> bytes:
    """Pad to a multiple of the AES block size (always adds 1..16 bytes)."""
    pad = BLOCK - len(data) % BLOCK
    return data + bytes([pad]) * pad


def pkcs7_unpad(data: bytes) -> bytes:
    """Strip PKCS#7 padding, raising :class:`CryptoError` if malformed."""
    if not data or len(data) % BLOCK:
        raise CryptoError("padded data must be a non-empty block multiple")
    pad = data[-1]
    if not 1 <= pad <= BLOCK or data[-pad:] != bytes([pad]) * pad:
        raise CryptoError("bad PKCS#7 padding")
    return data[:-pad]


def aes_cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt with PKCS#7 padding."""
    if len(iv) != BLOCK:
        raise CryptoError("IV must be 16 bytes")
    cipher = Aes(key)
    data = pkcs7_pad(plaintext)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), BLOCK):
        block = bytes(a ^ b for a, b in zip(data[i:i + BLOCK], prev))
        prev = cipher.encrypt_block(block)
        out += prev
    return bytes(out)


def aes_cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt and strip PKCS#7 padding."""
    if len(iv) != BLOCK:
        raise CryptoError("IV must be 16 bytes")
    if not ciphertext or len(ciphertext) % BLOCK:
        raise CryptoError("ciphertext must be a non-empty block multiple")
    cipher = Aes(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), BLOCK):
        block = ciphertext[i:i + BLOCK]
        out += bytes(a ^ b for a, b in zip(cipher.decrypt_block(block), prev))
        prev = block
    return pkcs7_unpad(bytes(out))


def ctr_xor(
    cipher: Aes, nonce: bytes, data, initial_counter: int = 0
) -> bytes:
    """CTR keystream XOR using an already-expanded cipher object.

    The record layer holds one :class:`Aes` per direction and calls this
    per record; the keystream memo turns the receive side of an in-process
    exchange (and ARQ retransmits) into a lookup.
    """
    if len(nonce) != 8:
        raise CryptoError("CTR nonce must be 8 bytes")
    nbytes = len(data)
    if nbytes == 0:
        return b""
    nblocks = (nbytes + BLOCK - 1) // BLOCK
    stream = None
    if nblocks >= _MEMO_MIN_BLOCKS:
        stream = _memo_get(cipher._key_bytes, nonce, initial_counter, nblocks)
        if stream is None:
            stream = cipher.ctr_keystream(nonce, initial_counter, nblocks)
            _memo_put(cipher._key_bytes, nonce, initial_counter, nblocks, stream)
    else:
        stream = cipher.ctr_keystream(nonce, initial_counter, nblocks)
    # One wide XOR via big integers beats a per-byte loop by ~50x.
    mask = int.from_bytes(memoryview(stream)[:nbytes], "big")
    value = int.from_bytes(data, "big") ^ mask
    return value.to_bytes(nbytes, "big")


def ctr_xor_into(
    cipher: Aes,
    nonce: bytes,
    data,
    out: bytearray,
    out_offset: int,
    initial_counter: int = 0,
) -> int:
    """:func:`ctr_xor` writing the result into *out* at *out_offset*.

    The provisioning receive path decrypts each record straight into the
    preallocated content buffer, skipping both the intermediate plaintext
    ``bytes`` object and the final join copy.  Keystream sourcing (memo,
    segmenting, counters) is shared with :func:`ctr_xor`, so the decrypted
    bytes are identical.  Returns the number of bytes written.
    """
    if len(nonce) != 8:
        raise CryptoError("CTR nonce must be 8 bytes")
    nbytes = len(data)
    if nbytes == 0:
        return 0
    nblocks = (nbytes + BLOCK - 1) // BLOCK
    if nblocks >= _MEMO_MIN_BLOCKS:
        stream = _memo_get(cipher._key_bytes, nonce, initial_counter, nblocks)
        if stream is None:
            stream = cipher.ctr_keystream(nonce, initial_counter, nblocks)
            _memo_put(cipher._key_bytes, nonce, initial_counter, nblocks, stream)
    else:
        stream = cipher.ctr_keystream(nonce, initial_counter, nblocks)
    mask = int.from_bytes(memoryview(stream)[:nbytes], "big")
    value = int.from_bytes(data, "big") ^ mask
    out[out_offset:out_offset + nbytes] = value.to_bytes(nbytes, "big")
    return nbytes


def aes_ctr(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 0) -> bytes:
    """CTR-mode keystream XOR (encryption and decryption are identical).

    *nonce* is 8 bytes; the counter occupies the high bits of the low
    quadword of each counter block.
    """
    if len(key) not in (16, 24, 32):
        raise CryptoError(f"AES key must be 16/24/32 bytes, got {len(key)}")
    return ctr_xor(Aes.for_key(key), nonce, data, initial_counter)
