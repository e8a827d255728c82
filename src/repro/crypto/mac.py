"""HMAC-SHA256 and a deterministic HMAC-DRBG (NIST SP 800-90A).

The DRBG is the single source of randomness for the whole reproduction:
RSA keygen, AES session keys, workload generation, and the simulated
hardware's device keys all draw from seeded instances, which makes every
experiment bit-for-bit reproducible.

HMAC here is midstate-cached: preparing a key costs two compression
calls (the ipad/opad blocks), after which every MAC under that key is
two state clones plus the message compressions.  The record layer MACs
thousands of records under four fixed session keys per provisioning run,
so this is the difference between "key preparation dominates" and "the
message itself dominates".  Outputs are byte-identical to the frozen
:func:`repro.crypto.ref.ref_hmac_sha256` oracle (RFC 4231-pinned).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from .sha256 import BLOCK_SIZE, DIGEST_SIZE, sha256_fast

__all__ = ["hmac_sha256", "HmacKey", "hmac_key", "constant_time_eq", "HmacDrbg"]

_IPAD_TAB = bytes(b ^ 0x36 for b in range(256))
_OPAD_TAB = bytes(b ^ 0x5C for b in range(256))


class HmacKey:
    """Prepared HMAC-SHA256 key: cloneable inner/outer midstates."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > BLOCK_SIZE:
            key = sha256_fast(key)
        block = key.ljust(BLOCK_SIZE, b"\x00")
        self._inner = hashlib.sha256(block.translate(_IPAD_TAB))
        self._outer = hashlib.sha256(block.translate(_OPAD_TAB))

    def mac(self, *parts: bytes) -> bytes:
        """HMAC over the concatenation of *parts* (no join is performed)."""
        inner = self._inner.copy()
        for part in parts:
            inner.update(part)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


_KEY_CACHE: "OrderedDict[bytes, HmacKey]" = OrderedDict()
_KEY_CACHE_CAP = 256
_KEY_CACHE_LOCK = threading.Lock()


def hmac_key(key: bytes) -> HmacKey:
    """Return a prepared key from a process-wide LRU of 256 entries.

    The LRU is keyed by the raw key bytes, so a key passed here stays
    reachable from this module until it is evicted.  Use it for keys
    that are MACed under many times; code that must be able to erase a
    key (the DRBG's overwritten state) holds its own :class:`HmacKey`.
    """
    key = bytes(key)
    with _KEY_CACHE_LOCK:
        prepared = _KEY_CACHE.get(key)
        if prepared is not None:
            _KEY_CACHE.move_to_end(key)
            return prepared
    prepared = HmacKey(key)
    with _KEY_CACHE_LOCK:
        _KEY_CACHE[key] = prepared
        if len(_KEY_CACHE) > _KEY_CACHE_CAP:
            _KEY_CACHE.popitem(last=False)
    return prepared


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 per RFC 2104, built on our SHA-256 primitive."""
    return hmac_key(key).mac(message)


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Constant-time equality for fixed-length tags.

    The length check returns early by design: record tag lengths are
    public protocol constants, so a mismatch leaks nothing.  For equal
    lengths the comparison runs in time independent of *where* the
    buffers differ — one wide XOR accumulator over the whole width, no
    data-dependent short-circuit.  Shared by the channel's record MACs
    and any future tag checks (one implementation to audit).
    """
    if len(a) != len(b):
        return False
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big") == 0


class HmacDrbg:
    """Deterministic random bit generator (HMAC-DRBG, SHA-256 variant).

    >>> drbg = HmacDrbg(b"seed")
    >>> drbg.generate(8) == HmacDrbg(b"seed").generate(8)
    True
    """

    #: SP 800-90A reseed interval; generous for our workloads.
    RESEED_INTERVAL = 1 << 32

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        self._rekey(b"\x00" * DIGEST_SIZE)
        self._value = b"\x01" * DIGEST_SIZE
        self._reseed_counter = 1
        self._update(seed + personalization)

    def _rekey(self, key: bytes) -> None:
        # The prepared key is this instance's own, never the shared
        # hmac_key LRU: replacing it here is what drops the old key, as
        # SP 800-90A's backtracking resistance assumes.
        self._key = key
        self._hmac = HmacKey(key)

    def _update(self, provided: bytes | None = None) -> None:
        # SP 800-90A HMAC_DRBG_Update: the second round runs whenever
        # provided_data was given — including an explicit empty string.
        # (`provided or b""` would collapse b"" into the None path and
        # silently skip the round; a regression test pins both paths.)
        data = b"" if provided is None else provided
        self._rekey(self._hmac.mac(self._value, b"\x00", data))
        self._value = self._hmac.mac(self._value)
        if provided is not None:
            self._rekey(self._hmac.mac(self._value, b"\x01", data))
            self._value = self._hmac.mac(self._value)

    def reseed(self, entropy: bytes) -> None:
        """Mix fresh entropy into the state."""
        self._update(entropy)
        self._reseed_counter = 1

    def generate(self, n: int) -> bytes:
        """Return *n* pseudorandom bytes."""
        if n < 0:
            raise ValueError("cannot generate a negative number of bytes")
        if self._reseed_counter > self.RESEED_INTERVAL:
            raise RuntimeError("DRBG reseed required")
        out = bytearray()
        mac = self._hmac.mac
        while len(out) < n:
            self._value = mac(self._value)
            out += self._value
        self._update()
        self._reseed_counter += 1
        return bytes(out[:n])

    # Convenience helpers used throughout the toolchain and simulator. ----

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive), rejection-sampled."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        nbytes = (span.bit_length() + 7) // 8 + 1
        limit = (1 << (8 * nbytes)) - (1 << (8 * nbytes)) % span
        while True:
            candidate = int.from_bytes(self.generate(nbytes), "big")
            if candidate < limit:
                return lo + candidate % span

    def randbits(self, k: int) -> int:
        """Integer with exactly *k* random bits (top bit may be 0)."""
        if k <= 0:
            raise ValueError("k must be positive")
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.generate(nbytes), "big")
        return value >> (8 * nbytes - k)

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def fork(self, label: bytes) -> "HmacDrbg":
        """Derive an independent child DRBG bound to *label*."""
        return HmacDrbg(self.generate(DIGEST_SIZE), personalization=label)
