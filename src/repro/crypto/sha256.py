"""From-scratch SHA-256 (FIPS 180-4).

EnGarde uses SHA-256 in three places: enclave measurement (EREPORT digests a
log of enclave-initialisation activity), the library-linking policy (hashes
of every musl-libc function), and HMAC/DRBG.  This module implements the
compression function directly so the reproduction does not silently depend on
OpenSSL; :class:`SHA256` is verified against :mod:`hashlib` and the frozen
:mod:`repro.crypto.ref` loop in the test suite.  The simulated SGX
measurement (:mod:`repro.sgx.measurement`) hashes through :mod:`hashlib`:
it models hardware, like the MEE keystream in :mod:`repro.sgx.epc`.

For bulk hashing on hot paths callers may use :func:`sha256_fast`, which
delegates to :mod:`hashlib` (same algorithm, C speed).  Both produce
identical digests; tests assert this for arbitrary inputs.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["SHA256", "sha256", "sha256_fast", "BLOCK_SIZE", "DIGEST_SIZE"]

# The compression function is generated once at import time with every
# round unrolled over local variables (no schedule list, no rotr calls,
# round constants inlined as literals).  The generated code computes the
# exact FIPS 180-4 recurrence — same math, ~3x fewer bytecodes — and is
# pinned against both :mod:`hashlib` and the frozen loop implementation
# in :mod:`repro.crypto.ref` by the test suite.

BLOCK_SIZE = 64
DIGEST_SIZE = 32

# First 32 bits of the fractional parts of the cube roots of the first
# 64 primes (FIPS 180-4 section 4.2.2).
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


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _generate_compress():
    """Build the fully-unrolled compression function (see module docstring)."""

    def rotr(x: str, n: int) -> str:
        return f"({x}>>{n}|{x}<<{32 - n})"

    lines = [
        "def _compress(self, block):",
        "    " + ", ".join(f"w{i}" for i in range(16)) + " = _UNPACK16(block)",
    ]
    for i in range(16, 64):
        p, q = f"w{i - 15}", f"w{i - 2}"
        s0 = f"(({rotr(p, 7)}^{rotr(p, 18)})&{_MASK}^({p}>>3))"
        s1 = f"(({rotr(q, 17)}^{rotr(q, 19)})&{_MASK}^({q}>>10))"
        lines.append(
            f"    w{i} = (w{i - 16} + {s0} + w{i - 7} + {s1}) & {_MASK}"
        )
    names = "abcdefgh"
    lines.append("    a, b, c, d, e, f, g, h = self._h")
    for i in range(64):
        # Fixed variables, rotating roles: the variable playing role j in
        # round i is names[(j - i) % 8], so each round is two assignments.
        a, b, c, d, e, f, g, h = (names[(j - i) % 8] for j in range(8))
        s1 = f"(({rotr(e, 6)}^{rotr(e, 11)}^{rotr(e, 25)})&{_MASK})"
        ch = f"(({e}&{f})^(~{e}&{g}))"
        s0 = f"(({rotr(a, 2)}^{rotr(a, 13)}^{rotr(a, 22)})&{_MASK})"
        maj = f"(({a}&{b})^({a}&{c})^({b}&{c}))"
        lines.append(f"    t1 = {h} + {s1} + {ch} + {_K[i]} + w{i}")
        lines.append(f"    {d} = ({d} + t1) & {_MASK}")
        lines.append(f"    {h} = (t1 + {s0} + {maj}) & {_MASK}")
    lines.append("    hh = self._h")
    lines.append(
        "    self._h = ["
        + ", ".join(f"(hh[{j}] + {names[j]}) & {_MASK}" for j in range(8))
        + "]"
    )
    namespace = {"_UNPACK16": struct.Struct(">16I").unpack}
    exec(compile("\n".join(lines), "<sha256-compress>", "exec"), namespace)
    return namespace["_compress"]


class SHA256:
    """Incremental SHA-256, mirroring the :mod:`hashlib` interface."""

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
        """Absorb *data* into the hash state.

        Copies nothing but the sub-block tail: full blocks are compressed
        straight out of the caller's buffer (bytes inputs are sliced
        directly; other bytes-like inputs through a memoryview), and the
        partial-block remainder is appended to a persistent bytearray
        rather than re-concatenated per call.
        """
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
            # Top up the pending partial block first.
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
        """Return the digest of everything absorbed so far."""
        # Work on a copy so the caller can keep updating.
        clone = self.copy()
        bit_length = clone._length * 8
        pad_len = (55 - clone._length) % 64
        clone.update(b"\x80" + b"\x00" * pad_len + struct.pack(">Q", bit_length))
        assert not clone._buffer
        return struct.pack(">8I", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()

    def copy(self) -> "SHA256":
        clone = SHA256()
        clone._h = list(self._h)
        clone._buffer = bytearray(self._buffer)
        clone._length = self._length
        return clone

    # Unrolled FIPS 180-4 compression, generated at import (see above).
    _compress = _generate_compress()

    # ---------------------------------------------------------- midstates

    def midstate(self) -> tuple:
        """Snapshot of the absorbed state, resumable via :meth:`from_midstate`.

        Cheaper than :meth:`copy` when many continuations hang off one
        prefix (HMAC's per-key inner/outer states are the canonical use):
        the snapshot is immutable, so restoring never aliases the live
        hash object.
        """
        return (tuple(self._h), self._length, bytes(self._buffer))

    @classmethod
    def from_midstate(cls, state: tuple) -> "SHA256":
        """Rebuild a hash object that continues from a :meth:`midstate`."""
        h, length, buffer = state
        clone = cls()
        clone._h = list(h)
        clone._length = length
        clone._buffer = bytearray(buffer)
        return clone


def sha256(data: bytes) -> bytes:
    """One-shot digest using the from-scratch implementation."""
    return SHA256(data).digest()


def sha256_fast(data: bytes) -> bytes:
    """One-shot digest using :mod:`hashlib` (identical output, C speed)."""
    return hashlib.sha256(data).digest()
