"""Textbook-plus-padding RSA: keygen, PKCS#1 v1.5-style encrypt and sign.

EnGarde's provisioning channel (paper section 3, "Overall Design") has the
freshly-booted enclave generate a 2048-bit RSA key pair; the client wraps a
256-bit AES key under the enclave's public key.  The quoting enclave also
signs attestation quotes with a device key.  This module supplies both uses.

Padding follows the shape of PKCS#1 v1.5 (block type 02 for encryption with
non-zero random filler, block type 01 with 0xFF filler for signatures over a
SHA-256 DigestInfo).  It is implemented from scratch and is *not* intended to
resist real-world padding-oracle adversaries — the adversary in this
simulation is the simulated cloud provider, who never gets a decryption
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import CryptoError
from .mac import HmacDrbg
from .primes import generate_prime
from .sha256 import sha256_fast

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_keypair"]

# DER prefix of a DigestInfo structure for SHA-256 (RFC 8017 section 9.2).
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")

_MIN_PAD = 8  # PKCS#1 v1.5 minimum padding-string length


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @property
    def size_bits(self) -> int:
        return self.n.bit_length()

    def encrypt(self, plaintext: bytes, rng: HmacDrbg) -> bytes:
        """Encrypt *plaintext* with PKCS#1 v1.5 type-02 padding."""
        k = self.size_bytes
        if len(plaintext) > k - 3 - _MIN_PAD:
            raise CryptoError(
                f"plaintext too long for RSA-{self.size_bits}: "
                f"{len(plaintext)} > {k - 3 - _MIN_PAD} bytes"
            )
        pad_len = k - 3 - len(plaintext)
        filler = bytearray()
        while len(filler) < pad_len:
            filler += bytes(b for b in rng.generate(pad_len) if b != 0)
        block = b"\x00\x02" + bytes(filler[:pad_len]) + b"\x00" + plaintext
        c = pow(int.from_bytes(block, "big"), self.e, self.n)
        return c.to_bytes(k, "big")

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Verify a PKCS#1 v1.5 SHA-256 signature.  Returns True/False."""
        k = self.size_bytes
        if len(signature) != k:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        block = pow(s, self.e, self.n).to_bytes(k, "big")
        expected = _signature_block(message, k)
        return block == expected

    def fingerprint(self) -> bytes:
        """SHA-256 fingerprint of the public key (used in attestation)."""
        n_bytes = self.n.to_bytes(self.size_bytes, "big")
        e_bytes = self.e.to_bytes(4, "big")
        return sha256_fast(b"rsa-public-key" + e_bytes + n_bytes)


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key with CRT parameters for fast exponentiation."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def _crt_params(self) -> tuple[int, int, int]:
        # (dp, dq, qinv), derived once per key.  ``cached_property``
        # stores into the instance ``__dict__`` directly, which a frozen
        # dataclass permits (only ``__setattr__`` is blocked).
        return (
            self.d % (self.p - 1),
            self.d % (self.q - 1),
            pow(self.q, -1, self.p),
        )

    def _private_op(self, c: int) -> int:
        # CRT: twice as fast as a single pow(c, d, n).
        dp, dq, qinv = self._crt_params
        m1 = pow(c % self.p, dp, self.p)
        m2 = pow(c % self.q, dq, self.q)
        h = (qinv * (m1 - m2)) % self.p
        return m2 + h * self.q

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and strip PKCS#1 v1.5 type-02 padding."""
        k = self.size_bytes
        if len(ciphertext) != k:
            raise CryptoError(f"ciphertext must be exactly {k} bytes")
        c = int.from_bytes(ciphertext, "big")
        if c >= self.n:
            raise CryptoError("ciphertext out of range")
        block = self._private_op(c).to_bytes(k, "big")
        if block[:2] != b"\x00\x02":
            raise CryptoError("bad padding header")
        try:
            sep = block.index(b"\x00", 2)
        except ValueError:
            raise CryptoError("padding separator not found") from None
        if sep - 2 < _MIN_PAD:
            raise CryptoError("padding string too short")
        return block[sep + 1:]

    def sign(self, message: bytes) -> bytes:
        """Produce a PKCS#1 v1.5 SHA-256 signature over *message*."""
        k = self.size_bytes
        block = _signature_block(message, k)
        s = self._private_op(int.from_bytes(block, "big"))
        return s.to_bytes(k, "big")


def _signature_block(message: bytes, k: int) -> bytes:
    digest_info = _SHA256_DIGEST_INFO + sha256_fast(message)
    pad_len = k - 3 - len(digest_info)
    if pad_len < _MIN_PAD:
        raise CryptoError(f"modulus too small for SHA-256 signature ({k} bytes)")
    return b"\x00\x01" + b"\xff" * pad_len + b"\x00" + digest_info


def generate_keypair(bits: int, rng: HmacDrbg, e: int = 65537) -> RsaPrivateKey:
    """Generate an RSA key pair with an exactly *bits*-bit modulus."""
    if bits < 128:
        raise CryptoError("modulus must be at least 128 bits")
    if bits % 2:
        raise CryptoError("modulus size must be even")
    # e = 1 would make encryption the identity; an even e shares the
    # factor 2 with phi, so no prime pair could ever invert it.
    if e < 3 or e % 2 == 0:
        raise CryptoError(f"public exponent must be odd and at least 3, got {e}")
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = pow(e, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; redraw
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)
