"""Enclave measurement (MRENCLAVE).

SGX builds a SHA-256 digest of "a log of all activities during enclave
initialization" (paper section 2): ECREATE contributes the enclave's
shape, each EADD contributes the page's address and security attributes,
and EEXTEND contributes the page *contents* in 256-byte chunks.  EINIT
finalises the digest.  Identical build sequences therefore yield identical
MRENCLAVE values — the property attestation relies on.

The digest runs on :mod:`hashlib`: like the MEE keystream in
:mod:`repro.sgx.epc`, the measurement is simulated *hardware*, outside
the from-scratch rule for the paper's software crypto.
"""

from __future__ import annotations

import hashlib
import struct

from ..errors import SgxError

__all__ = ["Measurement"]

# The three log tags, pre-padded to the fixed 8-byte field.
_PADDED_TAGS = {
    tag: tag.ljust(8, b"\x00") for tag in (b"ECREATE", b"EADD", b"EEXTEND")
}


class Measurement:
    """Incremental MRENCLAVE digest mirroring the SGX measurement log."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._final: bytes | None = None

    @property
    def finalized(self) -> bool:
        return self._final is not None

    def _absorb(self, tag: bytes, *parts: bytes) -> None:
        # Streamed into the hash as three updates; the absorbed byte
        # sequence (length prefix, padded tag, payload) is unchanged, so
        # MRENCLAVE values are identical to the concatenating form.
        if self._final is not None:
            raise SgxError("measurement already finalised by EINIT")
        update = self._hash.update
        update(struct.pack("<I", 8 + sum(len(p) for p in parts)))
        update(_PADDED_TAGS.get(tag) or tag.ljust(8, b"\x00"))
        for part in parts:
            update(part)

    def ecreate(self, base: int, size: int, attributes: int) -> None:
        self._absorb(b"ECREATE", struct.pack("<QQQ", base, size, attributes))

    def eadd(self, vaddr: int, page_type: str, perms: str) -> None:
        self._absorb(
            b"EADD",
            struct.pack("<Q", vaddr), page_type.encode(), perms.encode(),
        )

    def eextend(self, vaddr: int, chunk: bytes) -> None:
        self._absorb(b"EEXTEND", struct.pack("<Q", vaddr), chunk)

    def finalize(self) -> bytes:
        """EINIT: freeze and return MRENCLAVE."""
        if self._final is None:
            self._final = self._hash.digest()
        return self._final

    @property
    def mrenclave(self) -> bytes:
        if self._final is None:
            raise SgxError("enclave not yet initialised (no EINIT)")
        return self._final
