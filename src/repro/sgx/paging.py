"""EPC paging: EWB / ELDU with replay protection.

SGX lets the OS evict EPC pages to ordinary memory (EWB) and reload them
(ELDU).  Because the OS is untrusted, evicted pages are sealed with a
paging key and bound to a *version counter* kept in hardware-protected
Version Array slots — so the OS can neither tamper with an evicted page
nor replay a stale copy of it.  This module models that machinery; the
machine-level instructions live in :class:`~repro.sgx.isa.SgxMachine`
(``ewb``/``eldu``) and the host policy in
:meth:`~repro.sgx.host.HostOS.page_out`/``page_in``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..crypto.mac import HmacKey, constant_time_eq
from ..errors import SgxError
from ..faults.hooks import DROP, fault_hook
from .params import PAGE_SIZE

__all__ = ["EvictedPage", "VersionArray"]


@dataclass(frozen=True)
class EvictedPage:
    """The sealed blob the OS holds for an evicted page.

    Everything here is attacker-visible (and attacker-storable); security
    rests on the MAC and the version check at reload.
    """

    eid: int
    vaddr: int
    version: int
    perms: str           # EPCM permissions at eviction time, e.g. "rw-"
    ciphertext: bytes    # sealed page content
    mac: bytes

    def body(self) -> bytes:
        return (
            self.eid.to_bytes(4, "little")
            + self.vaddr.to_bytes(8, "little")
            + self.version.to_bytes(8, "little")
            + self.perms.encode()
            + self.ciphertext
        )


class VersionArray:
    """Hardware-protected version slots, one per evicted page.

    Real SGX stores these in dedicated VA pages inside the EPC; the
    property that matters — the OS cannot read or forge them — is modelled
    by keeping them inside the machine object, unreachable through any
    host-facing API.
    """

    def __init__(self) -> None:
        self._versions: dict[tuple[int, int], int] = {}
        self._counter = 0

    def assign(self, eid: int, vaddr: int) -> int:
        """Allocate a fresh version for an eviction; returns the number."""
        key = (eid, vaddr)
        if key in self._versions:
            raise SgxError(
                f"page {vaddr:#x} of enclave {eid} is already evicted"
            )
        self._counter += 1
        self._versions[key] = self._counter
        return self._counter

    def consume(self, eid: int, vaddr: int, version: int) -> None:
        """Check-and-clear at reload; a mismatch is a replay."""
        key = (eid, vaddr)
        current = self._versions.get(key)
        if current is None:
            raise SgxError(
                f"no eviction record for page {vaddr:#x} of enclave {eid} "
                "(double reload or replay)"
            )
        if current != version:
            raise SgxError(
                f"version mismatch for page {vaddr:#x}: the OS supplied a "
                f"stale copy (v{version}, expected v{current})"
            )
        del self._versions[key]

    def pending(self, eid: int) -> int:
        """Number of pages of *eid* currently evicted."""
        return sum(1 for (e, _v) in self._versions if e == eid)


def seal_page(
    paging_key: bytes, eid: int, vaddr: int, version: int, perms: str,
    plaintext: bytes,
) -> EvictedPage:
    """EWB's sealing: encrypt + MAC the page under the paging key."""
    if len(plaintext) != PAGE_SIZE:
        raise SgxError("EWB seals whole pages")
    stream = _stream(paging_key, eid, vaddr, version)
    ciphertext = _xor(plaintext, stream)
    blob = EvictedPage(
        eid=eid, vaddr=vaddr, version=version, perms=perms,
        ciphertext=ciphertext, mac=b"",
    )
    # A per-call HmacKey, not the shared hmac_key LRU, which would keep
    # the device's paging key after the machine is dropped.
    mac = HmacKey(paging_key).mac(blob.body())
    return EvictedPage(
        eid=eid, vaddr=vaddr, version=version, perms=perms,
        ciphertext=ciphertext, mac=mac,
    )


def unseal_page(paging_key: bytes, blob: EvictedPage) -> bytes:
    """ELDU's unsealing: verify the MAC, decrypt."""
    # Injected corruption hits the sealed ciphertext *before* the MAC
    # check, so the replay-protection machinery is what catches it.
    ciphertext = fault_hook("sgx.paging.unseal", blob.ciphertext, error=SgxError)
    if ciphertext is DROP:
        raise SgxError(
            f"[fault:sgx.paging.unseal:drop] evicted page {blob.vaddr:#x} "
            "lost by the OS"
        )
    if ciphertext is not blob.ciphertext:
        blob = EvictedPage(
            eid=blob.eid, vaddr=blob.vaddr, version=blob.version,
            perms=blob.perms, ciphertext=ciphertext, mac=blob.mac,
        )
    expected = HmacKey(paging_key).mac(
        EvictedPage(
            eid=blob.eid, vaddr=blob.vaddr, version=blob.version,
            perms=blob.perms, ciphertext=blob.ciphertext, mac=b"",
        ).body()
    )
    if not constant_time_eq(expected, blob.mac):
        raise SgxError(
            f"ELDU MAC failure for page {blob.vaddr:#x}: evicted page was "
            "tampered with"
        )
    stream = _stream(paging_key, blob.eid, blob.vaddr, blob.version)
    return _xor(blob.ciphertext, stream)


def _stream(key: bytes, eid: int, vaddr: int, version: int) -> bytes:
    seed = (key + eid.to_bytes(4, "little") + vaddr.to_bytes(8, "little")
            + version.to_bytes(8, "little"))
    return hashlib.shake_128(seed).digest(PAGE_SIZE)


def _xor(a: bytes, b: bytes) -> bytes:
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")
