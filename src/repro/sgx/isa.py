"""The SGX instruction layer: lifecycle + SGX2 dynamic-memory extensions.

Each method models one of the enclave-management instructions (the paper
notes SGX defines 24; we implement the ones the EnGarde pipeline
exercises) and charges the OpenSGX cost model's 10 000 cycles through the
:class:`~repro.sgx.cpu.CycleMeter`.

SGX2 instructions (EAUG, EMODPR, EMODPE) are gated on
:attr:`~repro.sgx.params.SgxParams.sgx2`: the paper argues EnGarde *needs*
SGX2 because only EPC-level permission bits are tamper-proof against a
malicious OS — with ``sgx2=False`` the machine reproduces the SGX1
limitation (and the corresponding ablation test shows the attack window).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..crypto import hmac_sha256
from ..crypto.mac import HmacKey, constant_time_eq
from ..errors import EnclaveSealedError, SgxError
from .cpu import CycleMeter
from .enclave import Enclave, EnclaveState, Secs
from .epc import Epc, PagePermissions
from .measurement import Measurement
from .paging import EvictedPage, VersionArray, seal_page, unseal_page
from .params import PAGE_SIZE, SgxParams

__all__ = ["SgxMachine", "Report", "EvictedPage"]


@dataclass(frozen=True)
class Report:
    """Output of EREPORT: enclave identity MAC'd with the report key."""

    eid: int
    mrenclave: bytes
    attributes: int
    report_data: bytes  # 64 bytes of caller-chosen data
    mac: bytes

    def body(self) -> bytes:
        return (
            struct.pack("<IQ", self.eid, self.attributes)
            + self.mrenclave
            + self.report_data
        )


class SgxMachine:
    """One SGX-capable physical machine: EPC + enclaves + hardware keys."""

    def __init__(
        self,
        params: SgxParams | None = None,
        *,
        meter: CycleMeter | None = None,
        hardware_seed: bytes = b"sgx-machine-0",
    ) -> None:
        self.params = params or SgxParams()
        self.meter = meter or CycleMeter()
        # Device-unique root key; everything hardware-secret derives from it.
        # The machine holds its own prepared keys: the shared hmac_key LRU
        # would keep these device secrets after the machine is dropped.
        self._root_hmac = HmacKey(hmac_sha256(b"sgx-root", hardware_seed))
        self._report_hmac = HmacKey(self._root_hmac.mac(b"report-key"))
        self.epc = Epc(self.params.epc_pages, self._root_hmac.mac(b"mee-key"))
        self._paging_key = self._root_hmac.mac(b"paging-key")
        self._version_array = VersionArray()
        self.enclaves: dict[int, Enclave] = {}
        self._next_eid = 1

    # ------------------------------------------------------- lifecycle

    def ecreate(self, base: int, size: int, attributes: int = 0) -> Enclave:
        """ECREATE: allocate an enclave covering [base, base+size)."""
        if base % PAGE_SIZE or size % PAGE_SIZE:
            raise SgxError("ELRANGE must be page-aligned")
        if size <= 0:
            raise SgxError("enclave size must be positive")
        self.meter.charge_sgx()
        enclave = Enclave(
            eid=self._next_eid,
            secs=Secs(base=base, size=size, attributes=attributes),
            epc=self.epc,
            measurement=Measurement(),
        )
        enclave.measurement.ecreate(base, size, attributes)
        self.enclaves[enclave.eid] = enclave
        self._next_eid += 1
        return enclave

    def eadd(
        self,
        enclave: Enclave,
        vaddr: int,
        content: bytes = b"",
        *,
        page_type: str = "REG",
        perms: PagePermissions | None = None,
    ) -> None:
        """EADD: add one page (pre-EINIT only); content is measured via EEXTEND."""
        self._check_pending(enclave, "EADD")
        self._check_addable(enclave, vaddr)
        self.meter.charge_sgx()
        perms = perms or PagePermissions(read=True, write=True, execute=True)
        page = self.epc.allocate(enclave.eid, vaddr)
        page.perms = perms
        enclave.pages[vaddr] = page
        enclave.measurement.eadd(vaddr, page_type, perms.as_str())
        if content:
            if len(content) > PAGE_SIZE:
                raise SgxError("EADD content exceeds one page")
            padded = content.ljust(PAGE_SIZE, b"\x00")
            self.epc.write_plaintext(page, padded, eid=enclave.eid)

    def eextend(self, enclave: Enclave, vaddr: int) -> None:
        """EEXTEND: measure one 256-byte chunk of an added page."""
        self._check_pending(enclave, "EEXTEND")
        page_vaddr = vaddr & ~(PAGE_SIZE - 1)
        if page_vaddr not in enclave.pages:
            raise SgxError(f"EEXTEND of unmapped page {page_vaddr:#x}")
        if vaddr % self.params.eextend_chunk:
            raise SgxError("EEXTEND offset must be 256-byte aligned")
        self.meter.charge_sgx()
        page = enclave.pages[page_vaddr]
        plain = self.epc.read_plaintext(page, eid=enclave.eid)
        off = vaddr - page_vaddr
        chunk = plain[off:off + self.params.eextend_chunk]
        enclave.measurement.eextend(vaddr, chunk)

    def add_measured_page(
        self,
        enclave: Enclave,
        vaddr: int,
        content: bytes = b"",
        *,
        page_type: str = "REG",
        perms: PagePermissions | None = None,
    ) -> None:
        """EADD + the 16 EEXTENDs that measure the full page.

        One decrypt instead of sixteen; each chunk is still charged and
        absorbed exactly as sixteen :meth:`eextend` calls would.
        """
        self.eadd(enclave, vaddr, content, page_type=page_type, perms=perms)
        chunk = self.params.eextend_chunk
        plain = self.epc.read_plaintext(enclave.pages[vaddr], eid=enclave.eid)
        eextend = enclave.measurement.eextend
        charge_sgx = self.meter.charge_sgx
        for off in range(0, PAGE_SIZE, chunk):
            charge_sgx()
            eextend(vaddr + off, plain[off:off + chunk])

    def einit(self, enclave: Enclave) -> bytes:
        """EINIT: finalise the measurement; enclave becomes enterable."""
        self._check_pending(enclave, "EINIT")
        self.meter.charge_sgx()
        mrenclave = enclave.measurement.finalize()
        enclave.secs.mrenclave = mrenclave
        enclave.state = EnclaveState.INITIALIZED
        return mrenclave

    def eenter(self, enclave: Enclave) -> None:
        if enclave.state is not EnclaveState.INITIALIZED:
            raise SgxError("EENTER before EINIT")
        self.meter.charge_sgx()
        enclave.entered += 1

    def eexit(self, enclave: Enclave) -> None:
        if enclave.entered <= 0:
            raise SgxError("EEXIT without matching EENTER")
        self.meter.charge_sgx()
        enclave.entered -= 1

    def eremove(self, enclave: Enclave, vaddr: int) -> None:
        """EREMOVE: evict one page (enclave must not be running)."""
        if enclave.entered:
            raise SgxError("EREMOVE while enclave has running threads")
        page = enclave.pages.pop(vaddr, None)
        if page is None:
            raise SgxError(f"EREMOVE of unmapped page {vaddr:#x}")
        self.meter.charge_sgx()
        self.epc.release(page)

    def destroy(self, enclave: Enclave) -> None:
        """Tear the whole enclave down (EREMOVE every page)."""
        for vaddr in list(enclave.pages):
            self.eremove(enclave, vaddr)
        self.enclaves.pop(enclave.eid, None)

    # ------------------------------------------------- SGX2 extensions

    def eaug(self, enclave: Enclave, vaddr: int) -> None:
        """EAUG: dynamically add a zeroed page post-EINIT (SGX2 only)."""
        if not self.params.sgx2:
            raise SgxError(
                "EAUG requires SGX2 (dynamic memory management); "
                "this machine models SGX1"
            )
        if enclave.state is not EnclaveState.INITIALIZED:
            raise SgxError("EAUG before EINIT")
        self._check_addable(enclave, vaddr)
        self.meter.charge_sgx()
        page = self.epc.allocate(enclave.eid, vaddr)
        page.perms = PagePermissions(read=True, write=True, execute=False)
        enclave.pages[vaddr] = page

    def emodpr(self, enclave: Enclave, vaddr: int, perms: PagePermissions) -> None:
        """EMODPR: restrict EPC-level page permissions (SGX2 only).

        This is the hardware-rooted W^X EnGarde's host component relies on.
        """
        if not self.params.sgx2:
            raise SgxError("EMODPR requires SGX2; page permissions are fixed on SGX1")
        page = enclave.pages.get(vaddr)
        if page is None:
            raise SgxError(f"EMODPR of unmapped page {vaddr:#x}")
        old = page.perms
        if (perms.read and not old.read) or (perms.write and not old.write) \
                or (perms.execute and not old.execute):
            raise SgxError("EMODPR can only restrict permissions (use EMODPE to extend)")
        self.meter.charge_sgx()
        page.perms = perms

    def emodpe(self, enclave: Enclave, vaddr: int, perms: PagePermissions) -> None:
        """EMODPE: extend page permissions — only from inside the enclave."""
        if not self.params.sgx2:
            raise SgxError("EMODPE requires SGX2")
        if not enclave.entered:
            raise SgxError("EMODPE must execute from inside the enclave")
        page = enclave.pages.get(vaddr)
        if page is None:
            raise SgxError(f"EMODPE of unmapped page {vaddr:#x}")
        self.meter.charge_sgx()
        page.perms = perms

    # ---------------------------------------------------------- paging

    def ewb(self, enclave: Enclave, vaddr: int) -> "EvictedPage":
        """EWB: evict a page to (untrusted) main memory, sealed + versioned.

        The freed EPC slot returns to the pool; the OS holds the sealed
        blob and must present the *current* version at reload — stale or
        tampered blobs are rejected by ELDU.
        """
        page = enclave.pages.get(vaddr)
        if page is None:
            raise SgxError(f"EWB of unmapped page {vaddr:#x}")
        if enclave.entered:
            raise SgxError("EWB while enclave threads are running")
        self.meter.charge_sgx()
        plaintext = self.epc.read_plaintext(page, eid=enclave.eid)
        version = self._version_array.assign(enclave.eid, vaddr)
        blob = seal_page(
            self._paging_key, enclave.eid, vaddr, version,
            page.perms.as_str(), plaintext,
        )
        del enclave.pages[vaddr]
        self.epc.release(page)
        return blob

    def eldu(self, enclave: Enclave, blob: "EvictedPage") -> None:
        """ELDU: reload an evicted page (MAC + anti-replay version check)."""
        if blob.eid != enclave.eid:
            raise SgxError("ELDU: blob belongs to a different enclave")
        if blob.vaddr in enclave.pages:
            raise SgxError(f"ELDU: page {blob.vaddr:#x} is already resident")
        self.meter.charge_sgx()
        # Order matters: verify the version *before* consuming EPC space.
        self._version_array.consume(enclave.eid, blob.vaddr, blob.version)
        plaintext = unseal_page(self._paging_key, blob)
        page = self.epc.allocate(enclave.eid, blob.vaddr)
        page.perms = PagePermissions(
            read="r" in blob.perms, write="w" in blob.perms,
            execute="x" in blob.perms,
        )
        enclave.pages[blob.vaddr] = page
        self.epc.write_plaintext(page, plaintext, eid=enclave.eid)

    # ------------------------------------------------------ attestation

    def ereport(self, enclave: Enclave, report_data: bytes) -> Report:
        """EREPORT: produce a locally-verifiable report of enclave identity."""
        if enclave.state is not EnclaveState.INITIALIZED:
            raise SgxError("EREPORT before EINIT")
        if len(report_data) > 64:
            raise SgxError("report data is limited to 64 bytes")
        self.meter.charge_sgx()
        report_data = report_data.ljust(64, b"\x00")
        body = (
            struct.pack("<IQ", enclave.eid, enclave.secs.attributes)
            + enclave.mrenclave
            + report_data
        )
        return Report(
            eid=enclave.eid,
            mrenclave=enclave.mrenclave,
            attributes=enclave.secs.attributes,
            report_data=report_data,
            mac=self._report_hmac.mac(body),
        )

    def verify_report(self, report: Report) -> bool:
        """Check a report's MAC — only code on the same machine can."""
        return constant_time_eq(self._report_hmac.mac(report.body()), report.mac)

    def egetkey(self, enclave: Enclave, key_name: bytes) -> bytes:
        """EGETKEY: derive an enclave-and-machine-specific key (sealing)."""
        if enclave.state is not EnclaveState.INITIALIZED:
            raise SgxError("EGETKEY before EINIT")
        self.meter.charge_sgx()
        return self._root_hmac.mac(b"seal", enclave.mrenclave, key_name)

    # ---------------------------------------------------------- helpers

    def _check_pending(self, enclave: Enclave, what: str) -> None:
        if enclave.state is not EnclaveState.PENDING:
            raise SgxError(f"{what} after EINIT")
        if enclave.sealed:
            raise EnclaveSealedError(f"{what} on a sealed enclave")

    def _check_addable(self, enclave: Enclave, vaddr: int) -> None:
        if enclave.sealed:
            raise EnclaveSealedError(
                f"enclave {enclave.eid} is sealed; no pages may be added"
            )
        if vaddr % PAGE_SIZE:
            raise SgxError("page vaddr must be page-aligned")
        if not enclave.contains(vaddr, PAGE_SIZE):
            raise SgxError(f"page {vaddr:#x} outside ELRANGE")
        if vaddr in enclave.pages:
            raise SgxError(f"page {vaddr:#x} already mapped")
