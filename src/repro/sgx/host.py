"""The host operating system's view of an enclave.

Although the OS cannot read plaintext enclave content, it remains
responsible for enclave management (paper section 2): creating enclaves,
adding/removing pages, and maintaining page tables.  This module models:

* the host page table (virtual address -> EPC slot + OS-level permissions),
* the **trampoline**: in-enclave code cannot issue system calls, so it
  EEXITs, has the untrusted runtime perform the service (heap growth,
  socket I/O), and EENTERs back — each trampoline costs two SGX
  instructions, which is why EnGarde's disassembler allocates its
  instruction buffer a page at a time (paper section 4),
* **EnGarde's host-level component**: after the in-enclave checker reports
  the list of executable pages, the host marks them execute-not-write and
  everything else write-not-execute (at both page-table and, on SGX2, EPC
  level), and seals the enclave against any further page additions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import EnclaveSealedError, SgxError
from ..net import SimSocket
from .enclave import Enclave
from .epc import PagePermissions
from .isa import SgxMachine
from .params import PAGE_SIZE

__all__ = ["HostOS", "PteFlags", "EnclaveRuntime"]


@dataclass
class PteFlags:
    """OS page-table permission bits (the software-level, SGX1-era check)."""

    read: bool = True
    write: bool = True
    execute: bool = False


@dataclass
class EnclaveRuntime:
    """Host-side bookkeeping for one enclave-bearing process."""

    enclave: Enclave
    page_table: dict[int, PteFlags] = field(default_factory=dict)
    #: region reserved for the client's loaded image (starts rwx at the EPC
    #: level so EMODPR can later *restrict* each page to r-x or rw-)
    client_base: int = 0
    client_pages: int = 0
    heap_base: int = 0
    heap_pages: int = 0
    heap_used_pages: int = 0
    trampoline_calls: int = 0
    sockets: dict[int, SimSocket] = field(default_factory=dict)
    #: sealed blobs of pages this host has swapped out (vaddr -> blob)
    evicted: dict[int, object] = field(default_factory=dict)
    _next_fd: int = 3


class HostOS:
    """The untrusted host: enclave builder, trampoline, EnGarde component."""

    def __init__(self, machine: SgxMachine) -> None:
        self.machine = machine
        self.runtimes: dict[int, EnclaveRuntime] = {}

    # ----------------------------------------------------- enclave build

    def build_enclave(
        self,
        *,
        base: int,
        size: int,
        bootstrap_pages: dict[int, bytes],
        heap_pages: int | None = None,
        client_pages: int = 0,
    ) -> EnclaveRuntime:
        """ECREATE + EADD/EEXTEND bootstrap content + client region + heap + EINIT.

        *bootstrap_pages* maps page-aligned vaddrs to their initial
        contents (EnGarde's code, crypto libraries, ...).  All of it is
        measured, so attestation covers exactly this bootstrap state.

        *client_pages* reserves a region for the client's loaded image.
        Its pages start rwx at the EPC level: SGX2's EMODPR can only
        *restrict* permissions, so provisioning writes the image while the
        pages are writable and the EnGarde host component then drops each
        page to r-x (code) or rw- (data).
        """
        machine = self.machine
        heap_pages = (
            machine.params.heap_initial_pages if heap_pages is None else heap_pages
        )
        enclave = machine.ecreate(base, size)
        runtime = EnclaveRuntime(enclave=enclave)

        for vaddr, content in sorted(bootstrap_pages.items()):
            machine.add_measured_page(enclave, vaddr, content)
            runtime.page_table[vaddr] = PteFlags(read=True, write=True, execute=True)

        occupied = max(bootstrap_pages, default=base - PAGE_SIZE) + PAGE_SIZE
        client_base = _page_align_up(occupied)
        for i in range(client_pages):
            vaddr = client_base + i * PAGE_SIZE
            if not enclave.contains(vaddr, PAGE_SIZE):
                raise SgxError(
                    f"client region of {client_pages} pages does not fit in ELRANGE"
                )
            machine.eadd(
                enclave, vaddr,
                perms=PagePermissions(read=True, write=True, execute=True),
            )
            runtime.page_table[vaddr] = PteFlags(read=True, write=True, execute=False)
        runtime.client_base = client_base
        runtime.client_pages = client_pages

        # Heap: committed at build time (SGX1 requires predicting the
        # maximum; the paper bumps OpenSGX's default from 300 to 5000).
        heap_base = _page_align_up(client_base + client_pages * PAGE_SIZE)
        for i in range(heap_pages):
            vaddr = heap_base + i * PAGE_SIZE
            if not enclave.contains(vaddr, PAGE_SIZE):
                raise SgxError(
                    f"heap of {heap_pages} pages does not fit in ELRANGE"
                )
            machine.eadd(
                enclave, vaddr,
                perms=PagePermissions(read=True, write=True, execute=False),
            )
            runtime.page_table[vaddr] = PteFlags()
        runtime.heap_base = heap_base
        runtime.heap_pages = heap_pages

        machine.einit(enclave)
        # Forget the runtimes of enclaves destroyed since the last build,
        # whoever destroyed them, so a long-lived host does not grow.
        for eid in list(self.runtimes):
            if eid not in machine.enclaves:
                self.runtimes.pop(eid, None)
        self.runtimes[enclave.eid] = runtime
        return runtime

    # -------------------------------------------------------- trampoline

    def trampoline(self, runtime: EnclaveRuntime) -> None:
        """Account one enclave exit/re-entry pair around a host service."""
        machine = self.machine
        machine.eexit(runtime.enclave)
        runtime.trampoline_calls += 1
        machine.eenter(runtime.enclave)

    def svc_alloc_pages(self, runtime: EnclaveRuntime, n_pages: int) -> int:
        """Heap growth service: returns the base vaddr of *n_pages* fresh pages.

        Satisfied from the pre-committed heap when possible; beyond that,
        EAUG extends the heap dynamically (SGX2).  Callers must already be
        inside the enclave; the trampoline cost is charged here.
        """
        if n_pages <= 0:
            raise SgxError("allocation must be at least one page")
        self.trampoline(runtime)
        enclave = runtime.enclave
        base = runtime.heap_base + runtime.heap_used_pages * PAGE_SIZE
        precommitted = runtime.heap_pages - runtime.heap_used_pages
        grow = n_pages - precommitted
        if grow > 0:
            if enclave.sealed:
                raise EnclaveSealedError("cannot grow a sealed enclave's heap")
            start = runtime.heap_base + runtime.heap_pages * PAGE_SIZE
            for i in range(grow):
                vaddr = start + i * PAGE_SIZE
                self.machine.eaug(enclave, vaddr)
                runtime.page_table[vaddr] = PteFlags()
            runtime.heap_pages += grow
        runtime.heap_used_pages += n_pages
        return base

    def svc_socket(self, runtime: EnclaveRuntime, sock: SimSocket) -> int:
        """Register an (already-connected) socket; returns a descriptor."""
        self.trampoline(runtime)
        fd = runtime._next_fd
        runtime._next_fd += 1
        runtime.sockets[fd] = sock
        return fd

    def svc_send(self, runtime: EnclaveRuntime, fd: int, data: bytes) -> None:
        self.trampoline(runtime)
        self._socket(runtime, fd).send(data)

    def svc_recv(self, runtime: EnclaveRuntime, fd: int) -> bytes:
        self.trampoline(runtime)
        return self._socket(runtime, fd).recv()

    def _socket(self, runtime: EnclaveRuntime, fd: int) -> SimSocket:
        try:
            return runtime.sockets[fd]
        except KeyError:
            raise SgxError(f"bad socket descriptor {fd}") from None

    # ------------------------------------------------------- EPC paging

    def page_out(self, runtime: EnclaveRuntime, vaddr: int) -> None:
        """Swap one enclave page out of the EPC (EWB); the host keeps the
        sealed blob.  Used under EPC pressure."""
        blob = self.machine.ewb(runtime.enclave, vaddr)
        runtime.evicted[vaddr] = blob
        pte = runtime.page_table.get(vaddr)
        if pte is not None:
            pte.read = pte.write = pte.execute = False  # not present

    def page_in(self, runtime: EnclaveRuntime, vaddr: int) -> None:
        """Reload a previously evicted page (ELDU + PTE restore)."""
        blob = runtime.evicted.pop(vaddr, None)
        if blob is None:
            raise SgxError(f"no evicted copy of page {vaddr:#x}")
        self.machine.eldu(runtime.enclave, blob)
        perms = runtime.enclave.pages[vaddr].perms
        runtime.page_table[vaddr] = PteFlags(
            read=perms.read, write=perms.write, execute=perms.execute
        )

    def evict_all_idle(self, runtime: EnclaveRuntime) -> int:
        """Swap out every resident page of an idle enclave; returns the
        count.  A simple whole-enclave policy — enough to model EPC
        multiplexing across tenants."""
        count = 0
        for vaddr in sorted(runtime.enclave.pages):
            self.page_out(runtime, vaddr)
            count += 1
        return count

    # --------------------------------------- EnGarde host-level component

    def apply_engarde_protections(
        self, runtime: EnclaveRuntime, executable_vaddrs: list[int]
    ) -> None:
        """Enforce W^X over the provisioned client pages and seal the enclave.

        The in-enclave component reports which pages hold client *code*;
        the host marks those execute-but-not-write and the rest
        write-but-not-execute, at the page-table level and — on SGX2 — at
        the EPC level via EMODPR.  Finally the enclave is sealed so no
        code can be injected after the compliance check (paper section 3).
        """
        enclave = runtime.enclave
        exec_set = set()
        for vaddr in executable_vaddrs:
            if vaddr % PAGE_SIZE:
                raise SgxError(f"executable page {vaddr:#x} is not page-aligned")
            if vaddr not in enclave.pages:
                raise SgxError(f"executable page {vaddr:#x} is not mapped")
            exec_set.add(vaddr)

        for vaddr in exec_set:
            runtime.page_table[vaddr] = PteFlags(read=True, write=False, execute=True)
            if self.machine.params.sgx2:
                self.machine.emodpr(
                    enclave, vaddr,
                    PagePermissions(read=True, write=False, execute=True),
                )

        for vaddr in enclave.pages:
            if vaddr in exec_set:
                continue
            pte = runtime.page_table.setdefault(vaddr, PteFlags())
            pte.execute = False
            pte.write = True
            if self.machine.params.sgx2:
                page = enclave.pages[vaddr]
                if page.perms.execute:
                    self.machine.emodpr(
                        enclave, vaddr,
                        PagePermissions(read=True, write=page.perms.write,
                                        execute=False),
                    )

        enclave.sealed = True

    # ----------------------------------------------- adversary's eye view

    def peek_enclave_memory(self, runtime: EnclaveRuntime, vaddr: int) -> bytes:
        """What the (possibly malicious) host sees when it reads an EPC page:
        ciphertext only."""
        page = runtime.enclave.page_at(vaddr)
        return self.machine.epc.read_ciphertext(page)


def _page_align_up(vaddr: int) -> int:
    return (vaddr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
