"""EPC paging (EWB/ELDU): seal, reload, tamper and replay attacks."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import EpcExhaustedError, SgxError
from repro.sgx import SgxMachine, SgxParams
from repro.sgx.params import PAGE_SIZE

BASE = 0x10000


@pytest.fixture()
def machine():
    return SgxMachine(SgxParams(epc_pages=16, heap_initial_pages=2))


@pytest.fixture()
def enclave(machine):
    e = machine.ecreate(BASE, 0x40000)
    machine.add_measured_page(e, BASE, b"code")
    machine.eadd(e, BASE + PAGE_SIZE, b"data page content")
    machine.einit(e)
    return e


class TestEvictReload:
    def test_roundtrip_preserves_content(self, machine, enclave):
        vaddr = BASE + PAGE_SIZE
        before = enclave.read(vaddr, 32)
        blob = machine.ewb(enclave, vaddr)
        assert vaddr not in enclave.pages
        machine.eldu(enclave, blob)
        assert enclave.read(vaddr, 32) == before

    def test_eviction_frees_epc(self, machine, enclave):
        free_before = machine.epc.free_pages
        blob = machine.ewb(enclave, BASE + PAGE_SIZE)
        assert machine.epc.free_pages == free_before + 1
        machine.eldu(enclave, blob)
        assert machine.epc.free_pages == free_before

    def test_permissions_preserved(self, machine, enclave):
        from repro.sgx import PagePermissions

        vaddr = BASE + PAGE_SIZE
        machine.emodpr(enclave, vaddr, PagePermissions(True, False, False))
        blob = machine.ewb(enclave, vaddr)
        machine.eldu(enclave, blob)
        assert enclave.pages[vaddr].perms.as_str() == "r--"

    def test_evicted_access_faults(self, machine, enclave):
        machine.ewb(enclave, BASE + PAGE_SIZE)
        with pytest.raises(SgxError, match="no EPC page"):
            enclave.read(BASE + PAGE_SIZE, 4)

    def test_ewb_requires_idle_enclave(self, machine, enclave):
        machine.eenter(enclave)
        with pytest.raises(SgxError, match="running"):
            machine.ewb(enclave, BASE + PAGE_SIZE)

    def test_ewb_unmapped(self, machine, enclave):
        with pytest.raises(SgxError, match="unmapped"):
            machine.ewb(enclave, BASE + 8 * PAGE_SIZE)

    def test_eldu_resident_page_rejected(self, machine, enclave):
        blob = machine.ewb(enclave, BASE + PAGE_SIZE)
        machine.eldu(enclave, blob)
        with pytest.raises(SgxError, match="resident"):
            machine.eldu(enclave, blob)

    def test_eviction_relieves_epc_pressure(self, machine, enclave):
        # fill the EPC, then eviction makes room for another enclave
        while machine.epc.free_pages:
            machine.eaug(enclave, BASE + (2 + machine.epc.used_pages) * PAGE_SIZE)
        with pytest.raises(EpcExhaustedError):
            machine.ecreate(0x200000, PAGE_SIZE) and machine.eadd(
                machine.enclaves[max(machine.enclaves)], 0x200000
            )
        machine.ewb(enclave, BASE + PAGE_SIZE)
        assert machine.epc.free_pages == 1


class TestPagingAttacks:
    def test_tampered_blob_rejected(self, machine, enclave):
        blob = machine.ewb(enclave, BASE + PAGE_SIZE)
        flipped = bytearray(blob.ciphertext)
        flipped[100] ^= 0x01
        forged = dataclasses.replace(blob, ciphertext=bytes(flipped))
        with pytest.raises(SgxError, match="MAC"):
            machine.eldu(enclave, forged)

    def test_tag_checks_compare_in_constant_time(
        self, machine, enclave, monkeypatch
    ):
        """ELDU's MAC check and the EPC's per-read tag check both go
        through ``constant_time_eq``, as the channel and
        ``verify_report`` do — never a short-circuiting ``!=``."""
        from repro.crypto.mac import constant_time_eq
        from repro.sgx import epc, paging

        calls = []

        def spy(where):
            def eq(a, b):
                calls.append((where, len(a), len(b)))
                return constant_time_eq(a, b)
            return eq

        monkeypatch.setattr(epc, "constant_time_eq", spy("epc"))
        monkeypatch.setattr(paging, "constant_time_eq", spy("eldu"))
        vaddr = BASE + PAGE_SIZE
        machine.eldu(enclave, machine.ewb(enclave, vaddr))
        assert enclave.read(vaddr, 17) == b"data page content"
        assert ("eldu", 32, 32) in calls
        assert ("epc", 32, 32) in calls

    def test_replay_of_stale_version_rejected(self, machine, enclave):
        """The classic paging replay: evict v1, reload, modify in-enclave
        state, evict again (v2), then try to feed back the stale v1."""
        vaddr = BASE + PAGE_SIZE
        stale = machine.ewb(enclave, vaddr)
        machine.eldu(enclave, stale)
        enclave.write(vaddr, b"updated state")
        fresh = machine.ewb(enclave, vaddr)
        with pytest.raises(SgxError, match="stale"):
            machine.eldu(enclave, stale)
        # and the legitimate copy still loads
        machine.eldu(enclave, fresh)
        assert enclave.read(vaddr, 13) == b"updated state"

    def test_cross_enclave_blob_rejected(self, machine, enclave):
        other = machine.ecreate(0x200000, 0x10000)
        machine.add_measured_page(other, 0x200000, b"other")
        machine.einit(other)
        blob = machine.ewb(enclave, BASE + PAGE_SIZE)
        with pytest.raises(SgxError, match="different enclave"):
            machine.eldu(other, blob)

    def test_blob_is_ciphertext(self, machine, enclave):
        vaddr = BASE + PAGE_SIZE
        secret = enclave.read(vaddr, 17)
        blob = machine.ewb(enclave, vaddr)
        assert secret not in blob.ciphertext

    def test_version_array_not_host_reachable(self, machine):
        # the version store must not be exposed on any public surface
        public = [n for n in dir(machine) if not n.startswith("_")]
        assert "version_array" not in public


class TestSealedEnclaveInteraction:
    def test_paging_a_sealed_enclaves_code_page_keeps_permissions(
        self, machine, enclave
    ):
        """Even if the OS pages out a sealed enclave's code page, it comes
        back executable-not-writable: paging is not a W^X bypass."""
        from repro.sgx import PagePermissions

        vaddr = BASE  # the code page
        machine.emodpr(enclave, vaddr, PagePermissions(True, False, True))
        enclave.sealed = True
        blob = machine.ewb(enclave, vaddr)
        machine.eldu(enclave, blob)
        page = enclave.pages[vaddr]
        assert page.perms.as_str() == "r-x"
        with pytest.raises(SgxError):
            enclave.write(vaddr, b"sneaky")


class TestHostPaging:
    def test_page_out_in_roundtrip(self, machine):
        from repro.sgx import HostOS

        host = HostOS(machine)
        rt = host.build_enclave(
            base=BASE, size=0x40000,
            bootstrap_pages={BASE: b"boot"}, heap_pages=2, client_pages=1,
        )
        rt.enclave.write(rt.heap_base, b"tenant state")
        host.page_out(rt, rt.heap_base)
        assert not rt.page_table[rt.heap_base].read  # PTE not-present
        host.page_in(rt, rt.heap_base)
        assert rt.enclave.read(rt.heap_base, 12) == b"tenant state"
        assert rt.page_table[rt.heap_base].read

    def test_page_in_without_eviction(self, machine):
        from repro.sgx import HostOS

        host = HostOS(machine)
        rt = host.build_enclave(
            base=BASE, size=0x40000,
            bootstrap_pages={BASE: b"boot"}, heap_pages=1, client_pages=0,
        )
        with pytest.raises(SgxError, match="no evicted"):
            host.page_in(rt, rt.heap_base)

    def test_whole_enclave_swap_frees_epc_for_another_tenant(self):
        from repro.sgx import HostOS, SgxMachine, SgxParams

        machine = SgxMachine(SgxParams(epc_pages=12, heap_initial_pages=1))
        host = HostOS(machine)
        first = host.build_enclave(
            base=BASE, size=0x40000,
            bootstrap_pages={BASE: b"tenant-1"}, heap_pages=6, client_pages=2,
        )
        first.enclave.write(first.heap_base, b"precious")
        # not enough EPC left for a second tenant of the same shape...
        assert machine.epc.free_pages < 9
        count = host.evict_all_idle(first)
        assert count == 9
        second = host.build_enclave(
            base=0x200000, size=0x40000,
            bootstrap_pages={0x200000: b"tenant-2"}, heap_pages=6,
            client_pages=2,
        )
        assert second.enclave.read(0x200000, 8) == b"tenant-2"
        # ...and tenant 1's state survives the round trip
        host.page_in(first, first.heap_base)
        assert first.enclave.read(first.heap_base, 8) == b"precious"
