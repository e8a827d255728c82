"""Attestation: EREPORT MACs, quoting enclave, client-side verification."""

from __future__ import annotations

import pytest

from repro.crypto import HmacDrbg
from repro.errors import AttestationError, SgxError
from repro.sgx import (
    AttestationService, QuotingEnclave, SgxMachine, SgxParams, verify_quote,
)

BASE = 0x10000


@pytest.fixture()
def machine():
    return SgxMachine(SgxParams(epc_pages=32, heap_initial_pages=2))


@pytest.fixture()
def enclave(machine):
    e = machine.ecreate(BASE, 0x40000)
    machine.add_measured_page(e, BASE, b"engarde bootstrap")
    machine.einit(e)
    return e


@pytest.fixture()
def qe(machine):
    return QuotingEnclave(machine, HmacDrbg(b"intel-provisioning"))


class TestReport:
    def test_report_verifies_on_same_machine(self, machine, enclave):
        report = machine.ereport(enclave, b"channel-key-fp")
        assert machine.verify_report(report)

    def test_report_data_padded_to_64(self, machine, enclave):
        report = machine.ereport(enclave, b"short")
        assert len(report.report_data) == 64
        assert report.report_data.startswith(b"short")

    def test_report_data_too_long(self, machine, enclave):
        with pytest.raises(SgxError):
            machine.ereport(enclave, b"x" * 65)

    def test_report_before_einit(self, machine):
        pending = machine.ecreate(BASE + 0x100000, 0x10000)
        with pytest.raises(SgxError):
            machine.ereport(pending, b"data")

    def test_report_not_portable_across_machines(self, machine, enclave):
        other = SgxMachine(
            SgxParams(epc_pages=32, heap_initial_pages=2),
            hardware_seed=b"other-machine",
        )
        report = machine.ereport(enclave, b"data")
        assert not other.verify_report(report)

    def test_tampered_report_rejected(self, machine, enclave):
        import dataclasses

        report = machine.ereport(enclave, b"data")
        forged = dataclasses.replace(report, mrenclave=b"\x00" * 32)
        assert not machine.verify_report(forged)

    def test_device_keys_stay_out_of_the_shared_hmac_lru(self):
        """Regression: the root and report keys were prepared through the
        process-wide ``hmac_key`` LRU, which kept them after the machine
        was dropped.  The machine, its EPC and EWB/ELDU now prepare their
        own keys, and every derived byte is what plain HMAC-SHA256 gives."""
        from repro.crypto import mac
        from repro.crypto.ref import ref_hmac_sha256

        machine = SgxMachine(
            SgxParams(epc_pages=32, heap_initial_pages=2),
            hardware_seed=b"probe-seed",
        )
        enclave = machine.ecreate(BASE, 0x40000)
        machine.add_measured_page(enclave, BASE, b"engarde bootstrap")
        machine.einit(enclave)
        report = machine.ereport(enclave, b"data")
        assert machine.verify_report(report)
        seal_key = machine.egetkey(enclave, b"seal-key")
        machine.eldu(enclave, machine.ewb(enclave, BASE))

        root = ref_hmac_sha256(b"sgx-root", b"probe-seed")
        device_keys = {
            "root": root,
            "report": ref_hmac_sha256(root, b"report-key"),
            "paging": ref_hmac_sha256(root, b"paging-key"),
            "MEE integrity": ref_hmac_sha256(root, b"mee-key") + b"integrity",
        }
        assert machine._paging_key == device_keys["paging"]
        assert machine.epc._hw_key + b"integrity" == device_keys["MEE integrity"]
        assert report.mac == ref_hmac_sha256(device_keys["report"], report.body())
        assert seal_key == ref_hmac_sha256(
            root, b"seal" + enclave.mrenclave + b"seal-key"
        )
        cached = [name for name, key in device_keys.items()
                  if key in mac._KEY_CACHE]
        assert cached == []


class TestQuote:
    def test_quote_verifies(self, machine, enclave, qe):
        report = machine.ereport(enclave, b"fp")
        quote = qe.quote(report, challenge=b"nonce-123")
        verify_quote(
            quote, qe.device_public_key,
            expected_mrenclave=enclave.mrenclave, challenge=b"nonce-123",
        )

    def test_wrong_mrenclave_rejected(self, machine, enclave, qe):
        quote = qe.quote(machine.ereport(enclave, b"fp"), challenge=b"n")
        with pytest.raises(AttestationError, match="MRENCLAVE"):
            verify_quote(
                quote, qe.device_public_key,
                expected_mrenclave=b"\x00" * 32, challenge=b"n",
            )

    def test_stale_challenge_rejected(self, machine, enclave, qe):
        quote = qe.quote(machine.ereport(enclave, b"fp"), challenge=b"old")
        with pytest.raises(AttestationError, match="challenge"):
            verify_quote(
                quote, qe.device_public_key,
                expected_mrenclave=enclave.mrenclave, challenge=b"new",
            )

    def test_wrong_device_key_rejected(self, machine, enclave, qe):
        other_qe = QuotingEnclave(machine, HmacDrbg(b"rogue"))
        quote = qe.quote(machine.ereport(enclave, b"fp"), challenge=b"n")
        with pytest.raises(AttestationError, match="signature"):
            verify_quote(
                quote, other_qe.device_public_key,
                expected_mrenclave=enclave.mrenclave, challenge=b"n",
            )

    def test_forged_report_rejected_by_qe(self, machine, enclave, qe):
        import dataclasses

        report = machine.ereport(enclave, b"fp")
        forged = dataclasses.replace(report, report_data=b"evil".ljust(64, b"\x00"))
        with pytest.raises(AttestationError):
            qe.quote(forged, challenge=b"n")

    def test_quote_from_foreign_machine_rejected(self, enclave, machine, qe):
        other = SgxMachine(
            SgxParams(epc_pages=32, heap_initial_pages=2),
            hardware_seed=b"other",
        )
        other_qe = QuotingEnclave(other, HmacDrbg(b"intel"))
        report = machine.ereport(enclave, b"fp")
        with pytest.raises(AttestationError):
            other_qe.quote(report, challenge=b"n")

    def test_tampered_quote_signature(self, machine, enclave, qe):
        import dataclasses

        quote = qe.quote(machine.ereport(enclave, b"fp"), challenge=b"n")
        bad = dataclasses.replace(
            quote, signature=bytes(len(quote.signature))
        )
        with pytest.raises(AttestationError):
            verify_quote(
                bad, qe.device_public_key,
                expected_mrenclave=enclave.mrenclave, challenge=b"n",
            )

    def test_report_data_travels_in_quote(self, machine, enclave, qe):
        fp = b"public-key-fingerprint-32-bytes!"
        quote = qe.quote(machine.ereport(enclave, fp), challenge=b"n")
        assert quote.report_data[:32] == fp


class TestAttestationService:
    def test_registry(self, qe):
        service = AttestationService()
        service.register("machine-7", qe.device_public_key)
        assert service.device_key("machine-7") == qe.device_public_key
        with pytest.raises(AttestationError):
            service.device_key("unknown")
