"""Multiple tenants on one provider machine: isolation and accounting."""

from __future__ import annotations

import pytest

from repro.core import EnclaveClient, provision
from repro.errors import SgxError
from repro.net import SocketPair
from tests.conftest import compile_demo, small_provider


class TestSequentialTenants:
    def test_many_tenants_one_provider(self, libc, all_policies):
        """One provider machine provisions several tenants in turn; each
        gets its own sealed enclave and the EPC accounting balances."""
        provider = small_provider(all_policies)
        runtimes = []
        for i in range(3):
            binary = compile_demo(libc, stack_protector=True, ifcc=True,
                                  name=f"tenant{i}")
            client = EnclaveClient(binary.elf, policies=all_policies,
                                   benchmark=f"tenant{i}")
            result = provision(provider, client)
            assert result.accepted
            runtimes.append(result.runtime)
        eids = {rt.enclave.eid for rt in runtimes}
        assert len(eids) == 3
        assert all(rt.enclave.sealed for rt in runtimes)

    def test_rejected_tenant_frees_resources_for_the_next(self, libc,
                                                          all_policies):
        provider = small_provider(all_policies)
        bad = EnclaveClient(b"not an elf" * 100, policies=all_policies)
        assert not provision(provider, bad).accepted
        used_after_reject = provider.machine.epc.used_pages
        assert used_after_reject == 0

        good_binary = compile_demo(libc, stack_protector=True, ifcc=True,
                                   name="after-reject")
        good = EnclaveClient(good_binary.elf, policies=all_policies)
        assert provision(provider, good).accepted

    def test_host_forgets_runtimes_of_destroyed_enclaves(self, libc,
                                                         all_policies):
        """A long-lived provider must not keep every runtime it built:
        rejects (destroyed by ``finalize``) and accepted enclaves the
        caller tears down are dropped by the next build."""
        provider = small_provider(all_policies)
        good = compile_demo(libc, stack_protector=True, ifcc=True,
                            name="resident").elf
        kept = []
        for i in range(10):
            if i % 3 == 2:
                bad = EnclaveClient(b"not an elf" * 100, policies=all_policies)
                assert not provision(provider, bad).accepted
                continue
            result = provision(provider, EnclaveClient(
                good, policies=all_policies, benchmark=f"tenant{i}",
            ))
            assert result.accepted
            if i % 3 == 0:
                kept.append(result.runtime)
            else:
                provider.machine.eexit(result.runtime.enclave)
                provider.machine.destroy(result.runtime.enclave)
        live = len(provider.machine.enclaves)
        assert live == len(kept) == 4
        assert len(provider.host.runtimes) <= live + 1
        assert all(
            provider.host.runtimes[rt.enclave.eid] is rt for rt in kept
        )


class TestCrossTenantIsolation:
    @pytest.fixture()
    def two_tenants(self, libc, all_policies):
        provider = small_provider(all_policies)
        results = []
        for i in range(2):
            binary = compile_demo(libc, stack_protector=True, ifcc=True,
                                  name=f"iso{i}")
            client = EnclaveClient(binary.elf, policies=all_policies)
            result = provision(provider, client)
            assert result.accepted
            results.append(result)
        return provider, results

    def test_enclaves_cannot_read_each_other(self, two_tenants):
        provider, (a, b) = two_tenants
        enclave_a = a.runtime.enclave
        enclave_b = b.runtime.enclave
        # grab one of B's EPC pages and try to decrypt it as A
        page_b = next(iter(enclave_b.pages.values()))
        with pytest.raises(SgxError):
            provider.machine.epc.read_plaintext(page_b, eid=enclave_a.eid)

    def test_interleaved_sessions(self, libc, all_policies):
        """Two provisioning sessions in flight at once on one machine."""
        provider = small_provider(all_policies)
        binary_a = compile_demo(libc, stack_protector=True, ifcc=True, name="ia")
        binary_b = compile_demo(libc, stack_protector=True, ifcc=True, name="ib")

        pair_a, pair_b = SocketPair(), SocketPair()
        session_a = provider.start_session(pair_a.right, benchmark="a")
        session_b = provider.start_session(pair_b.right, benchmark="b")

        client_a = EnclaveClient(binary_a.elf, policies=all_policies)
        client_b = EnclaveClient(binary_b.elf, policies=all_policies)
        for client, session, pair in ((client_a, session_a, pair_a),
                                      (client_b, session_b, pair_b)):
            challenge = client.challenge()
            quote = provider.attest(session, challenge)
            fp = client.verify_attestation(
                quote, provider.quoting_enclave.device_public_key, challenge,
                heap_pages=provider.heap_pages,
                client_pages=provider.client_pages,
                enclave_pages=provider.enclave_pages,
            )
            client.open_channel(pair.left, fp)
            client.send_content()

        # complete B first, then A — order independence
        report_b = provider.run_engarde(session_b)
        report_a = provider.run_engarde(session_a)
        assert report_a.compliant and report_b.compliant
        assert provider.finalize(session_b)
        assert provider.finalize(session_a)
        assert session_a.runtime.enclave.eid != session_b.runtime.enclave.eid

    def test_channel_keys_differ_across_sessions(self, libc, all_policies):
        provider = small_provider(all_policies)
        pair_a, pair_b = SocketPair(), SocketPair()
        sa = provider.start_session(pair_a.right)
        sb = provider.start_session(pair_b.right)
        ka = sa.handshake._keypair.public_key.fingerprint()
        kb = sb.handshake._keypair.public_key.fingerprint()
        assert ka != kb
