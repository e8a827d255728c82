"""Shared fixtures: a session-scoped libc build and small demo programs.

The libc build and compiled demo binaries are deterministic and somewhat
expensive, so they are built once per session.  SGX machines in tests use
deliberately small EPC/heap sizes — behaviour, not capacity, is under test.
"""

from __future__ import annotations

import pytest

from repro.core import (
    IfccPolicy,
    LibraryLinkingPolicy,
    PolicyRegistry,
    StackProtectionPolicy,
)
from repro.sgx import SgxParams
from repro.toolchain import (
    Compiler,
    CompilerFlags,
    DataObject,
    FunctionSpec,
    ProgramSpec,
    build_libc,
    link,
)


@pytest.fixture(scope="session")
def libc():
    return build_libc()


@pytest.fixture(scope="session")
def libc_old():
    """A different library version: every function hash differs."""
    return build_libc("1.0.4")


def make_demo_spec(name: str = "demo") -> ProgramSpec:
    """A small three-function program exercising every feature the
    policies look at: libc calls, client-to-client calls, an indirect
    call, and address-taken functions."""
    return ProgramSpec(
        name=name,
        functions=[
            FunctionSpec(
                "main", n_blocks=4,
                direct_calls=["helper", "memcpy", "printf"],
                indirect_calls=1,
            ),
            FunctionSpec(
                "helper", n_blocks=2, direct_calls=["strlen"],
                address_taken=True,
            ),
            FunctionSpec("callback", n_blocks=1, address_taken=True),
        ],
        libc_imports=["memcpy", "printf", "strlen"],
        data_objects=[DataObject("globals", 64, init=b"hello")],
    )


@pytest.fixture(scope="session")
def demo_spec():
    return make_demo_spec()


def compile_demo(libc, *, stack_protector=False, ifcc=False, name="demo"):
    flags = CompilerFlags(stack_protector=stack_protector, ifcc=ifcc)
    return link(Compiler(flags).compile(make_demo_spec(name)), libc)


@pytest.fixture(scope="session")
def demo_plain(libc):
    return compile_demo(libc)


@pytest.fixture(scope="session")
def demo_instrumented(libc):
    """Fully instrumented: passes all three paper policies."""
    return compile_demo(libc, stack_protector=True, ifcc=True)


@pytest.fixture(scope="session")
def all_policies(libc):
    return PolicyRegistry([
        LibraryLinkingPolicy(libc.reference_hashes()),
        StackProtectionPolicy(exempt_functions=set(libc.offsets)),
        IfccPolicy(),
    ])


@pytest.fixture()
def small_params():
    """An SGX machine sized for tests (fast to build, still realistic)."""
    return SgxParams(epc_pages=4096, heap_initial_pages=64)


def meter_breakdown(meter) -> dict:
    """Per-phase (and total) cycles, SGX count and event counts."""

    def one(phase):
        return {
            "cycles": phase.cycles,
            "events": dict(sorted(phase.events.items())),
            "sgx_instructions": phase.sgx_instructions,
        }

    out = {name: one(meter.phases[name]) for name in sorted(meter.phases)}
    out["total"] = one(meter.total)
    return out


def small_provider(policies, **overrides):
    """A CloudProvider with test-friendly sizes."""
    from repro.core import CloudProvider

    defaults = dict(
        params=SgxParams(epc_pages=4096, heap_initial_pages=64),
        rsa_bits=768,
        client_pages=64,
        enclave_pages=0x2000,
    )
    defaults.update(overrides)
    return CloudProvider(policies, **defaults)


def small_daemon(policies, **overrides):
    """A started InspectionDaemon with test-friendly sizes.

    Same geometry as :func:`small_provider` so attestation-side numbers
    (MRENCLAVE inputs, RSA sizes) stay comparable across test suites.
    """
    from repro.service import InspectionDaemon

    defaults = dict(
        pool_size=1,
        rsa_bits=768,
        heap_pages=64,
        client_pages=64,
        enclave_pages=0x2000,
    )
    defaults.update(overrides)
    daemon = InspectionDaemon(policies, **defaults)
    daemon.start()
    return daemon


def daemon_client(daemon, policies, **overrides):
    """An InspectionClient wired to *daemon* over the in-proc transport."""
    from repro.service import InspectionClient

    defaults = dict(timeout=5.0)
    defaults.update(overrides)
    return InspectionClient(
        policies,
        daemon.pool.quoting_enclave.device_public_key,
        daemon.connect_inproc,
        **defaults,
    )
