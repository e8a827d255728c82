"""Experiment runner: one (benchmark x policy) cell of Figures 3-5.

For each cell the runner builds the workload with the policy's required
instrumentation, drives the full provisioning protocol (attestation, key
exchange, encrypted transfer, EnGarde pipeline), and reads the cycle
meter's phase totals — producing the same four columns the paper reports:
``#Inst``, Disassembly, Policy Checking, Loading and Relocation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import (
    CloudProvider,
    EnclaveClient,
    IfccPolicy,
    LibraryLinkingPolicy,
    PolicyRegistry,
    StackProtectionPolicy,
    provision,
)
from ..crypto import HmacDrbg
from ..sgx import SgxParams
from ..toolchain import LinkedBinary, build_libc
from ..toolchain.libc import LibcBuild
from ..toolchain.workloads import PAPER_BENCHMARKS, build_workload

__all__ = [
    "CellResult", "run_cell", "run_figure", "POLICY_SETUPS", "PAPER_BENCHMARKS",
    "build_batch_corpus", "run_batch",
]

#: policy name -> (figure number, compiler flags needed for compliance)
POLICY_SETUPS = {
    "library-linking": {"figure": 3, "stack_protector": False, "ifcc": False},
    "stack-protection": {"figure": 4, "stack_protector": True, "ifcc": False},
    "indirect-function-call": {"figure": 5, "stack_protector": False, "ifcc": True},
}


@dataclass(frozen=True)
class CellResult:
    """One row cell: the paper's four reported quantities (plus extras)."""

    benchmark: str
    policy: str
    insn_count: int
    disassembly_cycles: int
    policy_cycles: int
    loading_cycles: int
    accepted: bool
    sgx_instructions: int
    total_cycles: int


def make_policy(name: str, libc: LibcBuild, **options):
    """Instantiate one of the three paper policies by name."""
    if name == "library-linking":
        return LibraryLinkingPolicy(libc.reference_hashes(), **options)
    if name == "stack-protection":
        return StackProtectionPolicy(
            exempt_functions=set(libc.offsets), **options
        )
    if name == "indirect-function-call":
        return IfccPolicy(**options)
    raise KeyError(f"unknown policy {name!r}")


def run_cell(
    benchmark: str,
    policy_name: str,
    *,
    scale: float | None = None,
    libc: LibcBuild | None = None,
    binary: LinkedBinary | None = None,
    policy_options: dict | None = None,
    provider_options: dict | None = None,
) -> CellResult:
    """Run one benchmark under one policy through the full protocol."""
    setup = POLICY_SETUPS[policy_name]
    libc = libc or build_libc()
    if binary is None:
        binary = build_workload(
            benchmark,
            stack_protector=setup["stack_protector"],
            ifcc=setup["ifcc"],
            libc=libc,
            scale=scale,
        )

    policies = PolicyRegistry([
        make_policy(policy_name, libc, **(policy_options or {}))
    ])
    client_pages = max(_pages_for(binary) + 16, 64)
    # The instruction buffer stores one 64-byte record per instruction and
    # grows a page at a time; size the heap (and the EPC behind it) for it.
    buffer_pages = binary.insn_count * 64 // 4096 + 8
    heap_pages = max(buffer_pages + 64, 128)
    defaults = dict(
        params=SgxParams(
            epc_pages=client_pages + heap_pages + 512,
            heap_initial_pages=heap_pages,
        ),
        rng=HmacDrbg(b"provider-" + benchmark.encode()),
        rsa_bits=1024,
        client_pages=client_pages,
    )
    defaults.update(provider_options or {})
    provider = CloudProvider(policies, **defaults)
    client = EnclaveClient(
        binary.elf,
        policies=policies,
        rng=HmacDrbg(b"client-" + benchmark.encode()),
        benchmark=benchmark,
    )

    result = provision(provider, client)
    meter = result.meter
    return CellResult(
        benchmark=benchmark,
        policy=policy_name,
        insn_count=binary.insn_count,
        disassembly_cycles=meter.phase_cycles("disassembly"),
        policy_cycles=meter.phase_cycles("policy"),
        loading_cycles=meter.phase_cycles("loading"),
        accepted=result.accepted,
        sgx_instructions=meter.sgx_instruction_count,
        total_cycles=meter.total_cycles,
    )


def run_figure(
    policy_name: str,
    *,
    scale: float | None = None,
    benchmarks: tuple[str, ...] = PAPER_BENCHMARKS,
) -> list[CellResult]:
    """All seven benchmarks under one policy — one paper figure."""
    libc = build_libc()
    return [
        run_cell(b, policy_name, scale=scale, libc=libc) for b in benchmarks
    ]


def _pages_for(binary: LinkedBinary) -> int:
    total = binary.text_size + binary.data_size + binary.bss_size + 0x4000
    return (total + 4095) // 4096


# ------------------------------------------------------------ batch service


def build_batch_corpus(
    policy_name: str,
    *,
    benchmarks: tuple[str, ...] = PAPER_BENCHMARKS,
    scale: float | None = None,
    libc: LibcBuild | None = None,
    repeats: int = 1,
) -> tuple[LibcBuild, list[tuple[str, bytes]]]:
    """A provider-sized fleet built from the paper workloads.

    Each benchmark contributes its policy-compliant build plus (where the
    policy requires instrumentation) the uninstrumented build, which the
    policy must reject.  *repeats* re-submits the whole fleet that many
    times — byte-identical resubmissions, i.e. the cache's steady-state
    workload.
    """
    setup = POLICY_SETUPS[policy_name]
    libc = libc or build_libc()
    fleet: list[tuple[str, bytes]] = []
    for bench in benchmarks:
        compliant = build_workload(
            bench,
            stack_protector=setup["stack_protector"],
            ifcc=setup["ifcc"],
            libc=libc,
            scale=scale,
        )
        fleet.append((f"{bench}/compliant", compliant.elf))
        if setup["stack_protector"] or setup["ifcc"]:
            plain = build_workload(bench, libc=libc, scale=scale)
            fleet.append((f"{bench}/plain", plain.elf))
    corpus = [
        (f"{label}#{r}", elf)
        for r in range(max(repeats, 1))
        for label, elf in fleet
    ]
    return libc, corpus


def run_batch(
    policy_name: str,
    *,
    benchmarks: tuple[str, ...] = PAPER_BENCHMARKS,
    scale: float | None = None,
    workers: int | None = None,
    mode: str = "process",
    repeats: int = 1,
    cache_capacity: int = 1024,
    timeout: float | None = None,
    policy_options: dict | None = None,
):
    """Drive the batch inspection service over the paper workloads.

    Returns the :class:`repro.service.BatchReport`; ``repeats > 1``
    demonstrates the content-addressed cache (every pass after the first
    is pure hits).
    """
    from ..service import BatchInspector

    libc, corpus = build_batch_corpus(
        policy_name,
        benchmarks=benchmarks,
        scale=scale,
        repeats=repeats,
    )
    policies = PolicyRegistry([
        make_policy(policy_name, libc, **(policy_options or {}))
    ])
    with BatchInspector(
        policies,
        workers=workers,
        mode=mode,
        cache_capacity=cache_capacity,
        timeout=timeout,
    ) as inspector:
        return inspector.inspect_batch(corpus)
