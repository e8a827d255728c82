"""Cycle accounting: the evaluation's performance model.

The paper measures EnGarde by counting instructions under OpenSGX and
QEMU: SGX instructions are charged 10 000 cycles each, non-SGX
instructions run "at native speed", and the per-phase totals (disassembly,
policy checking, loading and relocation) are reported as CPU cycles
(Figures 3-5).

We reproduce the *accounting scheme*: every component charges the
:class:`CycleMeter` for the work it actually performs (bytes fetched,
instructions decoded, SHA-256 blocks compressed, relocations applied, SGX
instructions executed).  The :class:`CostModel` maps each event to a cycle
weight — the weights approximate how many native instructions each Python-
level operation stands for, so totals land in the paper's regime.  Nothing
is back-solved from the paper's tables; the per-benchmark *shape* must
emerge from the implementation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields

__all__ = ["CostModel", "CycleMeter", "PhaseBreakdown"]


@dataclass(frozen=True)
class CostModel:
    """Cycle weights per accountable event.

    Weights are "emulated native instructions x cycles-per-instruction"
    estimates for the C implementation each Python operation stands in
    for (e.g. NaCl's per-instruction decode loop runs a few hundred native
    instructions).
    """

    #: per SGX instruction (ECREATE/EADD/EENTER/...) — the OpenSGX model
    sgx_instruction: int = 10_000
    #: disassembly: per byte fetched/examined by the decoder
    decode_byte: int = 35
    #: disassembly: per instruction completed (table lookups, operand build)
    decode_insn: int = 800
    #: disassembly: per instruction appended to the dynamic buffer
    buffer_store: int = 90
    #: SHA-256: per 64-byte compression block
    sha256_block: int = 5_000
    #: symbol hash table: per insert
    symtab_insert: int = 120
    #: symbol hash table: per lookup
    symtab_lookup: int = 100
    #: policy engine: per instruction scanned in a linear pass
    policy_scan_insn: int = 70
    #: policy engine: per operand/pattern comparison inside a window scan
    policy_compare: int = 55
    #: loader: one-time setup (ELF program-header walk, .dynamic parse,
    #: call-stack construction, control-transfer plumbing)
    loader_setup: int = 3_400
    #: loader: per relocation applied
    reloc_apply: int = 55
    #: loader: per LOAD segment mapped (the loader maps segments wholesale)
    segment_map: int = 250
    #: loader: per page whose permissions are recorded for the host
    page_map: int = 2
    #: loader: per byte copied into enclave memory (amortised, per 64B line)
    copy_line: int = 12
    #: crypto channel: per 16-byte AES block (AES-NI-era estimate)
    aes_block: int = 40
    #: RSA private-key operation (2048-bit CRT estimate)
    rsa_private_op: int = 5_000_000
    #: hardware page encryption/decryption, per page crossing the EPC
    epc_page_crypt: int = 1_500

    def replace(self, **overrides) -> "CostModel":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(overrides)
        return CostModel(**values)


@dataclass
class PhaseBreakdown:
    """Cycle totals for one named phase, split by event."""

    cycles: int = 0
    sgx_instructions: int = 0
    events: dict[str, int] = field(default_factory=dict)

    def add(self, event: str, count: int, cycles: int) -> None:
        self.cycles += cycles
        self.events[event] = self.events.get(event, 0) + count
        if event == "sgx_instruction":
            self.sgx_instructions += count


class CycleMeter:
    """Accumulates cycles, attributed to the currently-active phase.

    Components call :meth:`charge` as they work; the harness wraps pipeline
    stages in :meth:`phase` blocks and reads per-phase totals afterwards —
    mirroring how the paper splits its tables into Disassembly / Policy
    Checking / Loading-and-Relocation columns.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self.cost = cost_model or CostModel()
        self.total = PhaseBreakdown()
        self.phases: dict[str, PhaseBreakdown] = {}
        self._stack: list[str] = []

    def charge(self, event: str, count: int = 1) -> int:
        """Charge *count* occurrences of *event*; returns cycles charged."""
        weight = getattr(self.cost, event, None)
        if weight is None:
            raise KeyError(f"unknown cost event {event!r}")
        cycles = weight * count
        self.total.add(event, count, cycles)
        if self._stack:
            phase = self.phases.setdefault(self._stack[-1], PhaseBreakdown())
            phase.add(event, count, cycles)
        return cycles

    def charge_sgx(self, count: int = 1) -> int:
        """Charge *count* SGX instructions (10K cycles each by default)."""
        return self.charge("sgx_instruction", count)

    def charge_batch(self, counts: dict[str, int]) -> int:
        """Charge several events at once; returns total cycles charged.

        Semantically identical to calling :meth:`charge` once per event
        with the summed count — the cycle model is linear
        (``cycles = weight x count``), so hot loops may accumulate counts
        in a plain local dict and flush once per stage instead of paying
        three attribute/dict round trips per instruction.  Zero counts are
        skipped so the per-event breakdown stays byte-identical to
        per-occurrence charging (no spurious zero-count keys, and no
        phase entry from a batch of zeros).
        """
        cost = self.cost
        total = self.total
        phase = None
        charged = 0
        for event, count in counts.items():
            if not count:
                continue
            weight = getattr(cost, event, None)
            if weight is None:
                raise KeyError(f"unknown cost event {event!r}")
            cycles = weight * count
            total.add(event, count, cycles)
            if phase is None and self._stack:
                phase = self.phases.setdefault(self._stack[-1], PhaseBreakdown())
            if phase is not None:
                phase.add(event, count, cycles)
            charged += cycles
        return charged

    @contextmanager
    def phase(self, name: str):
        """Attribute charges inside the block to phase *name*."""
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()

    def phase_cycles(self, name: str) -> int:
        breakdown = self.phases.get(name)
        return breakdown.cycles if breakdown else 0

    @property
    def total_cycles(self) -> int:
        return self.total.cycles

    @property
    def sgx_instruction_count(self) -> int:
        return self.total.sgx_instructions

    def reset(self) -> None:
        self.total = PhaseBreakdown()
        self.phases.clear()
        self._stack.clear()

    def report(self) -> dict[str, dict[str, int]]:
        """Phase -> {cycles, per-event counts} summary for the harness."""
        out = {}
        for name, phase in self.phases.items():
            out[name] = {"cycles": phase.cycles, **phase.events}
        return out
