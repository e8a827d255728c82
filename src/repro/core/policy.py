"""Pluggable policy modules (the paper's central abstraction).

"EnGarde checks policies using pluggable policy modules.  Each policy
module checks compliance for a specific property, and [the] specific
policy modules that are loaded during enclave creation depend upon the
policies that the client and cloud provider have agreed upon." (section 3)

A policy module sees the :class:`PolicyContext` — the decoded instruction
buffer, the symbol hash table, and the parsed image — and returns a
:class:`PolicyResult`.  Policies charge the cycle meter for the work they
do, which is how the evaluation's "Policy Checking" column is produced.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..elf import ElfImage
from ..errors import PolicyError
from ..sgx.cpu import CycleMeter
from ..x86 import Instruction

if TYPE_CHECKING:
    from .streaming import FunctionVerdictMemo

__all__ = [
    "SymbolHashTable", "PolicyContext", "PolicyResult", "PolicyModule",
    "PolicyRegistry",
]

#: cap on recorded violations — the report must stay small and content-free
MAX_VIOLATIONS = 16


class SymbolHashTable:
    """The paper's symbol hash table: function address -> function name.

    Built during disassembly from the executable's .symtab.  Policies use
    it to (a) resolve call targets to names and (b) test whether an
    address is the start of a function.  Lookups charge the meter.
    """

    def __init__(self, meter: CycleMeter) -> None:
        self._meter = meter
        self._by_addr: dict[int, str] = {}
        self._starts: list[int] = []
        self._sorted = False

    def insert(self, addr: int, name: str) -> None:
        self._meter.charge("symtab_insert")
        self._by_addr[addr] = name
        self._sorted = False

    def lookup(self, addr: int) -> str | None:
        """Name of the function starting at *addr*, or None."""
        self._meter.charge("symtab_lookup")
        return self._by_addr.get(addr)

    def is_function_start(self, addr: int) -> bool:
        self._meter.charge("symtab_lookup")
        return addr in self._by_addr

    def next_function_start(self, addr: int) -> int | None:
        """Smallest function start strictly greater than *addr*.

        The sorted-starts cache is rebuilt lazily on the first lookup
        after an :meth:`insert`, so interleaved insert/lookup sequences
        always see a coherent table.
        """
        if not self._sorted:
            self._starts = sorted(self._by_addr)
            self._sorted = True
        idx = bisect.bisect_right(self._starts, addr)
        self._meter.charge("symtab_lookup")
        return self._starts[idx] if idx < len(self._starts) else None

    def items(self):
        return self._by_addr.items()

    def __len__(self) -> int:
        return len(self._by_addr)

    def __contains__(self, addr: int) -> bool:
        return addr in self._by_addr


@dataclass
class PolicyContext:
    """Everything a policy module may inspect.

    Offsets are *text-relative* throughout: instruction offsets, symbol
    addresses, and branch targets all use the same coordinate system.

    With ``cached=True`` (the default) the context shares views of the
    instruction buffer — the call-site lists the disassembler's prescan
    collected (*call_sites*), and the lazily computed sorted function
    boundary table and per-function instruction extents — so the policy
    modules stop re-scanning the whole buffer once each.  The caches are
    pure wall-clock memoization: every metered operation still charges the
    cycle meter exactly as the uncached walk does, and the views assume
    the context (instructions + symtab) is frozen for its lifetime, which
    the pipeline guarantees.  ``cached=False`` recomputes everything per
    call and is used by the differential reference path.
    """

    instructions: list[Instruction]
    symtab: SymbolHashTable
    image: ElfImage
    meter: CycleMeter
    #: index of each instruction by its text-relative offset
    index_by_offset: dict[int, int] = field(default_factory=dict)
    #: enable the shared views below
    cached: bool = True
    #: (direct call instructions, indices of indirect call/jump sites),
    #: both in buffer order; required when ``cached``
    call_sites: tuple[list[Instruction], list[int]] | None = None
    #: per-function verdict memo for delta re-inspection (carried by the
    #: provisioning scan; policies that support it consult it)
    delta: FunctionVerdictMemo | None = None

    def __post_init__(self) -> None:
        if not self.index_by_offset:
            self.index_by_offset = {
                insn.offset: i for i, insn in enumerate(self.instructions)
            }
        self._starts_view: list[tuple[int, str]] | None = None
        self._extents: dict[int, tuple[int, int]] = {}

    def at(self, offset: int) -> Instruction | None:
        idx = self.index_by_offset.get(offset)
        return self.instructions[idx] if idx is not None else None

    # ------------------------------------------------- shared prescan views

    def _scan_call_sites(self) -> tuple[list[Instruction], list[int]]:
        """One pass over the buffer collecting both call-site views."""
        direct: list[Instruction] = []
        indirect: list[int] = []
        for i, insn in enumerate(self.instructions):
            if insn.is_direct_call:
                direct.append(insn)
            if insn.is_indirect_call or insn.is_indirect_jump:
                indirect.append(i)
        return direct, indirect

    def direct_calls(self) -> list[Instruction]:
        """Direct call instructions, in buffer order (shared prescan)."""
        if not self.cached:
            return self._scan_call_sites()[0]
        return self.call_sites[0]

    def indirect_calls(self) -> list[int]:
        """Indices of indirect call/jump sites, in buffer order."""
        if not self.cached:
            return self._scan_call_sites()[1]
        return self.call_sites[1]

    def function_extent(self, start: int) -> tuple[int, int]:
        """(first, last+1) instruction indices of the function at *start*.

        Models the paper's traversal — walking from *start* and asking the
        symbol hash table at each instruction whether it begins another
        function — charging one lookup per walked instruction (batched).
        Extents are cached per start, but each call charges the meter as
        if it had walked: one boundary probe plus one lookup per
        instruction in the function.
        """
        if self.cached:
            ext = self._extents.get(start)
            if ext is not None:
                first, last = ext
                self.meter.charge("symtab_lookup", 1 + max(last - first, 1))
                return ext
        first = self.index_by_offset.get(start)
        if first is None:
            raise PolicyError(f"function start {start:#x} is not an instruction")
        end_offset = self.symtab.next_function_start(start)
        if end_offset is None:
            last = len(self.instructions)
        else:
            last = self.index_by_offset.get(end_offset)
            if last is None:
                raise PolicyError(
                    f"function boundary {end_offset:#x} is not an instruction"
                )
        self.meter.charge("symtab_lookup", max(last - first, 1))
        if self.cached:
            self._extents[start] = (first, last)
        return first, last

    def function_starts(self) -> list[tuple[int, str]]:
        """All (address, name) pairs, sorted by address."""
        if not self.cached:
            return sorted(self.symtab.items())
        if self._starts_view is None:
            self._starts_view = sorted(self.symtab.items())
        return self._starts_view


@dataclass
class PolicyResult:
    """Outcome of one policy module."""

    policy: str
    compliant: bool
    #: human-readable violation notes; capped, and must never embed client
    #: code bytes (enforced by tests — see the threat model in section 3)
    violations: list[str] = field(default_factory=list)
    #: counters the module wants to expose (e.g. calls checked)
    stats: dict[str, int] = field(default_factory=dict)

    def add_violation(self, note: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(note)
        self.compliant = False


class PolicyModule(abc.ABC):
    """Base class for policy modules."""

    #: stable identifier used in the provider/client agreement
    name: str = "abstract"

    @abc.abstractmethod
    def check(self, ctx: PolicyContext) -> PolicyResult:
        """Inspect the client code; must not mutate the context."""

    def config_digest(self) -> bytes:
        """Bytes capturing this module's *configuration*.

        Folded into the enclave measurement alongside the module name: a
        policy is only "the agreed policy" if its parameters (e.g. the
        golden hash database, the exemption list) match what both parties
        reviewed.  Modules with configuration must override this; the
        default covers parameterless modules.
        """
        return b""

    def result(self) -> PolicyResult:
        return PolicyResult(policy=self.name, compliant=True)


class PolicyRegistry:
    """The set of policy modules loaded into a given EnGarde build.

    Both parties review this set before agreeing to the enclave: it is
    part of the measured bootstrap, so attestation pins it.
    """

    def __init__(self, modules: list[PolicyModule] | None = None) -> None:
        self._modules: dict[str, PolicyModule] = {}
        for module in modules or []:
            self.register(module)

    def register(self, module: PolicyModule) -> None:
        if module.name in self._modules:
            raise PolicyError(f"duplicate policy module {module.name!r}")
        self._modules[module.name] = module

    def __iter__(self):
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)

    def names(self) -> list[str]:
        return list(self._modules)

    def digest_material(self) -> bytes:
        """Bytes folded into the enclave measurement.

        Covers both the policy *names* and each module's configuration
        digest, so attestation certifies the exact policy set — a
        same-named module with a different hash database or exemption
        list yields a different MRENCLAVE.
        """
        parts = []
        for name in sorted(self._modules):
            config = self._modules[name].config_digest()
            parts.append(name.encode() + b"\x00" + config)
        return b"\x01".join(parts)
