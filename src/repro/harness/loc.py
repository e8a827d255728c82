"""Figure 2 analogue: lines-of-code inventory of this reproduction.

The paper's Figure 2 lists the size of each EnGarde component (code
provisioning, loading/relocating, the three policy checkers, the client
program, and the bundled libraries).  This module computes the same table
for our implementation, mapping each paper component to the modules that
realise it here.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["component_loc", "render_loc_table", "COMPONENTS", "PAPER_LOC"]

_SRC = Path(__file__).resolve().parent.parent

#: paper component -> (paper LoC, our module paths relative to repro/)
COMPONENTS: dict[str, tuple[int, list[str]]] = {
    "Code Provisioning": (270, [
        "core/provisioning.py", "core/streaming.py", "core/disasm.py",
        "core/engarde.py", "core/report.py",
    ]),
    "Loading and Relocating": (188, ["core/loader.py"]),
    "Checking Executables linked against musl-libc": (1_949, [
        "core/policies/library_linking.py", "core/policy.py",
    ]),
    "Checking Executables Compiled with Stack Protection": (109, [
        "core/policies/stack_protection.py",
    ]),
    "Checking Executables Containing Indirect Function-Call Checks": (129, [
        "core/policies/ifcc.py",
    ]),
    "Client's side program": (349, ["net/sock.py"]),
    "Musl-libc": (90_728, ["toolchain/libc.py"]),
    "Lib crypto (openssl)": (287_985, [
        "crypto/sha256.py", "crypto/mac.py", "crypto/primes.py",
        "crypto/rsa.py", "crypto/aes.py",
    ]),
    "Lib ssl (openssl)": (63_566, ["crypto/channel.py"]),
}

#: components we needed that the paper got from its platform
EXTRA_COMPONENTS: dict[str, list[str]] = {
    "SGX machine (OpenSGX analogue)": [
        "sgx/epc.py", "sgx/enclave.py", "sgx/isa.py", "sgx/measurement.py",
        "sgx/host.py", "sgx/attestation.py", "sgx/cpu.py", "sgx/params.py",
        "sgx/paging.py", "sgx/sidechannel.py",
    ],
    "x86-64 encoder/decoder (NaCl analogue)": [
        "x86/registers.py", "x86/insn.py", "x86/opcodes.py",
        "x86/encoder.py", "x86/asm.py", "x86/decoder.py", "x86/validator.py",
    ],
    "Runtime execution extension (interpreter)": [
        "x86/interp.py", "core/runtime.py",
    ],
    "ELF64 reader/writer": [
        "elf/constants.py", "elf/structs.py", "elf/reader.py", "elf/writer.py",
    ],
    "Toolchain (clang/LLVM analogue)": [
        "toolchain/ir.py", "toolchain/codegen.py", "toolchain/linker.py",
        "toolchain/workloads.py",
    ],
}

PAPER_LOC = {name: loc for name, (loc, _paths) in COMPONENTS.items()}
PAPER_TOTAL = 453_349


def _count_file(path: Path) -> int:
    """Non-blank, non-comment lines (how `cloc`-style counters work)."""
    count = 0
    in_docstring = False
    for line in path.read_text().splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if in_docstring:
            count += 1
            if stripped.endswith('"""') or stripped.endswith("'''"):
                in_docstring = False
            continue
        if stripped.startswith("#"):
            continue
        count += 1
        for quote in ('"""', "'''"):
            if stripped.startswith(quote) and not (
                stripped.endswith(quote) and len(stripped) > 3
            ):
                in_docstring = True
    return count


def component_loc() -> dict[str, tuple[int | None, int]]:
    """component name -> (paper LoC or None, our LoC)."""
    table: dict[str, tuple[int | None, int]] = {}
    for name, (paper, paths) in COMPONENTS.items():
        ours = sum(_count_file(_SRC / p) for p in paths)
        table[name] = (paper, ours)
    for name, paths in EXTRA_COMPONENTS.items():
        ours = sum(_count_file(_SRC / p) for p in paths)
        table[name] = (None, ours)
    return table


def render_loc_table() -> str:
    """A Figure 2-style table: paper LoC vs this reproduction's."""
    rows = component_loc()
    width = max(len(name) for name in rows) + 2
    lines = [
        "Figure 2: sizes of EnGarde components (paper LoC vs this repo)",
        "=" * (width + 24),
        f"{'Component':<{width}} {'Paper':>10} {'Ours':>10}",
        "-" * (width + 24),
    ]
    paper_total = 0
    our_total = 0
    for name, (paper, ours) in rows.items():
        paper_str = f"{paper:,}" if paper is not None else "(platform)"
        lines.append(f"{name:<{width}} {paper_str:>10} {ours:>10,}")
        paper_total += paper or 0
        our_total += ours
    lines.append("-" * (width + 24))
    lines.append(f"{'Total':<{width}} {paper_total:>10,} {our_total:>10,}")
    return "\n".join(lines)
