"""Deterministic corpora of workload variants for stress/differential runs.

The batch-service and daemon tests and the benchmark's batch-pool and
daemon-mix workloads need *fleets*: many small, distinct binaries
spanning every verdict the pipeline can produce — compliant,
policy-rejected, and structurally rejected — plus exact duplicates to
exercise the cache.  Building the paper's seven full
benchmarks fifty times over would dominate test time, so this module
generates small synthetic programs through the real toolchain (every
byte still flows through the compiler, linker, and ELF writer) with
shapes drawn from a seeded HMAC-DRBG.

Everything is deterministic in ``(n, seed, libc version)``, so the
differential oracle can be re-run bit-for-bit.
"""

from __future__ import annotations

from ..crypto import HmacDrbg
from ..toolchain import Compiler, CompilerFlags, build_libc, link
from ..toolchain.ir import DataObject, FunctionSpec, ProgramSpec
from ..toolchain.libc import LibcBuild

__all__ = ["generate_variant_corpus", "VARIANT_KINDS"]

#: the rotation of variant kinds, in corpus order
VARIANT_KINDS = (
    "compliant",        # stack protector + IFCC: passes all three policies
    "plain",            # uninstrumented: fails stack-protection and IFCC
    "compliant",
    "sp-only",          # canaries but no IFCC tables
    "compliant",
    "truncated",        # structurally rejected: ELF cut mid-section
    "compliant",
    "garbage",          # structurally rejected: not an ELF at all
    "duplicate",        # byte-identical re-submission of an earlier variant
)

_IMPORT_POOL = ("memcpy", "memset", "strlen", "printf", "strcmp")


def _variant_spec(index: int, rng: HmacDrbg) -> ProgramSpec:
    """A small program whose shape varies with *index*."""
    n_helpers = 2 + rng.randint(0, 2)
    helpers = []
    for h in range(n_helpers):
        helpers.append(FunctionSpec(
            name=f"v{index}_fn{h}",
            n_blocks=1 + rng.randint(0, 3),
            ops_per_block=(4 + rng.randint(0, 4), 10 + rng.randint(0, 8)),
            frame_slots=2 + rng.randint(0, 4),
            direct_calls=[
                _IMPORT_POOL[rng.randint(0, len(_IMPORT_POOL) - 1)]
                for _ in range(rng.randint(1, 3))
            ],
            indirect_calls=1 if h == 0 and rng.randint(0, 1) else 0,
            address_taken=h == n_helpers - 1,
        ))
    main = FunctionSpec(
        name="main",
        n_blocks=2,
        ops_per_block=(4, 8),
        frame_slots=3,
        direct_calls=[h.name for h in helpers[:2]] + ["memcpy"],
    )
    return ProgramSpec(
        name=f"variant{index}",
        functions=[main, *helpers],
        libc_imports=sorted(set(_IMPORT_POOL)),
        data_objects=[DataObject(
            name=f"v{index}_data",
            size=64 + 8 * rng.randint(0, 8),
            init=rng.generate(32),
        )],
        seed=b"service-corpus",
    )


def _flags_for(kind: str) -> CompilerFlags:
    if kind == "plain":
        return CompilerFlags()
    if kind == "sp-only":
        return CompilerFlags(stack_protector=True, ifcc=False)
    return CompilerFlags(stack_protector=True, ifcc=True)


def generate_variant_corpus(
    n: int = 50,
    *,
    libc: LibcBuild | None = None,
    seed: bytes = b"service-corpus",
) -> list[tuple[str, bytes]]:
    """``n`` labelled ELF blobs cycling through :data:`VARIANT_KINDS`."""
    libc = libc or build_libc()
    rng = HmacDrbg(seed)
    corpus: list[tuple[str, bytes]] = []
    built: list[bytes] = []
    for i in range(n):
        kind = VARIANT_KINDS[i % len(VARIANT_KINDS)]
        label = f"v{i:03d}-{kind}"
        if kind == "garbage":
            corpus.append((label, b"\x7fNOT-AN-ELF" + rng.generate(256)))
            continue
        if kind == "duplicate" and built:
            corpus.append((label, built[rng.randint(0, len(built) - 1)]))
            continue
        spec = _variant_spec(i, rng)
        elf = link(Compiler(_flags_for(kind)).compile(spec), libc).elf
        if kind == "truncated":
            elf = elf[: max(len(elf) // 2, 64)]
        else:
            built.append(elf)
        corpus.append((label, elf))
    return corpus
