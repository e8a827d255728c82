"""Seeded benchmark inputs, their known-answer verdicts, and the input cache.

Every input is built before set-up starts and never inside a timed
window.  The seed-independent part -- libc and the seven paper programs
at ``SCALE``, each as an instrumented and an uninstrumented build --
costs tens of seconds to generate, so it is built once per checkout in
a child process and kept under ``.perfbench_cache/`` (keyed by a digest
of ``src/repro`` and this file).  Everything that depends on the seed
(orders, variant corpora, update edits) is derived from it on every run.

Expected verdicts come from how each input was built, never from the
inspector: missing canaries fail ``stack-protection``; IFCC fails only
when the program has an indirect call site (one ``__fnptr_*`` data slot
per site in the ELF symbol table); truncated and garbage inputs reject
at stage ``elf``; a duplicate gets its original's verdict.

Run ``python3 perfbench/inputs.py <cache-dir>`` to build a cache
directory by hand.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import pickle
import random
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE_ROOT = ROOT / ".perfbench_cache"

#: one fixed scale for every paper program; at 0.2 streamed decode and
#: prescan outweigh channel keygen in a cold provision (at 0.1 they do not)
SCALE = 0.2
PAPER_PROGRAMS = (
    "nginx", "bzip2", "graph500", "mcf", "memcached", "netperf", "otp-gen",
)
FLAVORS = ("compliant", "plain")

SP = "stack-protection"
IFCC = "indirect-function-call"
POLICY_NAMES = ("library-linking", SP, IFCC)


@dataclass(frozen=True)
class Input:
    """One binary plus the verdict it must get."""

    name: str
    elf: bytes
    #: (compliant, failed policies in registry order, rejection stage)
    expected: tuple


def expected_verdict(kind: str, icall_sites: int) -> tuple:
    """The known answer for a build of *kind* with *icall_sites* sites."""
    if kind in ("truncated", "garbage"):
        return (False, (), "elf")
    failed = []
    if kind == "plain":
        failed.append(SP)
    if kind in ("plain", "sp-only") and icall_sites:
        failed.append(IFCC)
    return (not failed, tuple(failed), None)


def verdict_of(report) -> tuple:
    """A :class:`ComplianceReport` in :func:`expected_verdict` form."""
    return (
        report.compliant, tuple(report.policies_failed), report.rejected_stage,
    )


def icall_sites(elf: bytes) -> int:
    """Count ``__fnptr_*`` symbols (one data slot per indirect call site).

    A minimal ELF64 symbol-table walk, independent of the reader under
    test.
    """
    shoff, = struct.unpack_from("<Q", elf, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", elf, 0x3A)
    headers = [
        struct.unpack_from("<IIQQQQIIQQ", elf, shoff + i * shentsize)
        for i in range(shnum)
    ]
    count = 0
    for _name, sh_type, _fl, _addr, offset, size, link, _i, _al, _es in headers:
        if sh_type != 2:  # SHT_SYMTAB
            continue
        strtab = headers[link][4]
        for entry in range(offset, offset + size, 24):
            start = strtab + struct.unpack_from("<I", elf, entry)[0]
            if elf[start:elf.index(b"\0", start)].startswith(b"__fnptr_"):
                count += 1
    return count


# ------------------------------------------------------------------ cache


def cache_key() -> str:
    """Digest of everything the cached builds depend on."""
    h = hashlib.sha256(f"scale={SCALE}".encode())
    for path in sorted(SRC.joinpath("repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    h.update(Path(__file__).read_bytes())
    return h.hexdigest()[:16]


def build_cache(target: Path) -> None:
    """Build libc and the paper programs into *target* (atomically)."""
    sys.path.insert(0, str(SRC))
    from repro.toolchain import build_libc
    from repro.toolchain.workloads import build_workload

    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    libc = build_libc()
    tmp.joinpath("libc.pickle").write_bytes(pickle.dumps(libc))
    manifest = {"programs": {}}
    for program in PAPER_PROGRAMS:
        for flavor in FLAVORS:
            instrumented = flavor == "compliant"
            binary = build_workload(
                program, stack_protector=instrumented, ifcc=instrumented,
                libc=libc, scale=SCALE,
            )
            sites = icall_sites(binary.elf)
            linked = sum(1 for s in binary.symbols if s.startswith("__fnptr_"))
            if sites != linked:
                raise RuntimeError(
                    f"{program}/{flavor}: symtab walk found {sites} indirect "
                    f"call slots, the linker placed {linked}"
                )
            name = f"{program}-{flavor}"
            tmp.joinpath(name + ".elf").write_bytes(binary.elf)
            manifest["programs"][name] = {
                "sha256": hashlib.sha256(binary.elf).hexdigest(),
                "icall_sites": sites,
                "insn_count": binary.insn_count,
                "image_bytes": (
                    binary.text_size + binary.data_size + binary.bss_size
                ),
            }
    tmp.joinpath("manifest.json").write_text(json.dumps(manifest))
    try:
        os.replace(tmp, target)
    except OSError:  # another run finished the same build first
        shutil.rmtree(tmp, ignore_errors=True)


def cache_dir() -> Path:
    """The cache directory for this source tree, built on first use."""
    target = CACHE_ROOT / cache_key()
    if not target.joinpath("manifest.json").is_file():
        CACHE_ROOT.mkdir(exist_ok=True)
        subprocess.run(
            [sys.executable, str(Path(__file__)), str(target)],
            check=True, timeout=840,
        )
    return target


@dataclass
class Base:
    """The seed-independent inputs every workload shares."""

    libc: object
    policies: object
    #: "<program>-<flavor>" -> Input
    paper: dict
    #: "<program>-<flavor>" -> manifest record (sizes, counts)
    meta: dict
    cache: Path


def load_base() -> Base:
    from repro.core import (
        IfccPolicy, LibraryLinkingPolicy, PolicyRegistry, StackProtectionPolicy,
    )

    cache = cache_dir()
    manifest = json.loads(cache.joinpath("manifest.json").read_text())
    libc = pickle.loads(cache.joinpath("libc.pickle").read_bytes())
    paper = {}
    for name, record in manifest["programs"].items():
        elf = cache.joinpath(name + ".elf").read_bytes()
        if hashlib.sha256(elf).hexdigest() != record["sha256"]:
            raise RuntimeError(f"input cache entry {name} is corrupt")
        flavor = name.rsplit("-", 1)[1]
        paper[name] = Input(
            name, elf, expected_verdict(flavor, record["icall_sites"])
        )
    policies = PolicyRegistry([
        LibraryLinkingPolicy(libc.reference_hashes()),
        StackProtectionPolicy(exempt_functions=set(libc.offsets)),
        IfccPolicy(),
    ])
    if tuple(policies.names()) != POLICY_NAMES:
        raise RuntimeError(f"unexpected policy order {policies.names()}")
    return Base(libc, policies, paper, manifest["programs"], cache)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


# -------------------------------------------------------- seeded corpora


def variant_inputs(base: Base, n: int, seed: int, tag: str) -> list[Input]:
    """``n`` entries of the seeded variant corpus with their verdicts."""
    from repro.service import generate_variant_corpus

    corpus = generate_variant_corpus(
        n, libc=base.libc, seed=f"perfbench/{tag}/{seed}".encode()
    )
    known: dict[bytes, tuple] = {}
    out = []
    for label, elf in corpus:
        kind = label.split("-", 1)[1]
        if kind == "duplicate":
            expected = known[elf]
        elif kind in ("truncated", "garbage"):
            expected = expected_verdict(kind, 0)
        else:
            expected = expected_verdict(kind, icall_sites(elf))
            known[elf] = expected
        out.append(Input(label, elf, expected))
    return out


def update_edits(base: Base, program: str, rng: random.Random) -> list[int]:
    """File offsets of one mov-immediate byte per application function of
    *program*'s compliant build, in seeded order.  Flipping one of them
    (``^= 0x5A``) is a one-function, verdict-neutral edit."""
    from repro.elf import read_elf
    from repro.x86 import iter_decode

    raw = base.paper[f"{program}-compliant"].elf
    image = read_elf(raw)
    text = image.text_sections[0]
    funcs = sorted(
        (s.value - text.vaddr, s.name) for s in image.function_symbols()
    )
    starts = [off for off, _ in funcs]
    exempt = set(base.libc.offsets) | {"_start"}
    edits = []
    for off, name in funcs:
        if name in exempt or name.startswith("__"):
            continue
        idx = bisect.bisect_right(starts, off)
        end = starts[idx] if idx < len(starts) else len(text.data)
        for insn in iter_decode(text.data, off, end):
            if (insn.mnemonic == "mov" and insn.target is None
                    and insn.num_immediate_bytes >= 4):
                edits.append(text.offset + insn.offset + insn.length
                             - insn.num_immediate_bytes)
                break
    if len(edits) < 8:
        raise RuntimeError(f"{program}: only {len(edits)} editable functions")
    rng.shuffle(edits)
    return edits


if __name__ == "__main__":
    build_cache(Path(sys.argv[1]))
