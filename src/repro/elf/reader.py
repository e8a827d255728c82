"""ELF64 reader with EnGarde's format validation.

Implements the checks from the paper's "Binary Disassembly" section: "the
loader checks its header to verify that the executable is correctly
formatted.  The checks include checking the signature as well as the ELF
class of the executable."  On top of that it enforces EnGarde's stated
requirements: 64-bit, position-independent (``ET_DYN``), and carrying a
symbol table (stripped binaries are auto-rejected, section 6).

The parsed :class:`ElfImage` exposes exactly what the in-enclave pipeline
consumes: text/data section bytes and addresses, the symbol list, and the
relocation table located through ``.dynamic`` (``DT_RELA``/``DT_RELASZ``/
``DT_RELAENT``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ElfError
from ..faults.hooks import DROP, fault_hook
from .constants import (
    DT_NULL, DT_RELA, DT_RELAENT, DT_RELASZ,
    ELF_MAGIC, ELFCLASS64, ELFDATA2LSB, EM_X86_64, ET_DYN,
    PT_DYNAMIC, PT_LOAD, R_X86_64_RELATIVE,
    SHF_ALLOC, SHF_EXECINSTR, SHF_WRITE,
    SHT_DYNAMIC, SHT_NOBITS, SHT_PROGBITS, SHT_RELA, SHT_STRTAB, SHT_SYMTAB,
    STT_FUNC, STT_OBJECT,
)
from .structs import Dyn, Ehdr, Phdr, Rela, Shdr, Sym

__all__ = ["ElfImage", "Section", "Symbol", "read_elf"]


@dataclass(frozen=True)
class Section:
    """A parsed section with its raw bytes (empty for SHT_NOBITS)."""

    name: str
    sh_type: int
    flags: int
    vaddr: int
    offset: int
    size: int
    data: bytes

    @property
    def is_text(self) -> bool:
        return bool(self.flags & SHF_EXECINSTR) and self.sh_type == SHT_PROGBITS

    @property
    def is_writable_data(self) -> bool:
        return bool(self.flags & SHF_WRITE) and bool(self.flags & SHF_ALLOC)

    @property
    def is_bss(self) -> bool:
        return self.sh_type == SHT_NOBITS


@dataclass(frozen=True)
class Symbol:
    """A parsed symbol-table entry."""

    name: str
    value: int
    size: int
    sym_type: int
    binding: int

    @property
    def is_function(self) -> bool:
        return self.sym_type == STT_FUNC

    @property
    def is_object(self) -> bool:
        return self.sym_type == STT_OBJECT


@dataclass
class ElfImage:
    """A validated, parsed ELF64 PIE image."""

    raw: bytes
    ehdr: Ehdr
    phdrs: list[Phdr]
    sections: list[Section]
    symbols: list[Symbol]
    relocations: list[Rela]
    entry: int

    @property
    def text_sections(self) -> list[Section]:
        return [s for s in self.sections if s.is_text]

    @property
    def data_sections(self) -> list[Section]:
        return [
            s for s in self.sections
            if s.is_writable_data and not s.is_bss and s.sh_type == SHT_PROGBITS
        ]

    @property
    def bss_sections(self) -> list[Section]:
        return [s for s in self.sections if s.is_bss]

    def section(self, name: str) -> Section:
        for s in self.sections:
            if s.name == name:
                return s
        raise ElfError(f"no section named {name!r}")

    def function_symbols(self) -> list[Symbol]:
        return [s for s in self.symbols if s.is_function]

    @property
    def has_symbols(self) -> bool:
        return any(self.symbols)

    @property
    def load_segments(self) -> list[Phdr]:
        return [p for p in self.phdrs if p.p_type == PT_LOAD]

    @property
    def max_vaddr(self) -> int:
        return max((p.p_vaddr + p.p_memsz for p in self.load_segments), default=0)


def _cstr(blob: bytes, offset: int) -> str:
    end = blob.index(b"\x00", offset)
    return blob[offset:end].decode()


def read_elf(raw) -> ElfImage:
    """Parse and validate an ELF64 image, raising :class:`ElfError` on any
    malformation EnGarde is specified to reject.

    *raw* may be ``bytes`` or a ``memoryview``; section payloads are
    sliced from it without copying either way."""
    raw = fault_hook("elf.reader", raw, error=ElfError)
    if raw is DROP:
        raise ElfError("[fault:elf.reader:drop] image vanished before parsing")
    ehdr = Ehdr.unpack(raw)

    # -- the paper's header checks ----------------------------------------
    if ehdr.e_ident[:4] != ELF_MAGIC:
        raise ElfError("bad ELF signature")
    if ehdr.e_ident[4] != ELFCLASS64:
        raise ElfError("not a 64-bit ELF (EnGarde supports x86-64 only)")
    if ehdr.e_ident[5] != ELFDATA2LSB:
        raise ElfError("not little-endian")
    if ehdr.e_machine != EM_X86_64:
        raise ElfError(f"unexpected machine {ehdr.e_machine}")
    if ehdr.e_type != ET_DYN:
        raise ElfError("not a position-independent executable (ET_DYN)")
    if ehdr.e_phnum == 0:
        raise ElfError("no program headers")
    if ehdr.e_shnum == 0:
        raise ElfError("no section headers")

    if ehdr.e_phoff + ehdr.e_phnum * Phdr.SIZE > len(raw):
        raise ElfError("program header table extends past end of file")
    phdrs = [
        Phdr.unpack(raw, ehdr.e_phoff + i * Phdr.SIZE) for i in range(ehdr.e_phnum)
    ]

    if ehdr.e_shoff + ehdr.e_shnum * Shdr.SIZE > len(raw):
        raise ElfError("section header table extends past end of file")
    shdrs = [
        Shdr.unpack(raw, ehdr.e_shoff + i * Shdr.SIZE) for i in range(ehdr.e_shnum)
    ]
    if ehdr.e_shstrndx >= len(shdrs):
        raise ElfError("bad section-name string table index")
    shstr = shdrs[ehdr.e_shstrndx]
    # String tables are tiny; materialize them so name lookups work the
    # same whether *raw* is bytes or a memoryview.
    shstr_blob = bytes(raw[shstr.sh_offset:shstr.sh_offset + shstr.sh_size])

    sections: list[Section] = []
    for sh in shdrs:
        if sh.sh_name >= len(shstr_blob) and sh.sh_type != 0:
            raise ElfError("section name out of range")
        name = _cstr(shstr_blob, sh.sh_name) if shstr_blob else ""
        if sh.sh_type == SHT_NOBITS:
            data = b""
        else:
            if sh.sh_offset + sh.sh_size > len(raw):
                raise ElfError(f"section {name} extends past end of file")
            data = raw[sh.sh_offset:sh.sh_offset + sh.sh_size]
        sections.append(
            Section(
                name=name, sh_type=sh.sh_type, flags=sh.sh_flags,
                vaddr=sh.sh_addr, offset=sh.sh_offset, size=sh.sh_size, data=data,
            )
        )

    # -- symbols -----------------------------------------------------------
    symbols: list[Symbol] = []
    for idx, sh in enumerate(shdrs):
        if sh.sh_type != SHT_SYMTAB:
            continue
        if sh.sh_link >= len(shdrs) or shdrs[sh.sh_link].sh_type != SHT_STRTAB:
            raise ElfError(".symtab has no linked string table")
        strtab_sh = shdrs[sh.sh_link]
        strtab = bytes(
            raw[strtab_sh.sh_offset:strtab_sh.sh_offset + strtab_sh.sh_size]
        )
        count = sh.sh_size // Sym.SIZE
        for i in range(1, count):  # skip the null symbol
            sym = Sym.unpack(raw, sh.sh_offset + i * Sym.SIZE)
            if sym.st_name >= len(strtab):
                raise ElfError("symbol name out of range")
            symbols.append(
                Symbol(
                    name=_cstr(strtab, sym.st_name),
                    value=sym.st_value,
                    size=sym.st_size,
                    sym_type=sym.type,
                    binding=sym.binding,
                )
            )

    # -- relocations via .dynamic (DT_RELA / DT_RELASZ / DT_RELAENT) -------
    relocations: list[Rela] = []
    dyn_phdr = next((p for p in phdrs if p.p_type == PT_DYNAMIC), None)
    if dyn_phdr is not None:
        if dyn_phdr.p_offset + dyn_phdr.p_filesz > len(raw):
            raise ElfError("PT_DYNAMIC extends past end of file")
        tags: dict[int, int] = {}
        pos = dyn_phdr.p_offset
        end = dyn_phdr.p_offset + dyn_phdr.p_filesz
        while pos + Dyn.SIZE <= end:
            entry = Dyn.unpack(raw, pos)
            pos += Dyn.SIZE
            if entry.d_tag == DT_NULL:
                break
            tags[entry.d_tag] = entry.d_val
        if DT_RELA in tags:
            rela_vaddr = tags[DT_RELA]
            rela_size = tags.get(DT_RELASZ, 0)
            entsize = tags.get(DT_RELAENT, Rela.SIZE)
            if entsize != Rela.SIZE:
                raise ElfError(f"unsupported relocation entry size {entsize}")
            rela_off = _vaddr_to_offset(phdrs, rela_vaddr)
            if rela_off is None or rela_off + rela_size > len(raw):
                raise ElfError("relocation table not mapped by any segment")
            for i in range(rela_size // Rela.SIZE):
                rela = Rela.unpack(raw, rela_off + i * Rela.SIZE)
                if rela.type != R_X86_64_RELATIVE:
                    raise ElfError(
                        f"unsupported relocation type {rela.type} "
                        "(static PIE should only carry R_X86_64_RELATIVE)"
                    )
                relocations.append(rela)

    return ElfImage(
        raw=raw, ehdr=ehdr, phdrs=phdrs, sections=sections,
        symbols=symbols, relocations=relocations, entry=ehdr.e_entry,
    )


def _vaddr_to_offset(phdrs: list[Phdr], vaddr: int) -> int | None:
    for p in phdrs:
        if p.p_type == PT_LOAD and p.p_vaddr <= vaddr < p.p_vaddr + p.p_filesz:
            return p.p_offset + (vaddr - p.p_vaddr)
    return None
