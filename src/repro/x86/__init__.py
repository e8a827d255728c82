"""x86-64 substrate: registers, encoder, assembler, decoder, validator.

The paper builds EnGarde's disassembler on Google Native Client's 64-bit
disassembler; this package is our from-scratch equivalent.  The encoder and
assembler exist so the mini toolchain can emit *real machine code* for the
policies to inspect — nothing in the pipeline operates on mocked bytes.
"""

from .asm import BUNDLE_SIZE, Assembler, ExternalFixup, Label
from .decoder import (
    InstructionBuffer,
    StreamDecoder,
    decode_all,
    decode_error,
    decode_one,
    iter_decode,
)
from .encoder import Enc
from .insn import Imm, Instruction, Mem, Operand
from .lengths import Columns, OffsetIndex, length_pass
from .registers import (
    EAX, EBP, EBX, ECX, EDI, EDX, ESI, ESP,
    R8, R8D, R9, R9D, R10, R10D, R11, R11D,
    R12, R12D, R13, R13D, R14, R14D, R15, R15D,
    RAX, RBP, RBX, RCX, RDI, RDX, RSI, RSP,
    GPR32, GPR64, Reg, reg_by_name, reg_name,
)
from .validator import (
    check_bundles,
    check_reachability,
    check_targets,
    validate,
    validate_fast,
)

__all__ = [
    "Assembler", "Label", "ExternalFixup", "BUNDLE_SIZE",
    "Enc",
    "decode_one", "decode_all", "iter_decode", "decode_error",
    "StreamDecoder", "InstructionBuffer",
    "Columns", "OffsetIndex", "length_pass",
    "Instruction", "Mem", "Imm", "Operand",
    "Reg", "reg_name", "reg_by_name", "GPR64", "GPR32",
    "RAX", "RCX", "RDX", "RBX", "RSP", "RBP", "RSI", "RDI",
    "R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15",
    "EAX", "ECX", "EDX", "EBX", "ESP", "EBP", "ESI", "EDI",
    "R8D", "R9D", "R10D", "R11D", "R12D", "R13D", "R14D", "R15D",
    "validate", "validate_fast", "check_bundles", "check_targets",
    "check_reachability",
]
