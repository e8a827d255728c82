"""EnGarde core: the paper's primary contribution.

Pipeline components (disassembly stage, policy engine, loader), the three
evaluated policy modules, and the end-to-end mutual-trust provisioning
protocol between a cloud provider and a client.
"""

from .disasm import Disassembler, DisassemblyResult
from .engarde import (
    ENGARDE_VERSION,
    EnGarde,
    InspectionOutcome,
    static_text_pages,
)
from .funcid import RecognizedFunctions, recognize_functions
from .loader import LoadedImage, Loader
from .policies import IfccPolicy, LibraryLinkingPolicy, StackProtectionPolicy
from .policy import (
    PolicyContext,
    PolicyModule,
    PolicyRegistry,
    PolicyResult,
    SymbolHashTable,
)
from .provisioning import (
    CloudProvider,
    EnclaveClient,
    ProvisioningResult,
    expected_mrenclave,
    provision,
)
from .report import ComplianceReport
from .runtime import (
    ClientAborted,
    EnclaveExecutor,
    ExecutionResult,
    StackSmashDetected,
)

__all__ = [
    "EnGarde", "InspectionOutcome", "ENGARDE_VERSION", "static_text_pages",
    "Disassembler", "DisassemblyResult",
    "Loader", "LoadedImage",
    "PolicyModule", "PolicyRegistry", "PolicyResult", "PolicyContext",
    "SymbolHashTable",
    "LibraryLinkingPolicy", "StackProtectionPolicy", "IfccPolicy",
    "ComplianceReport",
    "CloudProvider", "EnclaveClient", "ProvisioningResult",
    "provision", "expected_mrenclave",
    "EnclaveExecutor", "ExecutionResult",
    "StackSmashDetected", "ClientAborted",
    "recognize_functions", "RecognizedFunctions",
]
