"""Exception hierarchy shared across the EnGarde reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish "the simulated machine misbehaved" from ordinary Python errors.
The core EnGarde pipeline additionally distinguishes *rejections* (the
client's content failed validation or policy checking — an expected,
report-worthy outcome) from *faults* (a bug or protocol violation).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key, bad padding, bad MAC...)."""


class X86Error(ReproError):
    """Base class for x86 encoder/decoder errors."""


class EncodeError(X86Error):
    """An instruction could not be encoded (bad operands, unsupported form)."""


class DecodeError(X86Error):
    """A byte sequence could not be decoded into a valid instruction."""


class ValidationError(X86Error):
    """Disassembled code violates a NaCl-style structural constraint."""


class ElfError(ReproError):
    """An ELF image is malformed or violates EnGarde's format requirements."""


class SgxError(ReproError):
    """An SGX instruction faulted (bad enclave state, EPC exhausted...)."""


class EpcExhaustedError(SgxError):
    """The machine ran out of EPC pages."""


class EnclaveSealedError(SgxError):
    """An attempt was made to extend an enclave after provisioning sealed it."""


class AttestationError(ReproError):
    """Quote generation or verification failed."""


class ToolchainError(ReproError):
    """The mini compiler/linker could not produce the requested binary."""


class LinkError(ToolchainError):
    """Symbol resolution or relocation emission failed during linking."""


class NetError(ReproError):
    """The simulated socket layer failed (peer closed, framing error...)."""


class ProtocolError(ReproError):
    """The provisioning protocol was violated (wrong message, bad state)."""


class OverrunError(ProtocolError):
    """An authenticated record carried content past the announced size.

    The peer sent it that way, so a retransmit cannot cure it: receive
    loops fail at once instead of asking for the record again."""


class PolicyError(ReproError):
    """A policy module could not run (missing symbol table, bad config)."""


class ServiceError(ReproError):
    """The provider-side inspection service failed outside the pipeline."""


class WorkerCrashError(ServiceError):
    """An inspection worker died (or was made to die) mid-verdict."""


class StoreError(ServiceError):
    """The on-disk verdict store refused a blob (torn write, truncated
    file, digest or key mismatch).  Always fail-closed: a corrupt blob
    is discarded and surfaces as a cache *miss* plus this typed error —
    never as a false verdict hit."""


class DeadlineExceededError(ServiceError):
    """An inspection exceeded its per-item deadline across all retries."""


class QuarantinedError(ServiceError):
    """A binary was refused because repeated failures quarantined it."""


class InjectedFault(ReproError):
    """A fault deliberately injected by :mod:`repro.faults`.

    Raised at hook points whose call site supplied no more specific typed
    error; carries the hook point and fault kind so failure reports can
    name the originating stage.
    """

    def __init__(self, message: str, *, hook: str = "?", kind: str = "?") -> None:
        super().__init__(message)
        self.hook = hook
        self.kind = kind


class RejectionError(ReproError):
    """The client's content was rejected.

    This is the *expected* failure mode of EnGarde: malformed ELF, mixed
    code/data pages, disassembly validation failure, or a policy verdict of
    non-compliance.  The provisioning protocol converts these into a
    rejection report for the cloud provider rather than crashing.
    """

    def __init__(self, reason: str, *, stage: str = "unknown") -> None:
        super().__init__(reason)
        self.reason = reason
        #: pipeline stage that rejected the content (e.g. "elf", "disasm",
        #: "policy:library-linking")
        self.stage = stage

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RejectionError(stage={self.stage!r}, reason={self.reason!r})"
