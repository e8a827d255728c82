"""The EnGarde in-enclave inspector: the paper's primary contribution.

Orchestrates the pipeline over client content that has already been
decrypted inside the enclave::

    ELF validation -> page-split check -> NaCl disassembly -> symbol hash
    table -> policy modules -> (if compliant) load + relocate -> report

Cycle charges land in three meter phases — ``disassembly``, ``policy``,
``loading`` — matching the three cost columns of Figures 3-5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RejectionError
from ..sgx.cpu import CycleMeter
from ..sgx.enclave import Enclave
from .disasm import Disassembler, DisassemblyResult
from .loader import LoadedImage, Loader
from .policy import PolicyRegistry, PolicyResult
from .report import ComplianceReport

__all__ = [
    "EnGarde", "InspectionOutcome", "ENGARDE_VERSION", "static_text_pages",
]

ENGARDE_VERSION = "1.0"


def static_text_pages(image) -> list[int]:
    """Page-aligned vaddrs of every byte of executable text in *image*.

    The normal pipeline guarantees exactly one text section by the time
    this runs, but the report boundary must not assume it: an image with
    several text sections reports the union of their pages, and one with
    no (non-empty) text contributes nothing — the caller rejects rather
    than emit a compliant report with no code pages.
    """
    pages: set[int] = set()
    for text in image.text_sections:
        if not text.data:
            continue
        pages.update(range(
            text.vaddr & ~0xFFF, text.vaddr + len(text.data), 4096
        ))
    return sorted(pages)


@dataclass
class InspectionOutcome:
    """Everything the pipeline produced for one client binary."""

    report: ComplianceReport
    disassembly: DisassemblyResult | None = None
    policy_results: list[PolicyResult] = field(default_factory=list)
    loaded: LoadedImage | None = None

    @property
    def accepted(self) -> bool:
        return self.report.compliant


class EnGarde:
    """One EnGarde instance, configured with the agreed policy modules."""

    def __init__(
        self,
        policies: PolicyRegistry,
        meter: CycleMeter | None = None,
        *,
        alloc_pages=None,
        per_insn_malloc: bool = False,
        optimized: bool = True,
    ) -> None:
        self.policies = policies
        self.meter = meter or CycleMeter()
        #: ``optimized=False`` runs the frozen pre-optimization hot path
        #: (reference decoder and validator, per-instruction charges,
        #: uncached policy context) — the differential-testing oracle and
        #: benchmark baseline.  Verdicts, reports, and meter totals are
        #: identical either way; only wall-clock differs.
        self.optimized = optimized
        self.disassembler = Disassembler(
            self.meter, alloc_pages=alloc_pages,
            per_insn_malloc=per_insn_malloc, optimized=optimized,
        )
        self.loader = Loader(self.meter)

    # ------------------------------------------------------------------

    def inspect(
        self, raw_elf: bytes, *, benchmark: str = "client", scan=None
    ) -> InspectionOutcome:
        """Disassemble and policy-check only (no enclave required).

        This is the static-inspection core; :meth:`inspect_and_load` adds
        the loading stage against a real enclave.  *scan* is an optional
        speculative :class:`~repro.core.streaming.StreamScan` collected
        while the content was still arriving; the disassembler verifies it
        against the exact parse and decodes the text itself on any
        mismatch, so verdicts and meter totals are identical either way.
        """
        policy_names = self.policies.names()
        try:
            with self.meter.phase("disassembly"):
                disasm = self.disassembler.run(raw_elf, scan)
        except RejectionError as exc:
            return InspectionOutcome(
                report=ComplianceReport.rejected(
                    benchmark, policy_names, stage=exc.stage
                )
            )

        ctx = disasm.policy_context(self.meter, cached=self.optimized)
        results: list[PolicyResult] = []
        failed: list[str] = []
        with self.meter.phase("policy"):
            for module in self.policies:
                result = module.check(ctx)
                results.append(result)
                if not result.compliant:
                    failed.append(module.name)

        if failed:
            return InspectionOutcome(
                report=ComplianceReport.rejected(
                    benchmark, policy_names, failed=failed
                ),
                disassembly=disasm,
                policy_results=results,
            )
        # The report's executable-page list is finalised by the loader; the
        # static-only path reports the image's own text pages.
        pages = static_text_pages(disasm.image)
        if not pages:
            return InspectionOutcome(
                report=ComplianceReport.rejected(
                    benchmark, policy_names, stage="no-text"
                ),
                disassembly=disasm,
                policy_results=results,
            )
        return InspectionOutcome(
            report=ComplianceReport.accepted(benchmark, policy_names, pages),
            disassembly=disasm,
            policy_results=results,
        )

    def inspect_and_load(
        self,
        raw_elf: bytes,
        enclave: Enclave,
        region_base: int,
        region_pages: int,
        *,
        benchmark: str = "client",
        scan=None,
    ) -> InspectionOutcome:
        """Full pipeline: inspect, then load into *enclave* if compliant."""
        outcome = self.inspect(raw_elf, benchmark=benchmark, scan=scan)
        if not outcome.accepted or outcome.disassembly is None:
            return outcome

        try:
            with self.meter.phase("loading"):
                loaded = self.loader.load(
                    outcome.disassembly.image, enclave, region_base, region_pages
                )
        except RejectionError as exc:
            return InspectionOutcome(
                report=ComplianceReport.rejected(
                    benchmark, self.policies.names(), stage=exc.stage
                ),
                disassembly=outcome.disassembly,
                policy_results=outcome.policy_results,
            )

        report = ComplianceReport.accepted(
            benchmark, self.policies.names(), loaded.executable_pages
        )
        return InspectionOutcome(
            report=report,
            disassembly=outcome.disassembly,
            policy_results=outcome.policy_results,
            loaded=loaded,
        )

    # ------------------------------------------------------------------

    def bootstrap_bytes(self) -> bytes:
        """The measured in-enclave bootstrap identity.

        Stands in for EnGarde's code pages: a deterministic blob binding
        the EnGarde version and the *exact policy set* — so the enclave
        measurement (and hence attestation) pins which policies will run.
        """
        return (
            b"ENGARDE-BOOTSTRAP v" + ENGARDE_VERSION.encode() + b"\x00"
            + self.policies.digest_material()
        )
