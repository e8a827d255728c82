"""The EnGarde orchestrator: pipeline outcomes and phase accounting."""

from __future__ import annotations

import pytest

from repro.core import EnGarde, PolicyRegistry
from repro.core.policy import PolicyContext, PolicyModule
from repro.errors import PolicyError
from repro.sgx import CycleMeter
from tests.conftest import compile_demo


class AlwaysPass(PolicyModule):
    name = "always-pass"

    def check(self, ctx):
        return self.result()


class AlwaysFail(PolicyModule):
    name = "always-fail"

    def check(self, ctx):
        result = self.result()
        result.add_violation("configured to fail")
        return result


class CountingPolicy(PolicyModule):
    name = "counting"

    def __init__(self):
        self.calls = 0

    def check(self, ctx):
        self.calls += 1
        return self.result()


class TestInspect:
    def test_accept_path(self, demo_plain):
        engarde = EnGarde(PolicyRegistry([AlwaysPass()]))
        outcome = engarde.inspect(demo_plain.elf, benchmark="demo")
        assert outcome.accepted
        assert outcome.report.policies_checked == ("always-pass",)
        assert outcome.disassembly is not None
        assert outcome.report.executable_pages

    def test_reject_path(self, demo_plain):
        engarde = EnGarde(PolicyRegistry([AlwaysPass(), AlwaysFail()]))
        outcome = engarde.inspect(demo_plain.elf)
        assert not outcome.accepted
        assert outcome.report.policies_failed == ("always-fail",)
        assert outcome.loaded is None

    def test_structural_rejection_skips_policies(self):
        counting = CountingPolicy()
        engarde = EnGarde(PolicyRegistry([counting]))
        outcome = engarde.inspect(b"garbage-not-elf" * 10)
        assert not outcome.accepted
        assert outcome.report.rejected_stage == "elf"
        assert counting.calls == 0

    def test_every_policy_runs_even_after_failure(self, demo_plain):
        counting = CountingPolicy()
        engarde = EnGarde(PolicyRegistry([AlwaysFail(), counting]))
        engarde.inspect(demo_plain.elf)
        assert counting.calls == 1

    def test_phase_attribution(self, demo_plain):
        engarde = EnGarde(PolicyRegistry([AlwaysPass()]))
        engarde.inspect(demo_plain.elf)
        meter = engarde.meter
        assert meter.phase_cycles("disassembly") > 0
        assert meter.phase_cycles("loading") == 0  # inspect() never loads
        assert meter.phase_cycles("disassembly") <= meter.total_cycles


class TestBootstrapIdentity:
    def test_policy_set_changes_bootstrap(self):
        a = EnGarde(PolicyRegistry([AlwaysPass()]))
        b = EnGarde(PolicyRegistry([AlwaysPass(), AlwaysFail()]))
        assert a.bootstrap_bytes() != b.bootstrap_bytes()

    def test_bootstrap_order_independent(self):
        a = EnGarde(PolicyRegistry([AlwaysPass(), AlwaysFail()]))
        b = EnGarde(PolicyRegistry([AlwaysFail(), AlwaysPass()]))
        assert a.bootstrap_bytes() == b.bootstrap_bytes()


class TestRegistry:
    def test_duplicate_rejected(self):
        with pytest.raises(PolicyError):
            PolicyRegistry([AlwaysPass(), AlwaysPass()])

    def test_iteration_and_names(self):
        registry = PolicyRegistry([AlwaysPass(), AlwaysFail()])
        assert len(registry) == 2
        assert registry.names() == ["always-pass", "always-fail"]


class TestStaticTextPages:
    """Regression: the static-report path assumed text_sections[0] exists.

    `static_text_pages` must tolerate images with zero or multiple text
    sections, and `inspect` must reject (never accept with an empty page
    list) when an image somehow carries no text."""

    @staticmethod
    def _image(*sections):
        from types import SimpleNamespace

        return SimpleNamespace(text_sections=list(sections))

    @staticmethod
    def _section(vaddr, size):
        from types import SimpleNamespace

        return SimpleNamespace(vaddr=vaddr, data=b"\x90" * size)

    def test_single_section_matches_previous_behaviour(self):
        from repro.core import static_text_pages

        image = self._image(self._section(0x1234, 0x2000))
        assert static_text_pages(image) == [0x1000, 0x2000, 0x3000]

    def test_multiple_sections_union_sorted_deduped(self):
        from repro.core import static_text_pages

        image = self._image(
            self._section(0x5000, 0x1000),
            self._section(0x1000, 0x1800),   # overlaps into page 0x2000
            self._section(0x2000, 0x10),     # duplicate page
        )
        assert static_text_pages(image) == [0x1000, 0x2000, 0x5000]

    def test_zero_or_empty_sections_yield_no_pages(self):
        from repro.core import static_text_pages

        assert static_text_pages(self._image()) == []
        assert static_text_pages(self._image(self._section(0x1000, 0))) == []

    def _engarde_with_stub_image(self, image):
        """An EnGarde whose disassembler reports *image* — the only way a
        zero/multi-text image can reach the report path, since the real
        disassembler rejects those earlier."""
        from repro.core import EnGarde, PolicyRegistry
        from repro.core.disasm import DisassemblyResult
        from repro.core.policy import SymbolHashTable

        engarde = EnGarde(PolicyRegistry([AlwaysPass()]))
        result = DisassemblyResult(
            image=image,
            instructions=[],
            symtab=SymbolHashTable(engarde.meter),
            text_vaddr=0,
            buffer_pages_allocated=0,
        )
        engarde.disassembler.run = lambda raw, scan=None: result
        return engarde

    def test_inspect_rejects_instead_of_crashing_on_textless_image(self):
        engarde = self._engarde_with_stub_image(self._image())
        outcome = engarde.inspect(b"irrelevant", benchmark="textless")
        assert not outcome.accepted
        assert outcome.report.rejected_stage == "no-text"
        assert outcome.report.executable_pages == ()

    def test_inspect_reports_union_for_multi_text_image(self):
        engarde = self._engarde_with_stub_image(self._image(
            self._section(0x3000, 0x1000), self._section(0x1000, 0x800),
        ))
        outcome = engarde.inspect(b"irrelevant", benchmark="multi")
        assert outcome.accepted
        assert outcome.report.executable_pages == (0x1000, 0x3000)
