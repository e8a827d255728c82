"""What the repo benchmark (``perfbench/``) needs from the program.

The traced run wraps every ``perfbench/spans.py`` ``SPANS`` target where
it is bound, reading methods straight from the owning class's
``__dict__``; the provisioning workloads construct ``CloudProvider`` and
``EnclaveClient`` with ``streaming=True``.  A refactor that moves, renames
or inherits away a span target, or drops that keyword, breaks the
benchmark run; these tests catch it in tier-1.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.core import EnclaveClient
from tests.conftest import small_provider

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(module_name: str, attr: str):
    """The object ``Tracer.install`` wraps for one ``SPANS`` entry."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, attr)


SPANS = _spans_module().SPANS


@pytest.mark.parametrize(
    "name, module_name, attr", SPANS,
    ids=[f"{name}:{attr}" for name, _m, attr in SPANS],
)
def test_span_target_resolves_like_tracer_install(name, module_name, attr):
    assert callable(_bound(module_name, attr)), f"{name}: {module_name}.{attr}"


def test_tracer_installs_and_uninstalls_cleanly():
    spans = _spans_module()
    before = {
        (module_name, attr): _bound(module_name, attr)
        for _n, module_name, attr in spans.SPANS
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(
            _bound(module_name, attr) is not original
            for (module_name, attr), original in before.items()
        )
    finally:
        tracer.uninstall()
    assert all(
        _bound(module_name, attr) is original
        for (module_name, attr), original in before.items()
    )


def test_provisioning_accepts_only_streaming_true(all_policies, demo_plain):
    small_provider(all_policies, streaming=True)
    EnclaveClient(demo_plain.elf, policies=all_policies, streaming=True)
    with pytest.raises(ValueError, match="streaming"):
        small_provider(all_policies, streaming=False)
    with pytest.raises(ValueError, match="streaming"):
        EnclaveClient(demo_plain.elf, policies=all_policies, streaming=False)
