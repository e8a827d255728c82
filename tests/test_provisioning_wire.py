"""Wire-identity regression: the provisioning transcript is frozen bytes.

The crypto overhaul promises that every byte crossing the simulated
socket — handshake messages, encrypted content records, the verdict
record — is unchanged.  This test records the complete frame sequence of
deterministic provisioning runs (seeded DRBGs, deterministic toolchain
build) and pins, in ``tests/fixtures/provisioning_wire.json``:

* for an accepted run: the transcript digest, the verdict digest, the
  enclave's MRENCLAVE and the provider meter's per-phase breakdown
  (cycles, SGX instruction count and per-event counts);
* for a run that rejects the uninstrumented demo: its transcript digest,
  verdict digest and meter breakdown.

The meter pins were recorded from the phased receive path the streamed
one replaced, so the streamed path charges tick-identically to it.

Regenerate deliberately after an intended protocol change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_provisioning_wire.py
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.core import EnclaveClient, provision
from repro.net import sock as sock_module
from tests.conftest import meter_breakdown, small_provider

FIXTURE = Path(__file__).parent / "fixtures" / "provisioning_wire.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def _record_transcript(monkeypatch, *, policies, binary):
    """One full provisioning run with every socket frame recorded."""
    frames: list[tuple[str, bytes]] = []
    original_send = sock_module.SimSocket.send

    def recording_send(self, message):
        frames.append((self.name, bytes(message)))
        return original_send(self, message)

    monkeypatch.setattr(sock_module.SimSocket, "send", recording_send)
    provider = small_provider(policies)
    client = EnclaveClient(binary, policies=policies)
    result = provision(provider, client)
    monkeypatch.undo()
    return frames, result


def _digest(frames) -> dict:
    h = hashlib.sha256()
    total = 0
    for name, frame in frames:
        h.update(name.encode())
        h.update(len(frame).to_bytes(4, "big"))
        h.update(frame)
        total += len(frame)
    return {
        "transcript_sha256": h.hexdigest(),
        "frames": len(frames),
        "bytes": total,
    }


def _observed(frames, result) -> dict:
    observed = _digest(frames)
    observed["verdict_sha256"] = hashlib.sha256(
        result.report.serialize()
    ).hexdigest()
    observed["meter"] = meter_breakdown(result.meter)
    return observed


@pytest.fixture(scope="module")
def observed(all_policies, demo_instrumented, demo_plain):
    """An accepted and a rejected run, recorded once for the module."""
    mp = pytest.MonkeyPatch()
    try:
        accepted = _record_transcript(
            mp, policies=all_policies, binary=demo_instrumented.elf,
        )
        rejected = _record_transcript(
            mp, policies=all_policies, binary=demo_plain.elf,
        )
    finally:
        mp.undo()
    (frames, result), (bad_frames, bad_result) = accepted, rejected
    assert result.accepted and not bad_result.accepted
    assert result.client_verdict == result.report
    assert bad_result.client_verdict == bad_result.report
    doc = _observed(frames, result)
    doc["mrenclave"] = result.runtime.enclave.mrenclave.hex()
    doc["rejected"] = _observed(bad_frames, bad_result)
    return doc


@pytest.fixture(scope="module")
def frozen(observed):
    if REGEN or not FIXTURE.exists():
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(observed, indent=2) + "\n")
        if not REGEN:
            pytest.skip("fixture created; rerun to verify")
    return json.loads(FIXTURE.read_text())


_DRIFT = (
    "drifted from the frozen fixture; if the protocol change is intended, "
    "regenerate with REPRO_REGEN_GOLDEN=1"
)


def test_transcript_matches_frozen_fixture(observed, frozen):
    keys = ("transcript_sha256", "frames", "bytes", "verdict_sha256")
    assert {k: observed[k] for k in keys} == {k: frozen[k] for k in keys}, (
        f"provisioning wire transcript {_DRIFT}"
    )


def test_mrenclave_and_meter_match_frozen_fixture(observed, frozen):
    assert observed["mrenclave"] == frozen["mrenclave"], f"MRENCLAVE {_DRIFT}"
    assert observed["meter"] == frozen["meter"], f"meter breakdown {_DRIFT}"


def test_rejected_run_matches_frozen_fixture(observed, frozen):
    assert observed["rejected"] == frozen["rejected"], (
        f"rejected run's transcript or meter {_DRIFT}"
    )
