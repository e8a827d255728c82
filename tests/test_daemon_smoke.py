"""End-to-end smoke: ``repro serve`` in a real subprocess over real TCP.

What the CI daemon-smoke job runs: start the CLI daemon on loopback, do
a full SDK round-trip (attest → submit → verdict), probe STATUS and
METRICS, then SIGTERM and require a clean exit — all under a hard
wall-clock budget so a wedged daemon fails instead of hanging the
suite.  The ``--store`` drive does the same twice over one store
directory and requires the second daemon to answer from the store.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.net import connect_tcp
from repro.service import InspectionClient, device_key_from_announce

#: the whole smoke (libc build + daemon warm-up + round trip) must fit here
HARD_TIMEOUT = 180.0


def _start_serve(*extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--max-uptime", str(HARD_TIMEOUT), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=root, text=True,
    )


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate(timeout=30)


def _read_announce(proc: subprocess.Popen) -> dict:
    """The announce line: the daemon's out-of-band bootstrap record."""
    line = proc.stdout.readline()
    assert line, proc.stderr.read()
    return json.loads(line)


def _drain(proc: subprocess.Popen) -> None:
    """SIGTERM, then require a clean drain and exit 0."""
    proc.send_signal(signal.SIGTERM)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert "daemon stopped" in err


def _tcp_client(policies, announce: dict) -> InspectionClient:
    return InspectionClient(
        policies,
        device_key_from_announce(announce),
        lambda: connect_tcp(announce["host"], announce["port"]),
        timeout=30.0,
    )


@pytest.fixture()
def serve_proc():
    proc = _start_serve()
    try:
        yield proc
    finally:
        _reap(proc)


def test_serve_roundtrip_status_metrics_shutdown(
    serve_proc, libc, all_policies
):
    t0 = time.monotonic()
    announce = _read_announce(serve_proc)
    assert announce["host"] == "127.0.0.1"
    assert announce["protocol_version"] == 1

    # the CLI serves the stack-protection registry by default
    from repro.core import PolicyRegistry
    from repro.harness.runner import make_policy
    from repro.service.corpus import generate_variant_corpus

    policies = PolicyRegistry([make_policy("stack-protection", libc)])
    corpus = generate_variant_corpus(2, libc=libc)

    client = _tcp_client(policies, announce)
    label, raw = corpus[0]
    verdict = client.inspect(raw, label)
    assert verdict.report is not None, verdict.error
    # same binary again: the daemon's verdict cache answers, byte-identical
    again = client.inspect(raw, label)
    assert again.source == "cache"
    assert again.wire == verdict.wire

    status = client.status()
    assert status["status"] == "ok"
    assert status["connections_active"] >= 1
    metrics = client.metrics()
    assert metrics["counters"]["requests.SUBMIT"] == 2
    assert metrics["cache"]["hits"] >= 1
    assert metrics["latency"]["inspect"]["count"] >= 1
    assert metrics["resilience"]["retries"] == 1  # CLI default
    client.close()

    _drain(serve_proc)
    assert time.monotonic() - t0 < HARD_TIMEOUT


def test_serve_store_restart_answers_from_the_store(
    libc, all_policies, tmp_path
):
    """``serve --store DIR`` is one daemon whose verdicts outlive it: a
    second ``serve`` over the same DIR answers every submit from the
    store, and the serve options (``--quarantine-threshold``) reach the
    daemon in both runs."""
    from repro.core import PolicyRegistry
    from repro.harness.runner import make_policy
    from repro.service.corpus import generate_variant_corpus

    policies = PolicyRegistry([make_policy("stack-protection", libc)])
    corpus = generate_variant_corpus(2, libc=libc)
    store_dir = str(tmp_path / "store")

    runs = []
    for _ in range(2):
        proc = _start_serve(
            "--store", store_dir, "--quarantine-threshold", "2"
        )
        try:
            client = _tcp_client(policies, _read_announce(proc))
            verdicts = [client.inspect(raw, label) for label, raw in corpus]
            assert client.metrics()["quarantine"]["threshold"] == 2
            store = client.status()["store"]
            client.close()
            _drain(proc)
        finally:
            _reap(proc)
        assert all(v.report is not None for v in verdicts), verdicts
        assert store["attached"] is True
        runs.append((verdicts, store))

    (cold, cold_store), (warm, warm_store) = runs
    assert cold_store["puts"] > 0, "the first run must publish its verdicts"
    assert [v.source for v in warm] == ["cache"] * len(corpus)
    assert [v.wire for v in warm] == [v.wire for v in cold]
    assert warm_store["recovered"] == cold_store["puts"]
