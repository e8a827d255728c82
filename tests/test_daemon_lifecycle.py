"""Lifecycle regression tests for the inspection daemon.

Graceful shutdown is a protocol promise: a ``stop(drain=True)`` with
requests in flight must answer every one of them before the connection
closes, refuse all new connections while draining, and leave the warm
state — verdict cache, quarantine, enclave pool, metrics — intact for
the next ``start()`` on the same daemon object.  Across daemon objects
only a verdict store carries state: a fresh daemon over the same store
directory answers every stored verdict without inspecting.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import EnGarde
from repro.errors import NetError
from repro.faults.hooks import injected
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service import InspectionDaemon, generate_variant_corpus

from tests.conftest import daemon_client, small_daemon


@pytest.fixture(scope="module")
def corpus(libc):
    return generate_variant_corpus(6, libc=libc)


@pytest.fixture(scope="module")
def baseline(corpus, all_policies):
    engarde = EnGarde(all_policies)
    return {
        label: engarde.inspect(raw, benchmark=label).report.serialize()
        for label, raw in corpus
    }


class _GatedDaemon(InspectionDaemon):
    """A daemon whose inspections block on a gate — lets a test hold a
    request in flight while it pulls the shutdown lever."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _inspect(self, label, raw):
        self.entered.set()
        assert self.gate.wait(30.0), "test forgot to open the gate"
        return super()._inspect(label, raw)


def test_graceful_stop_drains_inflight_then_refuses(
    all_policies, corpus, baseline
):
    daemon = _GatedDaemon(
        all_policies, pool_size=1, rsa_bits=768,
        heap_pages=64, client_pages=64, enclave_pages=0x2000,
    )
    daemon.start()
    client = daemon_client(daemon, all_policies, timeout=20.0)
    client.open()

    label, raw = corpus[0]
    verdicts: list = []
    submitter = threading.Thread(
        target=lambda: verdicts.append(client.inspect(raw, label))
    )
    submitter.start()
    assert daemon.entered.wait(10.0), "request never reached the inspector"

    stopper = threading.Thread(target=daemon.stop)
    stopper.start()
    # stopping implies: no new connections, status says so
    deadline = time.monotonic() + 5.0
    while daemon.accepting and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not daemon.accepting
    with pytest.raises(NetError, match="not accepting"):
        daemon.connect_inproc()

    # open the gate: the in-flight request must drain and be ANSWERED
    daemon.gate.set()
    submitter.join(20.0)
    stopper.join(20.0)
    assert not submitter.is_alive() and not stopper.is_alive()
    (verdict,) = verdicts
    assert verdict.error is None, verdict.error
    assert verdict.wire == baseline[label]
    with daemon._conn_lock:
        assert not daemon._connections


def test_stop_without_drain_closes_immediately(all_policies):
    daemon = small_daemon(all_policies)
    client_sock = daemon.connect_inproc(timeout=2.0)
    daemon.stop(drain=False)
    # the daemon side is gone; any use of the half-open pair fails fast
    with pytest.raises(NetError):
        client_sock.recv(timeout=0.5)


def test_warm_state_survives_stop_start_cycle(
    all_policies, corpus, baseline
):
    """Caches, quarantine, pool, and metrics carry across stop()/start()."""
    daemon = small_daemon(all_policies, quarantine_threshold=1)
    label, raw = corpus[0]
    bad_label, bad_raw = corpus[1]

    client = daemon_client(daemon, all_policies)
    first = client.inspect(raw, label)
    assert first.wire == baseline[label] and first.source == "inspected"

    # poison one binary so the quarantine records it
    crash = FaultPlan([FaultSpec(
        hook="service.batch.worker", kind="raise", probability=1.0,
    )])
    with injected(crash):
        poisoned = client.inspect(bad_raw, bad_label)
    assert poisoned.report is None
    client.close()

    cache_len = len(daemon.cache)
    quarantined = len(daemon.inspector.quarantine)
    submits = daemon.metrics.get("requests.SUBMIT")
    built = daemon.pool.stats()["built"]
    assert cache_len >= 1 and quarantined == 1

    daemon.stop()
    assert not daemon.accepting
    daemon.start()
    assert daemon.accepting

    # same objects, same contents — nothing was rebuilt or wiped
    assert len(daemon.cache) == cache_len
    assert len(daemon.inspector.quarantine) == quarantined
    assert daemon.metrics.get("requests.SUBMIT") == submits

    client2 = daemon_client(daemon, all_policies)
    # the cached verdict is served from the warm cache...
    again = client2.inspect(raw, label)
    assert again.wire == baseline[label]
    assert again.source == "cache"
    # ...and the quarantined binary is still refused, typed
    still_bad = client2.inspect(bad_raw, bad_label)
    assert still_bad.report is None
    assert "quarantined" in still_bad.error.lower()
    client2.close()
    # the pool was reused, not rebuilt
    assert daemon.pool.stats()["built"] == built
    daemon.stop()


def test_restart_same_object_supports_tcp_again(all_policies, corpus, baseline):
    from repro.net import connect_tcp
    from repro.service import InspectionClient, device_key_from_announce

    daemon = small_daemon(all_policies)
    host, port = daemon.start_tcp()
    announce = daemon.announce()
    daemon.stop()
    host2, port2 = daemon.start_tcp()
    try:
        key = device_key_from_announce(announce)  # device key is stable
        client = InspectionClient(
            all_policies, key, lambda: connect_tcp(host2, port2), timeout=5.0,
        )
        label, raw = corpus[0]
        verdict = client.inspect(raw, label)
        assert verdict.wire == baseline[label]
        client.close()
    finally:
        daemon.stop()


def test_double_start_and_double_stop_are_idempotent(all_policies):
    daemon = small_daemon(all_policies)
    daemon.start()
    daemon.start()
    daemon.stop()
    daemon.stop()
    assert not daemon.accepting


def _store_backed_pass(policies, store_dir, corpus, oracle):
    """One daemon over *store_dir*: submit *corpus*, stop, close its
    inspector.  Returns the verdict sources and the final store block."""
    from repro.service import TieredCache, VerdictStore

    daemon = small_daemon(
        policies,
        cache=TieredCache(VerdictStore(store_dir, fsync=False), 4096),
    )
    try:
        client = daemon_client(daemon, policies, timeout=30.0)
        sources: dict[str, int] = {}
        for label, raw in corpus:
            verdict = client.inspect(raw, label)
            assert verdict.report is not None, (label, verdict.error)
            assert verdict.wire == oracle[label], label
            sources[verdict.source] = sources.get(verdict.source, 0) + 1
        client.close()
        store = daemon.status()["store"]
    finally:
        daemon.stop()
        daemon.inspector.close()
    return sources, store


def test_store_warm_restart_serves_every_verdict_from_the_store(
    libc, all_policies, tmp_path
):
    """The durable-verdict drill: a cold daemon publishes its verdicts,
    then a fresh daemon over the same directory answers the whole
    52-variant corpus from the store, every wire byte-identical to the
    serial ``EnGarde`` oracle."""
    corpus = generate_variant_corpus(52, libc=libc)
    engarde = EnGarde(all_policies)
    oracle = {
        label: engarde.inspect(raw, benchmark=label).report.serialize()
        for label, raw in corpus
    }
    store_dir = tmp_path / "store"

    cold, cold_store = _store_backed_pass(
        all_policies, store_dir, corpus, oracle
    )
    assert cold.get("inspected", 0) > 0, "a cold daemon must inspect"
    assert cold_store["blobs"] > 0, "cold verdicts must be published"

    # the restart: new daemon, new pool, empty memory tier; the only
    # state carried over is the store directory
    warm, warm_store = _store_backed_pass(
        all_policies, store_dir, corpus, oracle
    )
    assert warm == {"cache": len(corpus)}, warm
    assert warm_store["recovered"] == cold_store["blobs"]
