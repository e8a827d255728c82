"""The zero-copy shared-memory executor: arena semantics and the
cross-mode differential.

The arena is the trust boundary between the batch front-end and its
pool workers, so the tests here are fail-closed-shaped: a stale,
released, or torn-down slot must raise a typed :class:`ArenaError` —
never hand back bytes that might be someone else's — and every
executor mode must produce byte-identical verdict wire.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import ArenaError
from repro.service import (
    BatchInspector,
    SharedArena,
    default_workers,
    generate_variant_corpus,
)
from repro.service import shm as shm_mod
from tests.conftest import compile_demo, daemon_client, small_daemon


@pytest.fixture(scope="module")
def good_elf(libc):
    return compile_demo(libc, stack_protector=True, ifcc=True, name="shm").elf


@pytest.fixture()
def arena():
    a = SharedArena(segment_bytes=1 << 16)
    yield a
    a.close()
    shm_mod.detach_all()


# ----------------------------------------------------------------- arena


def test_publish_attach_roundtrip(arena):
    payload = os.urandom(4096)
    ticket = arena.publish(payload)
    view = shm_mod.attach_view(ticket)
    try:
        assert bytes(view) == payload
        assert len(view) == ticket.length
    finally:
        view.release()
        shm_mod.detach_all()


def test_release_tombstones_the_slot(arena):
    ticket = arena.publish(b"x" * 128)
    arena.release(ticket)
    with pytest.raises(ArenaError):
        shm_mod.attach_view(ticket)
    # releasing again is a no-op, not a crash
    arena.release(ticket)


def test_stale_generation_fails_closed(arena):
    """A reused slot must refuse tickets from its previous life."""
    old = arena.publish(b"a" * 256)
    arena.release(old)
    # same size: the allocator hands back the same offset, new generation
    new = arena.publish(b"b" * 256)
    assert (new.segment, new.offset) == (old.segment, old.offset)
    assert new.generation != old.generation
    with pytest.raises(ArenaError):
        shm_mod.attach_view(old)
    view = shm_mod.attach_view(new)
    try:
        assert bytes(view) == b"b" * 256
    finally:
        view.release()
    arena.release(new)


def test_refcount_keeps_slot_alive(arena):
    ticket = arena.publish(b"ref" * 100)
    arena.retain(ticket)
    arena.release(ticket)  # drops to 1 — still live
    view = shm_mod.attach_view(ticket)
    view.release()
    arena.release(ticket)  # drops to 0 — tombstoned
    with pytest.raises(ArenaError):
        shm_mod.attach_view(ticket)


def test_arena_grows_past_one_segment(arena):
    # segment_bytes is 64 KiB; publish several larger blobs
    tickets = [arena.publish(os.urandom(48 * 1024)) for _ in range(3)]
    assert arena.segments >= 2
    for t in tickets:
        view = shm_mod.attach_view(t)
        view.release()
        arena.release(t)
    assert arena.bytes_in_use == 0
    stats = arena.stats()
    assert stats["publishes"] == 3
    assert stats["released"] == 3


def test_close_is_idempotent_and_fails_closed(arena):
    live = arena.publish(b"still-mapped" * 10)
    arena.close()
    arena.close()
    assert arena.closed
    with pytest.raises(ArenaError):
        arena.publish(b"too late")
    with pytest.raises(ArenaError):
        shm_mod.attach_view(live)


# --------------------------------------------------------- REPRO_WORKERS


def test_repro_workers_env_override(monkeypatch, all_policies):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert default_workers() == 3
    inspector = BatchInspector(all_policies, mode="process")
    assert inspector.workers == 3
    inspector.close()


@pytest.mark.parametrize("bad", ["0", "-2", "abc", "1.5"])
def test_repro_workers_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv("REPRO_WORKERS", bad)
    with pytest.raises(ValueError):
        default_workers()


def test_repro_workers_default_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert 1 <= default_workers() <= 8


# -------------------------------------------------------- input snapshots


def test_mutable_buffers_are_snapshotted(all_policies, good_elf):
    """bytearray/memoryview inputs are coerced once up front: cache keys
    and verdicts belong to the bytes at submission time, not whatever
    the caller later does to the buffer."""
    with BatchInspector(all_policies, mode="serial") as inspector:
        oracle = inspector.inspect_batch([("a", good_elf)]).results[0]
        assert oracle.report is not None

        buf = bytearray(good_elf)
        first = inspector.inspect_batch([("a", buf)]).results[0]
        assert first.source == "cache"  # same content as the bytes submit
        assert first.report.serialize() == oracle.report.serialize()

        buf[0] ^= 0xFF  # caller mutates their buffer afterwards...
        second = inspector.inspect_batch([("a", buf)]).results[0]
        # ...and gets a fresh verdict for the new content (corrupt magic
        # -> structural reject), not the stale cache entry
        assert second.source != "cache"
        assert not second.report.compliant
        assert second.report.rejected_stage == "elf"

        # the original content's entry was never poisoned
        again = inspector.inspect_batch([("a", good_elf)]).results[0]
        assert again.source == "cache"
        assert again.report.serialize() == oracle.report.serialize()


def test_memoryview_input_matches_bytes(all_policies, good_elf):
    with BatchInspector(all_policies, mode="serial", cache=False) as insp:
        a = insp.inspect_batch([("a", good_elf)]).results[0]
        b = insp.inspect_batch([("a", memoryview(good_elf))]).results[0]
    assert a.report.serialize() == b.report.serialize()


# -------------------------------------------------- inspector lifecycle


def test_inspector_close_is_idempotent(all_policies, good_elf):
    inspector = BatchInspector(all_policies, mode="process", workers=2)
    report = inspector.inspect_batch([("a", good_elf)])
    assert report.results[0].report is not None
    assert inspector.arena_stats() is not None
    inspector.close()
    inspector.close()
    assert inspector.arena_stats() is None


def test_close_with_inflight_future_then_reuse(all_policies, good_elf):
    """A timed-out worker may still be reading its slot: close() must
    drain the pool before unlinking the arena, and the inspector must
    come back with a correct verdict afterwards."""
    inspector = BatchInspector(
        all_policies, mode="process", workers=2, timeout=1e-6,
    )
    rushed = inspector.inspect_batch([("a", good_elf)]).results[0]
    assert rushed.report is None
    assert "timeout" in (rushed.error or "")
    # the timed-out worker's ticket is parked, not freed under it
    assert inspector.arena_stats()["bytes_in_use"] > 0
    inspector.close()

    inspector.timeout = None
    fresh = inspector.inspect_batch([("b", good_elf)]).results[0]
    assert fresh.report is not None
    assert fresh.report.compliant
    assert inspector.arena_stats()["bytes_in_use"] == 0
    inspector.close()


def test_shm_arena_drains_after_batch(all_policies, libc):
    corpus = generate_variant_corpus(6, libc=libc)
    with BatchInspector(all_policies, mode="process", workers=2) as insp:
        insp.inspect_batch(corpus)
        stats = insp.arena_stats()
        assert stats["publishes"] > 0
        assert stats["bytes_in_use"] == 0


def test_dispatch_counts_one_future_per_unique_miss(all_policies, libc):
    corpus = generate_variant_corpus(9, libc=libc)  # holds one duplicate
    unique = len({raw for _, raw in corpus})
    assert unique < len(corpus)
    with BatchInspector(all_policies, mode="process", workers=2) as insp:
        cold = insp.inspect_batch(corpus)
        warm = insp.inspect_batch(corpus)
    assert cold.summary.dispatch == {"futures_submitted": unique}
    assert warm.summary.dispatch == {"futures_submitted": 0}
    with BatchInspector(all_policies, mode="serial") as insp:
        serial = insp.inspect_batch(corpus)
    assert serial.summary.dispatch == {"futures_submitted": 0}


# ------------------------------------------------- cross-mode differential


def _fingerprint(item):
    if item.report is not None:
        return ("report", item.report.serialize())
    return ("error", item.error)


def test_all_executor_modes_produce_identical_wire(all_policies, libc):
    """serial / process+shm: byte-identical verdict wire for every
    variant kind, including the reject paths."""
    corpus = generate_variant_corpus(9, libc=libc)  # one full rotation
    runs = {}
    for mode in ("serial", "process"):
        with BatchInspector(
            all_policies, workers=2, cache=False, mode=mode
        ) as insp:
            report = insp.inspect_batch(corpus)
        runs[mode] = {
            item.label: _fingerprint(item) for item in report.results
        }
    oracle = runs.pop("serial")
    for name, prints in runs.items():
        assert prints == oracle, f"{name} diverged from the serial oracle"


# ----------------------------------------------------------- daemon path


def test_daemon_serves_through_shm_inspector(all_policies, good_elf, demo_plain):
    """End-to-end: attested client -> daemon -> process+shm executor."""
    daemon = small_daemon(
        all_policies, inspector_mode="process", workers=2,
    )
    try:
        client = daemon_client(daemon, all_policies, timeout=20.0)
        with client:
            good = client.inspect(good_elf, label="good")
            bad = client.inspect(demo_plain.elf, label="bad")
        assert daemon.inspector.arena_stats()["publishes"] == 2
        assert good.accepted
        assert good.report.compliant
        assert bad.report is not None and not bad.report.compliant
    finally:
        daemon.stop()
        daemon.inspector.close()
