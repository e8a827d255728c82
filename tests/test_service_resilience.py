"""Resilience layer of the batch service: exact, reproducible recovery.

Everything here runs on a :class:`FakeClock` shared between the fault
plan and the inspector, so backoff schedules, deadlines, and injected
hangs are asserted to the exact fake-second — and two runs under the
same seed are asserted identical.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.faults import FakeClock, FaultPlan, FaultSpec, injected
from repro.service import BatchInspector, InspectionCache, cache_key
from repro.service.batch import Quarantine

from tests.conftest import compile_demo


@pytest.fixture(scope="module")
def good_elf(libc):
    return compile_demo(libc, stack_protector=True, ifcc=True, name="resil").elf


def _worker_raise_plan(clock, *, max_triggers=None, after=0):
    return FaultPlan(
        [FaultSpec(hook="service.batch.worker", kind="raise",
                   after=after, max_triggers=max_triggers)],
        clock=clock,
    )


# ----------------------------------------------------------- backoff


def test_backoff_schedule_is_exact(all_policies, good_elf):
    clock = FakeClock()
    inspector = BatchInspector(
        all_policies, mode="serial", cache=False,
        retries=2, backoff_base=0.05, clock=clock,
    )
    with injected(_worker_raise_plan(clock)):
        report = inspector.inspect_batch([("a", good_elf)])

    item = report.results[0]
    assert item.error is not None
    assert item.error.startswith("WorkerCrashError:")
    # 3 attempts, 2 sleeps: base, then doubled — exactly.
    assert clock.sleeps == [0.05, 0.1]
    assert report.summary.resilience["retry_attempts"] == 2


def test_single_transient_failure_recovers_on_retry(all_policies, good_elf):
    clock = FakeClock()
    inspector = BatchInspector(
        all_policies, mode="serial", cache=False,
        retries=1, backoff_base=0.05, clock=clock,
    )
    with injected(_worker_raise_plan(clock, max_triggers=1)):
        report = inspector.inspect_batch([("a", good_elf)])

    item = report.results[0]
    assert item.error is None
    assert item.accepted
    assert clock.sleeps == [0.05]
    assert report.summary.resilience["retry_attempts"] == 1
    assert report.summary.accepted == 1


def test_injected_hang_trips_deadline_not_wall_clock(all_policies, good_elf):
    clock = FakeClock()
    plan = FaultPlan(
        [FaultSpec(hook="service.batch.worker", kind="hang",
                   max_triggers=None)],
        clock=clock, hang_seconds=10.0,
    )
    inspector = BatchInspector(
        all_policies, mode="serial", cache=False,
        retries=5, deadline=5.0, clock=clock,
    )
    with injected(plan):
        report = inspector.inspect_batch([("a", good_elf)])

    item = report.results[0]
    assert item.error is not None
    assert item.error.startswith("DeadlineExceededError:")
    # one hang of 10 fake seconds burned the 5s budget — no retries after
    assert clock.sleeps == [10.0]
    assert report.summary.wall_seconds < 5.0  # real time, not fake time


# -------------------------------------------------------- quarantine


def test_quarantine_lifecycle_and_clean_retry(all_policies, good_elf):
    clock = FakeClock()
    cache = InspectionCache()
    inspector = BatchInspector(
        all_policies, mode="serial", cache=cache,
        quarantine_threshold=2, clock=clock,
    )
    key = cache_key(good_elf, all_policies)
    plan = _worker_raise_plan(clock)

    for expected_failures in (1, 2):
        with injected(plan):
            report = inspector.inspect_batch([("a", good_elf)])
        assert report.results[0].source == "error"
        assert inspector.quarantine.failures(key) == expected_failures
        plan.reset()

    assert inspector.quarantine.is_quarantined(key)

    # Quarantined: refused without any inspection work, even with no plan.
    report = inspector.inspect_batch([("a", good_elf)])
    item = report.results[0]
    assert item.source == "quarantined"
    assert item.error.startswith("QuarantinedError:")
    assert report.summary.resilience["quarantined_items"] == 1
    assert report.summary.resilience["quarantined_keys"] == 1

    # The failures never polluted the cache...
    assert key not in cache
    # ...so a release + clean retry computes the correct verdict.
    inspector.quarantine.release(key)
    report = inspector.inspect_batch([("a", good_elf)])
    assert report.results[0].accepted
    assert report.results[0].source == "inspected"
    assert key in cache
    assert inspector.quarantine.failures(key) == 0


def test_quarantine_validates_threshold():
    with pytest.raises(ValueError):
        Quarantine(0)
    q = Quarantine(1)
    q.record_failure(("x", "y"))
    assert q.is_quarantined(("x", "y"))
    assert len(q) == 1
    q.clear()
    assert len(q) == 0


def test_quarantine_len_is_safe_against_a_concurrent_writer():
    """STATUS/METRICS count the ledger while handler threads record
    failures; the count must never see the dict change mid-iteration."""
    import sys
    import threading

    q = Quarantine(1)
    for i in range(2000):
        q.record_failure(("seed", i))
    errors: list[Exception] = []

    def writer() -> None:
        for i in range(20000):
            q.record_failure(("new", i))

    def reader() -> None:
        # a fixed number of counts, so neither thread waits on the other
        try:
            for _ in range(300):
                len(q)
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads densely
    try:
        threads = [threading.Thread(target=f) for f in (reader, writer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert len(q) == 22000


def test_configured_but_empty_quarantine_reports_its_threshold(all_policies):
    """A quarantine with no quarantined key yet is still configured:
    METRICS must report its threshold, not ``null``."""
    from tests.conftest import small_daemon

    daemon = small_daemon(all_policies, quarantine_threshold=3)
    try:
        snap = daemon.metrics_snapshot()
        assert snap["quarantine"] == {"keys": 0, "threshold": 3}
        assert daemon.status()["quarantined_keys"] == 0
    finally:
        daemon.stop()
        daemon.inspector.close()
    plain = small_daemon(all_policies)
    try:
        assert plain.metrics_snapshot()["quarantine"]["threshold"] is None
    finally:
        plain.stop()


# --------------------------------------------- error-path cache bug


def test_errors_and_timeouts_are_never_cached(all_policies, good_elf):
    """The regression: an item whose inspection raises or times out must
    leave no trace in the InspectionCache."""
    cache = InspectionCache()
    key = cache_key(good_elf, all_policies)

    clock = FakeClock()
    inspector = BatchInspector(
        all_policies, mode="serial", cache=cache, clock=clock,
    )
    with injected(_worker_raise_plan(clock)):
        report = inspector.inspect_batch([("a", good_elf)])
    assert report.results[0].error is not None
    assert key not in cache
    assert len(cache) == 0

    plan = FaultPlan(
        [FaultSpec(hook="service.batch.worker", kind="hang",
                   max_triggers=None)],
        clock=clock, hang_seconds=10.0,
    )
    deadline_inspector = BatchInspector(
        all_policies, mode="serial", cache=cache, deadline=5.0, clock=clock,
    )
    with injected(plan):
        report = deadline_inspector.inspect_batch([("a", good_elf)])
    assert report.results[0].error.startswith("DeadlineExceededError:")
    assert key not in cache

    # clean run: the verdict is computed fresh and correct
    report = inspector.inspect_batch([("a", good_elf)])
    assert report.results[0].accepted
    assert key in cache
    # and now served from cache
    report = inspector.inspect_batch([("a", good_elf)])
    assert report.results[0].source == "cache"
    assert report.results[0].accepted


def test_corrupt_verdict_wire_is_errored_not_cached(all_policies, good_elf):
    cache = InspectionCache()
    key = cache_key(good_elf, all_policies)
    plan = FaultPlan(
        [FaultSpec(hook="service.batch.verdict", kind="truncate",
                   max_triggers=None, truncate_divisor=8)],
    )
    inspector = BatchInspector(all_policies, mode="serial", cache=cache)
    with injected(plan):
        report = inspector.inspect_batch([("a", good_elf)])
    item = report.results[0]
    assert item.error is not None
    assert item.error.startswith("ServiceError:")
    assert "service.batch.verdict" in item.error
    assert key not in cache


# ------------------------------------------------------- degradation


def test_broken_pool_degrades_to_serial(all_policies, good_elf, demo_plain):
    """Kill a pool worker out from under the inspector: the batch still
    completes (serially) with correct verdicts, and the inspector stays
    degraded for subsequent batches."""
    inspector = BatchInspector(
        all_policies, mode="process", workers=2, cache=False,
    )
    executor = inspector._ensure_executor()
    victim = executor.submit(os._exit, 1)
    with pytest.raises(Exception):
        victim.result(timeout=30)

    corpus = [("good", good_elf), ("plain", demo_plain.elf)]
    report = inspector.inspect_batch(corpus)

    assert inspector.degraded
    assert report.summary.resilience["degraded_to_serial"] is True
    by_label = {r.label: r for r in report.results}
    assert by_label["good"].error is None and by_label["good"].accepted
    assert by_label["plain"].error is None and not by_label["plain"].accepted

    # next batch goes straight to serial — no pool resurrection
    report = inspector.inspect_batch(corpus)
    assert report.summary.errors == 0
    assert inspector._executor is None
    inspector.close()


# ------------------------------------------------------ determinism


def test_identical_seeds_identical_outcomes(all_policies, good_elf, demo_plain):
    corpus = [
        ("good", good_elf),
        ("plain", demo_plain.elf),
        ("garbage", b"\x7fNOT-AN-ELF" + bytes(64)),
    ]

    def run():
        clock = FakeClock()
        plan = FaultPlan.randomized(
            1234,
            hooks=("elf.reader", "x86.decoder", "service.batch.worker"),
            n_specs=6, probability=0.5, clock=clock,
        )
        inspector = BatchInspector(
            all_policies, mode="serial", cache=False,
            retries=1, deadline=5.0, clock=clock,
        )
        with injected(plan):
            report = inspector.inspect_batch(corpus)
        outcomes = [
            (r.label, r.accepted, r.source, r.error) for r in report.results
        ]
        events = [(e.hook, e.kind, e.call, e.spec_index) for e in plan.events]
        return outcomes, events, clock.sleeps

    first, second = run(), run()
    assert first == second
    assert first[1], "the seeded plan must actually have fired"


def test_batch_summary_resilience_schema_is_stable(all_policies, good_elf):
    """``summary.resilience`` is always present with the full key set.

    A plain batch reports the zeroed schema (monitoring consumers never
    see the key appear and disappear); a configured batch reports the
    same keys with live values.  This pins the JSON schema.
    """
    from repro.service.batch import ZERO_RESILIENCE

    inspector = BatchInspector(all_policies, mode="serial")
    report = inspector.inspect_batch([("a", good_elf)])
    payload = json.loads(report.to_json())
    assert payload["summary"]["resilience"] == ZERO_RESILIENCE
    assert report.summary.resilience == ZERO_RESILIENCE
    # with the layer on: same key set, live values
    resilient = BatchInspector(
        all_policies, mode="serial", retries=1, deadline=5.0,
        quarantine_threshold=2,
    )
    payload = json.loads(resilient.inspect_batch([("a", good_elf)]).to_json())
    block = payload["summary"]["resilience"]
    assert set(block) == set(ZERO_RESILIENCE)
    assert block["retries"] == 1
    assert block["deadline"] == 5.0
    assert block["retry_attempts"] == 0
    assert block["quarantined_keys"] == 0
    assert block["degraded_to_serial"] is False

    # the schema contract itself: key -> JSON type, pinned
    schema = {
        "retries": int, "retry_attempts": int,
        "deadline": (int, float, type(None)),
        "quarantined_items": int, "quarantined_keys": int,
        "degraded_to_serial": bool,
    }
    for block in (payload["summary"]["resilience"], ZERO_RESILIENCE):
        assert set(block) == set(schema)
        for key, types in schema.items():
            assert isinstance(block[key], types), key
