"""Batched, parallel front-end over the sequential :class:`EnGarde` core.

The paper inspects one client binary per provisioning run; a provider
inspecting a fleet wants to amortize.  :class:`BatchInspector` keeps the
inspection pipeline untouched and adds the service layer around it:

* fan-out over a **process** pool by default, because disassembly and
  policy checking are CPU-bound pure Python, or ``serial`` inline
  execution with no pool at all,
* a content-addressed :class:`InspectionCache` consulted before any work
  is dispatched, plus in-flight deduplication so a batch containing the
  same bytes twice inspects them once,
* per-binary error isolation: a malformed ELF produces a *rejected
  report* (exactly as ``EnGarde.inspect`` does), an unexpected crash or
  timeout produces an *errored item* — neither kills the batch,
* deterministic output: results come back in submission order no matter
  which worker finished first.

On top of that sits the fail-closed resilience layer (all opt-in, all
timed on an injectable clock so tests and the chaos soak are exactly
reproducible):

* **retry with exponential backoff** (``retries`` / ``backoff_base``)
  around each unique inspection,
* a **per-item deadline** (``deadline``) across all of an item's
  attempts — an injected hang burns the budget on the shared clock and
  surfaces as a typed deadline error, never a stuck batch,
* a **quarantine** (``quarantine_threshold``): a binary that keeps
  failing is refused without work until released — and because errors
  are never written to the :class:`InspectionCache`, a later clean retry
  still computes a correct verdict,
* **graceful degradation**: if the process pool dies
  (``BrokenExecutor``), the remaining misses re-run serially in-process
  and the batch still completes,
* a **verdict integrity guard**: worker wire bytes that fail to parse,
  or that do not round-trip byte-identically, become errored items and
  are never cached (the ``service.batch.verdict`` fault hook exercises
  exactly this poisoning attempt).

Workers return ``ComplianceReport.serialize()`` bytes, not rich outcome
objects: the wire form is cheap to pickle and guarantees the batch path
can be compared byte-for-byte against the sequential baseline (the
differential tests do exactly that).

Each unique miss is one pool task whose argument is the binary's bytes,
pickled through the pool's feeder pipe once per attempt.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
)
from dataclasses import dataclass, field, replace

from ..core.engarde import EnGarde
from ..core.policy import PolicyRegistry
from ..core.report import ComplianceReport
from ..errors import WorkerCrashError
from ..faults.clock import Clock, SystemClock
from ..faults.hooks import DROP, fault_hook
from .cache import CacheKey, InspectionCache, cache_key, policy_digest

__all__ = [
    "BatchInspector", "BatchItemResult", "BatchReport", "BatchSummary",
    "Quarantine", "default_workers",
]

MODES = ("process", "serial")


def default_workers() -> int:
    """Pool size when the caller does not pin one: the machine's CPU
    count capped at 8."""
    return min(os.cpu_count() or 1, 8)


# ----------------------------------------------------------------- workers

_WORKER_ENGARDE: EnGarde | None = None


def _init_worker(policies: PolicyRegistry) -> None:
    """Build one EnGarde per worker process (policies travel once)."""
    global _WORKER_ENGARDE
    _WORKER_ENGARDE = EnGarde(policies)


def _pool_inspect(raw: bytes) -> bytes:
    """Worker task: inspect one binary and return the compact frozen
    report wire."""
    fault_hook("service.batch.worker", error=WorkerCrashError)
    return _WORKER_ENGARDE.inspect(raw, benchmark="").report.serialize()


# -------------------------------------------------------------- quarantine


class Quarantine:
    """Failure ledger: binaries that keep failing get refused, not retried.

    Counts *consecutive* failures per content key; once a key reaches
    *threshold* it is quarantined and subsequent submissions short-circuit
    to an errored result.  A success (after :meth:`release`) resets the
    count — quarantine never contaminates verdicts, it only refuses work.

    Thread-safe: daemon handler threads record failures while STATUS and
    METRICS count the ledger, so every method holds the lock.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("quarantine threshold must be >= 1")
        self.threshold = threshold
        self._failures: dict[CacheKey, int] = {}
        self._lock = threading.Lock()

    def record_failure(self, key: CacheKey) -> bool:
        """Count one failure; returns True when the key is now quarantined."""
        with self._lock:
            count = self._failures.get(key, 0) + 1
            self._failures[key] = count
        return count >= self.threshold

    def record_success(self, key: CacheKey) -> None:
        with self._lock:
            self._failures.pop(key, None)

    def is_quarantined(self, key: CacheKey) -> bool:
        with self._lock:
            return self._failures.get(key, 0) >= self.threshold

    def failures(self, key: CacheKey) -> int:
        with self._lock:
            return self._failures.get(key, 0)

    def release(self, key: CacheKey) -> None:
        """Forget a key's failures so the next submission runs again."""
        with self._lock:
            self._failures.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._failures.clear()

    def __len__(self) -> int:
        """Number of currently quarantined keys."""
        with self._lock:
            return sum(
                1 for c in self._failures.values() if c >= self.threshold
            )


# ----------------------------------------------------------------- results


@dataclass(frozen=True)
class BatchItemResult:
    """Verdict (or failure) for one submitted binary."""

    index: int
    label: str
    report: ComplianceReport | None
    error: str | None = None
    #: how the verdict was obtained
    source: str = "inspected"   # inspected | cache | dedup | error | quarantined

    @property
    def accepted(self) -> bool:
        return self.report is not None and self.report.compliant

    @property
    def cache_hit(self) -> bool:
        return self.source == "cache"


#: the stable, always-present shape of ``BatchSummary.resilience`` — a
#: plain batch reports exactly these keys with these idle values
ZERO_RESILIENCE = {
    "retries": 0,
    "retry_attempts": 0,
    "deadline": None,
    "quarantined_items": 0,
    "quarantined_keys": 0,
    "degraded_to_serial": False,
}


@dataclass
class BatchSummary:
    """Throughput and cache accounting for one batch."""

    total: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    inspected: int = 0
    wall_seconds: float = 0.0
    workers: int = 1
    mode: str = "process"
    cache: dict = field(default_factory=dict)
    #: retry/quarantine/degradation accounting — ALWAYS present with the
    #: full key set (zeroed when the resilience layer is idle), so the
    #: summary's JSON schema is stable for monitoring consumers
    resilience: dict = field(default_factory=lambda: dict(ZERO_RESILIENCE))
    #: pool dispatch accounting: one future per unique miss in process
    #: mode, 0 when the batch ran serially
    dispatch: dict = field(default_factory=lambda: {"futures_submitted": 0})

    @property
    def binaries_per_second(self) -> float:
        return self.total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_dict(self) -> dict:
        payload = {
            "total": self.total,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "inspected": self.inspected,
            "wall_seconds": round(self.wall_seconds, 4),
            "binaries_per_second": round(self.binaries_per_second, 2),
            "workers": self.workers,
            "mode": self.mode,
            "cache": dict(self.cache),
            "resilience": dict(self.resilience),
            "dispatch": dict(self.dispatch),
        }
        return payload


@dataclass
class BatchReport:
    """Everything one :meth:`BatchInspector.inspect_batch` call produced."""

    results: list[BatchItemResult]
    summary: BatchSummary

    def to_json(self, *, indent: int | None = 2) -> str:
        payload = {
            "summary": self.summary.as_dict(),
            "results": [
                {
                    "index": r.index,
                    "label": r.label,
                    "accepted": r.accepted,
                    "source": r.source,
                    "error": r.error,
                    "report": r.report.serialize().decode() if r.report else None,
                }
                for r in self.results
            ],
        }
        return json.dumps(payload, indent=indent)


# --------------------------------------------------------------- inspector


class BatchInspector:
    """Inspect fleets of binaries in parallel, with verdict memoization.

    Parameters
    ----------
    policies:
        The agreed policy set; folded into every cache key.
    workers:
        Pool size for ``process`` mode (default: ``os.cpu_count()``
        capped at 8).
    mode:
        ``"process"`` (default, real parallelism for the CPU-bound
        pipeline) or ``"serial"`` (no pool — the differential
        baseline).
    cache:
        An :class:`InspectionCache` to share across inspectors, ``None``
        to create a private one, or ``False`` to disable caching.
    timeout:
        Per-binary seconds to wait for a pooled verdict, measured from
        when the batch starts collecting that binary's result; ``None``
        waits forever.  Ignored in ``serial`` mode.  Pool timeouts are
        final (the worker slot is gone) — they are not retried.
    retries:
        Extra attempts per unique miss after a failed inspection
        (default 0 — identical behaviour to the pre-resilience service).
    backoff_base:
        First retry sleeps ``backoff_base`` seconds on *clock*, doubling
        per subsequent attempt.
    deadline:
        Total per-item seconds across all attempts, measured on *clock*;
        exceeded deadlines surface as typed ``DeadlineExceededError``
        text, and stop further retries.
    quarantine_threshold:
        Consecutive failures before a binary is quarantined; ``None``
        disables the quarantine.
    clock:
        Time source for backoff/deadline/quarantine decisions — pass a
        :class:`~repro.faults.clock.FakeClock` (shared with the active
        :class:`~repro.faults.plan.FaultPlan`) for deterministic tests.
    """

    def __init__(
        self,
        policies: PolicyRegistry,
        *,
        workers: int | None = None,
        mode: str = "process",
        cache: InspectionCache | None | bool = None,
        cache_capacity: int = 1024,
        timeout: float | None = None,
        retries: int = 0,
        backoff_base: float = 0.05,
        deadline: float | None = None,
        quarantine_threshold: int | None = None,
        clock: Clock | None = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive")
        self.policies = policies
        #: the policy-set half of every cache key, computed once
        self.policy_digest = policy_digest(policies)
        self.mode = mode
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.deadline = deadline
        self.clock = clock or SystemClock()
        self.quarantine = (
            Quarantine(quarantine_threshold)
            if quarantine_threshold is not None
            else None
        )
        if workers is None:
            workers = default_workers()
        self.workers = 1 if mode == "serial" else workers
        if cache is False:
            self.cache: InspectionCache | None = None
        elif cache is None or cache is True:
            self.cache = InspectionCache(cache_capacity)
        else:
            self.cache = cache
        self._executor: ProcessPoolExecutor | None = None
        self._serial_engarde: EnGarde | None = None
        #: guards the executor's lifecycle — inspect_batch may be called
        #: from many daemon threads at once in process mode
        self._lifecycle = threading.Lock()
        #: set when a broken pool forced a fallback to serial execution
        self._degraded = False
        self._retry_attempts = 0
        self._stats_lock = threading.Lock()

    @property
    def degraded(self) -> bool:
        return self._degraded

    # -------------------------------------------------------------- pool

    def _ensure_executor(self):
        with self._lifecycle:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_init_worker,
                    initargs=(self.policies,),
                )
            return self._executor

    def close(self) -> None:
        """Shut the pool down (idempotent; the cache survives).  Safe
        with futures still in flight: ``cancel_futures`` drops queued
        work and running work finishes before this returns."""
        with self._lifecycle:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "BatchInspector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- batch

    def inspect_batch(self, binaries) -> BatchReport:
        """Inspect ``[(label, raw_elf), ...]`` and return ordered results.

        *binaries* may be any iterable of ``(label, bytes)`` pairs; bare
        ``bytes`` items are accepted and labelled by position.
        """
        t0 = time.perf_counter()
        items: list[tuple[str, bytes]] = []
        for i, entry in enumerate(binaries):
            if isinstance(entry, (bytes, bytearray)):
                items.append((f"binary-{i}", bytes(entry)))
            else:
                label, raw = entry
                # Snapshot mutable buffers once, up front: cache keys,
                # dedup grouping, and task arguments must never alias
                # a buffer the caller mutates mid-batch.  (bytes(raw) on
                # an immutable bytes object is a no-copy identity.)
                if isinstance(raw, (bytearray, memoryview)):
                    raw = bytes(raw)
                items.append((str(label), raw))

        summary = BatchSummary(
            total=len(items), workers=self.workers, mode=self.mode
        )
        results: list[BatchItemResult | None] = [None] * len(items)
        quarantined_items = 0

        # Pass 1: answer from the cache; refuse quarantined content; group
        # the rest by content key so duplicate bytes inside one batch are
        # inspected exactly once.
        misses: dict[CacheKey, list[int]] = {}
        keys: list[CacheKey | None] = [None] * len(items)
        for i, (label, raw) in enumerate(items):
            if not isinstance(raw, (bytes, bytearray)):
                results[i] = BatchItemResult(
                    index=i, label=label, report=None, source="error",
                    error=f"expected bytes, got {type(raw).__name__}",
                )
                continue
            key = cache_key(raw, self.policy_digest)
            keys[i] = key
            if self.cache is not None:
                cached = self.cache.get(key, benchmark=label)
                if cached is not None:
                    results[i] = BatchItemResult(
                        index=i, label=label, report=cached, source="cache",
                    )
                    continue
            if self.quarantine is not None and self.quarantine.is_quarantined(key):
                quarantined_items += 1
                results[i] = BatchItemResult(
                    index=i, label=label, report=None, source="quarantined",
                    error=(
                        "QuarantinedError: refused after "
                        f"{self.quarantine.failures(key)} consecutive "
                        "failures (stage=quarantine)"
                    ),
                )
                continue
            misses.setdefault(key, []).append(i)

        # Pass 2: run the unique misses (pooled or inline).
        if self.mode == "serial" or self._degraded:
            verdicts = self._run_serial(items, misses)
        else:
            verdicts = self._run_pooled(items, misses)
            summary.dispatch["futures_submitted"] = len(misses)

        # Pass 3: verify verdict integrity, fan verdicts back out to every
        # index that wanted them (in submission order), and memoize —
        # *only* parsed, round-trip-clean verdicts ever reach the cache.
        for key, indices in misses.items():
            wire, error = verdicts[key]
            report = None
            if wire is not None:
                try:
                    wire = fault_hook("service.batch.verdict", wire)
                except Exception as exc:  # noqa: BLE001 — integrity boundary
                    error = (
                        "ServiceError: verdict handling failed "
                        f"(stage=service.batch.verdict): {type(exc).__name__}: {exc}"
                    )
                    wire = None
                if wire is DROP:
                    error = (
                        "ServiceError: [fault:service.batch.verdict:drop] "
                        "verdict lost in the service layer"
                    )
                    wire = None
                else:
                    try:
                        report = ComplianceReport.deserialize(wire)
                    except Exception as exc:  # noqa: BLE001 — integrity boundary
                        error = (
                            "ServiceError: verdict wire corrupted "
                            f"(stage=service.batch.verdict): {type(exc).__name__}: {exc}"
                        )
                    else:
                        if report.serialize() != wire:
                            report = None
                            error = (
                                "ServiceError: verdict failed round-trip "
                                "integrity check (stage=service.batch.verdict)"
                            )
            if self.quarantine is not None:
                if report is None:
                    self.quarantine.record_failure(key)
                else:
                    self.quarantine.record_success(key)
            if report is not None and self.cache is not None:
                self.cache.put(key, report)
            for rank, i in enumerate(indices):
                label = items[i][0]
                if report is None:
                    results[i] = BatchItemResult(
                        index=i, label=label, report=None,
                        source="error", error=error,
                    )
                else:
                    results[i] = BatchItemResult(
                        index=i, label=label,
                        report=replace(report, benchmark=label),
                        source="inspected" if rank == 0 else "dedup",
                    )

        final = [r for r in results if r is not None]
        for r in final:
            if r.error is not None:
                summary.errors += 1
            elif r.accepted:
                summary.accepted += 1
            else:
                summary.rejected += 1
            if r.source == "cache":
                summary.cache_hits += 1
            elif r.source == "dedup":
                summary.deduplicated += 1
            elif r.source == "inspected":
                summary.inspected += 1
        summary.wall_seconds = time.perf_counter() - t0
        if self.cache is not None:
            summary.cache = self.cache.stats().as_dict()
        summary.resilience = self.resilience_stats(
            quarantined_items=quarantined_items
        )
        return BatchReport(results=final, summary=summary)

    def resilience_stats(self, *, quarantined_items: int = 0) -> dict:
        """The retry/quarantine/degradation accounting dict.

        Same key set as :data:`ZERO_RESILIENCE` always — configured-but-
        idle layers report their settings with zeroed activity, so both
        the batch summary and the daemon's METRICS keep a fixed schema.
        """
        return {
            "retries": self.retries,
            "retry_attempts": self._retry_attempts,
            "deadline": self.deadline,
            "quarantined_items": quarantined_items,
            "quarantined_keys": (
                len(self.quarantine) if self.quarantine is not None else 0
            ),
            "degraded_to_serial": self._degraded,
        }

    # ------------------------------------------------------------ drivers

    def _run_serial(self, items, misses):
        """Inline execution — the differential baseline, no pool at all."""
        if self._serial_engarde is None:
            self._serial_engarde = EnGarde(self.policies)
        engarde = self._serial_engarde
        verdicts: dict[CacheKey, tuple[bytes | None, str | None]] = {}
        for key, indices in misses.items():
            raw = items[indices[0]][1]

            def attempt(raw=raw):
                fault_hook("service.batch.worker", error=WorkerCrashError)
                return engarde.inspect(raw, benchmark="").report.serialize()

            verdicts[key] = self._attempt_with_retries(attempt)
        return verdicts

    def _attempt_with_retries(self, attempt):
        """Run one inspection attempt with backoff/deadline bookkeeping."""
        clock = self.clock
        start = clock.time()
        tries = 0
        while True:
            try:
                return (attempt(), None)
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                tries += 1
                error = f"{type(exc).__name__}: {exc}"
                if (
                    self.deadline is not None
                    and clock.time() - start >= self.deadline
                ):
                    return (None, (
                        "DeadlineExceededError: per-item deadline of "
                        f"{self.deadline}s exceeded after {tries} attempt(s); "
                        f"last failure: {error}"
                    ))
                if tries > self.retries:
                    return (None, error)
                with self._stats_lock:
                    self._retry_attempts += 1
                clock.sleep(self.backoff_base * (2 ** (tries - 1)))

    def _run_pooled(self, items, misses):
        """Fan unique misses out over the pool; collect with per-binary
        timeout, retry-with-backoff, and exception isolation.  A broken
        pool degrades the remaining misses — and all future batches — to
        serial execution instead of failing the batch.
        """
        verdicts: dict[CacheKey, tuple[bytes | None, str | None]] = {}
        pending = dict(misses)
        starts: dict[CacheKey, float] = {}
        tries = {key: 0 for key in misses}
        while pending:
            futures: dict[CacheKey, Future] = {}
            for key, indices in pending.items():
                starts.setdefault(key, self.clock.time())
                try:
                    futures[key] = self._ensure_executor().submit(
                        _pool_inspect, items[indices[0]][1]
                    )
                except BrokenExecutor:
                    return self._degrade(items, pending, verdicts)
            retry_next: dict[CacheKey, list[int]] = {}
            for key, future in futures.items():
                try:
                    verdicts[key] = (future.result(timeout=self.timeout), None)
                    continue
                except FutureTimeoutError:
                    future.cancel()
                    # Final: the worker slot is still occupied; retrying
                    # would stack hung work behind a hung worker.
                    verdicts[key] = (
                        None, f"inspection exceeded {self.timeout}s timeout",
                    )
                    continue
                except BrokenExecutor:
                    return self._degrade(items, pending, verdicts)
                except Exception as exc:  # noqa: BLE001 — isolation boundary
                    error = f"{type(exc).__name__}: {exc}"
                tries[key] += 1
                deadline_hit = (
                    self.deadline is not None
                    and self.clock.time() - starts[key] >= self.deadline
                )
                if deadline_hit:
                    verdicts[key] = (None, (
                        "DeadlineExceededError: per-item deadline of "
                        f"{self.deadline}s exceeded after {tries[key]} "
                        f"attempt(s); last failure: {error}"
                    ))
                elif tries[key] > self.retries:
                    verdicts[key] = (None, error)
                else:
                    with self._stats_lock:
                        self._retry_attempts += 1
                    retry_next[key] = pending[key]
            if retry_next:
                attempt = min(tries[k] for k in retry_next)
                self.clock.sleep(self.backoff_base * (2 ** (attempt - 1)))
            pending = retry_next
        return verdicts

    def _degrade(self, items, pending, verdicts):
        """Broken pool: finish the batch serially, stay serial afterwards.

        Fail closed: the pool is shut down without waiting, no pooled
        result is consumed past this point, and every pending miss
        without a verdict is re-run serially right here."""
        with self._lifecycle:
            self._degraded = True
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
        remaining = {k: v for k, v in pending.items() if k not in verdicts}
        verdicts.update(self._run_serial(items, remaining))
        return verdicts
