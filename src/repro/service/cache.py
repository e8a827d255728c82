"""Content-addressed verdict cache for the inspection service.

A cloud provider re-inspects the *same bytes* constantly: tenants redeploy
unchanged binaries, fleets share images, and every image links the same
musl functions.  Since EnGarde's verdict is a pure function of
``(binary bytes, agreed policy set)``, the service memoizes
:class:`~repro.core.report.ComplianceReport` objects under the key

    (sha256(raw_elf), sha256(policy_registry.digest_material()))

The second component matters: the *same* binary under a *different*
policy agreement (different hash database, different exemption list,
different module set) is a different inspection, and the property tests
assert a cache hit can never leak a verdict across policy digests.

The client-chosen job label (``ComplianceReport.benchmark``) is *not*
part of the verdict — two clients submitting identical bytes under
different labels share one entry; reports are stored label-stripped and
re-labelled on the way out.

Keys use :mod:`hashlib` rather than ``repro.crypto.sha256``: the cache is
provider-side service infrastructure, outside the enclave's from-scratch
TCB, and sits on the hot path.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from ..core.policy import PolicyRegistry
from ..core.report import ComplianceReport

__all__ = ["CacheStats", "InspectionCache", "cache_key", "policy_digest"]

#: (content digest, policy-set digest) — both hex strings
CacheKey = tuple[str, str]


def policy_digest(policies: PolicyRegistry) -> str:
    """The policy-set component of a cache key.  Hashing the registry's
    digest material costs a SHA-256 pass over the golden hash database,
    so a long-lived inspector computes it once."""
    return hashlib.sha256(policies.digest_material()).hexdigest()


def cache_key(raw_elf: bytes, policies: PolicyRegistry | str) -> CacheKey:
    """The content-addressed identity of one inspection request;
    *policies* is the registry or its :func:`policy_digest`."""
    if not isinstance(policies, str):
        policies = policy_digest(policies)
    return hashlib.sha256(raw_elf).hexdigest(), policies


@dataclass
class CacheStats:
    """Hit/miss/eviction counters (monotonic over the cache's lifetime)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio, 4),
        }


class InspectionCache:
    """Thread-safe LRU cache of compliance reports.

    *capacity* bounds the number of distinct ``(content, policy-set)``
    entries; the least-recently-*used* entry is evicted first (both
    :meth:`get` hits and :meth:`put` refresh recency).
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, ComplianceReport] = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    # ------------------------------------------------------------------

    def get(self, key: CacheKey, *, benchmark: str = "") -> ComplianceReport | None:
        """The cached report re-labelled for this request, or ``None``."""
        with self._lock:
            report = self._entries.get(key)
            if report is None:
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
        if report.benchmark != benchmark:
            report = replace(report, benchmark=benchmark)
        return report

    def put(self, key: CacheKey, report: ComplianceReport) -> None:
        """Memoize *report* (label-stripped) under *key*, evicting LRU."""
        if report.benchmark:
            report = replace(report, benchmark="")
        with self._lock:
            self._entries[key] = report
            self._entries.move_to_end(key)
            self._stats.puts += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        """A snapshot of the counters."""
        with self._lock:
            return replace(self._stats)

    def keys(self) -> list[CacheKey]:
        """Current keys, LRU first (for tests and introspection)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

