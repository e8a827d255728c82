"""Sharded multi-provider fleet behind one consistent-hash coordinator.

One provider process cannot serve a fleet of tenants; EnGarde's trust
anchor has to scale out without weakening the fail-closed guarantees
the chaos and daemon batteries pin.  This module adds the scale-out
layer:

* :class:`ConsistentHashRing` — a deterministic ring of virtual points
  per shard.  Placement is a pure function of the submission's
  **content digest**, so any coordinator (or any client, offline)
  computes the same owner; removing a shard moves only the keys it
  owned, adding it back restores the original placement exactly,
* :class:`FleetCoordinator` — owns N provider *shards*, each a full
  :class:`~repro.service.daemon.InspectionDaemon` with its own enclave
  pool, :class:`~repro.service.cache.InspectionCache`, and
  :class:`~repro.service.cache.ProvisioningVerdictCache`.  With a
  :class:`~repro.service.store.VerdictStore` attached, every shard's
  caches are tiered over the one shared content-addressed directory —
  a restarted fleet (or a shard inheriting keys after a rebalance) is
  warm from its first request,
* **shard-loss detection and deterministic rebalancing** — a
  submission whose owner shard fails is retried through the
  coordinator: if the shard's daemon is genuinely gone (no longer
  accepting), the shard is marked lost, its ring points are removed,
  and the submission re-routes to the deterministic successor.
  Transient faults (the PR 4 hook vocabulary: socket drops, channel
  bitflips, worker crashes) stay typed errors on a *live* shard — the
  coordinator never invents a verdict and never hangs,
* every delivered verdict is still produced by one warm EnGarde inside
  one shard, so the fleet path stays byte-identical to the serial
  oracle (the differential battery routes the full variant corpus
  through 1- and 4-shard fleets and pins exactly that).

The coordinator speaks to its shards through the real attested client
SDK over the in-process transport — the same HELLO/ATTEST/channel/
SUBMIT path, the same ``net.sock.*`` / ``crypto.channel.*`` /
``service.batch.*`` fault hooks, the same typed-error vocabulary.  No
new hook points.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time

from ..core.policy import PolicyRegistry
from ..core.provisioning import ResilienceConfig
from ..errors import FleetError, ReproError
from ..faults.clock import Clock, SystemClock
from .cache import InspectionCache, ProvisioningVerdictCache
from .client import ClientVerdict, InspectionClient
from .daemon import InspectionDaemon
from .store import (
    ZERO_STORE,
    TieredCache,
    TieredProvisioningVerdictCache,
    VerdictStore,
)

__all__ = ["ConsistentHashRing", "FleetCoordinator", "FleetShard"]

#: virtual points per shard — enough for a few-shard fleet to balance
#: within a small factor while keeping ring edits cheap
DEFAULT_REPLICAS = 64


class ConsistentHashRing:
    """Deterministic consistent hashing of content digests to shard ids.

    Each shard contributes ``replicas`` virtual points, each the first
    8 bytes of ``sha256(b"<shard id>#<replica>")``.  A key's point is
    the first 8 bytes of ``sha256(<content digest>)``; the owner is the
    first shard point at or clockwise after it.  All of it is a pure
    function of the shard ids and the digest — no RNG, no insertion
    order, no wall clock — so placement, loss handling, and recovery
    are exactly reproducible.
    """

    def __init__(self, shard_ids=(), *, replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise FleetError("ring replicas must be >= 1")
        self.replicas = replicas
        self._lock = threading.Lock()
        self._ids: set[str] = set()
        #: sorted (point, shard id) pairs — the ring itself
        self._points: list[tuple[int, str]] = []
        for sid in shard_ids:
            self.add(sid)

    @staticmethod
    def _hash(material: bytes) -> int:
        return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")

    def points_for(self, shard_id: str) -> list[int]:
        """The virtual points *shard_id* contributes (deterministic)."""
        return sorted(
            self._hash(f"{shard_id}#{replica}".encode())
            for replica in range(self.replicas)
        )

    def add(self, shard_id: str) -> None:
        with self._lock:
            if shard_id in self._ids:
                return
            self._ids.add(shard_id)
            for point in self.points_for(shard_id):
                bisect.insort(self._points, (point, shard_id))

    def remove(self, shard_id: str) -> None:
        with self._lock:
            if shard_id not in self._ids:
                return
            self._ids.discard(shard_id)
            self._points = [
                (p, sid) for p, sid in self._points if sid != shard_id
            ]

    def locate(self, content_digest: str) -> str:
        """The owning shard id for a content digest (hex string).

        Raises typed :class:`FleetError` when the ring is empty — an
        unplaceable submission is an error, never a silent drop.
        """
        with self._lock:
            if not self._points:
                raise FleetError(
                    "consistent-hash ring is empty: no live shards remain"
                )
            point = self._hash(content_digest.encode())
            idx = bisect.bisect_right(self._points, (point, "￿"))
            if idx == len(self._points):
                idx = 0  # wrap: clockwise past the top of the ring
            return self._points[idx][1]

    def ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._ids))

    def __contains__(self, shard_id: str) -> bool:
        with self._lock:
            return shard_id in self._ids

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "shards": sorted(self._ids),
                "replicas": self.replicas,
                "points": len(self._points),
            }


class FleetShard:
    """One provider shard: an id, a ring position, and a full daemon."""

    def __init__(self, shard_id: str, index: int, daemon: InspectionDaemon) -> None:
        self.id = shard_id
        self.index = index
        self.daemon = daemon
        self.lost = False
        #: TCP endpoint once :meth:`FleetCoordinator.start_tcp` ran
        self.endpoint: tuple[str, int] | None = None

    def status(self) -> dict:
        doc = self.daemon.status()
        doc["lost"] = self.lost
        return doc


class FleetCoordinator:
    """Consistent-hash front-end over N full provider shards.

    Parameters mirror :class:`InspectionDaemon` where they are passed
    through per shard.  ``store`` may be a :class:`VerdictStore`, a
    directory path (a store is built there), or ``None`` for a purely
    in-memory fleet.

    Thread-safety: :meth:`submit` may be called from any number of
    client threads at once.  Each thread holds its own attested
    :class:`InspectionClient` per shard (the SDK is deliberately not
    thread-safe — one tenant machine per channel), created lazily and
    registered for cleanup at :meth:`stop`.
    """

    def __init__(
        self,
        policies: PolicyRegistry,
        *,
        shards: int = 2,
        store: VerdictStore | str | None = None,
        replicas: int = DEFAULT_REPLICAS,
        cache_capacity: int = 4096,
        pool_size: int = 1,
        rsa_bits: int = 768,
        heap_pages: int = 64,
        client_pages: int = 64,
        enclave_pages: int = 0x2000,
        read_timeout: float = 10.0,
        max_connections: int = 64,
        client_timeout: float = 10.0,
        resilience: ResilienceConfig | None = None,
        clock: Clock | None = None,
        inspector_mode: str = "serial",
        workers: int | None = None,
    ) -> None:
        if shards < 1:
            raise FleetError(f"fleet needs at least one shard, got {shards}")
        self.policies = policies
        self.clock = clock or SystemClock()
        self.client_timeout = client_timeout
        self.resilience = resilience
        if isinstance(store, (str,)) or hasattr(store, "__fspath__"):
            store = VerdictStore(store)
        self.store: VerdictStore | None = store
        self.ring = ConsistentHashRing(replicas=replicas)
        self.shards: dict[str, FleetShard] = {}
        for index in range(shards):
            shard_id = f"shard-{index}"
            if store is not None:
                cache = TieredCache(store, cache_capacity)
                verdict_cache = TieredProvisioningVerdictCache(
                    store, cache_capacity
                )
            else:
                cache = InspectionCache(cache_capacity)
                verdict_cache = ProvisioningVerdictCache(cache_capacity)
            daemon = InspectionDaemon(
                policies,
                cache=cache,
                verdict_cache=verdict_cache,
                pool_size=pool_size,
                rsa_bits=rsa_bits,
                heap_pages=heap_pages,
                client_pages=client_pages,
                enclave_pages=enclave_pages,
                read_timeout=read_timeout,
                max_connections=max_connections,
                inspector_mode=inspector_mode,
                workers=workers,
                shard_id=shard_id,
                shard_index=index,
                fleet_size=shards,
                store=store,
            )
            self.shards[shard_id] = FleetShard(shard_id, index, daemon)
            self.ring.add(shard_id)
        self._local = threading.local()
        self._clients_lock = threading.Lock()
        self._clients: list[InspectionClient] = []
        self._fleet_lock = threading.Lock()
        self._counters = {
            "submissions": 0,
            "reroutes": 0,
            "shards_lost": 0,
            "losses": [],  # shard ids in loss order
        }

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start every shard daemon (idempotent, like the daemons)."""
        for shard in self.shards.values():
            if not shard.lost:
                shard.daemon.start()

    def start_tcp(self, host: str = "127.0.0.1") -> list[tuple[str, str, int]]:
        """Also listen on TCP, one port per shard; returns
        ``[(shard id, host, port), ...]`` for the announce record."""
        endpoints = []
        for sid in sorted(self.shards):
            shard = self.shards[sid]
            bound_host, port = shard.daemon.start_tcp(host, 0)
            shard.endpoint = (bound_host, port)
            endpoints.append((sid, bound_host, port))
        return endpoints

    def stop(self, *, drain: bool = True) -> None:
        """Drain and stop every shard; release per-thread clients."""
        with self._clients_lock:
            clients, self._clients = self._clients, []
        for client in clients:
            try:
                client.close()
            except (ReproError, OSError):  # pragma: no cover - best effort
                pass
        for shard in self.shards.values():
            shard.daemon.stop(drain=drain)
            shard.daemon.inspector.close()

    def __enter__(self) -> "FleetCoordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------ placement

    @staticmethod
    def content_digest(raw_elf: bytes) -> str:
        return hashlib.sha256(raw_elf).hexdigest()

    def shard_for(self, raw_elf: bytes) -> str:
        """The owning shard id for this content (deterministic)."""
        return self.ring.locate(self.content_digest(raw_elf))

    # ----------------------------------------------------------- fail-over

    def kill_shard(self, shard_id: str) -> None:
        """Hard-stop one shard's daemon (no drain) — the crash and
        rebalance batteries' trigger.  Detection and ring removal happen
        on the next submission that needs the shard (or explicitly via
        :meth:`detect_losses`)."""
        shard = self._shard(shard_id)
        shard.daemon.stop(drain=False)

    def revive_shard(self, shard_id: str) -> None:
        """Restart a lost shard and return its points to the ring —
        placement for its keys reverts to the original owner, which is
        warm through the shared store."""
        shard = self._shard(shard_id)
        shard.daemon.start()
        with self._fleet_lock:
            shard.lost = False
        self.ring.add(shard_id)

    def detect_losses(self) -> list[str]:
        """Mark every shard whose daemon stopped accepting as lost."""
        lost = []
        for sid in self.ring.ids():
            shard = self.shards[sid]
            if not shard.daemon.accepting:
                self._mark_lost(shard)
                lost.append(sid)
        return lost

    def _shard(self, shard_id: str) -> FleetShard:
        shard = self.shards.get(shard_id)
        if shard is None:
            raise FleetError(f"unknown shard id {shard_id!r}")
        return shard

    def _mark_lost(self, shard: FleetShard) -> None:
        with self._fleet_lock:
            if shard.lost:
                return
            shard.lost = True
            self._counters["shards_lost"] += 1
            self._counters["losses"].append(shard.id)
        self.ring.remove(shard.id)

    # ----------------------------------------------------------- submission

    def _client_for(self, shard: FleetShard) -> InspectionClient:
        """This thread's attested client for *shard* (built lazily)."""
        cache = getattr(self._local, "clients", None)
        if cache is None:
            cache = self._local.clients = {}
        client = cache.get(shard.id)
        if client is None:
            client = InspectionClient(
                self.policies,
                shard.daemon.pool.quoting_enclave.device_public_key,
                shard.daemon.connect_inproc,
                timeout=self.client_timeout,
                resilience=self.resilience,
            )
            cache[shard.id] = client
            with self._clients_lock:
                self._clients.append(client)
        return client

    def submit(self, raw_elf: bytes, label: str = "client") -> ClientVerdict:
        """Route one submission to its owner shard; fail over on loss.

        The returned :class:`ClientVerdict` is exactly what the shard's
        attested channel delivered — a report byte-identical to the
        serial oracle, or a typed fail-closed error.  A dead owner
        (daemon no longer accepting) is marked lost, its ring points
        removed, and the submission re-routes to the deterministic
        successor; a *live* shard's typed error gets exactly one
        same-shard retry over a fresh channel (covering the stale-
        connection window after a revival) and is then returned as-is —
        rerouting cannot make a refused verdict acceptable.
        """
        digest = self.content_digest(raw_elf)
        with self._fleet_lock:
            self._counters["submissions"] += 1
        verdict: ClientVerdict | None = None
        retried: set[str] = set()
        for _ in range(2 * len(self.shards) + 2):
            try:
                sid = self.ring.locate(digest)
            except FleetError as exc:
                return ClientVerdict(
                    label=label, error=f"FleetError: {exc}",
                )
            shard = self.shards[sid]
            verdict = self._client_for(shard).inspect(raw_elf, label)
            if verdict.report is not None:
                return verdict
            if shard.daemon.accepting:
                if sid not in retried:
                    # one same-shard retry: a failed attempt abandons its
                    # channel, so this reconnects fresh — it covers the
                    # stale-connection window after a shard was revived
                    retried.add(sid)
                    continue
                # the shard is alive and a fresh channel still refused:
                # a genuine typed error (fault, quarantine) — fail closed
                return verdict
            self._mark_lost(shard)
            with self._fleet_lock:
                self._counters["reroutes"] += 1
        return verdict if verdict is not None else ClientVerdict(
            label=label, error="FleetError: submission was never attempted",
        )

    # -------------------------------------------------------------- surface

    def live_shards(self) -> tuple[str, ...]:
        return self.ring.ids()

    def status(self) -> dict:
        """Fleet-level health: ring, per-shard STATUS, store, counters."""
        with self._fleet_lock:
            counters = {
                k: (list(v) if isinstance(v, list) else v)
                for k, v in self._counters.items()
            }
        return {
            "fleet_size": len(self.shards),
            "live_shards": list(self.live_shards()),
            "ring": self.ring.as_dict(),
            "counters": counters,
            "shards": {
                sid: shard.status() for sid, shard in sorted(self.shards.items())
            },
            "store": (
                self.store.stats() if self.store is not None
                else dict(ZERO_STORE)
            ),
        }

    def metrics_snapshot(self) -> dict:
        """Per-shard METRICS dumps keyed by shard id, plus fleet status."""
        return {
            "status": self.status(),
            "shards": {
                sid: shard.daemon.metrics_snapshot()
                for sid, shard in sorted(self.shards.items())
            },
        }

    def announce(self) -> dict:
        """The fleet bootstrap record: ring shape plus per-shard
        announces (endpoint, device key, policy digest, geometry)."""
        return {
            "fleet": {
                "size": len(self.shards),
                "replicas": self.ring.replicas,
                "shards": [
                    dict(
                        self.shards[sid].daemon.announce(
                            *(self.shards[sid].endpoint or (None, None))
                        ),
                        shard_id=sid,
                    )
                    for sid in sorted(self.shards)
                ],
            },
        }


# ------------------------------------------------------------------- storms


def run_fleet_storm(
    coordinator: FleetCoordinator,
    corpus,
    *,
    clients: int,
    per_client: int | None = None,
    oracle: dict | None = None,
    max_wall_seconds: float = 300.0,
) -> dict:
    """Drive *clients* concurrent tenants through the coordinator.

    Each client thread submits a rotation slice of *corpus* (all of it
    when ``per_client`` is ``None``) through :meth:`FleetCoordinator.
    submit`.  Returns JSON-ready accounting; when *oracle* maps labels
    to serial report wire bytes, every delivered verdict is checked
    byte-for-byte and divergences are counted (the fleet's differential
    gate).  Shared by ``repro fleet-bench`` and
    ``benchmarks/bench_fleet.py``.
    """
    per_client = len(corpus) if per_client is None else per_client
    results: dict[int, list] = {i: [] for i in range(clients)}
    errors: list[BaseException] = []

    def worker(tid: int) -> None:
        try:
            rotation = corpus[tid % len(corpus):] + corpus[: tid % len(corpus)]
            for label, raw in rotation[:per_client]:
                results[tid].append((label, coordinator.submit(raw, label)))
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"fleet-client-{i}")
        for i in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(max_wall_seconds)
    wall = time.perf_counter() - t0
    hung = [t.name for t in threads if t.is_alive()]

    delivered = typed_failures = divergences = 0
    failures: list[tuple[str, str]] = []
    sources: dict[str, int] = {}
    for verdicts in results.values():
        for label, verdict in verdicts:
            sources[verdict.source] = sources.get(verdict.source, 0) + 1
            if verdict.report is not None:
                delivered += 1
                if oracle is not None and verdict.wire != oracle[label]:
                    divergences += 1
                    failures.append((label, "verdict wire diverged"))
            else:
                typed_failures += 1
                failures.append((label, verdict.error or "?"))
    total = sum(len(v) for v in results.values())
    return {
        "clients": clients,
        "per_client": per_client,
        "submissions": total,
        "wall_seconds": round(wall, 4),
        "submissions_per_second": round(total / wall, 2) if wall > 0 else 0.0,
        "delivered": delivered,
        "typed_failures": typed_failures,
        "divergences": divergences,
        "sources": dict(sorted(sources.items())),
        "hung_clients": hung,
        "worker_errors": [f"{type(e).__name__}: {e}" for e in errors],
        "failures": failures[:8],
    }
