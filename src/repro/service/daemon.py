"""The long-lived inspection daemon: EnGarde as a serving front-end.

The paper frames EnGarde as a service the cloud provider runs
continuously for tenants; until now the repo only had one-shot CLI
batch.  :class:`InspectionDaemon` is the persistent front-end:

* it owns a **warm** :class:`~repro.service.batch.BatchInspector` (one
  long-lived EnGarde with its prescan/policy caches), a shared
  :class:`~repro.service.cache.InspectionCache`, and an
  :class:`~repro.service.pool.EnclavePool` of pre-built, attestable
  enclaves,
* handed a :class:`~repro.service.store.TieredCache` as its cache, it
  keeps verdicts durable in an on-disk
  :class:`~repro.service.store.VerdictStore`, so a daemon restarted over
  the same directory answers every verdict it already published from
  the store (``repro serve --store DIR``),
* it serves the framed, versioned protocol of
  :mod:`repro.service.protocol` over any :mod:`repro.net` backend — the
  thread-safe in-memory :class:`~repro.net.QueueSocket` for hermetic
  tests (:meth:`connect_inproc`) and real TCP for ``repro serve``
  (:meth:`start_tcp`),
* every connection runs the paper's client protocol: attestation
  (quote binds the pooled enclave's measurement to the connection's
  channel key) → secure-channel setup → encrypted ``SUBMIT`` →
  authenticated verdict,
* it validates request/response **orderliness** per connection (a
  ``SUBMIT`` before the attested channel, a second ``ATTEST``, or an
  unknown verb is a typed protocol error, never undefined behaviour),
* ``STATUS`` and ``METRICS`` verbs expose health and a full JSON
  metrics dump (cache hit ratios, per-stage latency histograms,
  quarantine/backlog state, store counters, uptime, request counters),
* :meth:`stop` drains: in-flight inspections finish and answer, new
  connections are refused, and the warm state (caches, quarantine,
  pool) survives for the next :meth:`start`.

Fault coverage: the daemon adds **no new hook points** — its read and
write paths run through the same ``net.sock.send`` / ``net.sock.recv``
hooks as the provisioning wire, the attested channel runs through
``crypto.channel.send`` / ``crypto.channel.recv``, and every inspection
runs through ``service.batch.worker`` / ``service.batch.verdict`` — so
a seeded :class:`~repro.faults.plan.FaultPlan` soaks the daemon with
the existing 12-hook vocabulary.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from ..core.policy import PolicyRegistry
from ..crypto import HmacDrbg
from ..crypto.channel import SecureChannel, ServerHandshake
from ..errors import (
    CryptoError,
    NetError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from ..net import QueueSocket, TcpListener, queue_pair
from . import protocol as proto
from .batch import BatchInspector, BatchItemResult
from .cache import InspectionCache, policy_digest
from .metrics import DaemonMetrics
from .pool import EnclavePool, PooledEnclave
from .store import ZERO_STORE, TieredCache

__all__ = ["InspectionDaemon"]

#: counters pre-declared so the METRICS schema is stable from request one
_COUNTERS = tuple(
    f"requests.{name}" for name in proto.REQUEST_TYPES.values()
) + (
    "responses.sent", "errors.protocol", "errors.transport",
    "errors.inspection", "connections.opened", "connections.closed",
    "connections.refused", "submits.accepted", "submits.rejected",
    "submits.errors", "submits.cache_hits",
)


@dataclass
class _Connection:
    """Daemon-side bookkeeping for one live client connection."""

    cid: int
    sock: object
    thread: threading.Thread | None = None
    #: set while a request is being processed (drained before shutdown)
    busy: bool = False
    state: str = "plain"  # plain -> secured -> closed
    entry: PooledEnclave | None = None
    channel: SecureChannel | None = field(default=None, repr=False)


class InspectionDaemon:
    """Thread-pooled socket server around a warm inspection stack."""

    def __init__(
        self,
        policies: PolicyRegistry,
        *,
        inspector: BatchInspector | None = None,
        inspector_mode: str = "serial",
        workers: int | None = None,
        cache: InspectionCache | None = None,
        pool_size: int = 2,
        rsa_bits: int = 1024,
        heap_pages: int = 128,
        client_pages: int = 256,
        enclave_pages: int = 0x4000,
        read_timeout: float = 10.0,
        max_connections: int = 64,
        retries: int = 0,
        quarantine_threshold: int | None = None,
        rng: HmacDrbg | None = None,
    ) -> None:
        self.policies = policies
        self.rng = rng or HmacDrbg(b"inspection-daemon")
        self.read_timeout = read_timeout
        self.max_connections = max_connections
        self.cache = cache if cache is not None else InspectionCache(4096)
        # ``serial`` (default): one warm EnGarde, daemon threads funnel
        # through ``_inspect_lock``.  ``process``: the process pool —
        # handler threads submit concurrently and misses fan out across
        # cores (see docs/PERFORMANCE.md, "Process pool").
        self.inspector = inspector or BatchInspector(
            policies,
            mode=inspector_mode,
            workers=workers,
            cache=self.cache,
            retries=retries,
            quarantine_threshold=quarantine_threshold,
        )
        if inspector is not None and inspector.cache is not None:
            self.cache = inspector.cache
        self.pool = EnclavePool(
            policies,
            size=pool_size,
            rsa_bits=rsa_bits,
            heap_pages=heap_pages,
            client_pages=client_pages,
            enclave_pages=enclave_pages,
            concurrency=max_connections,
            rng=self.rng.fork(b"pool"),
        )
        self.metrics = DaemonMetrics()
        self.metrics.touch(*_COUNTERS)
        self.policy_digest = policy_digest(policies)

        self._accepting = False
        self._stopping = threading.Event()
        self._listener: TcpListener | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._connections: dict[int, _Connection] = {}
        self._conn_seq = 0
        self._inspect_lock = threading.Lock()
        self._started_at = time.monotonic()

    # ------------------------------------------------------------ lifecycle

    @property
    def accepting(self) -> bool:
        return self._accepting and not self._stopping.is_set()

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_at

    def start(self) -> None:
        """Begin accepting in-process connections (idempotent; re-armable
        after :meth:`stop`)."""
        if self._accepting:
            return
        self._stopping.clear()
        self._started_at = time.monotonic()
        self._accepting = True

    def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Also listen on real TCP; returns the bound (host, port)."""
        self.start()
        if self._listener is not None:
            raise ServiceError("daemon is already listening on TCP")
        self._listener = TcpListener(host, port)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="daemon-accept", daemon=True
        )
        self._accept_thread.start()
        return self._listener.host, self._listener.port

    def connect_inproc(self, *, timeout: float | None = None) -> QueueSocket:
        """Open one hermetic in-memory connection; returns the client side."""
        if not self.accepting:
            raise NetError(
                "daemon is not accepting connections"
                + (" (stopping)" if self._stopping.is_set() else "")
            )
        client_side, server_side = queue_pair(
            "sdk", "daemon", timeout=timeout
        )
        server_side.settimeout(self.read_timeout)
        self._spawn(server_side)
        return client_side

    def _accept_loop(self) -> None:
        listener = self._listener
        assert listener is not None
        while not self._stopping.is_set():
            try:
                sock = listener.accept(timeout=0.2)
            except NetError:
                if listener.closed:
                    return
                continue
            if not self.accepting:
                sock.close()
                continue
            sock.settimeout(self.read_timeout)
            self._spawn(sock)

    def _spawn(self, sock) -> None:
        with self._conn_lock:
            if len(self._connections) >= self.max_connections:
                refused = True
            else:
                refused = False
                self._conn_seq += 1
                conn = _Connection(cid=self._conn_seq, sock=sock)
                self._connections[conn.cid] = conn
        if refused:
            self.metrics.inc("connections.refused")
            try:
                sock.send(proto.encode_error(
                    "accept",
                    "ServiceError: connection refused — daemon is at "
                    f"its {self.max_connections}-connection limit",
                ))
            except ReproError:
                pass
            sock.close()
            return
        thread = threading.Thread(
            target=self._serve_connection, args=(conn,),
            name=f"daemon-conn-{conn.cid}", daemon=True,
        )
        conn.thread = thread
        self.metrics.inc("connections.opened")
        thread.start()

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight requests, refuse new work.

        With ``drain=True`` every request already being processed is
        answered before its connection closes; idle connections are
        closed immediately.  ``drain=False`` closes everything at once.
        The warm state — caches, quarantine, enclave pool, metrics —
        survives, and :meth:`start` re-arms the same daemon.
        """
        self._stopping.set()
        self._accepting = False
        if self._listener is not None:
            self._listener.close()
        with self._conn_lock:
            conns = list(self._connections.values())
        for conn in conns:
            if not drain or not conn.busy:
                conn.sock.close()
        deadline = time.monotonic() + timeout
        for conn in conns:
            if conn.thread is None:
                continue
            remaining = max(deadline - time.monotonic(), 0.05)
            conn.thread.join(remaining)
            if conn.thread.is_alive():
                conn.sock.close()
                conn.thread.join(1.0)
        if self._accept_thread is not None:
            self._accept_thread.join(2.0)
            self._accept_thread = None
        self._listener = None
        with self._conn_lock:
            self._connections.clear()

    def __enter__(self) -> "InspectionDaemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ----------------------------------------------------------- connection

    def _serve_connection(self, conn: _Connection) -> None:
        try:
            self._handle_plain(conn)
        except (NetError, OSError) as exc:
            # Timeout, disconnect, or shutdown wake-up: nothing to answer.
            self.metrics.inc("errors.transport")
            self._note_error(conn, "transport", exc, reply=False)
        except (ProtocolError, CryptoError) as exc:
            self.metrics.inc("errors.protocol")
            self._note_error(conn, "protocol", exc, reply=True)
        except ReproError as exc:
            self.metrics.inc("errors.protocol")
            self._note_error(conn, "machinery", exc, reply=True)
        finally:
            conn.state = "closed"
            if conn.entry is not None:
                self.pool.checkin(conn.entry)
                conn.entry = None
            conn.sock.close()
            with self._conn_lock:
                self._connections.pop(conn.cid, None)
            self.metrics.inc("connections.closed")

    def _note_error(self, conn, stage: str, exc: BaseException, *, reply: bool) -> None:
        if reply:
            try:
                conn.sock.send(proto.encode_error(
                    stage, f"{type(exc).__name__}: {exc}"
                ))
            except (ReproError, OSError):
                pass

    def _handle_plain(self, conn: _Connection) -> None:
        """The plaintext phase of one connection's state machine."""
        sock = conn.sock
        while not self._stopping.is_set():
            t0 = time.perf_counter()
            frame = sock.recv()
            mtype, body = proto.decode_message(frame)
            verb = proto.MESSAGE_TYPES[mtype]
            self.metrics.inc(f"requests.{verb}")
            if mtype == proto.T_HELLO:
                self._reply(sock, proto.T_HELLO_OK, json.dumps(
                    self.hello_info()
                ).encode())
            elif mtype == proto.T_STATUS:
                self._reply(sock, proto.T_STATUS_OK,
                            json.dumps(self.status()).encode())
            elif mtype == proto.T_METRICS:
                self._reply(sock, proto.T_METRICS_OK,
                            json.dumps(self.metrics_snapshot()).encode())
            elif mtype == proto.T_BYE:
                self._reply(sock, proto.T_BYE_OK, b"")
                return
            elif mtype == proto.T_ATTEST:
                self._attest_and_secure(conn, body, t0)
                return
            elif mtype == proto.T_SUBMIT:
                raise ProtocolError(
                    f"out-of-order {verb}: the attested secure channel must "
                    "be established first (ATTEST, then key exchange)"
                )
            else:
                raise ProtocolError(
                    f"client sent response verb {verb} — protocol "
                    "violation (requests only)"
                )
            self.metrics.observe("request", time.perf_counter() - t0)

    def _attest_and_secure(self, conn: _Connection, challenge: bytes, t0: float) -> None:
        """ATTEST: quote a pooled enclave, run the key exchange, then serve
        the secured phase until BYE/disconnect."""
        if not 8 <= len(challenge) <= 64:
            raise ProtocolError(
                f"attestation challenge must be 8..64 bytes, got {len(challenge)}"
            )
        conn.entry = self.pool.checkout()
        quote = self.pool.quoting_enclave.quote(conn.entry.report, challenge)
        self._reply(conn.sock, proto.T_ATTEST_OK, proto.quote_to_bytes(quote))
        self.metrics.observe("attest", time.perf_counter() - t0)

        t1 = time.perf_counter()
        handshake = ServerHandshake(
            conn.sock, self.rng.fork(b"conn-%d" % conn.cid),
            keypair=conn.entry.keypair,
        )
        handshake.send_public_key()
        conn.channel = handshake.complete()
        conn.state = "secured"
        self.metrics.observe("handshake", time.perf_counter() - t1)
        self.metrics.observe("request", time.perf_counter() - t0)
        self._handle_secured(conn)

    def _handle_secured(self, conn: _Connection) -> None:
        """The secured phase: every frame is an authenticated channel
        record whose plaintext is a protocol message."""
        channel = conn.channel
        assert channel is not None
        while not self._stopping.is_set():
            t0 = time.perf_counter()
            record = channel.recv()
            try:
                self._dispatch_secured(conn, channel, record, t0)
            except ProtocolError as exc:
                # The channel itself is intact — answer the violation
                # through it (authenticated), then hang up.
                self.metrics.inc("errors.protocol")
                channel.send(proto.encode_error(
                    "protocol", f"{type(exc).__name__}: {exc}"
                ))
                return
            if conn.state == "closed":
                return

    def _dispatch_secured(self, conn: _Connection, channel: SecureChannel,
                          record: bytes, t0: float) -> None:
        mtype, body = proto.decode_message(record)
        verb = proto.MESSAGE_TYPES[mtype]
        self.metrics.inc(f"requests.{verb}")
        if mtype == proto.T_SUBMIT:
            label, raw = proto.decode_submit(body)
            self._answer_submit(conn, channel, label, raw)
        elif mtype == proto.T_STATUS:
            channel.send(proto.encode_message(
                proto.T_STATUS_OK, json.dumps(self.status()).encode()
            ))
            self.metrics.inc("responses.sent")
        elif mtype == proto.T_METRICS:
            channel.send(proto.encode_message(
                proto.T_METRICS_OK,
                json.dumps(self.metrics_snapshot()).encode(),
            ))
            self.metrics.inc("responses.sent")
        elif mtype == proto.T_BYE:
            channel.send(proto.encode_message(proto.T_BYE_OK))
            self.metrics.inc("responses.sent")
            conn.state = "closed"
            return
        elif mtype == proto.T_ATTEST:
            raise ProtocolError(
                "out-of-order ATTEST: this connection already holds an "
                "attested channel"
            )
        else:
            raise ProtocolError(
                f"unexpected {verb} inside the secured phase"
            )
        self.metrics.observe("request", time.perf_counter() - t0)

    def _reply(self, sock, mtype: int, body: bytes = b"") -> None:
        sock.send(proto.encode_message(mtype, body))
        self.metrics.inc("responses.sent")

    def _answer_submit(self, conn: _Connection, channel: SecureChannel,
                       label: str, raw: bytes) -> None:
        """Run one inspection and answer VERDICT/ERROR over *channel*."""
        conn.busy = True
        try:
            item = self._inspect(label, raw)
            if item.report is None:
                self.metrics.inc("errors.inspection")
                channel.send(proto.encode_error(
                    "inspection", item.error or
                    "ServiceError: inspection produced no verdict",
                ))
            else:
                channel.send(proto.encode_message(
                    proto.T_VERDICT, proto.encode_verdict(item)
                ))
            self.metrics.inc("responses.sent")
        finally:
            conn.busy = False

    # ----------------------------------------------------------- inspection

    def _inspect(self, label: str, raw: bytes) -> BatchItemResult:
        """One verdict through the warm inspector (still byte-identical to
        the serial EnGarde oracle — the batch differential tests pin it)."""
        t0 = time.perf_counter()
        if self.inspector.mode == "serial":
            # one warm EnGarde: its CycleMeter phase bookkeeping cannot
            # run two inspections at once
            with self._inspect_lock:
                report = self.inspector.inspect_batch([(label, raw)])
        else:
            # pooled inspector: inspect_batch is thread-safe, so handler
            # threads fan submissions across the worker pool concurrently
            report = self.inspector.inspect_batch([(label, raw)])
        self.metrics.observe("inspect", time.perf_counter() - t0)
        item = report.results[0]
        if item.error is not None:
            self.metrics.inc("submits.errors")
        elif item.accepted:
            self.metrics.inc("submits.accepted")
        else:
            self.metrics.inc("submits.rejected")
        if item.cache_hit:
            self.metrics.inc("submits.cache_hits")
        return item

    # -------------------------------------------------------------- surface

    def hello_info(self) -> dict:
        """The ``HELLO_OK`` body: what a client needs before attesting."""
        return {
            "server": "repro-inspection-daemon",
            "protocol_version": proto.PROTOCOL_VERSION,
            "policy_digest": self.policy_digest,
            "policies": self.policies.names(),
            "geometry": {
                "heap_pages": self.pool.heap_pages,
                "client_pages": self.pool.client_pages,
                "enclave_pages": self.pool.enclave_pages,
            },
            "uptime_seconds": round(self.uptime_seconds, 3),
        }

    def announce(self) -> dict:
        """Out-of-band bootstrap record (the IAS-published analogue):
        TCP endpoint (``None`` when not listening), device public key,
        policy digest, geometry."""
        key = self.pool.quoting_enclave.device_public_key
        listener = self._listener
        return {
            "host": listener.host if listener is not None else None,
            "port": listener.port if listener is not None else None,
            "protocol_version": proto.PROTOCOL_VERSION,
            "policy_digest": self.policy_digest,
            "device_key": {"n": f"{key.n:x}", "e": key.e},
            "geometry": self.hello_info()["geometry"],
        }

    def store_info(self) -> dict:
        """Always-present store stats (``ZERO_STORE`` unless the cache is
        a :class:`~repro.service.store.TieredCache`)."""
        if not isinstance(self.cache, TieredCache):
            return dict(ZERO_STORE)
        return self.cache.store.stats()

    def status(self) -> dict:
        """The ``/healthz``-style summary served by ``STATUS``."""
        quarantine = self.inspector.quarantine
        with self._conn_lock:
            active = len(self._connections)
            inflight = sum(1 for c in self._connections.values() if c.busy)
        return {
            "status": "stopping" if self._stopping.is_set() else "ok",
            "protocol_version": proto.PROTOCOL_VERSION,
            "uptime_seconds": round(self.uptime_seconds, 3),
            "accepting": self.accepting,
            "connections_active": active,
            "inflight_requests": inflight,
            "backlog": inflight,
            "quarantined_keys": (
                len(quarantine) if quarantine is not None else 0
            ),
            "cache_entries": len(self.cache) if self.cache is not None else 0,
            "store": self.store_info(),
        }

    def metrics_snapshot(self) -> dict:
        """The full ``METRICS`` dump (see docs/DAEMON.md for the schema)."""
        quarantine = self.inspector.quarantine
        snap = {
            "daemon": {
                "protocol_version": proto.PROTOCOL_VERSION,
                "uptime_seconds": round(self.uptime_seconds, 3),
                "accepting": self.accepting,
                "policy_digest": self.policy_digest,
            },
            "pool": self.pool.stats(),
            "cache": (
                self.cache.stats().as_dict() if self.cache is not None else None
            ),
            "quarantine": {
                "keys": len(quarantine) if quarantine is not None else 0,
                "threshold": (
                    quarantine.threshold if quarantine is not None else None
                ),
            },
            # The stable (always-present, zeroed when idle) resilience
            # schema BatchSummary shares; see docs/RESILIENCE.md.
            "resilience": self.inspector.resilience_stats(),
            # Same pattern for the on-disk verdict store; see
            # docs/DAEMON.md, "Durable verdicts".
            "store": self.store_info(),
        }
        snap.update(self.metrics.snapshot())
        snap["status"] = self.status()
        return snap
