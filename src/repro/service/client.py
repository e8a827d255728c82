"""Attestation-aware SDK for the inspection daemon.

:class:`InspectionClient` wraps the whole tenant-side procedure from
the paper behind one call:

1. connect (any :mod:`repro.net` transport — a factory callable keeps
   the SDK transport-agnostic),
2. ``HELLO`` — verify protocol version and that the daemon serves the
   policy registry *this* client reviewed (digest match),
3. ``ATTEST`` with a fresh challenge — verify the quote against the
   provider's published device key and the **client-computed**
   ``expected_mrenclave`` (mutual trust: the client never takes the
   provider's word for what the enclave contains),
4. secure-channel key exchange, with the server key pinned to the
   fingerprint the verified quote bound into its measurement,
5. encrypted ``SUBMIT`` → authenticated verdict.

Transient failures (disconnects, timeouts, injected faults, channel
MAC errors) are retried with exponential backoff on an injectable
clock, reusing :class:`~repro.core.provisioning.ResilienceConfig`
semantics — and always **fail closed**: an exhausted retry budget
yields a typed error verdict, never a silent accept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.policy import PolicyRegistry
from ..core.provisioning import ResilienceConfig, expected_mrenclave
from ..core.report import ComplianceReport
from ..crypto import HmacDrbg, RsaPublicKey
from ..crypto.channel import SecureChannel, client_handshake
from ..errors import (
    AttestationError,
    CryptoError,
    NetError,
    ProtocolError,
    ReproError,
    ServiceError,
)
from . import protocol as proto

__all__ = ["InspectionClient", "ClientVerdict", "RemoteError", "device_key_from_announce"]

#: transport/crypto failures worth a reconnect-and-retry
_TRANSIENT = (NetError, CryptoError, ProtocolError, OSError)


class RemoteError(ServiceError):
    """The daemon answered with a typed ``ERROR`` response."""

    def __init__(self, stage: str, error: str) -> None:
        super().__init__(f"[{stage}] {error}")
        self.stage = stage
        self.error = error


def _parse_json(body: bytes, what: str) -> dict:
    """Decode a JSON response body, failing closed with a typed error —
    a corrupted (e.g. bitflipped-in-transit) body must never surface as
    an untyped :class:`UnicodeDecodeError`/:class:`ValueError`."""
    try:
        doc = json.loads(body.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed {what} body: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"malformed {what} body: expected a JSON object")
    return doc


def device_key_from_announce(doc: dict) -> RsaPublicKey:
    """Rebuild the provider's device public key from an announce record
    (the JSON line ``repro serve`` prints; the IAS-registry analogue)."""
    key = doc["device_key"]
    return RsaPublicKey(n=int(key["n"], 16), e=int(key["e"]))


@dataclass
class ClientVerdict:
    """One ``SUBMIT`` outcome — a report, or a typed fail-closed error."""

    label: str
    report: ComplianceReport | None = None
    #: ``BatchItemResult.source`` as reported by the daemon
    source: str = "error"
    #: typed ``ExcName: detail`` text when no report was produced
    error: str | None = None
    attempts: int = 1
    wire: bytes = field(default=b"", repr=False)

    @property
    def accepted(self) -> bool:
        return self.report is not None and self.report.compliant


class InspectionClient:
    """One tenant's handle on a running inspection daemon.

    Not thread-safe: each worker thread should own its own client (and
    therefore its own attested connection), mirroring one tenant
    machine per channel in the paper.
    """

    def __init__(
        self,
        policies: PolicyRegistry,
        device_public_key: RsaPublicKey,
        connect,
        *,
        rng: HmacDrbg | None = None,
        timeout: float = 10.0,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        self.policies = policies
        self.device_public_key = device_public_key
        self._connect = connect
        self.rng = rng or HmacDrbg(b"inspection-client")
        self.timeout = timeout
        self.resilience = resilience
        self._sock = None
        self._channel: SecureChannel | None = None
        self.server_info: dict | None = None
        self._session = 0

    # ------------------------------------------------------------- session

    @property
    def connected(self) -> bool:
        return self._channel is not None

    def open(self) -> dict:
        """Connect, HELLO, attest, and establish the secure channel.

        Returns the daemon's HELLO info.  Raises typed errors on any
        verification failure — an unattested channel is never kept.
        """
        if self._channel is not None:
            return self.server_info or {}
        self._session += 1
        sock = self._connect()
        try:
            if hasattr(sock, "settimeout"):
                sock.settimeout(self.timeout)
            info = self._roundtrip(sock, proto.encode_message(proto.T_HELLO),
                                   expect=proto.T_HELLO_OK)
            hello = _parse_json(info, "HELLO_OK")
            self._check_hello(hello)
            quote = self._attest(sock, hello)
            # Channel key pinned to the fingerprint the *verified* quote
            # carries: a MITM key would fail this check.
            channel, _ = client_handshake(
                sock,
                self.rng.fork(b"channel-%d" % self._session),
                expected_fingerprint=quote.report_data[:32],
            )
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._channel = channel
        self.server_info = hello
        return hello

    def _check_hello(self, hello: dict) -> None:
        if hello.get("protocol_version") != proto.PROTOCOL_VERSION:
            raise ProtocolError(
                f"daemon speaks protocol {hello.get('protocol_version')}, "
                f"this SDK speaks {proto.PROTOCOL_VERSION}"
            )
        import hashlib

        mine = hashlib.sha256(self.policies.digest_material()).hexdigest()
        if hello.get("policy_digest") != mine:
            raise AttestationError(
                "policy digest mismatch: the daemon serves a different "
                "policy registry than this client reviewed"
            )

    def _attest(self, sock, hello: dict):
        challenge = self.rng.generate(16)
        body = self._roundtrip(
            sock, proto.encode_message(proto.T_ATTEST, challenge),
            expect=proto.T_ATTEST_OK,
        )
        quote = proto.quote_from_bytes(body)
        try:
            geometry = hello["geometry"]
            expected = expected_mrenclave(
                self.policies,
                heap_pages=geometry["heap_pages"],
                client_pages=geometry["client_pages"],
                enclave_pages=geometry["enclave_pages"],
            )
        except (KeyError, TypeError) as exc:
            raise ProtocolError(
                f"HELLO_OK carries no usable enclave geometry: {exc!r}"
            ) from exc
        from ..sgx.attestation import verify_quote

        verify_quote(
            quote, self.device_public_key,
            expected_mrenclave=expected, challenge=challenge,
        )
        return quote

    def _roundtrip(self, link, message: bytes, *, expect: int) -> bytes:
        """Send the encoded request *message* over *link* (the plaintext
        socket, or the secure channel once :meth:`open` has established
        it) and return the body of the expected response."""
        link.send(message)
        rtype, rbody = proto.decode_message(link.recv())
        if rtype == proto.T_ERROR:
            raise RemoteError(*proto.decode_error(rbody))
        if rtype != expect:
            raise ProtocolError(
                f"expected {proto.MESSAGE_TYPES[expect]}, daemon sent "
                f"{proto.MESSAGE_TYPES.get(rtype, hex(rtype))}"
            )
        return rbody

    def close(self) -> None:
        """Part cleanly (best-effort BYE) and drop the connection."""
        channel, sock = self._channel, self._sock
        self._channel = None
        self._sock = None
        if channel is not None and sock is not None:
            try:
                channel.send(proto.encode_message(proto.T_BYE))
                proto.decode_message(channel.recv())
            except (ReproError, OSError):
                pass
        if sock is not None:
            sock.close()

    def _abandon(self) -> None:
        """Drop a connection we no longer trust (no BYE)."""
        sock = self._sock
        self._channel = None
        self._sock = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "InspectionClient":
        self.open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- verbs

    def inspect(self, raw_elf: bytes, label: str = "client") -> ClientVerdict:
        """Submit one binary; retry transient failures; fail closed.

        ``ResilienceConfig`` semantics: up to ``max_retransmits`` extra
        attempts with ``backoff_base * 2**attempt`` sleeps on the
        injectable clock.  A daemon-side typed error (inspection crash,
        quarantine) is returned as a typed error verdict; transport and
        channel-integrity failures trigger a full reconnect (fresh
        attestation) before the retry.  A submission the protocol cannot
        carry (a label over 65,535 bytes, a body over ``MAX_BODY``) would
        fail the same way on every attempt, so it gets a typed error
        verdict with no attempt and no connection.
        """
        try:
            submit = proto.encode_message(
                proto.T_SUBMIT, proto.encode_submit(label, raw_elf)
            )
        except ProtocolError as exc:
            return ClientVerdict(
                label=label, error=f"ProtocolError: {exc}", attempts=0
            )
        budget = (
            self.resilience.max_retransmits + 1 if self.resilience else 1
        )
        last_error = "ServiceError: no attempt was made"
        for attempt in range(budget):
            if attempt:
                assert self.resilience is not None
                self.resilience.clock.sleep(
                    self.resilience.backoff_base * (2 ** (attempt - 1))
                )
            try:
                self.open()
                body = self._roundtrip(
                    self._channel, submit, expect=proto.T_VERDICT
                )
                source, wire = proto.decode_verdict(body)
                report = ComplianceReport.deserialize(wire)
                return ClientVerdict(
                    label=label, report=report, source=source,
                    attempts=attempt + 1, wire=wire,
                )
            except RemoteError as exc:
                # The channel survived (the error itself was authenticated);
                # the *request* failed server-side.  Retry in place.
                last_error = exc.error
            except AttestationError as exc:
                # Fail closed immediately: retrying cannot make an
                # untrustworthy enclave trustworthy.
                self._abandon()
                return ClientVerdict(
                    label=label, error=f"AttestationError: {exc}",
                    attempts=attempt + 1,
                )
            except _TRANSIENT as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                self._abandon()
        return ClientVerdict(label=label, error=last_error, attempts=budget)

    def status(self) -> dict:
        """``STATUS`` probe (over the channel when open, plaintext else)."""
        return self._probe(proto.T_STATUS, proto.T_STATUS_OK)

    def metrics(self) -> dict:
        """``METRICS`` probe — the daemon's full observability dump."""
        return self._probe(proto.T_METRICS, proto.T_METRICS_OK)

    def _probe(self, mtype: int, expect: int) -> dict:
        what = proto.MESSAGE_TYPES[expect]
        if self._channel is not None:
            body = self._roundtrip(
                self._channel, proto.encode_message(mtype), expect=expect
            )
            return _parse_json(body, what)
        sock = self._connect()
        try:
            if hasattr(sock, "settimeout"):
                sock.settimeout(self.timeout)
            body = self._roundtrip(
                sock, proto.encode_message(mtype), expect=expect
            )
            try:
                sock.send(proto.encode_message(proto.T_BYE))
                proto.decode_message(sock.recv())
            except (ReproError, OSError):
                pass
            return _parse_json(body, what)
        finally:
            sock.close()
