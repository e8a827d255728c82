"""The mutual-trust provisioning protocol (paper sections 2-3).

Actors:

* :class:`CloudProvider` — owns the SGX machine and host OS.  Creates a
  fresh enclave provisioned with the agreed EnGarde build, relays
  attestation, and — on a compliant verdict — pins W^X page permissions
  and seals the enclave.  On a non-compliant verdict it tears the enclave
  down.  It never sees client plaintext.
* :class:`EnclaveClient` — holds the binary.  Computes the *expected*
  MRENCLAVE from the agreed EnGarde build (both parties have EnGarde's
  code for inspection), verifies the quote, checks that the channel key is
  the one bound into the quote, then streams the binary in encrypted
  page-sized records and finally receives the verdict over the same
  authenticated channel (so a provider falsely claiming non-compliance is
  detectable).
* :func:`provision` — drives the interleaving of the two sides plus the
  in-enclave EnGarde session; returns everything the harness reports.

The provider decrypts each record in place into one buffer sized to the
announced content and runs the length pass over the text while records
arrive (:class:`~repro.core.streaming.StreamingPipeline`); a re-provisioned
binary under a known label re-pays inspection only for the functions it
changed (:func:`~repro.core.streaming.delta_scan`).
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..crypto import HmacDrbg
from ..crypto.channel import SecureChannel, ServerHandshake, client_handshake
from ..crypto.rsa import RsaPrivateKey
from ..errors import (
    AttestationError,
    CryptoError,
    NetError,
    OverrunError,
    ProtocolError,
    ReproError,
)
from ..faults import hooks as _faults
from ..faults.clock import Clock, SystemClock
from ..faults.hooks import fault_hook
from ..net import SocketPair
from ..sgx import (
    HostOS,
    PAGE_SIZE,
    QuotingEnclave,
    SgxMachine,
    SgxParams,
    verify_quote,
)
from ..sgx.cpu import CycleMeter
from ..sgx.host import EnclaveRuntime
from ..sgx.measurement import Measurement
from .engarde import EnGarde, InspectionOutcome
from .policy import PolicyRegistry
from .report import ComplianceReport
from .streaming import (
    DeltaIndex,
    StreamingPipeline,
    build_delta_index,
    delta_scan,
)

__all__ = [
    "CloudProvider", "EnclaveClient", "ProvisioningResult", "provision",
    "ResilienceConfig",
    "expected_mrenclave", "ENCLAVE_BASE", "DEFAULT_ENCLAVE_PAGES",
]

ENCLAVE_BASE = 0x10000
DEFAULT_ENCLAVE_PAGES = 0x8000  # 128 MiB ELRANGE
_CONTENT_HEADER = struct.Struct("<QI")  # total size, record count


def _bootstrap_pages(engarde: EnGarde) -> dict[int, bytes]:
    """Page-chunked EnGarde bootstrap content at the enclave base."""
    blob = engarde.bootstrap_bytes()
    pages = {}
    for i in range(0, max(len(blob), 1), PAGE_SIZE):
        pages[ENCLAVE_BASE + i] = blob[i:i + PAGE_SIZE]
    return pages


#: memo for :func:`expected_mrenclave` — a pure function of its inputs,
#: re-evaluated by the client on *every* provisioning run otherwise
_MRENCLAVE_MEMO: "OrderedDict[tuple, bytes]" = OrderedDict()
_MRENCLAVE_MEMO_CAP = 64
_MRENCLAVE_LOCK = threading.Lock()


def expected_mrenclave(
    policies: PolicyRegistry,
    *,
    heap_pages: int,
    client_pages: int,
    enclave_pages: int = DEFAULT_ENCLAVE_PAGES,
) -> bytes:
    """What MRENCLAVE *must* be for the agreed EnGarde build.

    Pure replay of the build sequence `HostOS.build_enclave` performs —
    both the provider and the client can compute this independently from
    EnGarde's public code, which is the whole point of mutual trust.
    (A regression test pins this function against an actual build.)

    The result depends only on the policy digest material and the three
    geometry parameters, so it is memoized.
    """
    token = (
        policies.digest_material(), heap_pages, client_pages, enclave_pages,
    )
    with _MRENCLAVE_LOCK:
        cached = _MRENCLAVE_MEMO.get(token)
        if cached is not None:
            _MRENCLAVE_MEMO.move_to_end(token)
            return cached
    engarde = EnGarde(policies)
    boot = _bootstrap_pages(engarde)
    size = enclave_pages * PAGE_SIZE
    m = Measurement()
    m.ecreate(ENCLAVE_BASE, size, 0)
    for vaddr in sorted(boot):
        m.eadd(vaddr, "REG", "rwx")
        content = boot[vaddr].ljust(PAGE_SIZE, b"\x00")
        for off in range(0, PAGE_SIZE, 256):
            m.eextend(vaddr + off, content[off:off + 256])
    client_base = _align_page(max(boot) + PAGE_SIZE)
    for i in range(client_pages):
        m.eadd(client_base + i * PAGE_SIZE, "REG", "rwx")
    heap_base = client_base + client_pages * PAGE_SIZE
    for i in range(heap_pages):
        m.eadd(heap_base + i * PAGE_SIZE, "REG", "rw-")
    result = m.finalize()
    with _MRENCLAVE_LOCK:
        _MRENCLAVE_MEMO[token] = result
        _MRENCLAVE_MEMO.move_to_end(token)
        while len(_MRENCLAVE_MEMO) > _MRENCLAVE_MEMO_CAP:
            _MRENCLAVE_MEMO.popitem(last=False)
    return result


@dataclass(frozen=True)
class ResilienceConfig:
    """How hard the provisioning transport tries before failing closed.

    With a config in play, a corrupt/dropped/reordered content record
    triggers up to *max_retransmits* retransmit rounds (client rewinds
    its channel's resend window) with exponential backoff on *clock*,
    and any failure that survives — transport, protocol, or machinery —
    is converted into a typed REJECT verdict instead of an exception.
    """

    max_retransmits: int = 3
    backoff_base: float = 0.05
    clock: Clock = field(default_factory=SystemClock)


#: exception type -> rejection stage reported when resilience fails closed
_FAIL_CLOSED_STAGES = (
    (CryptoError, "channel"),
    (NetError, "channel"),
    (ProtocolError, "protocol"),
    (AttestationError, "attestation"),
)


def _fail_closed_stage(exc: ReproError) -> str:
    for err_type, stage in _FAIL_CLOSED_STAGES:
        if isinstance(exc, err_type):
            return stage
    return "machinery"


@dataclass
class ProvisioningSession:
    """Provider-side state for one enclave being provisioned."""

    runtime: EnclaveRuntime
    engarde: EnGarde
    handshake: ServerHandshake
    channel: SecureChannel | None = None
    outcome: InspectionOutcome | None = None
    benchmark: str = "client"


@dataclass
class ProvisioningResult:
    """Everything one provisioning run produced."""

    accepted: bool
    report: ComplianceReport
    outcome: InspectionOutcome
    meter: CycleMeter
    runtime: EnclaveRuntime | None
    #: what the client's side concluded (must match `report`)
    client_verdict: ComplianceReport | None = None
    #: typed-error text when a resilient run failed closed (else None)
    error: str | None = None


class CloudProvider:
    """The cloud provider: machine owner and policy enforcer."""

    def __init__(
        self,
        policies: PolicyRegistry,
        *,
        params: SgxParams | None = None,
        rng: HmacDrbg | None = None,
        rsa_bits: int = 1024,
        heap_pages: int | None = None,
        client_pages: int = 2048,
        enclave_pages: int = DEFAULT_ENCLAVE_PAGES,
        per_insn_malloc: bool = False,
        channel_keypair: RsaPrivateKey | None = None,
        streaming: bool = True,
    ) -> None:
        """*streaming* accepts only ``True``: the streamed receive is the
        one receive path.  The keyword goes once the benchmark
        (``perfbench/workloads.py``) stops passing it."""
        _require_streaming(streaming)
        self.policies = policies
        self.params = params or SgxParams()
        self.machine = SgxMachine(self.params)
        self.host = HostOS(self.machine)
        self.rng = rng or HmacDrbg(b"cloud-provider")
        self.quoting_enclave = QuotingEnclave(self.machine, self.rng.fork(b"qe"))
        self.rsa_bits = rsa_bits
        self.heap_pages = (
            self.params.heap_initial_pages if heap_pages is None else heap_pages
        )
        self.client_pages = client_pages
        self.enclave_pages = enclave_pages
        self.per_insn_malloc = per_insn_malloc
        #: pre-generated channel keypair (tests reuse one to skip keygen)
        self.channel_keypair = channel_keypair
        #: per-benchmark delta index (adopted scan, function-extent digests
        #: and function-verdict memo) used to re-inspect only changed
        #: functions when the same client re-provisions an updated binary;
        #: a label's entry stays empty until its second provisioning (see
        #: :meth:`_sight_label`)
        self._delta_index: "OrderedDict[str, DeltaIndex]" = OrderedDict()
        self._delta_index_cap = 8

    def start_session(
        self, sock, *, benchmark: str = "client"
    ) -> ProvisioningSession:
        """Build the EnGarde enclave and send the channel public key."""
        meter = self.machine.meter
        runtime_holder: list[EnclaveRuntime] = []

        def alloc_pages(n: int) -> int:
            return self.host.svc_alloc_pages(runtime_holder[0], n)

        engarde = EnGarde(
            self.policies, meter,
            alloc_pages=alloc_pages, per_insn_malloc=self.per_insn_malloc,
        )
        boot = _bootstrap_pages(engarde)
        runtime = self.host.build_enclave(
            base=ENCLAVE_BASE,
            size=self.enclave_pages * PAGE_SIZE,
            bootstrap_pages=boot,
            heap_pages=self.heap_pages,
            client_pages=self.client_pages,
        )
        runtime_holder.append(runtime)
        self.machine.eenter(runtime.enclave)
        self.host.svc_socket(runtime, sock)

        fault_hook("core.provisioning.handshake", error=ProtocolError)
        handshake = ServerHandshake(
            sock, self.rng.fork(b"channel"), rsa_bits=self.rsa_bits,
            keypair=self.channel_keypair,
        )
        handshake.send_public_key()
        return ProvisioningSession(
            runtime=runtime, engarde=engarde, handshake=handshake,
            benchmark=benchmark,
        )

    def attest(self, session: ProvisioningSession, challenge: bytes):
        """EREPORT (binding the channel key) -> quoting enclave -> quote."""
        keypair = session.handshake._keypair
        assert keypair is not None, "handshake must run before attestation"
        fingerprint = keypair.public_key.fingerprint()
        report = self.machine.ereport(session.runtime.enclave, fingerprint)
        return self.quoting_enclave.quote(report, challenge)

    def run_engarde(
        self,
        session: ProvisioningSession,
        *,
        resilience: "ResilienceConfig | None" = None,
        retransmit=None,
    ) -> ComplianceReport:
        """Complete the handshake, receive content, run the pipeline.

        *retransmit* is the client-side callback ``fn(from_seq)`` the
        resilient receive path invokes after flushing a broken stream;
        without a :class:`ResilienceConfig` any transport failure
        propagates exactly as before.
        """
        fault_hook("core.provisioning.handshake", error=ProtocolError)
        session.channel = session.handshake.complete()
        raw, scan = self._receive_streamed(
            session, resilience=resilience, retransmit=retransmit
        )
        runtime = session.runtime
        session.outcome = session.engarde.inspect_and_load(
            raw,
            runtime.enclave,
            runtime.client_base,
            runtime.client_pages,
            benchmark=session.benchmark,
            scan=scan,
        )
        if scan is not None:
            self._update_delta_index(session, scan)
        return session.outcome.report

    def _sight_label(self, label: str) -> DeltaIndex | None:
        """Mark *label* as the most recently provisioned one and return
        its delta-index entry, or None on the label's first sighting.

        A first sighting only records the label, as an empty
        :class:`DeltaIndex`, so a label provisioned once leaves no scan
        behind.  The second sighting scans in full and populates the
        entry; the third and later splice from it, or scan in full and
        re-populate it when they cannot splice (a resized text, say).
        The index keeps the ``_delta_index_cap`` most recently sighted
        labels.
        """
        entries = self._delta_index
        index = entries.get(label)
        if index is not None:
            entries.move_to_end(label)
            return index
        entries[label] = DeltaIndex()
        while len(entries) > self._delta_index_cap:
            entries.popitem(last=False)
        return None

    def _update_delta_index(self, session: ProvisioningSession, scan) -> None:
        """Refresh the benchmark's delta index from a *verified* scan.

        Only a scan that carried the label's memo (a repeat sighting, see
        :meth:`_sight_label`) populates the entry, and only from a scan
        the disassembler actually adopted (``disasm.scan is scan`` — the
        speculative scan survived the exact-parse cross-check).  A
        policy-rejected binary does populate it; a disasm-stage rejection
        or a run whose scan was not adopted leaves the entry as it was.
        """
        outcome = session.outcome
        if outcome is None or outcome.disassembly is None:
            return
        disasm = outcome.disassembly
        if disasm.scan is not scan:
            return
        index = self._delta_index.get(session.benchmark)
        if index is None or scan.delta is not index.memo:
            return
        build_delta_index(
            index, scan, [addr for addr, _name in disasm.symtab.items()]
        )

    def finalize(self, session: ProvisioningSession) -> bool:
        """Act on the verdict: pin W^X + seal, or tear down.

        Returns True when the enclave was accepted and sealed.
        """
        if session.outcome is None or session.channel is None:
            raise ProtocolError("finalize before run_engarde")
        report = session.outcome.report
        # The verdict travels to the client over the *authenticated*
        # channel, so the provider cannot forge "non-compliant".
        session.channel.send(report.serialize())
        if report.compliant:
            self.host.apply_engarde_protections(
                session.runtime, list(report.executable_pages)
            )
            return True
        self.machine.eexit(session.runtime.enclave)
        self.machine.destroy(session.runtime.enclave)
        return False

    # ------------------------------------------------------------------

    def _receive_streamed(
        self,
        session: ProvisioningSession,
        *,
        resilience: "ResilienceConfig | None" = None,
        retransmit=None,
    ):
        """Receive the content: decrypt in place and inspect while draining.

        Records decrypt straight into one preallocated buffer
        (:meth:`SecureChannel.recv_into` — no per-record copies), and a
        :class:`StreamingPipeline` speculatively runs the length pass over
        the text section as its bytes land, so disassembly overlaps the
        channel drain.  When the benchmark label's delta entry is
        populated (its third provisioning on), the pass during receive is
        skipped and the scan is spliced from the indexed one, scanning
        only the function extents whose digest changed
        (:func:`delta_scan`).  When no splice is possible (a resized or
        undecodable update), the drained buffer is scanned in full, so
        the entry can be re-indexed from that scan.  On a repeat sighting
        the scan carries the label's function-verdict memo; on a first
        sighting it carries none.  Either way the scan is
        *speculative*: the disassembler re-verifies it against the exact
        parse and falls back to its whole-buffer pass on any mismatch,
        so the verdict, wire bytes, and meter totals never depend on it.

        Returns ``(raw_bytes, scan_or_None)``.
        """
        runtime = session.runtime
        channel = session.channel
        assert channel is not None

        def recv_into(out: bytearray, offset: int) -> int:
            return self._recv_record(
                runtime, channel, out, offset,
                resilience=resilience, retransmit=retransmit,
            )

        header = bytearray(_CONTENT_HEADER.size)
        if recv_into(header, 0) != len(header):
            raise ProtocolError("bad content header")
        total, records = _CONTENT_HEADER.unpack(header)
        if total > runtime.client_pages * PAGE_SIZE * 4:
            raise ProtocolError("announced content size exceeds any sane image")
        if records > total:
            raise ProtocolError(
                f"bad content header: {records} records for {total} bytes"
            )
        buf = bytearray(total)
        index = self._sight_label(session.benchmark)
        prev = index if index is not None and index.populated else None
        # Seeded decoder faults must hit the real decode stage, not the
        # speculative one, so the pipeline stands down and the
        # disassembler's per-instruction decode (with its fault hooks) runs.
        want_decode = not _faults.wants("x86.decoder")
        pipeline = StreamingPipeline(buf, decode=want_decode and prev is None)
        received = 0
        for _ in range(records):
            received += recv_into(buf, received)
            pipeline.advance(received)
        if received != total:
            raise ProtocolError(
                f"content truncated: announced {total}, received {received}"
            )
        raw = bytes(buf)
        scan = None
        if want_decode:
            if prev is not None:
                text = pipeline.text_slice()
                if text is not None:
                    scan = delta_scan(prev, text)
                if scan is None:
                    # no splice (a resized text, say): scan in full, so
                    # the adopted scan can re-index the label
                    pipeline = StreamingPipeline(buf)
                    pipeline.advance(total)
            if scan is None:
                scan = pipeline.finish()
        if scan is not None and index is not None:
            scan.delta = index.memo
        return raw, scan

    def _recv_record(
        self,
        runtime: EnclaveRuntime,
        channel: SecureChannel,
        out: bytearray,
        offset: int,
        *,
        resilience: "ResilienceConfig | None" = None,
        retransmit=None,
    ) -> int:
        """Receive one record into *out* at *offset*; returns its length.

        Socket I/O exits the enclave (trampoline); decryption happens
        back inside.  The AES work is charged per 16-byte block.

        With a ResilienceConfig and a retransmit callback, a corrupt or
        missing record triggers bounded ARQ (retransmit-on-error) rounds:
        flush the broken stream, exponential backoff on the shared clock,
        ask the peer to rewind its resend window to the expected sequence
        number.  An overrun is the peer's own content, so it is never
        retried.
        """
        attempt = 0
        while True:
            try:
                fault_hook("core.provisioning.record", error=ProtocolError)
                n = channel.recv_into(out, offset)
                break
            except OverrunError:
                raise
            except (CryptoError, NetError, ProtocolError):
                if (
                    resilience is None
                    or retransmit is None
                    or attempt >= resilience.max_retransmits
                ):
                    raise
                resilience.clock.sleep(
                    resilience.backoff_base * (2 ** attempt)
                )
                attempt += 1
                channel.drain_pending()
                retransmit(channel.expected_recv_seq)
        self.host.trampoline(runtime)
        self.machine.meter.charge("aes_block", max(n // 16, 1))
        return n


class EnclaveClient:
    """The client: binary owner, attestation verifier, content sender."""

    def __init__(
        self,
        binary: bytes,
        *,
        policies: PolicyRegistry,
        rng: HmacDrbg | None = None,
        benchmark: str = "client",
        streaming: bool = True,
    ) -> None:
        """*streaming* accepts only ``True``, as on :class:`CloudProvider`;
        the keyword goes once the benchmark stops passing it."""
        _require_streaming(streaming)
        self.binary = binary
        self.policies = policies
        self.rng = rng or HmacDrbg(b"enclave-client")
        self.benchmark = benchmark
        self.channel: SecureChannel | None = None
        self.verdict: ComplianceReport | None = None

    def challenge(self) -> bytes:
        return self.rng.generate(16)

    def verify_attestation(
        self,
        quote,
        device_key,
        challenge: bytes,
        *,
        heap_pages: int,
        client_pages: int,
        enclave_pages: int = DEFAULT_ENCLAVE_PAGES,
    ) -> bytes:
        """Verify the quote; returns the attested channel-key fingerprint."""
        expected = expected_mrenclave(
            self.policies,
            heap_pages=heap_pages,
            client_pages=client_pages,
            enclave_pages=enclave_pages,
        )
        verify_quote(
            quote, device_key,
            expected_mrenclave=expected, challenge=challenge,
        )
        return quote.report_data[:32]

    def open_channel(self, sock, attested_fingerprint: bytes) -> None:
        self.channel, _pub = client_handshake(
            sock, self.rng.fork(b"channel"),
            expected_fingerprint=attested_fingerprint,
        )

    def send_content(self) -> None:
        """Stream the binary as page-sized encrypted records."""
        if self.channel is None:
            raise ProtocolError("channel not established")
        # memoryview slices frame records straight out of the binary with
        # no per-record copy; the channel's join-based record assembly and
        # the socket framing both accept views.
        view = memoryview(self.binary)
        records = [
            view[i:i + PAGE_SIZE]
            for i in range(0, len(self.binary), PAGE_SIZE)
        ]
        self.channel.send(_CONTENT_HEADER.pack(len(self.binary), len(records)))
        # Emit each record the moment it is encrypted: the provider's
        # pipeline starts scanning while later records are still being
        # sealed.  Each warmed keystream lands in the process-wide memo,
        # where the provider's decrypt of the same record finds it.
        for record in records:
            self.channel.warm_send_keystream([len(record)])
            self.channel.send(record)

    def retransmit(self, from_seq: int) -> int:
        """Resend every buffered record from *from_seq* (provider ARQ)."""
        if self.channel is None:
            raise ProtocolError("channel not established")
        return self.channel.resend_from(from_seq)

    def receive_verdict(self) -> ComplianceReport:
        if self.channel is None:
            raise ProtocolError("channel not established")
        self.verdict = ComplianceReport.deserialize(self.channel.recv())
        return self.verdict


def provision(
    provider: CloudProvider,
    client: EnclaveClient,
    *,
    resilience: ResilienceConfig | None = None,
) -> ProvisioningResult:
    """Drive one full provisioning exchange end to end.

    Without *resilience* this behaves exactly as the paper's protocol:
    any transport or protocol failure raises.  With a
    :class:`ResilienceConfig`, content records are retransmitted with
    bounded backoff, and whatever typed failure survives is converted
    into a REJECT verdict — a broken run can never surface as an ACCEPT.
    """
    if resilience is None:
        return _provision_once(provider, client, resilience=None)
    try:
        return _provision_once(provider, client, resilience=resilience)
    except ReproError as exc:
        stage = _fail_closed_stage(exc)
        report = ComplianceReport.rejected(
            client.benchmark, provider.policies.names(), stage=stage
        )
        return ProvisioningResult(
            accepted=False,
            report=report,
            outcome=InspectionOutcome(report=report),
            meter=provider.machine.meter,
            runtime=None,
            client_verdict=None,
            error=f"{type(exc).__name__}: {exc}",
        )


def _provision_once(
    provider: CloudProvider,
    client: EnclaveClient,
    *,
    resilience: ResilienceConfig | None,
) -> ProvisioningResult:
    pair = SocketPair("client", "enclave")

    session = provider.start_session(pair.right, benchmark=client.benchmark)

    challenge = client.challenge()
    quote = provider.attest(session, challenge)
    fingerprint = client.verify_attestation(
        quote,
        provider.quoting_enclave.device_public_key,
        challenge,
        heap_pages=provider.heap_pages,
        client_pages=provider.client_pages,
        enclave_pages=provider.enclave_pages,
    )

    client.open_channel(pair.left, fingerprint)
    client.send_content()

    report = provider.run_engarde(
        session,
        resilience=resilience,
        retransmit=client.retransmit if resilience is not None else None,
    )
    accepted = provider.finalize(session)
    client_verdict = client.receive_verdict()

    assert session.outcome is not None
    return ProvisioningResult(
        accepted=accepted,
        report=report,
        outcome=session.outcome,
        meter=provider.machine.meter,
        runtime=session.runtime if accepted else None,
        client_verdict=client_verdict,
    )


def _require_streaming(streaming) -> None:
    if streaming is not True:
        raise ValueError(
            f"streaming={streaming!r}: the streamed receive is the only "
            "provisioning path"
        )


def _align_page(vaddr: int) -> int:
    return (vaddr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
