"""Wire protocol of the long-lived inspection daemon.

One daemon *message* travels inside one framed socket message (the
4-byte length prefix added by :mod:`repro.net`), and carries its own
header so the daemon can reject malformed, truncated, or wrong-version
traffic with a typed error instead of misparsing it:

.. code-block:: text

    offset  size  field
    0       2     magic      b"EG"
    2       1     version    PROTOCOL_VERSION (1)
    3       1     type       verb / response code (below)
    4       4     body_len   big-endian; must equal len(body)
    8       n     body       verb-specific payload

The double length (socket frame + ``body_len``) is deliberate: a frame
that was truncated or grown in transit — by a fault injection or a
buggy proxy — fails the cross-check even when the outer framing still
parses, which is exactly what the protocol fuzz tests drive.

Conversation order (the daemon enforces this state machine and rejects
out-of-order verbs, in the spirit of Guardian's entry/exit orderliness
checking):

1. plaintext phase — ``HELLO``, ``STATUS``, ``METRICS``, ``BYE`` in any
   order, then at most one ``ATTEST``; a ``SUBMIT`` here is out of
   order;
2. after ``ATTEST_OK`` the server immediately sends its channel public
   key (the raw handshake frame of :class:`repro.crypto.channel`), the
   client answers with the key-wrap frame, and the connection switches
   to *secured* mode;
3. secured phase — every subsequent socket message is a secure-channel
   record whose plaintext is again a protocol message: ``SUBMIT`` with
   the whole binary → ``VERDICT`` (or ``ERROR``), ``STATUS``/``METRICS``
   probes, and ``BYE`` to part cleanly.  A second ``ATTEST``, a
   response code or an unknown type is answered with an authenticated
   ``ERROR`` and a hang-up.

``ERROR`` bodies are JSON ``{"stage": ..., "error": ...}`` where
``error`` is the typed ``ExcName: detail`` text the rest of the code
base uses — the chaos oracle's typed-error regex matches it unchanged.
"""

from __future__ import annotations

import json
import struct

from ..errors import ProtocolError
from ..sgx.attestation import Quote
from .batch import BatchItemResult

__all__ = [
    "PROTOCOL_VERSION", "MAGIC", "MAX_BODY",
    "T_HELLO", "T_ATTEST", "T_SUBMIT", "T_STATUS", "T_METRICS", "T_BYE",
    "T_HELLO_OK", "T_ATTEST_OK", "T_VERDICT", "T_STATUS_OK", "T_METRICS_OK",
    "T_BYE_OK", "T_ERROR",
    "MESSAGE_TYPES", "REQUEST_TYPES", "RESPONSE_TYPES",
    "encode_message", "decode_message",
    "encode_error", "decode_error",
    "encode_submit", "decode_submit",
    "encode_verdict", "decode_verdict",
    "quote_to_bytes", "quote_from_bytes",
]

PROTOCOL_VERSION = 1
MAGIC = b"EG"
_HEADER = struct.Struct(">2sBBI")  # magic, version, type, body length
#: a daemon message must also fit in one socket frame
MAX_BODY = 48 * 1024 * 1024

# Requests.
T_HELLO = 0x01
T_ATTEST = 0x02
T_SUBMIT = 0x03
T_STATUS = 0x04
T_METRICS = 0x05
T_BYE = 0x06
# Responses (request | 0x80).
T_HELLO_OK = 0x81
T_ATTEST_OK = 0x82
T_VERDICT = 0x83
T_STATUS_OK = 0x84
T_METRICS_OK = 0x85
T_BYE_OK = 0x86
T_ERROR = 0xFF

REQUEST_TYPES = {
    T_HELLO: "HELLO", T_ATTEST: "ATTEST", T_SUBMIT: "SUBMIT",
    T_STATUS: "STATUS", T_METRICS: "METRICS", T_BYE: "BYE",
}
RESPONSE_TYPES = {
    T_HELLO_OK: "HELLO_OK", T_ATTEST_OK: "ATTEST_OK", T_VERDICT: "VERDICT",
    T_STATUS_OK: "STATUS_OK", T_METRICS_OK: "METRICS_OK", T_BYE_OK: "BYE_OK",
    T_ERROR: "ERROR",
}
MESSAGE_TYPES = {**REQUEST_TYPES, **RESPONSE_TYPES}


def encode_message(mtype: int, body: bytes = b"") -> bytes:
    """One protocol message, ready for ``sock.send`` or ``channel.send``."""
    if mtype not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {mtype:#04x}")
    if len(body) > MAX_BODY:
        raise ProtocolError(
            f"message body of {len(body)} bytes exceeds protocol limit"
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, mtype, len(body)) + body


def decode_message(frame: bytes) -> tuple[int, bytes]:
    """Parse and validate one message; raises typed :class:`ProtocolError`.

    Every check mirrors one fuzz case: short header, bad magic, version
    skew, oversized declared length, and header/body length mismatch
    (both truncation and trailing garbage).
    """
    if len(frame) < _HEADER.size:
        raise ProtocolError(
            f"truncated message: {len(frame)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    magic, version, mtype, body_len = _HEADER.unpack_from(frame)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this daemon speaks {PROTOCOL_VERSION})"
        )
    if mtype not in MESSAGE_TYPES:
        raise ProtocolError(f"unknown message type {mtype:#04x}")
    if body_len > MAX_BODY:
        raise ProtocolError(
            f"declared body of {body_len} bytes exceeds protocol limit"
        )
    body = frame[_HEADER.size:]
    if len(body) != body_len:
        raise ProtocolError(
            f"message length mismatch: header declares {body_len} body "
            f"bytes, frame carries {len(body)}"
        )
    return mtype, bytes(body)


# ------------------------------------------------------------------ errors


def encode_error(stage: str, error: str) -> bytes:
    return encode_message(
        T_ERROR, json.dumps({"stage": stage, "error": error}).encode()
    )


def decode_error(body: bytes) -> tuple[str, str]:
    """(stage, typed error text) from an ``ERROR`` body."""
    try:
        doc = json.loads(body.decode())
        return str(doc["stage"]), str(doc["error"])
    except Exception:  # noqa: BLE001 — a broken error body is itself an error
        return "protocol", f"ProtocolError: unparseable error body {body[:64]!r}"


# ------------------------------------------------------------------ submit

_SUBMIT_HDR = struct.Struct(">H")  # label length

#: ``BatchItemResult.source`` values a verdict can carry on the wire
_SOURCES = ("inspected", "cache", "dedup", "error", "quarantined")


def encode_submit(label: str, raw_elf: bytes) -> bytes:
    encoded = label.encode()
    if len(encoded) > 0xFFFF:
        raise ProtocolError("submit label exceeds 65535 bytes")
    return _SUBMIT_HDR.pack(len(encoded)) + encoded + raw_elf


def decode_submit(body: bytes) -> tuple[str, bytes]:
    if len(body) < _SUBMIT_HDR.size:
        raise ProtocolError("submit body shorter than its label header")
    (label_len,) = _SUBMIT_HDR.unpack_from(body)
    if len(body) < _SUBMIT_HDR.size + label_len:
        raise ProtocolError("submit label truncated")
    label = body[_SUBMIT_HDR.size:_SUBMIT_HDR.size + label_len].decode(
        errors="replace"
    )
    return label, bytes(body[_SUBMIT_HDR.size + label_len:])


def encode_verdict(item: BatchItemResult) -> bytes:
    """``VERDICT`` body: source tag + the exact report wire bytes."""
    assert item.report is not None
    source = item.source if item.source in _SOURCES else "inspected"
    return bytes([_SOURCES.index(source)]) + item.report.serialize()


def decode_verdict(body: bytes) -> tuple[str, bytes]:
    """(source, report wire bytes) from a ``VERDICT`` body."""
    if not body:
        raise ProtocolError("empty verdict body")
    tag = body[0]
    if tag >= len(_SOURCES):
        raise ProtocolError(f"unknown verdict source tag {tag}")
    return _SOURCES[tag], bytes(body[1:])


# ------------------------------------------------------------------- quote

_QUOTE_HDR = struct.Struct(">QHHHH")  # attributes + four section lengths


def quote_to_bytes(quote: Quote) -> bytes:
    """Serialize an attestation quote for the ``ATTEST_OK`` body."""
    parts = (quote.mrenclave, quote.report_data, quote.challenge,
             quote.signature)
    return _QUOTE_HDR.pack(
        quote.attributes, *(len(p) for p in parts)
    ) + b"".join(parts)


def quote_from_bytes(body: bytes) -> Quote:
    if len(body) < _QUOTE_HDR.size:
        raise ProtocolError("attestation quote truncated (short header)")
    attributes, n_mr, n_rd, n_ch, n_sig = _QUOTE_HDR.unpack_from(body)
    expected = _QUOTE_HDR.size + n_mr + n_rd + n_ch + n_sig
    if len(body) != expected:
        raise ProtocolError(
            f"attestation quote length mismatch: header implies {expected} "
            f"bytes, body carries {len(body)}"
        )
    off = _QUOTE_HDR.size
    mrenclave = bytes(body[off:off + n_mr]); off += n_mr
    report_data = bytes(body[off:off + n_rd]); off += n_rd
    challenge = bytes(body[off:off + n_ch]); off += n_ch
    signature = bytes(body[off:off + n_sig])
    return Quote(
        mrenclave=mrenclave, attributes=attributes, report_data=report_data,
        challenge=challenge, signature=signature,
    )
