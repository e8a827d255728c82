"""Layer spans for the traced run, recorded from outside the program.

:class:`Tracer` wraps public functions of ``repro.sgx``, ``repro.crypto``,
``repro.elf``, ``repro.x86``, ``repro.core`` and ``repro.service`` where
they are bound: on the class for methods, and in every loaded ``repro``
module that imported a function by name.  It also wraps the blocking
receive of ``repro.net``'s in-process transport, so that time spent
waiting for the peer is a span of its own (``net.recv``) and not self
time of the channel or handshake that waits.  Each call becomes a span
``(id, name, start, end, parent, op, thread, op_thread)``; *op_thread*
marks the threads that run ops, as opposed to the daemon's handler
threads.
Spans stay in memory until the run ends; self time is a span's duration
minus its children's.

The op id of a span is whatever the calling thread last declared:
threads that run ops declare it around each op, and daemon handler threads
take it from the label of the submission they inspect.  Handler-side
spans recorded before a session's first submission (quote, handshake)
are credited to that next submission.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

#: (span name, module, attribute) -- "Class.method" or a module function
SPANS = (
    ("sgx.build_enclave", "repro.sgx.host", "HostOS.build_enclave"),
    ("sgx.quote", "repro.sgx.attestation", "QuotingEnclave.quote"),
    ("sgx.verify_quote", "repro.sgx.attestation", "verify_quote"),
    ("sgx.protect", "repro.sgx.host", "HostOS.apply_engarde_protections"),
    ("crypto.keygen", "repro.crypto.rsa", "generate_keypair"),
    ("crypto.handshake", "repro.crypto.channel", "client_handshake"),
    ("crypto.handshake", "repro.crypto.channel", "ServerHandshake.complete"),
    ("crypto.channel.send", "repro.crypto.channel", "SecureChannel.send"),
    ("crypto.channel.recv", "repro.crypto.channel", "SecureChannel.recv"),
    ("crypto.channel.recv", "repro.crypto.channel", "SecureChannel.recv_into"),
    ("net.recv", "repro.net.sock", "QueueSocket.recv"),
    ("elf.parse", "repro.core.disasm", "Disassembler.parse_elf"),
    ("x86.decode", "repro.x86.decoder", "StreamDecoder.feed"),
    ("core.expected_mrenclave", "repro.core.provisioning",
     "expected_mrenclave"),
    ("core.streaming.prescan", "repro.core.streaming",
     "StreamingPipeline.advance"),
    ("core.streaming.delta", "repro.core.streaming", "delta_scan"),
    ("core.disasm", "repro.core.disasm", "Disassembler.run"),
    ("core.disasm", "repro.core.disasm", "Disassembler.run_streamed"),
    ("core.policy.library-linking", "repro.core.policies.library_linking",
     "LibraryLinkingPolicy.check"),
    ("core.policy.stack-protection", "repro.core.policies.stack_protection",
     "StackProtectionPolicy.check"),
    ("core.policy.indirect-function-call", "repro.core.policies.ifcc",
     "IfccPolicy.check"),
    ("core.loader", "repro.core.loader", "Loader.load"),
    ("service.client.open", "repro.service.client", "InspectionClient.open"),
    ("service.batch", "repro.service.batch", "BatchInspector.inspect_batch"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _m, _a in SPANS))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._rows: list[tuple] | None = None

    # -------------------------------------------------------- recording

    def set_op(self, op) -> None:
        """Declare the op the calling thread is running; ``None``
        between ops, when its calls are not recorded."""
        self._local.op = op
        self._local.op_thread = True

    def _wrap(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        takes_label = name == "service.batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_thread = getattr(local, "op_thread", False)
            if op_thread and local.op is None:
                return fn(*args, **kwargs)  # between two ops of this thread
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if takes_label and not op_thread:
                local.op = args[1][0][0]  # daemon handler: the submit label
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((
                    sid, name, start, end, parent, getattr(local, "op", None),
                    threading.get_ident(), op_thread,
                ))

        return wrapper

    def install(self) -> None:
        """Wrap every span target where it is bound."""
        for name, module_name, attr in SPANS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._undo.append((owner, meth, original))
                setattr(owner, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "") or ""
                if mod_name.split(".")[0] != "repro":
                    continue
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------- aggregation

    def self_times(self) -> list[tuple]:
        """``(name, self_seconds, on_op_thread)`` for every span."""
        if self._rows is None:
            child: dict[int, float] = {}
            for _sid, _n, start, end, parent, *_rest in self.spans:
                if parent:
                    child[parent] = child.get(parent, 0.0) + (end - start)
            self._rows = [
                (name, end - start - child.get(sid, 0.0), op_thread)
                for sid, name, start, end, _p, _op, _t, op_thread in self.spans
            ]
        return self._rows

    def layer_metrics(self, ops: int) -> dict:
        """Per-op ``<span>.self_ms`` and ``<span>.calls`` for every span."""
        totals = {name: [0.0, 0] for name in SPAN_NAMES}
        for name, self_s, _op_thread in self.self_times():
            totals[name][0] += self_s
            totals[name][1] += 1
        out = {}
        for name in SPAN_NAMES:
            self_s, calls = totals[name]
            out[f"{name}.self_ms"] = (1000.0 * self_s / ops, "ms")
            out[f"{name}.calls"] = (calls / ops, "count")
        return out

    def op_thread_span_seconds(self) -> float:
        """Self time of all spans recorded on the threads that drive ops."""
        return sum(
            self_s for _n, self_s, op_thread in self.self_times() if op_thread
        )

    def span_mean_seconds(self, name: str) -> float:
        durations = [s[3] - s[2] for s in self.spans if s[1] == name]
        return sum(durations) / len(durations) if durations else 0.0

    def dump(self, path) -> None:
        """Write every span as one JSON line, in end-time order; spans a
        thread recorded before it knew its op take that thread's next op."""
        rows = sorted(self.spans, key=lambda s: s[3])
        ops = [s[5] for s in rows]
        later: dict[int, object] = {}
        for i in range(len(rows) - 1, -1, -1):
            thread = rows[i][6]
            if ops[i] is None:
                ops[i] = later.get(thread)
            else:
                later[thread] = ops[i]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span, op in zip(rows, ops):
                sid, name, start, end, parent, _op, thread, op_thread = span
                out.write(json.dumps([
                    sid, name, round(start, 7), round(end, 7), parent,
                    op, thread, op_thread,
                ]) + "\n")
