"""The four workloads: set-up, closed-loop ops, verdict checks, counters.

Each workload object is built from the seed before set-up starts (all
of its inputs and their order are fixed then), and exposes

* ``setup()`` / ``teardown(system)`` -- bring the system to ready / stop
  it and release everything it holds; ``SETUP_RUNS`` set-ups per run
  (more for cheap ones) give ``setup_s`` as their median,
* ``window(system, seconds, tracer)`` -- run ops in a closed loop for
  *seconds* and return an :class:`Ops` record; ``rewind()`` makes the
  next window start where the first one did (after the warm-up),
* ``counters(system, ops, tracer)`` -- the workload's entries of
  :data:`COUNTERS` for a traced window.

The system's own randomness (provider, daemon and pool DRBGs, hence
every RSA keypair) is seeded with constants, so the cost of keygen is
the same for every workload seed; the seed chooses inputs and order.
A provision op's channel keypair comes from a DRBG keyed by what the op
provisions, so its keygen cost does not depend on where the seed puts
it in the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import dataclass, field

from inputs import (
    FLAVORS, PAPER_PROGRAMS, POLICY_NAMES, Base, Input, rng_for,
    update_edits, variant_inputs, verdict_of,
)

#: per-layer counts a workload may report (name -> unit); the traced run
#: reports every one, 0 where the workload does not exercise it
COUNTERS = {
    "sgx.host.runtimes_retained": "count",
    "meter.disassembly_ticks": "count",
    "meter.policy_ticks": "count",
    "meter.loading_ticks": "count",
    "x86.insns_decoded": "count",
    "core.streaming.scan_adopted_ratio": "ratio",
    "service.cache.hit_ratio": "ratio",
    "service.pool.misses": "count",
    "service.client.retries": "count",
    "service.daemon.inspect_wait_ms": "ms",
    "service.batch.futures_per_batch": "count",
    "service.batch.queue_wait_ms": "ms",
    "service.batch.worker_busy_share": "ratio",
}


@dataclass
class Ops:
    """What one timed window did."""

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    elapsed: float = 0.0
    problems: list = field(default_factory=list)
    #: workload-specific tallies for the traced run
    tally: dict = field(default_factory=dict)

    def record(self, latency: float, problems: list, verdicts: int = 1) -> None:
        self.attempted += 1
        self.verdicts += verdicts
        self.latencies.append(latency)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems[:3])

    @classmethod
    def merge(cls, parts: list) -> "Ops":
        """One record for several windows run back to back."""
        total = cls()
        for part in parts:
            total.latencies += part.latencies
            total.attempted += part.attempted
            total.failed += part.failed
            total.verdicts += part.verdicts
            total.elapsed += part.elapsed
            total.problems += part.problems
            for key, value in part.tally.items():
                total.tally[key] = total.tally.get(key, 0) + value
        return total

    def fail(self, problem: str, count: int = 1) -> None:
        """Count *count* failures that no single op recorded."""
        self.failed += count
        self.problems.append(problem)

    def add(self, key: str, value) -> None:
        self.tally[key] = self.tally.get(key, 0) + value


def report_problems(report, expected: tuple) -> list:
    """Differences between a verdict and its known answer."""
    if report is None:
        return ["no verdict"]
    problems = []
    if verdict_of(report) != expected:
        problems.append(f"verdict {verdict_of(report)} != expected {expected}")
    if tuple(report.policies_checked) != POLICY_NAMES:
        problems.append(f"checked {report.policies_checked}")
    return problems


# ------------------------------------------------------------ provisioning


class TickPins:
    """Figure counters per input, pinned across runs of one source tree.

    ``meter.*_ticks`` and decoded instructions are the paper's Figures
    3-5: every op on the same bytes must report the same values, within
    a run and across runs (timed and traced alike).
    """

    def __init__(self, path) -> None:
        self.path = path
        self.pins = json.loads(path.read_text()) if path.is_file() else {}
        self.new: dict[str, list] = {}

    def check(self, elf: bytes, ticks: list) -> list:
        key = hashlib.sha256(elf).hexdigest()[:24]
        pinned = self.pins.get(key)
        if pinned is None:
            self.pins[key] = self.new[key] = ticks
            return []
        if pinned != ticks:
            return [f"figure counters {ticks} != pinned {pinned}"]
        return []

    def save(self) -> None:
        if not self.new:
            return
        merged = {}
        if self.path.is_file():
            merged = json.loads(self.path.read_text())
        merged.update(self.new)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}")
        tmp.write_text(json.dumps(merged))
        os.replace(tmp, self.path)


def _figure_counts(meter) -> list:
    disasm = meter.phases.get("disassembly")
    return [
        meter.phase_cycles("disassembly"),
        meter.phase_cycles("policy"),
        meter.phase_cycles("loading"),
        disasm.events.get("decode_insn", 0) if disasm else 0,
    ]


class _Provisioning:
    """Shared provider geometry and the provision op."""

    def __init__(self, base: Base) -> None:
        self.base = base
        self.pins = TickPins(base.cache / "ticks.json")
        self.n = 0
        # Region geometry fits the largest input, sized the way
        # harness.runner.run_cell sizes one binary's.
        meta = base.meta.values()
        image = max(m["image_bytes"] for m in meta)
        insns = max(m["insn_count"] for m in meta)
        self.client_pages = max((image + 0x4000 + 4095) // 4096 + 16, 64)
        self.heap_pages = max(insns * 64 // 4096 + 8 + 64, 128)

    def new_provider(self):
        from repro.core import CloudProvider
        from repro.crypto import HmacDrbg
        from repro.sgx import SgxParams

        return CloudProvider(
            self.base.policies,
            params=SgxParams(
                epc_pages=self.client_pages + self.heap_pages + 512,
                heap_initial_pages=self.heap_pages,
            ),
            rng=HmacDrbg(b"perfbench-provider"),
            rsa_bits=1024,
            client_pages=self.client_pages,
            streaming=True,
        )

    def provision(self, provider, inp: Input, label: str, key: str,
                  ops=None, tracer=None):
        """One ``provision()`` call; checks and records it when *ops*.

        *key* names what the op provisions (input and round, or tenant
        and version) and seeds the provider's DRBG for this op.
        """
        from repro.core import EnclaveClient, provision
        from repro.crypto import HmacDrbg

        provider.rng = HmacDrbg(b"perfbench-provider/" + key.encode())
        meter = provider.machine.meter
        before = _figure_counts(meter)
        runtimes = len(provider.host.runtimes)
        client = EnclaveClient(
            inp.elf, policies=self.base.policies, benchmark=label,
            streaming=True,
        )
        if tracer is not None:
            tracer.set_op(label)
        t0 = time.perf_counter()
        result = provision(provider, client)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.set_op(None)
        if result.accepted:
            # A long-lived provider keeps accepted enclaves resident;
            # tear each down after its verdict so the EPC stays flat.
            provider.machine.eexit(result.runtime.enclave)
            provider.machine.destroy(result.runtime.enclave)
        if ops is None:
            return result
        ticks = [a - b for a, b in zip(_figure_counts(meter), before)]
        problems = report_problems(result.report, inp.expected)
        if result.error is not None:
            problems.append(result.error)
        echoed = result.client_verdict
        if echoed is None or echoed.serialize() != result.report.serialize():
            problems.append("client verdict bytes differ from the report")
        problems += self.pins.check(inp.elf, ticks)
        ops.record(latency, problems)
        # The host keeps an op's enclave runtime after the enclave is
        # destroyed; what it still holds shows in peak RSS, so count it.
        ops.add("runtimes_retained", len(provider.host.runtimes) - runtimes)
        disasm = result.outcome.disassembly
        ops.add("disassembled", int(disasm is not None))
        ops.add("scan_adopted",
                int(disasm is not None and disasm.scan is not None))
        for key, value in zip(
            ("meter.disassembly_ticks", "meter.policy_ticks",
             "meter.loading_ticks", "x86.insns_decoded"), ticks,
        ):
            ops.add(key, value)
        return result

    def teardown(self, provider) -> None:
        self.pins.save()

    def rewind(self) -> None:
        """Start the next window at the first op again."""
        self.n = 0

    def counters(self, provider, ops: Ops, tracer) -> dict:
        out = {
            key: ops.tally[key] / ops.attempted
            for key in ("meter.disassembly_ticks", "meter.policy_ticks",
                        "meter.loading_ticks", "x86.insns_decoded")
        }
        out["sgx.host.runtimes_retained"] = (
            ops.tally["runtimes_retained"] / ops.attempted)
        out["core.streaming.scan_adopted_ratio"] = (
            ops.tally["scan_adopted"] / max(ops.tally["disassembled"], 1))
        return out


class ProvisionCold(_Provisioning):
    """One tenant at a time runs the full protocol on a fresh label.

    Inputs: the seven paper programs at ``SCALE``, instrumented
    (accepted) and uninstrumented (rejected).  The seed chooses one
    program order for the run; each round provisions the instrumented
    builds in that order, then the plain ones.  Every program thus
    recurs every seven ops, so the provider's delta index, which keeps
    the last eight labels' instructions, holds at most two builds of any
    program whatever the seed, and peak RSS does not depend on where a
    shuffle happens to bunch the large programs.
    """

    SETUP_RUNS = 5

    def __init__(self, base: Base, seed: int) -> None:
        super().__init__(base)
        programs = list(PAPER_PROGRAMS)
        rng_for("provision-cold", seed).shuffle(programs)
        self.order: list[Input] = [
            base.paper[f"{program}-{flavor}"]
            for flavor in FLAVORS for program in programs
        ]
        # fixed, seed-independent warm-up so set-up cost is comparable
        self.warmup = base.paper["mcf-compliant"]

    def setup(self):
        provider = self.new_provider()
        self.provision(provider, self.warmup, "warmup", "warmup")
        return provider

    def window(self, provider, seconds: float, tracer) -> Ops:
        ops = Ops()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while time.perf_counter() < deadline:
            rnd, idx = divmod(self.n, len(self.order))
            inp = self.order[idx]
            self.n += 1
            self.provision(provider, inp, f"cold-{self.n}",
                           f"{inp.name}/{rnd}", ops, tracer)
        ops.elapsed = time.perf_counter() - t0
        return ops


class ProvisionUpdate(_Provisioning):
    """Each op provisions the next version of one tenant's compliant
    binary; version k adds one more one-function edit (a flipped mov
    immediate), so the delta index re-inspects only that function."""

    #: the paper programs with at least eight editable functions, minus
    #: nginx, whose larger ops would make the latency tail bimodal
    TENANTS = ("graph500", "memcached", "netperf")
    SETUP_RUNS = 3

    def __init__(self, base: Base, seed: int) -> None:
        super().__init__(base)
        rng = rng_for("provision-update", seed)
        self.edits = {p: update_edits(base, p, rng) for p in self.TENANTS}
        self.schedule: list[str] = []
        tenants = list(self.TENANTS)
        for _ in range(2000):
            rng.shuffle(tenants)
            self.schedule.extend(tenants)
        self.current: dict[str, bytearray] = {}
        self.version: dict[str, int] = {}

    def setup(self):
        provider = self.new_provider()
        for program in self.TENANTS:
            inp = self.base.paper[f"{program}-compliant"]
            self.current[program] = bytearray(inp.elf)
            self.version[program] = 0
            self.provision(provider, inp, f"tenant-{program}",
                           f"{program}-v0")
        return provider

    def window(self, provider, seconds: float, tracer) -> Ops:
        ops = Ops()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while time.perf_counter() < deadline:
            program = self.schedule[self.n % len(self.schedule)]
            self.n += 1
            edits = self.edits[program]
            buf = self.current[program]
            buf[edits[self.version[program] % len(edits)]] ^= 0x5A
            self.version[program] += 1
            inp = Input(
                f"{program}-v{self.version[program]}", bytes(buf),
                self.base.paper[f"{program}-compliant"].expected,
            )
            self.provision(provider, inp, f"tenant-{program}", inp.name,
                           ops, tracer)
        ops.elapsed = time.perf_counter() - t0
        return ops


# ----------------------------------------------------------------- daemon


class DaemonMix:
    """One client runs attested sessions against a serial daemon.

    The client walks a seeded variant corpus in corpus order, round
    after round, one session (open, submits, close) per rotation of the
    repo's ``VARIANT_KINDS``.  Every submission carries a stamp past the
    end of its ELF image naming the round, so a round is new content to
    the cache while each verdict stays the variant's.  The corpus's
    ``duplicate`` entries, one in nine, are then byte-identical re-sends
    of an earlier submission of the same round and must be served from
    the cache.

    One client, not two: the serial inspector gives a second connection
    no throughput, only a wait behind the first, and that wait depends
    on how the scheduler happens to interleave the two clients.  With
    two clients the median fell on the edge between waited and unwaited
    submits and its quartiles spread by about a quarter of it from one
    run to the next.
    """

    SETUP_RUNS = 7
    #: rotations of VARIANT_KINDS per corpus round
    ROTATIONS = 20

    def __init__(self, base: Base, seed: int) -> None:
        from repro.service import VARIANT_KINDS

        self.base = base
        self.submits = len(VARIANT_KINDS)
        self.corpus = variant_inputs(
            base, self.ROTATIONS * self.submits, seed, "daemon-mix")
        self.cursor = 0
        self.sessions = 0

    def setup(self):
        from repro.crypto import HmacDrbg
        from repro.service import InspectionDaemon

        daemon = InspectionDaemon(
            self.base.policies, rng=HmacDrbg(b"perfbench-daemon"))
        daemon.start()
        return daemon

    def teardown(self, daemon) -> None:
        daemon.stop()
        daemon.inspector.close()

    def rewind(self) -> None:
        """Start the next window at the first session again."""
        self.cursor = 0
        self.sessions = 0

    def _session(self, daemon, deadline: float, ops: Ops, tracer) -> None:
        from repro.crypto import HmacDrbg
        from repro.service import InspectionClient

        self.sessions += 1
        client = InspectionClient(
            self.base.policies,
            daemon.pool.quoting_enclave.device_public_key,
            daemon.connect_inproc,
            rng=HmacDrbg(b"perfbench-client-%d" % self.sessions),
        )
        for _ in range(self.submits):
            if time.perf_counter() >= deadline:
                break
            j = self.cursor
            self.cursor += 1
            rnd, idx = divmod(j, len(self.corpus))
            variant = self.corpus[idx]
            again = variant.name.endswith("-duplicate")
            stamp = struct.pack(">8sI", b"perfbnch", rnd)
            label = f"d-{j}"
            if tracer is not None:
                tracer.set_op(label)
            t0 = time.perf_counter()
            verdict = client.inspect(variant.elf + stamp, label=label)
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.set_op(None)
            problems = report_problems(verdict.report, variant.expected)
            if verdict.error is not None:
                problems.append(verdict.error)
            if verdict.attempts != 1:
                problems.append(
                    f"client retried ({verdict.attempts} attempts)")
            source = "cache" if again else "inspected"
            if verdict.source != source:
                problems.append(f"served from {verdict.source}, not {source}")
            ops.record(latency, problems)
            ops.add("retries", verdict.attempts - 1)
            ops.add("resubmits", int(again))
        client.close()

    def window(self, daemon, seconds: float, tracer) -> Ops:
        ops = Ops()
        pool_before = daemon.pool.stats()["misses"]
        cache_before = daemon.cache.stats()
        inspect_before = daemon.metrics_snapshot()["latency"].get("inspect", {})
        t0 = time.perf_counter()
        deadline = t0 + seconds
        try:
            while time.perf_counter() < deadline:
                self._session(daemon, deadline, ops, tracer)
        except Exception as exc:  # noqa: BLE001 -- report, keep the run
            ops.fail(f"client: {type(exc).__name__}: {exc}")
        ops.elapsed = time.perf_counter() - t0
        misses = daemon.pool.stats()["misses"] - pool_before
        if misses:
            ops.fail(f"{misses} enclave-pool misses after warm-up", misses)
        cache = daemon.cache.stats()
        inspect = daemon.metrics_snapshot()["latency"]["inspect"]
        ops.tally.update({
            "pool_misses": misses,
            "cache_hits": cache.hits - cache_before.hits,
            "cache_lookups": (cache.hits + cache.misses
                              - cache_before.hits - cache_before.misses),
            "inspect_s": (inspect["sum_seconds"]
                          - inspect_before.get("sum_seconds", 0.0)),
            "inspects": inspect["count"] - inspect_before.get("count", 0),
        })
        return ops

    def counters(self, daemon, ops: Ops, tracer) -> dict:
        t = ops.tally
        inspect_mean = t["inspect_s"] / max(t["inspects"], 1)
        return {
            "service.cache.hit_ratio": (
                t["cache_hits"] / max(t["cache_lookups"], 1)),
            "service.pool.misses": t["pool_misses"],
            "service.client.retries": t["retries"],
            "service.daemon.inspect_wait_ms": 1000.0 * (
                inspect_mean - tracer.span_mean_seconds("service.batch")),
        }


# ------------------------------------------------------------------ batch


def _peak_rss_kb(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``), in KiB; 0 once
    it has exited."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


class BatchPool:
    """Each op is one cold ``inspect_batch`` over a fixed mixed fleet.

    The inspector is default-constructed (process pool of nproc workers,
    per-item scheduler, shared-memory arena) except that its verdict
    cache is off, so every batch inspects every binary.
    """

    SETUP_RUNS = 7
    PAPER = ("mcf-compliant", "otp-gen-plain")
    VARIANTS = 12

    def __init__(self, base: Base, seed: int) -> None:
        self.base = base
        # The two paper builds lead, one per worker; only the small
        # variants are in seeded order, so the batch makespan does not
        # depend on where the seed puts the large items.
        variants = variant_inputs(base, self.VARIANTS, seed, "batch-pool")
        rng_for("batch-pool", seed).shuffle(variants)
        fleet = [base.paper[name] for name in self.PAPER] + variants
        self.fleet = fleet
        self.items = [(inp.name, inp.elf) for inp in fleet]
        self.segments: set[str] = set()
        #: the largest peak RSS of any pool worker this run, in KiB
        self.worker_peak_kb = 0

    def setup(self):
        from repro.service import BatchInspector

        inspector = BatchInspector(self.base.policies, cache=False)
        inspector.inspect_batch(self.items)
        return inspector

    def teardown(self, inspector) -> None:
        # remember the arena's segment names to check they are unlinked
        arena = getattr(inspector, "_arena", None)
        self.segments.update(getattr(arena, "_segments", ()))
        executor = getattr(inspector, "_executor", None)
        for pid in getattr(executor, "_processes", None) or ():
            self.worker_peak_kb = max(self.worker_peak_kb, _peak_rss_kb(pid))
        inspector.close()

    def rewind(self) -> None:
        """Every batch is the same fleet; nothing to rewind."""

    def window(self, inspector, seconds: float, tracer) -> Ops:
        ops = Ops()
        t0 = time.perf_counter()
        deadline = t0 + seconds
        n = 0
        while time.perf_counter() < deadline:
            n += 1
            if tracer is not None:
                tracer.set_op(f"batch-{n}")
            start = time.perf_counter()
            report = inspector.inspect_batch(self.items)
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.set_op(None)
            problems = []
            for inp, item in zip(self.fleet, report.results):
                if item.error is not None:
                    problems.append(f"{inp.name}: {item.error}")
                problems += report_problems(item.report, inp.expected)
            if inspector.degraded:
                problems.append("batch degraded to serial")
            ops.record(latency, problems, verdicts=len(report.results))
            dispatch = report.summary.dispatch
            ops.add("futures", dispatch.get("futures_submitted", 0))
            ops.add("queue_wait_s", dispatch.get("queue_wait_seconds", 0.0))
        ops.elapsed = time.perf_counter() - t0
        return ops

    def counters(self, inspector, ops: Ops, tracer) -> dict:
        return {
            "service.batch.futures_per_batch": (
                ops.tally["futures"] / ops.attempted),
            "service.batch.queue_wait_ms": (
                1000.0 * ops.tally["queue_wait_s"] / ops.attempted),
        }

    def leaked_segments(self) -> list:
        """Arena segments still present after ``close()``."""
        from multiprocessing import shared_memory

        leaked = []
        for name in sorted(self.segments):
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            segment.close()
            leaked.append(name)
        return leaked


WORKLOADS = {
    "provision-cold": ProvisionCold,
    "provision-update": ProvisionUpdate,
    "daemon-mix": DaemonMix,
    "batch-pool": BatchPool,
}
