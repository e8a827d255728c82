"""Latency-SLO soak: the process-pool executor and daemon under offered load.

Two instruments, one artifact (``BENCH_slo.json``):

* **executor cross-mode bench** — both executor modes (``serial`` and
  the ``process`` pool) inspect the same profile corpora.  The
  differential check pins the verdict wire byte-identical across the
  two modes,
* **daemon soak** — a warm :class:`~repro.service.InspectionDaemon`
  (process-mode inspector) driven by persistent attested
  :class:`~repro.service.InspectionClient` sessions at an increasing
  open-loop offered rate.  Arrivals are *scheduled*: latency is
  ``finish - scheduled_arrival``, so queueing delay at saturation is
  measured, not hidden.  Per-stage p50/p95/p99 come from
  :meth:`~repro.service.DaemonMetrics.latency_summary` (reset at every
  load-step boundary); the **saturation knee** is the first offered
  rate whose achieved throughput falls below 85% of offered.  The top
  profile is then re-run with a seeded
  :class:`~repro.faults.FaultPlan` active and resilient clients, and
  p99 is reported with and without the plan — faults may cost retries
  and latency, never a corrupt verdict.

Arrival profiles over the deterministic variant corpus:

``compliant-heavy``   mostly policy-compliant small binaries (steady
                      state of a well-behaved tenant fleet),
``adversarial-mix``   the full variant rotation — compliant, policy-
                      rejected, truncated, garbage, duplicates,
``many-tiny``         a large fleet of small binaries (per-item
                      overhead dominates),
``few-huge``          a handful of multi-MB data-heavy binaries
                      (per-byte transport dominates).

Runs both under pytest (``PYTHONPATH=src python -m pytest benchmarks/
bench_slo.py``) and as a script (``python benchmarks/bench_slo.py
[--quick] [--profile NAME] [--output PATH]``).  Quick mode (CI):
``--quick`` or ``REPRO_BENCH_QUICK=1`` shrinks corpora and the load
ladder; the cross-mode differential is enforced at every scale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core import (
    IfccPolicy,
    LibraryLinkingPolicy,
    PolicyRegistry,
    StackProtectionPolicy,
)
from repro.core.provisioning import ResilienceConfig
from repro.crypto import HmacDrbg
from repro.errors import ReproError
from repro.faults import FaultPlan, injected
from repro.service import (
    BatchInspector,
    ClientVerdict,
    InspectionClient,
    InspectionDaemon,
    generate_variant_corpus,
)
from repro.toolchain import Compiler, CompilerFlags, build_libc, link
from repro.toolchain.ir import DataObject, FunctionSpec, ProgramSpec

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
DEFAULT_OUTPUT = "BENCH_slo.json"

#: achieved/offered ratio below which a load step counts as saturated
KNEE_RATIO = 0.85

PROFILE_NAMES = (
    "compliant-heavy", "adversarial-mix", "many-tiny", "few-huge",
)

#: executor modes, in differential-oracle order (serial is the oracle)
EXECUTOR_MODES = (
    ("serial", dict(mode="serial")),
    ("process", dict(mode="process")),
)


# ------------------------------------------------------------------ corpora


def _build_policies(libc) -> PolicyRegistry:
    return PolicyRegistry([
        LibraryLinkingPolicy(libc.reference_hashes()),
        StackProtectionPolicy(exempt_functions=set(libc.offsets)),
        IfccPolicy(),
    ])


def build_huge_binary(libc, index: int, data_bytes: int) -> bytes:
    """A data-heavy binary: tiny text, multi-MB initialised ``.data``.

    Inspection cost is driven by instruction count, so these are cheap
    to verify — but every byte still has to reach a pool worker.
    """
    rng = HmacDrbg(b"slo-huge-%d" % index)
    spec = ProgramSpec(
        name=f"huge{index}",
        functions=[
            FunctionSpec(
                name="main", n_blocks=2, ops_per_block=(4, 8),
                frame_slots=3, direct_calls=["memcpy", "helper"],
            ),
            FunctionSpec(
                name="helper", n_blocks=1, ops_per_block=(4, 8),
                frame_slots=2, direct_calls=["memset"],
                address_taken=True,
            ),
        ],
        libc_imports=["memcpy", "memset"],
        data_objects=[DataObject(
            name=f"huge{index}_data", size=data_bytes,
            init=rng.generate(256),
        )],
        seed=b"slo-huge",
    )
    flags = CompilerFlags(stack_protector=True, ifcc=True)
    return link(Compiler(flags).compile(spec), libc).elf


def build_profiles(libc, *, quick: bool) -> dict[str, list[tuple[str, bytes]]]:
    """One labelled corpus per arrival profile (deterministic)."""
    n_variants = 18 if quick else 45
    n_tiny = 18 if quick else 72
    n_huge = 3 if quick else 4
    huge_bytes = (1 if quick else 16) * 1024 * 1024

    variants = generate_variant_corpus(n_variants, libc=libc)
    compliant = [
        (label, raw) for label, raw in variants if label.endswith("-compliant")
    ]
    others = [
        (label, raw) for label, raw in variants
        if not label.endswith("-compliant")
    ]
    return {
        # mostly-accepting steady state: every compliant variant plus a
        # thin sliver of rejects so the reject path stays warm
        "compliant-heavy": compliant + others[:: max(len(others) // 2, 1)],
        "adversarial-mix": variants,
        "many-tiny": generate_variant_corpus(
            n_tiny, libc=libc, seed=b"slo-tiny"
        ),
        "few-huge": [
            (f"huge{i:02d}", build_huge_binary(libc, i, huge_bytes))
            for i in range(n_huge)
        ],
    }


# ------------------------------------------------- executor cross-mode bench


def _item_fingerprint(item) -> tuple:
    """The comparable identity of one verdict: wire bytes or typed error."""
    if item.report is not None:
        return ("report", hashlib.sha256(item.report.serialize()).hexdigest())
    return ("error", item.error or "")


def bench_executor_modes(
    policies: PolicyRegistry,
    profiles: dict[str, list[tuple[str, bytes]]],
    *,
    repeats: int,
) -> dict:
    """Throughput + cross-mode differential over every profile corpus.

    The cache is disabled so every pass pays full inspection cost and
    the mode comparison measures the executor, not memoization.  Items
    are submitted one ``inspect_batch([(label, raw)])`` at a time —
    the daemon's serving regime, where each request's payload crosses
    the executor boundary on the critical path.
    """
    out: dict = {"modes": [m for m, _ in EXECUTOR_MODES], "profiles": {}}
    divergences: list[str] = []
    for profile, corpus in profiles.items():
        per_mode: dict[str, dict] = {}
        oracle: dict[str, tuple] | None = None
        for mode_name, kwargs in EXECUTOR_MODES:
            with BatchInspector(policies, cache=False, **kwargs) as insp:
                # absorb pool spin-up outside the clock: one task per
                # worker, so no fork/init cost lands in the timed region
                insp.inspect_batch([
                    (f"warm{i}", corpus[0][1]) for i in range(insp.workers)
                ])
                t0 = time.perf_counter()
                for _ in range(repeats):
                    results = [
                        insp.inspect_batch([item]).results[0]
                        for item in corpus
                    ]
                elapsed = time.perf_counter() - t0
            prints = {
                item.label: _item_fingerprint(item) for item in results
            }
            if oracle is None:
                oracle = prints
            else:
                for label, fp in prints.items():
                    if oracle.get(label) != fp:
                        divergences.append(
                            f"{profile}/{label}: {mode_name} produced {fp}, "
                            f"serial produced {oracle.get(label)}"
                        )
            total_items = len(corpus) * repeats
            per_mode[mode_name] = {
                "seconds": round(elapsed, 4),
                "items": total_items,
                "items_per_second": round(total_items / elapsed, 2),
                "megabytes": round(
                    sum(len(raw) for _, raw in corpus) * repeats / 1e6, 2
                ),
            }
        speedup = (
            per_mode["process"]["items_per_second"]
            / per_mode["serial"]["items_per_second"]
        )
        out["profiles"][profile] = {
            "corpus_items": len(corpus),
            "corpus_bytes": sum(len(raw) for _, raw in corpus),
            "by_mode": per_mode,
            "process_vs_serial_speedup": round(speedup, 2),
        }
    out["divergences"] = len(divergences)
    out["failures"] = divergences[:20]
    return out


# ----------------------------------------------------------- daemon soak


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0, "p50_seconds": 0.0, "p95_seconds": 0.0,
                "p99_seconds": 0.0, "max_seconds": 0.0}
    ordered = sorted(samples)

    def q(p: float) -> float:
        idx = min(len(ordered) - 1, max(0, round(p * len(ordered)) - 1))
        return round(ordered[idx], 6)

    return {
        "count": len(ordered),
        "mean_seconds": round(statistics.fmean(ordered), 6),
        "p50_seconds": q(0.50),
        "p95_seconds": q(0.95),
        "p99_seconds": q(0.99),
        "max_seconds": round(ordered[-1], 6),
    }


def _make_daemon(policies: PolicyRegistry, *, clients: int) -> InspectionDaemon:
    # Cache disabled on the inspector: every submission pays full
    # inspection cost, so the ladder measures the executor, not the
    # memoizer (profiles contain deliberate duplicates).
    inspector = BatchInspector(policies, mode="process", cache=False)
    daemon = InspectionDaemon(
        policies,
        inspector=inspector,
        pool_size=2,
        rsa_bits=768,
        heap_pages=64,
        client_pages=64,
        enclave_pages=0x2000,
        max_connections=clients + 4,
    )
    daemon.start()
    return daemon


def _run_load_step(
    daemon: InspectionDaemon,
    policies: PolicyRegistry,
    corpus: list[tuple[str, bytes]],
    *,
    offered_rate: float,
    n_items: int,
    clients: int,
    resilience: ResilienceConfig | None = None,
) -> dict:
    """One open-loop step: *n_items* arrivals at *offered_rate*/s total.

    Work is sharded round-robin over *clients* persistent attested
    sessions; each worker sleeps until an item's scheduled arrival, so
    when the daemon saturates, lateness accumulates into the measured
    latency instead of silently stretching the arrival process.
    """
    daemon.metrics.reset()
    items = [corpus[i % len(corpus)] for i in range(n_items)]
    shards: list[list[tuple[int, str, bytes]]] = [[] for _ in range(clients)]
    for i, (label, raw) in enumerate(items):
        shards[i % clients].append((i, label, raw))

    latencies: list[float] = []
    outcomes = {"accepted": 0, "rejected": 0, "errors": 0}
    finished: list[float] = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.05  # let every worker reach its loop

    def worker(shard: list[tuple[int, str, bytes]]) -> None:
        client = InspectionClient(
            policies,
            daemon.pool.quoting_enclave.device_public_key,
            daemon.connect_inproc,
            timeout=30.0,
            resilience=resilience,
        )
        try:
            for i, label, raw in shard:
                scheduled = start + i / offered_rate
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                # Fail closed per item: a fault that kills the session
                # (e.g. mid-attest) costs this item, not the shard —
                # the next item reconnects through open()'s no-op-when-
                # connected fast path.
                try:
                    client.open()
                    verdict = client.inspect(raw, label=label)
                except ReproError as exc:
                    client.close()
                    verdict = ClientVerdict(
                        label=label,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                done = time.perf_counter()
                with lock:
                    latencies.append(done - scheduled)
                    finished.append(done)
                    if verdict.error is not None:
                        outcomes["errors"] += 1
                    elif verdict.accepted:
                        outcomes["accepted"] += 1
                    else:
                        outcomes["rejected"] += 1
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(shard,), daemon=True)
        for shard in shards if shard
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    wall = (max(finished) - start) if finished else 0.0
    achieved = len(finished) / wall if wall > 0 else 0.0
    return {
        "offered_per_second": round(offered_rate, 2),
        "items": n_items,
        "clients": len(threads),
        "achieved_per_second": round(achieved, 2),
        "saturated": achieved < KNEE_RATIO * offered_rate,
        "outcomes": outcomes,
        "latency": _percentiles(latencies),
        "stages": daemon.metrics.latency_summary(),
    }


def bench_daemon_soak(
    policies: PolicyRegistry,
    profiles: dict[str, list[tuple[str, bytes]]],
    *,
    quick: bool,
    only_profile: str | None = None,
) -> dict:
    clients = 4 if quick else 8
    ladder = (1.0, 4.0) if quick else (0.5, 1.0, 2.0, 4.0, 8.0)
    out: dict = {"clients": clients, "profiles": {}}

    for profile, corpus in profiles.items():
        if only_profile is not None and profile != only_profile:
            continue
        daemon = _make_daemon(policies, clients=clients)
        try:
            # calibrate: one warm client, closed loop, a handful of items
            probe = InspectionClient(
                policies,
                daemon.pool.quoting_enclave.device_public_key,
                daemon.connect_inproc,
                timeout=30.0,
            )
            probe.open()
            sample = corpus[: min(len(corpus), 4 if quick else 8)]
            t0 = time.perf_counter()
            for label, raw in sample:
                probe.inspect(raw, label=f"calibrate/{label}")
            base_rate = len(sample) / (time.perf_counter() - t0)
            probe.close()

            steps = []
            knee = None
            for mult in ladder:
                rate = max(base_rate * mult, 0.5)
                n_items = int(min(
                    max(rate * (2.0 if quick else 5.0), 8),
                    24 if quick else 160,
                ))
                step = _run_load_step(
                    daemon, policies, corpus,
                    offered_rate=rate, n_items=n_items, clients=clients,
                )
                step["ladder_multiplier"] = mult
                steps.append(step)
                if knee is None and step["saturated"]:
                    knee = step["offered_per_second"]
            out["profiles"][profile] = {
                "base_rate_per_second": round(base_rate, 2),
                "steps": steps,
                "knee_offered_per_second": knee,
            }
        finally:
            daemon.stop()
            daemon.inspector.close()
    return out


def bench_fault_rerun(
    policies: PolicyRegistry,
    profiles: dict[str, list[tuple[str, bytes]]],
    soak: dict,
    *,
    quick: bool,
) -> dict:
    """Re-run the busiest pre-knee step of the top profile with a seeded
    fault plan active and resilient clients: p99 with faults vs without.

    Hooks are the parent-side ones a daemon actually exercises — socket,
    secure channel, and the verdict boundary (plans installed here do
    not reach pre-forked pool workers, so ``service.batch.worker`` would
    be a no-op by design).
    """
    # the top profile = highest clean achieved throughput
    candidates = {
        name: max(
            (s["achieved_per_second"] for s in prof["steps"]), default=0.0
        )
        for name, prof in soak["profiles"].items()
    }
    if not candidates:
        return {"skipped": "no soak profiles ran"}
    top = max(candidates, key=candidates.get)
    prof = soak["profiles"][top]
    clean_steps = [s for s in prof["steps"] if not s["saturated"]]
    baseline = (clean_steps or prof["steps"])[-1]

    clients = soak["clients"]
    daemon = _make_daemon(policies, clients=clients)
    plan = FaultPlan.randomized(
        20260808,
        hooks=(
            "net.sock.send", "net.sock.recv",
            "crypto.channel.send", "crypto.channel.recv",
            "service.batch.verdict",
        ),
        kinds=("raise", "truncate", "bitflip", "delay", "drop"),
        n_specs=3 if quick else 6,
        probability=0.05,
        hang_seconds=1.0,
    )
    resilience = ResilienceConfig(max_retransmits=3, backoff_base=0.0)
    try:
        with injected(plan):
            faulted = _run_load_step(
                daemon, policies, profiles[top],
                offered_rate=baseline["offered_per_second"],
                n_items=baseline["items"],
                clients=clients,
                resilience=resilience,
            )
    finally:
        daemon.stop()
        daemon.inspector.close()
    return {
        "profile": top,
        "plan": {
            "seed": plan.seed,
            "specs": len(plan.specs),
            "events_fired": len(plan.events),
            "hooks": sorted(plan.hooks_used()),
        },
        "clean": {
            "offered_per_second": baseline["offered_per_second"],
            "p99_seconds": baseline["latency"]["p99_seconds"],
            "outcomes": baseline["outcomes"],
        },
        "faulted": {
            "offered_per_second": faulted["offered_per_second"],
            "p99_seconds": faulted["latency"]["p99_seconds"],
            "outcomes": faulted["outcomes"],
            "latency": faulted["latency"],
            "stages": faulted["stages"],
        },
    }


# ------------------------------------------------------------------ driver


def run_benchmark(*, quick: bool, only_profile: str | None = None) -> dict:
    libc = build_libc()
    policies = _build_policies(libc)
    profiles = build_profiles(libc, quick=quick)
    if only_profile is not None and only_profile not in profiles:
        raise SystemExit(
            f"unknown profile {only_profile!r}; choose from {PROFILE_NAMES}"
        )

    executor = bench_executor_modes(
        policies,
        profiles if only_profile is None
        else {only_profile: profiles[only_profile]},
        repeats=1 if quick else 3,
    )
    soak = bench_daemon_soak(
        policies, profiles, quick=quick, only_profile=only_profile,
    )
    faults = bench_fault_rerun(policies, profiles, soak, quick=quick)

    result: dict = {
        "schema": "bench_slo/1",
        "quick": quick,
        "profile_filter": only_profile,
        "executor": executor,
        "soak": soak,
        "fault_rerun": faults,
    }
    try:
        from conftest import stamp_artifact
    except ImportError:  # pragma: no cover - conftest lives alongside
        pass
    else:
        stamp_artifact(result)
    return result


def _check_bars(result: dict) -> list[str]:
    """The cross-mode differential and a measured p99 on both fault legs."""
    problems = []
    executor = result["executor"]
    if executor["divergences"]:
        problems.append(
            f"cross-mode differential: {executor['divergences']} "
            f"divergence(s): {executor['failures'][:3]}"
        )
    fault = result["fault_rerun"]
    if "skipped" not in fault:
        for leg in ("clean", "faulted"):
            if fault[leg]["p99_seconds"] <= 0:
                problems.append(f"fault rerun: no {leg} p99 was measured")
    return problems


def render_table(result: dict) -> str:
    rows = [
        f"{'profile':<18} {'items':>6} {'MB':>7} {'serial/s':>9} "
        f"{'process/s':>9} {'speedup':>8}"
    ]
    for name, prof in result["executor"]["profiles"].items():
        serial = prof["by_mode"]["serial"]
        pooled = prof["by_mode"]["process"]
        rows.append(
            f"{name:<18} {prof['corpus_items']:>6} "
            f"{prof['corpus_bytes'] / 1e6:>7.1f} "
            f"{serial['items_per_second']:>9} {pooled['items_per_second']:>9} "
            f"{prof['process_vs_serial_speedup']:>7}x"
        )
    rows.append(
        f"cross-mode differential: {result['executor']['divergences']} "
        "divergence(s)"
    )
    for name, prof in result["soak"]["profiles"].items():
        knee = prof["knee_offered_per_second"]
        last = prof["steps"][-1]
        rows.append(
            f"soak {name}: base {prof['base_rate_per_second']}/s, "
            f"knee {'none' if knee is None else f'{knee}/s offered'}, "
            f"top step p50/p95/p99 = "
            f"{last['latency']['p50_seconds']}/"
            f"{last['latency']['p95_seconds']}/"
            f"{last['latency']['p99_seconds']}s"
        )
    fault = result["fault_rerun"]
    if "skipped" not in fault:
        rows.append(
            f"fault rerun ({fault['profile']}, "
            f"{fault['plan']['events_fired']} fault(s) fired): "
            f"p99 {fault['clean']['p99_seconds']}s clean vs "
            f"{fault['faulted']['p99_seconds']}s faulted; outcomes "
            f"{fault['faulted']['outcomes']}"
        )
    return "\n".join(rows)


# ------------------------------------------------------------------ pytest

def test_latency_slo():
    try:
        from conftest import record_table
    except ImportError:  # script-style invocation
        record_table = print
    result = run_benchmark(quick=QUICK)
    Path(DEFAULT_OUTPUT).write_text(json.dumps(result, indent=1) + "\n")
    record_table(
        "Latency SLO soak (process-pool executor vs serial oracle):\n"
        + render_table(result)
    )
    problems = _check_bars(result)
    assert not problems, problems


# ------------------------------------------------------------------ script

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", default=QUICK,
        help="small corpora + short ladder (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--profile", choices=PROFILE_NAMES, default=None,
        help="run a single arrival profile instead of all four",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON trajectory (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    result = run_benchmark(quick=args.quick, only_profile=args.profile)
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    print(render_table(result))
    print(f"(wrote {args.output}; {time.time() - t0:.0f}s wall)")

    problems = _check_bars(result)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
