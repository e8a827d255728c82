"""EnGarde end-to-end benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload provision-cold --seed 1 \\
        --seconds 26 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): provision-cold,
provision-update, daemon-mix, batch-pool.  The run sets the system up
once and runs it for a two-second untimed warm-up, tears it down, sets
it up several more times (``setup_s`` is their median), then runs ops
in a closed loop for ``--seconds``, checking every verdict against a
known answer.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends a
third of the window untraced and the rest with layer spans on, in three
alternating rounds, and prints the per-layer metrics; the raw spans go to
``.perfbench_out/``.  The last line of stdout is the result object; the
line before it records the host and the sample counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WARMUP_SECONDS = 2.0
TRACE_UNTRACED_SHARE = 1 / 3
TRACE_ROUNDS = 3
HASH_SEED = "0"


def _peak_rss_mb(workload) -> float:
    """Peak RSS of this process plus, for batch-pool, its largest worker."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (peak + getattr(workload, "worker_peak_kb", 0)) / 1024.0


def _leftovers(workload) -> list:
    """Threads, processes and shared memory the run failed to release."""
    problems = []
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    if threads:
        problems.append(f"threads still running: {threads}")
    children = multiprocessing.active_children()
    if children:
        problems.append(f"child processes still running: {children}")
    leaked = getattr(workload, "leaked_segments", list)()
    if leaked:
        problems.append(f"shared-memory segments left behind: {leaked}")
    return problems


def _stop_resource_tracker() -> None:
    """The shm arena starts multiprocessing's resource tracker; stop it
    and wait for it, now that every segment is unlinked."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from inputs import load_base
    from spans import Tracer
    from workloads import COUNTERS, Ops

    workload = WORKLOADS[name](load_base(), seed)

    # One untimed set-up and short window first, so that the measured
    # set-ups and window start on a warm interpreter and warm CPUs: on
    # a host whose second vCPU had idled, the first second of pool work
    # ran at half speed.  Its ops are checked like the others.
    system = workload.setup()
    warmup = workload.window(system, WARMUP_SECONDS, None)
    workload.teardown(system)
    workload.rewind()

    setups, system, cpu_before = [], None, 0.0
    for _ in range(workload.SETUP_RUNS):
        if system is not None:
            workload.teardown(system)
        gc.collect()
        cpu_before = _children_cpu_seconds()
        t0 = time.perf_counter()
        system = workload.setup()
        setups.append(time.perf_counter() - t0)
    gc.collect()

    if trace:
        # Untraced and traced slices alternate, so that a drift in the
        # host's speed does not pass for tracing overhead.
        tracer = Tracer()
        plain_parts, traced_parts = [], []
        for _ in range(TRACE_ROUNDS):
            plain_parts.append(workload.window(
                system, seconds * TRACE_UNTRACED_SHARE / TRACE_ROUNDS, None))
            tracer.install()
            try:
                traced_parts.append(workload.window(
                    system, seconds * (1 - TRACE_UNTRACED_SHARE) / TRACE_ROUNDS,
                    tracer))
            finally:
                tracer.uninstall()
        plain, ops = Ops.merge(plain_parts), Ops.merge(traced_parts)
        counters = workload.counters(system, ops, tracer)
        every = Ops.merge([plain, ops])
    else:
        ops = every = workload.window(system, seconds, None)
    workload.teardown(system)
    worker_cpu = _children_cpu_seconds() - cpu_before
    leftovers = _leftovers(workload)
    _stop_resource_tracker()
    checked = Ops.merge([warmup, every])
    problems = checked.problems + leftovers

    lat = sorted(ops.latencies)
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "verdicts_per_s": (ops.verdicts / ops.elapsed, "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "latency_p90_ms": (1000.0 * p90, "ms"),
            "peak_rss_mb": (_peak_rss_mb(workload), "MB"),
        }
    else:
        metrics = tracer.layer_metrics(ops.attempted)
        for key, unit in COUNTERS.items():
            metrics[key] = (counters.get(key, 0), unit)
        if name == "batch-pool":
            busy = worker_cpu / (every.elapsed * system.workers)
            metrics["service.batch.worker_busy_share"] = (busy, "ratio")
        metrics["trace.residual_share"] = (
            1.0 - tracer.op_thread_span_seconds() / sum(ops.latencies),
            "ratio")
        traced_rate = ops.verdicts / ops.elapsed
        plain_rate = plain.verdicts / plain.elapsed
        metrics["trace.overhead_share"] = (
            1.0 - traced_rate / plain_rate, "ratio")
        tracer.dump(ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl")

    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": {
            "cpu_count": os.cpu_count(),
            "python_version": platform.python_version(),
            "python_implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "setup_runs_s": [round(s, 4) for s in setups],
        "ops": len(lat),
        "ops_beyond_p90": sum(1 for x in lat if x > p90),
        "tally": ops.tally,
        "problems": problems[:10],
    }
    result = {
        "correct": checked.failed + len(leftovers) == 0,
        "attempted": checked.attempted,
        "failed": checked.failed + len(leftovers),
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Hash randomisation changes str-keyed dict and set layouts from
        # one process to the next, and with them the speed of the run;
        # pin it so that runs differ only by seed and machine.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(src))

    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
