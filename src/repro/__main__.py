"""Command-line entry point: regenerate the paper's tables.

Usage::

    python -m repro fig2
    python -m repro fig3 --scale 0.1
    python -m repro all --scale 1.0
    python -m repro demo            # one end-to-end provisioning run
    python -m repro inspect-batch --policy stack-protection --workers 4 \
        --repeats 3 --scale 0.1     # batched service + verdict cache
    python -m repro profile --scale 0.1 --top 20
                                    # cProfile the inspection hot path
    python -m repro chaos --seeds 0,1,2,3,4 --corpus-size 54
                                    # seeded fault-injection soak; exits
                                    # non-zero on any fail-closed violation
    python -m repro serve --port 0  # long-lived inspection daemon on TCP;
                                    # prints one JSON announce line, stops
                                    # gracefully on SIGTERM/SIGINT
    python -m repro serve --port 0 --store /var/lib/engarde
                                    # the same daemon with its verdicts
                                    # durable in a content-addressed store;
                                    # a restart over DIR answers from it
"""

from __future__ import annotations

import argparse
import sys
import time


def _figure(policy: str, number: int, scale: float, json_path: str | None) -> None:
    from .harness.export import cells_to_json
    from .harness.runner import run_figure
    from .harness.tables import render_comparison, render_figure

    titles = {
        3: "Figure 3: library-linking policy",
        4: "Figure 4: stack-protection policy",
        5: "Figure 5: IFCC policy",
    }
    t0 = time.time()
    results = run_figure(policy, scale=scale)
    print(render_figure(results, titles[number]))
    print()
    if scale >= 0.99:
        print(render_comparison(results, figure=number))
        print()
    if json_path:
        with open(json_path.replace("FIG", str(number)), "w") as fh:
            fh.write(cells_to_json(results, figure=number))
        print(f"(wrote {json_path.replace('FIG', str(number))})")
    print(f"({time.time() - t0:.0f}s wall)")


def _profile(args) -> int:
    """``python -m repro profile``: cProfile a hot path.

    ``--stage inspect`` (the default) profiles the static-inspection
    core; ``--stage provision`` profiles the full provisioning exchange —
    handshake, encrypted content stream, MRENCLAVE verification, verdict
    — which is dominated by the crypto data plane rather than the
    decoder.  Both print the top-N hot spots by cumulative time — the
    measured starting point for any perf work (see docs/PERFORMANCE.md).
    """
    import cProfile
    import pstats

    from .core import EnGarde, PolicyRegistry
    from .harness.runner import make_policy
    from .toolchain import build_libc
    from .toolchain.workloads import build_workload

    t0 = time.time()
    libc = build_libc()
    binary = build_workload(
        args.benchmark, stack_protector=True, ifcc=True,
        libc=libc, scale=args.scale,
    )
    policy_names = (
        "library-linking", "stack-protection", "indirect-function-call"
    )

    def make_policies() -> PolicyRegistry:
        return PolicyRegistry([
            make_policy(name, libc) for name in policy_names
        ])

    if args.stage == "provision":
        from .core import CloudProvider, EnclaveClient, provision
        from .harness import runner
        from .sgx import SgxParams

        policies = make_policies()

        def workload() -> None:
            # Fresh provider + client per pass: every run pays the whole
            # protocol (keygen is skipped via a shared keypair only when
            # benchmarking; the profile keeps it so RSA shows up).
            for _ in range(args.repeats):
                provider = CloudProvider(
                    policies,
                    params=SgxParams(epc_pages=8192, heap_initial_pages=512),
                    rsa_bits=1024,
                    client_pages=max(runner._pages_for(binary) + 16, 64),
                )
                client = EnclaveClient(
                    binary.elf, policies=policies, benchmark=args.benchmark,
                )
                result = provision(provider, client)
                assert result.report is not None
        label = "provisioning run(s)"
    else:
        def workload() -> None:
            # Fresh EnGarde per pass: caches must not carry over between
            # repeats, so the profile reflects steady single-binary cost.
            for _ in range(args.repeats):
                engarde = EnGarde(make_policies())
                outcome = engarde.inspect(binary.elf, benchmark=args.benchmark)
                assert outcome.report is not None
        label = "inspection(s)"

    workload()  # warm-up: imports, lazy tables
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()

    print(
        f"# profile: {args.stage} {args.benchmark} @ scale {args.scale} "
        f"({binary.insn_count} insns, {args.repeats} {label}, "
        f"{len(policy_names)} policies, {time.time() - t0:.0f}s wall)"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0


def _chaos(args) -> int:
    """``python -m repro chaos``: the seeded fault-injection soak.

    Inspects a deterministic variant corpus once per seed under a
    randomized fault plan and fails (exit 1) on any false accept, hang,
    or untyped failure — printing the offending seed so the run can be
    replayed exactly (docs/RESILIENCE.md walks through the workflow).
    """
    from .core.policy import PolicyRegistry
    from .faults.chaos import run_soak
    from .harness.runner import make_policy
    from .service.corpus import generate_variant_corpus
    from .toolchain import build_libc

    t0 = time.time()
    libc = build_libc()
    policies = PolicyRegistry([make_policy(args.policy, libc)])
    corpus = generate_variant_corpus(args.corpus_size, libc=libc)
    result = run_soak(
        policies,
        corpus,
        seeds=args.seeds,
        n_specs=args.fault_specs,
        probability=args.fault_probability,
        retries=args.retries,
        deadline=args.deadline,
        quarantine_threshold=args.quarantine_threshold,
        max_wall_seconds=args.max_wall,
    )
    for line in result.summary_lines():
        print(line)
    print(f"({time.time() - t0:.0f}s wall)")
    if not result.ok:
        print(
            f"FAIL: {len(result.violations)} fail-closed violation(s)",
            file=sys.stderr,
        )
        return 1
    print("OK: 0 false accepts, 0 hangs, 0 untyped failures")
    return 0


def _serve(args) -> int:
    """``python -m repro serve``: the long-lived inspection daemon.

    Starts :class:`repro.service.InspectionDaemon` on TCP and prints a
    single JSON *announce* line (endpoint, device public key, policy
    digest, enclave geometry) — everything an
    :class:`~repro.service.InspectionClient` needs to attest and
    connect.  SIGTERM/SIGINT trigger a graceful drain: in-flight
    inspections are answered, new connections refused, then the process
    exits 0 with a final metrics summary on stderr.  With ``--store DIR``
    the daemon's cache is a :class:`~repro.service.TieredCache` over a
    :class:`~repro.service.VerdictStore` in DIR, so verdicts survive the
    process and a restart over DIR is warm from its first request.
    """
    import json
    import signal
    import threading

    from .core.policy import PolicyRegistry
    from .harness.runner import make_policy
    from .service import InspectionDaemon, TieredCache, VerdictStore
    from .toolchain import build_libc

    t0 = time.time()
    libc = build_libc()
    policies = PolicyRegistry([make_policy(args.policy, libc)])
    cache = TieredCache(VerdictStore(args.store), 4096) if args.store else None

    daemon = InspectionDaemon(
        policies,
        inspector_mode=args.inspector_mode,
        workers=args.workers,
        cache=cache,
        pool_size=args.pool_size,
        rsa_bits=args.rsa_bits,
        heap_pages=64,
        client_pages=64,
        enclave_pages=0x2000,
        read_timeout=args.read_timeout,
        max_connections=args.max_connections,
        retries=args.retries,
        quarantine_threshold=args.quarantine_threshold,
    )
    host, port = daemon.start_tcp(args.host, args.port)
    print(json.dumps(daemon.announce()), flush=True)
    print(
        f"# inspection daemon ready on {host}:{port} "
        f"({time.time() - t0:.1f}s warm-up); SIGTERM to drain",
        file=sys.stderr, flush=True,
    )

    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        while not stop.is_set():
            stop.wait(0.2)
            if args.max_uptime and daemon.uptime_seconds >= args.max_uptime:
                break
    finally:
        daemon.stop()
        # the process is exiting — release the worker pool (a
        # stopped-but-warm daemon would keep it for the next start();
        # see InspectionDaemon.stop)
        daemon.inspector.close()
    snap = daemon.metrics_snapshot()
    nonzero = {k: v for k, v in snap["counters"].items() if v}
    print(f"# daemon stopped; counters: {json.dumps(nonzero)}",
          file=sys.stderr, flush=True)
    return 0


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _seed_list(value: str) -> list[int]:
    try:
        seeds = [int(s) for s in value.split(",") if s.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seeds must be comma-separated integers, got {value!r}"
        )
    if not seeds:
        raise argparse.ArgumentTypeError("at least one seed is required")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="EnGarde reproduction: regenerate the paper's evaluation",
    )
    parser.add_argument(
        "target",
        choices=["fig2", "fig3", "fig4", "fig5", "all", "demo",
                 "inspect-batch", "profile", "chaos", "serve"],
        help="which table/figure to regenerate, 'inspect-batch' to "
             "drive the batched inspection service, 'profile' to "
             "cProfile a corpus inspection and print the hot spots, "
             "'chaos' to run the seeded fault-injection soak, "
             "or 'serve' to run the long-lived inspection daemon on TCP",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (1.0 = the paper's instruction counts)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write results as JSON (use FIG in the path as a "
             "placeholder for the figure number)",
    )
    batch_group = parser.add_argument_group("inspect-batch options")
    batch_group.add_argument(
        "--policy", default="stack-protection",
        choices=["library-linking", "stack-protection",
                 "indirect-function-call"],
        help="policy module the batch is checked against",
    )
    batch_group.add_argument(
        "--workers", type=_positive_int, default=None,
        help="pool size (default: cpu count capped at 8)",
    )
    batch_group.add_argument(
        "--mode", default="process",
        choices=["process", "serial"],
        help="execution backend for the batch",
    )
    batch_group.add_argument(
        "--repeats", type=_positive_int, default=2,
        help="times the fleet is re-submitted (passes after the first "
             "hit the verdict cache)",
    )
    batch_group.add_argument(
        "--timeout", type=float, default=None,
        help="per-binary inspection timeout in seconds",
    )
    chaos_group = parser.add_argument_group("chaos options")
    chaos_group.add_argument(
        "--seeds", type=_seed_list, default="0,1,2,3,4",
        help="comma-separated fault-plan seeds (one corpus pass each)",
    )
    chaos_group.add_argument(
        "--corpus-size", type=_positive_int, default=54,
        help="variant-corpus size for the soak",
    )
    chaos_group.add_argument(
        "--fault-specs", type=_positive_int, default=8,
        help="fault specs drawn per randomized plan",
    )
    chaos_group.add_argument(
        "--fault-probability", type=float, default=0.35,
        help="per-call firing probability of each fault spec",
    )
    chaos_group.add_argument(
        "--retries", type=int, default=1,
        help="service retries per item during the soak",
    )
    chaos_group.add_argument(
        "--deadline", type=float, default=5.0,
        help="per-item deadline in (fake-clock) seconds",
    )
    chaos_group.add_argument(
        "--quarantine-threshold", type=_positive_int, default=None,
        help="consecutive failures before a binary is quarantined",
    )
    chaos_group.add_argument(
        "--max-wall", type=float, default=60.0,
        help="real seconds per seed pass before it counts as a hang",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--host", default="127.0.0.1",
        help="interface the daemon binds (default: loopback only)",
    )
    serve_group.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = let the OS pick; see the announce line)",
    )
    serve_group.add_argument(
        "--pool-size", type=_positive_int, default=1,
        help="pre-provisioned enclaves kept warm for attestation",
    )
    serve_group.add_argument(
        "--max-connections", type=_positive_int, default=64,
        help="concurrent client connections before new ones are refused",
    )
    serve_group.add_argument(
        "--read-timeout", type=float, default=30.0,
        help="seconds an idle connection may sit before it is dropped",
    )
    serve_group.add_argument(
        "--rsa-bits", type=_positive_int, default=768,
        help="channel keypair size for pooled enclaves",
    )
    serve_group.add_argument(
        "--max-uptime", type=float, default=None,
        help="self-stop after this many seconds (CI smoke guard)",
    )
    serve_group.add_argument(
        "--store", metavar="DIR", default=None,
        help="directory of the on-disk verdict store the daemon's cache "
             "writes through to; a daemon restarted over the same DIR "
             "answers every stored verdict without inspecting (created "
             "if missing)",
    )
    serve_group.add_argument(
        "--inspector-mode", default="serial",
        choices=["serial", "process"],
        help="daemon inspector backend: 'serial' funnels through one "
             "warm EnGarde; 'process' fans concurrent submissions over "
             "a process pool",
    )
    profile_group = parser.add_argument_group("profile options")
    profile_group.add_argument(
        "--benchmark", default="nginx",
        help="workload to profile (a paper benchmark name)",
    )
    profile_group.add_argument(
        "--top", type=_positive_int, default=25,
        help="how many hot spots to print (by cumulative time)",
    )
    profile_group.add_argument(
        "--stage", default="inspect", choices=["inspect", "provision"],
        help="hot path to profile: the static-inspection core or the "
             "full provisioning exchange (handshake + encrypted stream)",
    )
    args = parser.parse_args(argv)

    if args.target == "profile":
        return _profile(args)

    if args.target == "chaos":
        return _chaos(args)

    if args.target == "serve":
        return _serve(args)

    if args.target == "inspect-batch":
        from .harness.runner import run_batch

        report = run_batch(
            args.policy,
            scale=args.scale,
            workers=args.workers,
            mode=args.mode,
            repeats=args.repeats,
            timeout=args.timeout,
        )
        payload = report.to_json()
        print(payload)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(payload)
            print(f"(wrote {args.json})", file=sys.stderr)
        return 0 if report.summary.errors == 0 else 1

    if args.target == "demo":
        from . import quickstart_provision

        result = quickstart_provision(scale=max(args.scale, 0.02))
        print(f"provisioning verdict: {'ACCEPTED' if result.accepted else 'REJECTED'}")
        for phase in ("disassembly", "policy", "loading"):
            print(f"  {phase:12s} {result.meter.phase_cycles(phase):>14,} cycles")
        return 0

    if args.target in ("fig2", "all"):
        from .harness.loc import render_loc_table

        print(render_loc_table())
        print()
    if args.target in ("fig3", "all"):
        _figure("library-linking", 3, args.scale, args.json)
    if args.target in ("fig4", "all"):
        _figure("stack-protection", 4, args.scale, args.json)
    if args.target in ("fig5", "all"):
        _figure("indirect-function-call", 5, args.scale, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
