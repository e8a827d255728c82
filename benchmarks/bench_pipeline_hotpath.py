"""Hot-path benchmark: dispatch-table decoder + optimized pipeline vs
the frozen pre-optimization reference.

Not a paper figure — this measures the PR-3 single-binary hot path:

* decode throughput (insns/sec) of the table-driven decoder vs the
  frozen ``repro.x86.refdecode`` oracle, with every decode's result held
  (as the provider's delta index holds them), and the GC-tracked objects
  each decoded instruction keeps alive,
* the length pass (``repro.x86.length_pass``, which builds every scan)
  vs the full decode in insns/sec, timed in the same run, its columns
  checked against those ``decode_all``'s records imply, and the heap a
  held scan keeps per text byte before and after the policies decode the
  records they read,
* end-to-end ``EnGarde.inspect`` throughput (inspections/sec) of the
  optimized pipeline (``optimized=True``) vs the reference pipeline
  (``optimized=False``: per-instruction decode + charges, uncached
  policy context, per-call-site hashing) on the paper workloads,
* a wall-clock per-stage split (disassembly vs policy) of the optimized
  path on the largest workload.

Every workload and every corpus variant is also run through the
**differential check**: the optimized pipeline must produce byte-identical
``ComplianceReport`` wire text, identical ``PolicyResult.stats``, and
tick-identical ``CycleMeter`` totals (overall and per phase, including
per-event counts) to the reference.  Any divergence fails the benchmark —
the meter is the paper's figure source, so optimizations may only change
wall-clock.  So does any column mismatch of the length pass.

Results land in ``BENCH_pipeline.json`` (uploaded as a CI artifact).

Runs both under pytest (``PYTHONPATH=src python -m pytest benchmarks/
bench_pipeline_hotpath.py``) and as a script (``python benchmarks/
bench_pipeline_hotpath.py [--quick] [--scale S] [--output PATH]``).
Quick mode (CI): ``--quick`` or ``REPRO_BENCH_QUICK=1`` shrinks the
workloads and the corpus.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.core import (
    EnGarde,
    IfccPolicy,
    LibraryLinkingPolicy,
    PolicyRegistry,
    StackProtectionPolicy,
)
from repro.core.streaming import StreamScan
from repro.elf import read_elf
from repro.sgx.cpu import CycleMeter
from repro.service import generate_variant_corpus
from repro.toolchain import build_libc
from repro.toolchain.workloads import build_workload
from repro.x86 import length_pass
from repro.x86.decoder import decode_all
from repro.x86.refdecode import ref_decode_all

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

GOLDEN = _ROOT / "tests" / "fixtures" / "golden"
GOLDEN_BINARIES = ("instrumented", "plain", "truncated", "garbage")
POLICY_NAMES = ("library-linking", "stack-protection", "indirect-function-call")
DEFAULT_OUTPUT = "BENCH_pipeline.json"

#: (workload, scale-multiplier) — ordered smallest to largest; the last
#: entry is "the largest workload" the acceptance bar applies to.
WORKLOADS_FULL = (("bzip2", 0.5), ("nginx", 1.0))
WORKLOADS_QUICK = (("nginx", 0.05),)
CORPUS_SIZE_FULL = 52
CORPUS_SIZE_QUICK = 13


def _build_policies(libc) -> PolicyRegistry:
    return PolicyRegistry([
        LibraryLinkingPolicy(libc.reference_hashes()),
        StackProtectionPolicy(exempt_functions=set(libc.offsets)),
        IfccPolicy(),
    ])


def _frozen_policy(name: str, config: dict):
    """Rebuild a golden-corpus policy from its frozen configuration."""
    if name == "library-linking":
        return LibraryLinkingPolicy({
            fn: bytes.fromhex(digest)
            for fn, digest in config["reference_hashes"].items()
        })
    if name == "stack-protection":
        return StackProtectionPolicy(
            exempt_functions=set(config["exempt_functions"])
        )
    return IfccPolicy()


# ------------------------------------------------------------ differential

def compare_pipelines(blob: bytes, label: str, make_registry) -> list[str]:
    """Run both pipelines over *blob*; return the list of divergences."""
    meter_opt, meter_ref = CycleMeter(), CycleMeter()
    opt = EnGarde(make_registry(), meter_opt, optimized=True).inspect(
        blob, benchmark=label
    )
    ref = EnGarde(make_registry(), meter_ref, optimized=False).inspect(
        blob, benchmark=label
    )
    problems = []
    if opt.report.serialize() != ref.report.serialize():
        problems.append("report wire text differs")
    if ([r.stats for r in opt.policy_results]
            != [r.stats for r in ref.policy_results]):
        problems.append("policy stats differ")
    if meter_opt.phases != meter_ref.phases:
        problems.append("meter phase breakdowns differ")
    if meter_opt.total != meter_ref.total:
        problems.append("meter totals differ")
    return problems


def run_differential(libc, corpus_size: int) -> dict:
    """Golden fixtures + service variant corpus through both pipelines."""
    cases = 0
    failures: list[str] = []

    config = json.loads((GOLDEN / "policy_config.json").read_text())
    for name in GOLDEN_BINARIES:
        blob = (GOLDEN / f"{name}.bin").read_bytes()
        for policy_name in POLICY_NAMES:
            cases += 1
            problems = compare_pipelines(
                blob, name,
                lambda pn=policy_name: PolicyRegistry(
                    [_frozen_policy(pn, config)]
                ),
            )
            failures += [f"golden/{name}/{policy_name}: {p}" for p in problems]

    for label, blob in generate_variant_corpus(corpus_size, libc=libc):
        cases += 1
        problems = compare_pipelines(
            blob, label, lambda: _build_policies(libc)
        )
        failures += [f"corpus/{label}: {p}" for p in problems]

    return {"cases": cases, "divergences": len(failures), "failures": failures}


# ------------------------------------------------------------- throughput

def _best_rate(fn, units: int, *, repeats: int) -> float:
    """Best-of-N units/sec for one call of *fn*."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return units / best


def _held_decode(decode, code: bytes, *, repeats: int) -> tuple[float, float]:
    """Best-of-N insns/sec of *decode* while every earlier result stays
    alive, as the provider's delta index keeps its labels' decodes (so the
    collector walks them), and the GC-tracked objects retained per
    decoded instruction."""
    held = []
    best = float("inf")
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(repeats):
        t0 = time.perf_counter()
        held.append(decode(code))
        best = min(best, time.perf_counter() - t0)
    gc.collect()
    retained = len(gc.get_objects()) - before
    insns = len(held[0])
    return insns / best, retained / (insns * len(held))


def bench_decode(binary, *, repeats: int) -> dict:
    code = bytes(read_elf(binary.elf).text_sections[0].data)
    insns = len(decode_all(code))
    optimized, opt_objects = _held_decode(decode_all, code, repeats=repeats)
    reference, ref_objects = _held_decode(ref_decode_all, code, repeats=repeats)
    return {
        "insns": insns,
        "optimized_insns_per_sec": round(optimized),
        "reference_insns_per_sec": round(reference),
        "speedup": round(optimized / reference, 2),
        "tracked_objects_per_insn": {
            "optimized": round(opt_objects, 3),
            "reference": round(ref_objects, 3),
        },
    }


_BRANCH_KINDS = {"callq": (2, 4), "jmpq": (3, 5)}  # (direct, indirect)


def _kind(insn) -> int:
    """The length pass's kind code for a decoded record."""
    if insn.mnemonic in _BRANCH_KINDS:
        return _BRANCH_KINDS[insn.mnemonic][insn.target is None]
    if insn.target is not None:
        return 1
    if insn.mnemonic in ("ret", "ud2", "hlt"):
        return 6
    return 7 if insn.mnemonic in ("nop", "nopl") else 0


def column_mismatches(code: bytes, records) -> list[str]:
    """Where the length pass's columns differ from those *records* (the
    full decode of *code*) imply."""
    cols = length_pass(code)
    expected = {
        "offsets": [r.offset for r in records],
        "kinds": bytes(_kind(r) for r in records),
        "targets": [r.target for r in records if r.target is not None],
        "bundles": [i for i, r in enumerate(records)
                    if r.offset // 32 != (r.end - 1) // 32],
        "end": records[-1].end if records else 0,
    }
    got = {"offsets": list(cols.offsets), "kinds": bytes(cols.kinds),
           "targets": cols.targets, "bundles": cols.bundles, "end": cols.end}
    return [name for name in expected if got[name] != expected[name]]


def _held_scan_bytes(libc, blob: bytes, code: bytes) -> tuple[int, int]:
    """Heap a scan of *code* keeps: right after the length pass, and
    after the policies ran over it (the records they read decoded)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scan = StreamScan(code, length_pass(code))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0] - base
        engarde = EnGarde(_build_policies(libc))
        disasm = engarde.disassembler.run(blob, scan)
        assert disasm.scan is scan
        ctx = disasm.policy_context(engarde.meter)
        for module in engarde.policies:
            module.check(ctx)
        del engarde, disasm, ctx
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del scan
    return before, after


def bench_length_pass(libc, binary, *, repeats: int) -> dict:
    """The length pass against the full decode, in the same run."""
    code = bytes(read_elf(binary.elf).text_sections[0].data)
    records = decode_all(code)
    insns = len(records)
    length_rate = _best_rate(lambda: length_pass(code), insns,
                             repeats=repeats)
    decode_rate = _best_rate(lambda: decode_all(code), insns,
                             repeats=repeats)
    before, after = _held_scan_bytes(libc, binary.elf, code)
    engarde = EnGarde(_build_policies(libc))
    disasm = engarde.disassembler.run(binary.elf)
    ctx = disasm.policy_context(engarde.meter)
    for module in engarde.policies:
        module.check(ctx)
    read = sum(r is not None for r in disasm.instructions.decoded())
    return {
        "insns": insns,
        "length_pass_insns_per_sec": round(length_rate),
        "full_decode_insns_per_sec": round(decode_rate),
        "speedup": round(length_rate / decode_rate, 2),
        "records_read_share": round(read / insns, 3),
        "held_scan_bytes_per_text_byte": {
            "before_policies": round(before / len(code), 1),
            "after_policies": round(after / len(code), 1),
        },
        "column_mismatches": column_mismatches(code, records),
    }


def bench_inspect(libc, binary, label: str, *, repeats: int) -> dict:
    blob = binary.elf

    def one_pass(optimized: bool) -> None:
        engarde = EnGarde(_build_policies(libc), optimized=optimized)
        outcome = engarde.inspect(blob, benchmark=label)
        assert outcome.report is not None

    optimized = _best_rate(lambda: one_pass(True), 1, repeats=repeats)
    reference = _best_rate(lambda: one_pass(False), 1, repeats=repeats)

    # Wall-clock stage split of one optimized pass (disassembly vs policy).
    engarde = EnGarde(_build_policies(libc))
    t0 = time.perf_counter()
    with engarde.meter.phase("disassembly"):
        disasm = engarde.disassembler.run(blob)
    t1 = time.perf_counter()
    ctx = disasm.policy_context(engarde.meter)
    with engarde.meter.phase("policy"):
        for module in engarde.policies:
            module.check(ctx)
    t2 = time.perf_counter()

    return {
        "workload": label,
        "insns": binary.insn_count,
        "optimized_inspections_per_sec": round(optimized, 3),
        "reference_inspections_per_sec": round(reference, 3),
        "speedup": round(optimized / reference, 2),
        "stage_split_seconds": {
            "disassembly": round(t1 - t0, 4),
            "policy": round(t2 - t1, 4),
        },
    }


# ------------------------------------------------------------------ driver

def run_benchmark(*, quick: bool, scale: float) -> dict:
    workloads = WORKLOADS_QUICK if quick else WORKLOADS_FULL
    corpus_size = CORPUS_SIZE_QUICK if quick else CORPUS_SIZE_FULL
    repeats = 1 if quick else 3

    libc = build_libc()
    result: dict = {
        "schema": "bench_pipeline/1",
        "quick": quick,
        "scale": scale,
        "inspect": [],
    }

    binaries = []
    for name, mult in workloads:
        binaries.append((name, build_workload(
            name, stack_protector=True, ifcc=True,
            libc=libc, scale=scale * mult,
        )))

    # Decode throughput on the largest workload's text section.
    result["decode"] = {
        "workload": binaries[-1][0],
        **bench_decode(binaries[-1][1], repeats=repeats),
    }
    result["length_pass"] = {
        "workload": binaries[-1][0],
        **bench_length_pass(libc, binaries[-1][1], repeats=repeats),
    }

    for name, binary in binaries:
        result["inspect"].append(
            bench_inspect(libc, binary, name, repeats=repeats)
        )

    result["differential"] = run_differential(libc, corpus_size)
    try:
        from conftest import stamp_artifact
    except ImportError:  # pragma: no cover - conftest lives alongside
        pass
    else:
        stamp_artifact(result)
    return result


def render_table(result: dict) -> str:
    rows = [
        f"{'stage / workload':<26} {'optimized':>14} {'reference':>14} "
        f"{'speedup':>8}",
    ]
    d = result["decode"]
    rows.append(
        f"{'decode (' + d['workload'] + ', insns/s)':<26} "
        f"{d['optimized_insns_per_sec']:>14,} "
        f"{d['reference_insns_per_sec']:>14,} {d['speedup']:>7.2f}x"
    )
    objects = d["tracked_objects_per_insn"]
    rows.append(
        f"{'  tracked objects / insn':<26} {objects['optimized']:>14.3f} "
        f"{objects['reference']:>14.3f}"
    )
    lp = result["length_pass"]
    rows.append(
        f"{'length pass vs decode/s':<26} "
        f"{lp['length_pass_insns_per_sec']:>14,} "
        f"{lp['full_decode_insns_per_sec']:>14,} {lp['speedup']:>7.2f}x"
    )
    held = lp["held_scan_bytes_per_text_byte"]
    rows.append(
        f"  held scan B/text byte: {held['before_policies']} before, "
        f"{held['after_policies']} after the policies "
        f"({lp['records_read_share']:.1%} of records read); "
        f"column mismatches: {lp['column_mismatches'] or 'none'}"
    )
    for cell in result["inspect"]:
        rows.append(
            f"{'inspect (' + cell['workload'] + ', insp/s)':<26} "
            f"{cell['optimized_inspections_per_sec']:>14,.2f} "
            f"{cell['reference_inspections_per_sec']:>14,.2f} "
            f"{cell['speedup']:>7.2f}x"
        )
    split = result["inspect"][-1]["stage_split_seconds"]
    rows.append(
        f"largest-workload stage split: disassembly {split['disassembly']}s, "
        f"policy {split['policy']}s"
    )
    diff = result["differential"]
    rows.append(
        f"differential check: {diff['cases']} cases, "
        f"{diff['divergences']} divergence(s)"
    )
    return "\n".join(rows)


# ------------------------------------------------------------------ pytest

def test_pipeline_hotpath():
    try:
        from conftest import record_table
    except ImportError:  # script-style invocation
        record_table = print
    result = run_benchmark(quick=QUICK, scale=SCALE if not QUICK else 1.0)
    Path(DEFAULT_OUTPUT).write_text(json.dumps(result, indent=1) + "\n")
    record_table(
        "Static-inspection hot path (optimized vs frozen reference):\n"
        + render_table(result)
    )
    assert result["differential"]["divergences"] == 0, (
        result["differential"]["failures"]
    )
    assert result["length_pass"]["column_mismatches"] == [], (
        result["length_pass"]
    )
    # The PR's acceptance bar: >=2x end-to-end inspect throughput on the
    # largest workload, with the differential check green.
    assert result["inspect"][-1]["speedup"] >= 2.0, result["inspect"][-1]


# ------------------------------------------------------------------ script

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", default=QUICK,
        help="small workloads + corpus (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--scale", type=float, default=SCALE,
        help="workload scale factor (ignored in --quick mode)",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON trajectory (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    result = run_benchmark(
        quick=args.quick, scale=args.scale if not args.quick else 1.0
    )
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    print(render_table(result))
    print(f"(wrote {args.output}; {time.time() - t0:.0f}s wall)")

    diff = result["differential"]
    mismatches = result["length_pass"]["column_mismatches"]
    for failure in diff["failures"]:
        print(f"DIVERGENCE: {failure}", file=sys.stderr)
    for column in mismatches:
        print(f"LENGTH-PASS COLUMN MISMATCH: {column}", file=sys.stderr)
    return 1 if diff["divergences"] or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
