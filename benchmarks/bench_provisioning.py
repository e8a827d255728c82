"""Provisioning crypto primitives: the rebuilt kernels vs the frozen
reference.

Not a paper figure — this measures the throughput of the kernels under
the provisioning protocol (SHA-256 compression, batched AES-CTR, HMAC
midstates, RSA-CRT, RSA keygen) against the frozen implementations in
``repro.crypto.ref``, and checks on the same inputs that each kernel's
output equals the reference's.  The keygen row times RSA-1024
``generate_keypair`` on ``generate_prime`` against the same keygen on
``ref_generate_prime``; it is identical only if every seed gives the
same (n, d) and leaves the DRBG in the same state.  End-to-end
provisioning is measured by the repo benchmark (``perfbench/``,
workloads ``provision-cold`` and ``provision-update``).

Results land in ``BENCH_provisioning.json`` (uploaded as a CI artifact).

Runs both under pytest (``PYTHONPATH=src python -m pytest benchmarks/
bench_provisioning.py``) and as a script (``python benchmarks/
bench_provisioning.py [--quick] [--output PATH]``).  Quick mode (CI):
``--quick`` or ``REPRO_BENCH_QUICK=1`` shrinks the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from unittest import mock

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.crypto import HmacDrbg, rsa
from repro.crypto.aes import Aes, ctr_xor
from repro.crypto.mac import hmac_key
from repro.crypto.ref import (
    ref_aes_ctr,
    ref_channel_hmac,
    ref_generate_prime,
    ref_sha256,
)
from repro.crypto.rsa import generate_keypair
from repro.crypto.sha256 import SHA256

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
DEFAULT_OUTPUT = "BENCH_provisioning.json"


def _best_rate(fn, units: float, *, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return units / best


def bench_primitives(*, quick: bool) -> list[dict]:
    repeats = 2 if quick else 3
    mib = 1024 * 1024
    sha_bytes = (mib // 4) if quick else mib
    ctr_bytes = (mib // 4) if quick else mib
    hmac_iters = 2000 if quick else 10000
    rsa_iters = 20 if quick else 100
    keygen_seeds = 4 if quick else 10

    sha_data = bytes(range(256)) * (sha_bytes // 256)
    sha_opt = _best_rate(
        lambda: SHA256().update(sha_data) or None, len(sha_data) / mib,
        repeats=repeats,
    )
    sha_ref = _best_rate(
        lambda: ref_sha256(sha_data), len(sha_data) / mib, repeats=repeats
    )
    sha_same = SHA256(sha_data).digest() == ref_sha256(sha_data)

    key = bytes(range(32))
    nonce = b"benchnnc"
    ctr_data = bytes(ctr_bytes)
    # distinct counter windows per repeat so the keystream memo cannot
    # serve a previous repeat's work — this measures computation
    counters = iter(range(0, 1 << 40, 1 << 30))
    aes = Aes.for_key(key)
    ctr_opt = _best_rate(
        lambda: ctr_xor(aes, nonce, ctr_data, initial_counter=next(counters)),
        len(ctr_data) / mib, repeats=repeats,
    )
    ref_counters = iter(range(1 << 50, 2 << 50, 1 << 30))
    ctr_ref = _best_rate(
        lambda: ref_aes_ctr(key, nonce, ctr_data,
                            initial_counter=next(ref_counters)),
        len(ctr_data) / mib, repeats=repeats,
    )
    sample = ctr_data[:4096]
    ctr_same = ctr_xor(aes, nonce, sample, initial_counter=7) == ref_aes_ctr(
        key, nonce, sample, initial_counter=7
    )

    # The pre-overhaul record MAC hashed via hashlib but re-prepared the
    # key's ipad/opad blocks on every call — ref_channel_hmac is that code
    # verbatim, so this isolates what the midstate cache buys.
    record = bytes(4096)
    mac_key = bytes(range(64, 96))
    prepared = hmac_key(mac_key)
    hmac_opt = _best_rate(
        lambda: [prepared.mac(record) for _ in range(hmac_iters)],
        hmac_iters, repeats=repeats,
    )
    hmac_ref = _best_rate(
        lambda: [ref_channel_hmac(mac_key, record) for _ in range(hmac_iters)],
        hmac_iters, repeats=repeats,
    )
    hmac_same = prepared.mac(record) == ref_channel_hmac(mac_key, record)

    priv = generate_keypair(1024, HmacDrbg(b"bench-rsa"))
    c = pow(0xC0FFEE, priv.public_key.e, priv.n)
    rsa_opt = _best_rate(
        lambda: [priv._private_op(c) for _ in range(rsa_iters)],
        rsa_iters, repeats=repeats,
    )
    rsa_ref = _best_rate(
        lambda: [pow(c, priv.d, priv.n) for _ in range(rsa_iters)],
        rsa_iters, repeats=repeats,
    )
    rsa_same = priv._private_op(c) == pow(c, priv.d, priv.n)

    seeds = [b"bench-keygen-%d" % i for i in range(keygen_seeds)]

    def keygen_all(results: dict) -> None:
        for seed in seeds:
            rng = HmacDrbg(seed)
            key = generate_keypair(1024, rng)
            results[seed] = (
                key.n, key.d, rng._key, rng._value, rng._reseed_counter
            )

    keygen_out: dict = {}
    keygen_opt = _best_rate(
        lambda: keygen_all(keygen_out), len(seeds), repeats=repeats
    )
    ref_keygen_out: dict = {}
    with mock.patch.object(rsa, "generate_prime", ref_generate_prime):
        keygen_ref = _best_rate(
            lambda: keygen_all(ref_keygen_out), len(seeds), repeats=repeats
        )
    keygen_same = keygen_out == ref_keygen_out

    def cell(name, unit, opt, ref, identical):
        return {
            "primitive": name, "unit": unit,
            "optimized": round(opt, 2), "reference": round(ref, 2),
            "speedup": round(opt / ref, 2),
            "identical": identical,
        }

    return [
        cell("sha256", "MiB/s", sha_opt, sha_ref, sha_same),
        cell("aes_ctr", "MiB/s", ctr_opt, ctr_ref, ctr_same),
        cell("hmac_sha256_4k", "records/s", hmac_opt, hmac_ref, hmac_same),
        cell("rsa1024_private", "ops/s", rsa_opt, rsa_ref, rsa_same),
        cell("rsa1024_keygen", "keypairs/s", keygen_opt, keygen_ref,
             keygen_same),
    ]


def run_benchmark(*, quick: bool) -> dict:
    result: dict = {
        "schema": "bench_provisioning/2",
        "quick": quick,
        "primitives": bench_primitives(quick=quick),
    }
    try:
        from conftest import stamp_artifact
    except ImportError:  # pragma: no cover - conftest lives alongside
        pass
    else:
        stamp_artifact(result)
    return result


def divergences(result: dict) -> list[str]:
    return [
        cell["primitive"] for cell in result["primitives"]
        if not cell["identical"]
    ]


def render_table(result: dict) -> str:
    rows = [
        f"{'primitive':<28} {'optimized':>12} {'reference':>12} "
        f"{'speedup':>8}",
    ]
    for cell in result["primitives"]:
        rows.append(
            f"{cell['primitive'] + ' (' + cell['unit'] + ')':<28} "
            f"{cell['optimized']:>12,.2f} {cell['reference']:>12,.2f} "
            f"{cell['speedup']:>7.2f}x"
        )
    return "\n".join(rows)


# ------------------------------------------------------------------ pytest

def test_provisioning_primitives():
    try:
        from conftest import record_table
    except ImportError:  # script-style invocation
        record_table = print
    result = run_benchmark(quick=QUICK)
    Path(DEFAULT_OUTPUT).write_text(json.dumps(result, indent=1) + "\n")
    record_table(
        "Provisioning primitives (optimized vs frozen reference):\n"
        + render_table(result)
    )
    assert not divergences(result), divergences(result)


# ------------------------------------------------------------------ script

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", default=QUICK,
        help="small inputs (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT,
        help=f"where to write the JSON result (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    result = run_benchmark(quick=args.quick)
    Path(args.output).write_text(json.dumps(result, indent=1) + "\n")
    print(render_table(result))
    print(f"(wrote {args.output}; {time.time() - t0:.0f}s wall)")
    for name in divergences(result):
        print(f"DIVERGENCE: {name} differs from the reference", file=sys.stderr)
    return 1 if divergences(result) else 0


if __name__ == "__main__":
    sys.exit(main())
