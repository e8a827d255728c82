"""The batched inspection service, held differential to the sequential core.

The tentpole oracle: over a ≥50-binary corpus of compliant, policy-
rejected, and structurally-rejected variants, every report produced by
the batch path — accept/reject bit, failed-policy list, rejection stage,
executable-page list — must serialize byte-identically to what a lone
``EnGarde.inspect`` produces, in every execution mode, with the cache
cold, warm, or shared.  Plus: error isolation, per-binary timeouts,
in-flight dedup, input snapshots, the pool's lifecycle and dispatch
count, the process-mode daemon, and a concurrency soak.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core import EnGarde, PolicyRegistry, StackProtectionPolicy
from repro.service import (
    VARIANT_KINDS,
    BatchInspector,
    InspectionCache,
    cache_key,
    default_workers,
    generate_variant_corpus,
)
from tests.conftest import compile_demo, daemon_client, small_daemon

CORPUS_SIZE = 52


@pytest.fixture(scope="module")
def corpus(libc):
    return generate_variant_corpus(CORPUS_SIZE, libc=libc)


@pytest.fixture(scope="module")
def good_elf(libc):
    return compile_demo(libc, stack_protector=True, ifcc=True, name="pool").elf


@pytest.fixture(scope="module")
def baseline(corpus, all_policies):
    """Sequential ground truth: one EnGarde, one binary at a time."""
    engarde = EnGarde(all_policies)
    return [
        engarde.inspect(raw, benchmark=label).report.serialize()
        for label, raw in corpus
    ]


def _assert_identical(results, baseline, corpus):
    assert len(results) == len(baseline)
    for i, (item, wire) in enumerate(zip(results, baseline)):
        assert item.index == i
        assert item.label == corpus[i][0]
        assert item.error is None, (item.label, item.error)
        assert item.report.serialize() == wire, item.label


def test_policy_digest_is_computed_once_per_inspector(
    corpus, all_policies, monkeypatch
):
    """The policy set's digest (a SHA-256 pass over the golden hash
    database) is computed when the inspector is built, not per item; the
    keys are still ``cache_key(raw, policies)``."""
    digests = []
    real_digest = PolicyRegistry.digest_material

    def digest_spy(registry):
        digests.append(registry)
        return real_digest(registry)

    keys = []
    real_get = InspectionCache.get

    def get_spy(cache, key, **kwargs):
        keys.append(key)
        return real_get(cache, key, **kwargs)

    monkeypatch.setattr(PolicyRegistry, "digest_material", digest_spy)
    monkeypatch.setattr(InspectionCache, "get", get_spy)
    inspector = BatchInspector(all_policies, mode="serial")
    assert len(digests) == 1
    inspector.inspect_batch(corpus[:14])
    inspector.inspect_batch(corpus[:20])
    assert len(digests) == 1
    monkeypatch.undo()
    assert keys == [cache_key(raw, all_policies)
                    for _label, raw in corpus[:14] + corpus[:20]]


class TestDifferential:
    @pytest.mark.parametrize("mode,workers", [
        pytest.param("serial", 4, id="serial"),
        pytest.param("process", 4, id="process"),
        pytest.param("process", 1, id="process-1-worker"),
    ])
    def test_batch_matches_sequential_baseline(
        self, mode, workers, corpus, baseline, all_policies
    ):
        with BatchInspector(
            all_policies, workers=workers, mode=mode
        ) as inspector:
            report = inspector.inspect_batch(corpus)
        _assert_identical(report.results, baseline, corpus)
        summary = report.summary
        assert summary.total == CORPUS_SIZE
        assert summary.errors == 0
        assert summary.accepted + summary.rejected == CORPUS_SIZE
        # the corpus contains every verdict class
        assert summary.accepted > 0 and summary.rejected > 0

    def test_warm_cache_does_not_change_any_verdict(
        self, corpus, baseline, all_policies
    ):
        with BatchInspector(all_policies, workers=4, mode="process") as bi:
            bi.inspect_batch(corpus)
            warm = bi.inspect_batch(corpus)
        _assert_identical(warm.results, baseline, corpus)
        assert warm.summary.cache_hits == CORPUS_SIZE
        assert warm.summary.inspected == 0

    def test_order_is_submission_order_not_completion_order(
        self, corpus, baseline, all_policies
    ):
        reordered = list(reversed(corpus))
        with BatchInspector(
            all_policies, workers=4, mode="process", cache=False
        ) as bi:
            report = bi.inspect_batch(reordered)
        _assert_identical(report.results, list(reversed(baseline)), reordered)

    def test_accept_bits_and_page_lists_match(
        self, corpus, baseline, all_policies
    ):
        """Field-level check, not just the wire bytes."""
        from repro.core import ComplianceReport

        with BatchInspector(all_policies, mode="serial") as bi:
            report = bi.inspect_batch(corpus)
        for item, wire in zip(report.results, baseline):
            expected = ComplianceReport.deserialize(wire)
            assert item.accepted == expected.compliant
            assert item.report.executable_pages == expected.executable_pages
            assert item.report.policies_failed == expected.policies_failed
            assert item.report.rejected_stage == expected.rejected_stage


class TestIsolationAndDedup:
    def test_malformed_elves_reject_without_killing_the_batch(
        self, corpus, all_policies
    ):
        with BatchInspector(all_policies, workers=2, mode="process") as bi:
            report = bi.inspect_batch(corpus)
        by_kind = {}
        for item in report.results:
            by_kind.setdefault(item.label.split("-", 1)[1], []).append(item)
        for item in by_kind["garbage"] + by_kind["truncated"]:
            assert item.error is None          # rejected, not errored
            assert not item.accepted
            assert item.report.rejected_stage in ("elf", "disasm")
        assert any(i.accepted for i in by_kind["compliant"])

    def test_unexpected_crash_is_isolated_to_its_binary(
        self, corpus, all_policies, monkeypatch
    ):
        poison = corpus[0][1]
        original = EnGarde.inspect

        def crashing(self, raw_elf, *, benchmark="client"):
            if raw_elf == poison:
                raise RuntimeError("simulated pipeline crash")
            return original(self, raw_elf, benchmark=benchmark)

        # the pool forks after the patch, so its workers inherit it
        monkeypatch.setattr(EnGarde, "inspect", crashing)
        with BatchInspector(
            all_policies, workers=2, mode="process", cache=False
        ) as bi:
            report = bi.inspect_batch(corpus[:6])
        crashed = [r for r in report.results if r.error is not None]
        assert [r.index for r in crashed] == [0]
        assert "simulated pipeline crash" in crashed[0].error
        assert all(r.report is not None for r in report.results[1:])
        assert report.summary.errors == 1

    def test_per_binary_timeout_marks_only_the_slow_binary(
        self, corpus, all_policies, monkeypatch
    ):
        slow = corpus[2][1]
        original = EnGarde.inspect

        def sluggish(self, raw_elf, *, benchmark="client"):
            if raw_elf == slow:
                time.sleep(2.0)
            return original(self, raw_elf, benchmark=benchmark)

        monkeypatch.setattr(EnGarde, "inspect", sluggish)
        with BatchInspector(
            all_policies, workers=4, mode="process", cache=False, timeout=0.5
        ) as bi:
            report = bi.inspect_batch(corpus[:6])
        timed_out = [r for r in report.results if r.error is not None]
        assert [r.index for r in timed_out] == [2]
        assert "timeout" in timed_out[0].error
        assert sum(1 for r in report.results if r.report is not None) == 5

    def test_duplicate_bytes_are_inspected_once(self, corpus, all_policies):
        label, raw = corpus[0]
        batch = [("first", raw), ("second", raw), ("third", raw)]
        with BatchInspector(all_policies, mode="serial") as bi:
            report = bi.inspect_batch(batch)
        assert report.summary.inspected == 1
        assert report.summary.deduplicated == 2
        wires = {r.report.serialize() for r in report.results}
        assert len(wires) == 3                 # labels differ...
        verdicts = {
            r.report.serialize().split(b"\n", 1)[1] for r in report.results
        }
        assert len(verdicts) == 1              # ...but verdicts do not

    def test_bare_bytes_and_bad_items_get_positional_labels(
        self, corpus, all_policies
    ):
        with BatchInspector(all_policies, mode="serial") as bi:
            report = bi.inspect_batch([corpus[0][1], ("bad", None)])
        assert report.results[0].label == "binary-0"
        assert report.results[0].report is not None
        assert report.results[1].error is not None
        assert report.summary.errors == 1


class TestInputSnapshots:
    def test_mutable_buffers_are_snapshotted(self, all_policies, good_elf):
        """bytearray/memoryview inputs are coerced once up front: cache
        keys and verdicts belong to the bytes at submission time, not
        whatever the caller later does to the buffer."""
        with BatchInspector(all_policies, mode="serial") as inspector:
            oracle = inspector.inspect_batch([("a", good_elf)]).results[0]
            assert oracle.report is not None

            buf = bytearray(good_elf)
            first = inspector.inspect_batch([("a", buf)]).results[0]
            assert first.source == "cache"  # same content as the bytes submit
            assert first.report.serialize() == oracle.report.serialize()

            buf[0] ^= 0xFF  # caller mutates their buffer afterwards...
            second = inspector.inspect_batch([("a", buf)]).results[0]
            # ...and gets a fresh verdict for the new content (corrupt
            # magic -> structural reject), not the stale cache entry
            assert second.source != "cache"
            assert not second.report.compliant
            assert second.report.rejected_stage == "elf"

            # the original content's entry was never poisoned
            again = inspector.inspect_batch([("a", good_elf)]).results[0]
            assert again.source == "cache"
            assert again.report.serialize() == oracle.report.serialize()

    def test_memoryview_input_matches_bytes(self, all_policies, good_elf):
        with BatchInspector(all_policies, mode="serial", cache=False) as insp:
            a = insp.inspect_batch([("a", good_elf)]).results[0]
            b = insp.inspect_batch([("a", memoryview(good_elf))]).results[0]
        assert a.report.serialize() == b.report.serialize()


class TestPool:
    def test_default_workers(self, all_policies):
        assert default_workers() == min(os.cpu_count() or 1, 8)
        with BatchInspector(all_policies, mode="process") as inspector:
            assert inspector.workers == default_workers()

    def test_close_is_idempotent(self, all_policies, good_elf):
        inspector = BatchInspector(all_policies, mode="process", workers=2)
        report = inspector.inspect_batch([("a", good_elf)])
        assert report.results[0].report is not None
        inspector.close()
        inspector.close()
        assert inspector._executor is None

    def test_close_with_inflight_future_then_reuse(self, all_policies, good_elf):
        """close() after a timed-out task waits for the pool to drain,
        and the inspector comes back with a correct verdict afterwards."""
        inspector = BatchInspector(
            all_policies, mode="process", workers=2, timeout=1e-6,
        )
        rushed = inspector.inspect_batch([("a", good_elf)]).results[0]
        assert rushed.report is None
        assert "timeout" in (rushed.error or "")
        inspector.close()

        inspector.timeout = None
        fresh = inspector.inspect_batch([("b", good_elf)]).results[0]
        assert fresh.report is not None
        assert fresh.report.compliant
        inspector.close()

    def test_dispatch_counts_one_future_per_unique_miss(
        self, corpus, all_policies
    ):
        fleet = corpus[:len(VARIANT_KINDS)]  # holds one duplicate
        unique = len({raw for _, raw in fleet})
        assert unique < len(fleet)
        with BatchInspector(all_policies, mode="process", workers=2) as insp:
            cold = insp.inspect_batch(fleet)
            warm = insp.inspect_batch(fleet)
        assert cold.summary.dispatch == {"futures_submitted": unique}
        assert warm.summary.dispatch == {"futures_submitted": 0}
        with BatchInspector(all_policies, mode="serial") as insp:
            serial = insp.inspect_batch(fleet)
        assert serial.summary.dispatch == {"futures_submitted": 0}

    def test_serial_and_process_produce_identical_wire(
        self, corpus, all_policies
    ):
        """Byte-identical verdict wire (or error text) for every variant
        kind, including the reject paths."""
        fleet = corpus[:len(VARIANT_KINDS)]  # one full rotation
        runs = {}
        for mode in ("serial", "process"):
            with BatchInspector(
                all_policies, workers=2, cache=False, mode=mode
            ) as insp:
                report = insp.inspect_batch(fleet)
            runs[mode] = {
                item.label: (
                    ("report", item.report.serialize())
                    if item.report is not None else ("error", item.error)
                )
                for item in report.results
            }
        assert runs["process"] == runs["serial"]

    def test_daemon_serves_through_process_inspector(
        self, all_policies, good_elf, demo_plain
    ):
        """End-to-end: attested client -> daemon -> process pool."""
        daemon = small_daemon(
            all_policies, inspector_mode="process", workers=2,
        )
        try:
            client = daemon_client(daemon, all_policies, timeout=20.0)
            with client:
                good = client.inspect(good_elf, label="good")
                bad = client.inspect(demo_plain.elf, label="bad")
            assert daemon.inspector._executor is not None
            assert not daemon.inspector.degraded
            assert good.accepted
            assert good.report.compliant
            assert bad.report is not None and not bad.report.compliant
        finally:
            daemon.stop()
            daemon.inspector.close()

    def test_process_pool_never_loads_shared_memory(self):
        """Each binary reaches its pool worker as the task argument: a
        process-mode batch and a process-mode daemon submission run
        without ever importing ``multiprocessing.shared_memory``."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        script = textwrap.dedent("""
            import json, sys
            from repro.service import BatchInspector
            from tests.conftest import (
                compile_demo, daemon_client, small_daemon,
            )
            from repro.core import (
                IfccPolicy, LibraryLinkingPolicy, PolicyRegistry,
                StackProtectionPolicy,
            )
            from repro.toolchain import build_libc

            libc = build_libc()
            policies = PolicyRegistry([
                LibraryLinkingPolicy(libc.reference_hashes()),
                StackProtectionPolicy(exempt_functions=set(libc.offsets)),
                IfccPolicy(),
            ])
            elf = compile_demo(libc, stack_protector=True, ifcc=True).elf
            with BatchInspector(policies, mode="process", workers=2) as bi:
                item = bi.inspect_batch([("batch", elf)]).results[0]
            daemon = small_daemon(
                policies, inspector_mode="process", workers=2,
            )
            try:
                with daemon_client(daemon, policies, timeout=20.0) as client:
                    verdict = client.inspect(elf, label="daemon")
                pooled = daemon.inspector._executor is not None
            finally:
                daemon.stop()
                daemon.inspector.close()
            print(json.dumps({
                "batch": [item.source, item.accepted],
                "daemon": [verdict.source, verdict.accepted, pooled],
                "shared_memory": "multiprocessing.shared_memory" in sys.modules,
            }))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["batch"] == ["inspected", True]
        assert result["daemon"] == ["inspected", True, True]
        assert result["shared_memory"] is False


class TestCachePolicyIsolation:
    def test_shared_cache_cannot_leak_across_policy_digests(
        self, corpus, libc, all_policies
    ):
        """Two agreements sharing one cache: a compliant-under-lenient
        binary must still be rejected under the strict agreement."""
        shared = InspectionCache()
        # find a variant that is compliant under the full (instrumented)
        # agreement
        compliant_label, compliant_elf = next(
            (l, r) for l, r in corpus if l.endswith("-compliant")
        )
        lenient = all_policies
        strict = PolicyRegistry([
            # no exemptions at all: libc's own functions now fail the
            # canary check, so the same bytes must be rejected
            StackProtectionPolicy(exempt_functions=set()),
        ])
        with BatchInspector(lenient, mode="serial", cache=shared) as bi:
            first = bi.inspect_batch([(compliant_label, compliant_elf)])
        assert first.results[0].accepted
        with BatchInspector(strict, mode="serial", cache=shared) as bi:
            second = bi.inspect_batch([(compliant_label, compliant_elf)])
        assert second.summary.cache_hits == 0   # different digest: no hit
        assert not second.results[0].accepted
        assert "stack-protection" in second.results[0].report.policies_failed


class TestSoak:
    def test_many_batches_under_concurrent_submitters(
        self, corpus, baseline, all_policies
    ):
        """One inspector, one shared cache, four submitter threads each
        pushing shuffled fleets — every verdict everywhere must equal
        the sequential baseline."""
        expected = {
            label: wire for (label, _), wire in zip(corpus, baseline)
        }
        inspector = BatchInspector(all_policies, workers=4, mode="process")
        errors: list[str] = []

        def submitter(seed: int) -> None:
            import random

            rng = random.Random(seed)
            fleet = list(corpus)
            for _ in range(3):
                rng.shuffle(fleet)
                report = inspector.inspect_batch(fleet)
                for item in report.results:
                    if item.error is not None:
                        errors.append(f"{item.label}: {item.error}")
                    elif item.report.serialize() != expected[item.label]:
                        errors.append(f"{item.label}: verdict drift")

        threads = [
            threading.Thread(target=submitter, args=(s,)) for s in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        inspector.close()
        assert not errors, errors[:5]
        # steady state: far fewer inspections than verdicts served
        stats = inspector.cache.stats()
        assert stats.hits > stats.puts
