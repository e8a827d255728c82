"""Crash-recovery property battery for the on-disk verdict store.

The :class:`~repro.service.VerdictStore` is the daemon's durable tier,
and its contract is absolute: **every** corruption path — torn write,
truncated blob, bitflip, a blob filed under the wrong key, a temp file
left by an interrupted publish — surfaces as a typed
:class:`~repro.errors.StoreError` (or a clean miss at the degraded
:meth:`get`/:class:`TieredCache` layer) and the offending blob is
discarded.  A corrupt blob must never be served as a verdict hit.

The battery covers the satellite checklist explicitly: torn write,
digest mismatch, duplicate publish, and a concurrent reader racing a
compaction — plus hypothesis sweeps over arbitrary payloads and
truncation points.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.service import (
    InspectionCache,
    TieredCache,
    VerdictStore,
    ZERO_STORE,
    cache_key,
    generate_variant_corpus,
)
from repro.service.store import _BLOB_HEADER, _DIGEST_LEN


KEY = ("a" * 64, "b" * 64)
OTHER = ("c" * 64, "d" * 64)


@pytest.fixture()
def store(tmp_path):
    return VerdictStore(tmp_path / "store", fsync=False)


def _blob_path(store: VerdictStore, key) -> "Path":
    return store._path_for(key)


# --------------------------------------------------------------- round trip


class TestRoundTrip:
    def test_put_load_round_trip(self, store):
        store.put(KEY, b"verdict-wire")
        assert store.load(KEY) == b"verdict-wire"
        assert KEY in store
        assert len(store) == 1

    def test_absent_key_is_a_plain_miss(self, store):
        assert store.load(KEY) is None
        assert store.get(KEY) is None
        assert store.stats()["misses"] == 2

    def test_string_and_tuple_keys_are_distinct(self, store):
        store.put("solo", b"one")
        store.put(("solo", "extra"), b"two")
        assert store.load("solo") == b"one"
        assert store.load(("solo", "extra")) == b"two"

    def test_non_bytes_payload_is_a_typed_error(self, store):
        with pytest.raises(StoreError):
            store.put(KEY, "not-bytes")

    def test_survives_reopen(self, store):
        store.put(KEY, b"durable")
        again = VerdictStore(store.root, fsync=False)
        assert again.load(KEY) == b"durable"
        assert again.stats()["recovered"] == 1

    def test_stats_schema_matches_zero_store(self, store):
        assert set(store.stats()) == set(ZERO_STORE)
        assert store.stats()["attached"] is True


# --------------------------------------------------------------- torn write


class TestTornWrite:
    @pytest.mark.parametrize("keep", [0, 1, _BLOB_HEADER.size - 1,
                                      _BLOB_HEADER.size + 3])
    def test_truncated_blob_is_typed_and_discarded(self, store, keep):
        store.put(KEY, b"payload-bytes")
        path = _blob_path(store, KEY)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(StoreError):
            store.load(KEY)
        assert not path.exists(), "corrupt blob must be discarded"
        # degraded layer: a miss, never a false hit
        assert store.get(KEY) is None

    def test_truncated_tail_only(self, store):
        store.put(KEY, b"payload-bytes")
        path = _blob_path(store, KEY)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(StoreError):
            store.load(KEY)
        assert store.get(KEY) is None

    def test_interrupted_publish_leaves_no_blob(self, store, tmp_path):
        """A temp file that never reached its atomic rename is swept by
        recovery and is invisible to readers meanwhile."""
        path = _blob_path(store, KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.stem}.999.1.tmp"
        tmp.write_bytes(b"half-a-blo")
        assert store.load(KEY) is None  # reader: clean miss
        swept = store.recover()
        assert swept["discarded"] == 1
        assert not tmp.exists()


# ----------------------------------------------------------- digest mismatch


class TestDigestMismatch:
    def test_bitflip_anywhere_is_typed_and_discarded(self, store):
        store.put(KEY, b"payload-bytes")
        path = _blob_path(store, KEY)
        blob = bytearray(path.read_bytes())
        for offset in (0, 5, _BLOB_HEADER.size + 2, len(blob) - 1):
            blob2 = bytearray(blob)
            blob2[offset] ^= 0x40
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(blob2))
            with pytest.raises(StoreError):
                store.load(KEY)
            assert not path.exists()

    def test_blob_filed_under_wrong_key_is_refused(self, store):
        """A valid blob renamed onto another key's digest path (misfiled
        or deliberately swapped) must not serve that other key."""
        store.put(KEY, b"the-real-verdict")
        src = _blob_path(store, KEY)
        dst = _blob_path(store, OTHER)
        dst.parent.mkdir(parents=True, exist_ok=True)
        src.rename(dst)
        with pytest.raises(StoreError):
            store.load(OTHER)
        assert store.get(OTHER) is None
        assert not dst.exists()

    def test_recovery_discards_misfiled_blob(self, store):
        store.put(KEY, b"the-real-verdict")
        src = _blob_path(store, KEY)
        dst = src.with_name("f" * 64 + ".blob")
        src.rename(dst)
        swept = store.recover()
        assert swept == {"kept": 0, "discarded": 1}
        assert not dst.exists()

    def test_recovery_keeps_only_valid_blobs(self, store):
        store.put(KEY, b"good")
        store.put(OTHER, b"also-good")
        bad = _blob_path(store, ("e" * 64, "f" * 64))
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_bytes(b"EGVS-but-not-really")
        swept = store.recover()
        assert swept == {"kept": 2, "discarded": 1}
        assert store.load(KEY) == b"good"
        assert store.load(OTHER) == b"also-good"


# ---------------------------------------------------------- duplicate publish


class TestDuplicatePublish:
    def test_republish_replaces_atomically(self, store):
        store.put(KEY, b"first")
        store.put(KEY, b"second")
        assert store.load(KEY) == b"second"
        assert len(store) == 1  # replacement, not accumulation
        assert store.stats()["puts"] == 2

    def test_concurrent_duplicate_publishers_never_tear(self, store):
        """Many threads republishing the same key: every read observes
        one of the complete published payloads, never a mixture."""
        payloads = [bytes([i]) * 64 for i in range(8)]
        stop = threading.Event()
        errors: list[BaseException] = []

        def publisher(payload: bytes) -> None:
            try:
                while not stop.is_set():
                    store.put(KEY, payload)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=publisher, args=(p,)) for p in payloads
        ]
        for t in threads:
            t.start()
        seen = set()
        try:
            for _ in range(200):
                wire = store.get(KEY)
                if wire is not None:
                    seen.add(wire)
        finally:
            stop.set()
            for t in threads:
                t.join(30.0)
        assert not errors
        assert seen, "readers should have observed published payloads"
        assert seen <= set(payloads), "reader observed a torn payload"


# ------------------------------------------------ reader racing a compaction


class TestCompaction:
    def test_compact_prunes_to_limit(self, store):
        for i in range(10):
            store.put((f"{i:064d}", "k"), b"wire-%d" % i)
        removed = store.compact(max_blobs=4)
        assert removed == 6
        assert store.stats()["compacted"] == 6
        kept = sum(
            1 for i in range(10) if store.get((f"{i:064d}", "k")) is not None
        )
        assert kept == 4

    def test_concurrent_reader_during_compaction(self, store):
        """A reader racing repeated compactions sees, for every key,
        either the complete blob or a clean miss — never a typed error
        from a half-removed file, never wrong bytes."""
        keys = [(f"{i:064d}", "x") for i in range(24)]
        for i, key in enumerate(keys):
            store.put(key, b"payload-%03d" % i)
        stop = threading.Event()
        problems: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                for i, key in enumerate(keys):
                    try:
                        wire = store.load(key)
                    except StoreError as exc:
                        problems.append(f"typed error during compaction: {exc}")
                        return
                    if wire is not None and wire != b"payload-%03d" % i:
                        problems.append(f"wrong bytes for key {i}")
                        return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for limit in (20, 12, 6, 2, 0):
                store.compact(max_blobs=limit)
                # republish everything so the next round has work
                for i, key in enumerate(keys):
                    store.put(key, b"payload-%03d" % i)
        finally:
            stop.set()
            for t in threads:
                t.join(30.0)
        assert not problems, problems

    def test_capacity_bound_via_constructor(self, tmp_path):
        store = VerdictStore(tmp_path / "cap", fsync=False, capacity=3)
        for i in range(8):
            store.put((f"{i:064d}", "k"), b"w")
        assert store.compact() == 5
        assert len(store) == 3


# ------------------------------------------------------- hypothesis sweeps


class TestProperties:
    @given(payload=st.binary(min_size=0, max_size=512),
           parts=st.lists(st.text(
               alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=32,
           ), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_any_key_any_payload(self, tmp_path_factory,
                                            payload, parts):
        store = VerdictStore(
            tmp_path_factory.mktemp("prop"), fsync=False
        )
        key = tuple(parts)
        store.put(key, payload)
        assert store.load(key) == payload

    @given(payload=st.binary(min_size=1, max_size=256),
           cut=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_is_typed_never_a_hit(self, tmp_path_factory,
                                                 payload, cut):
        store = VerdictStore(
            tmp_path_factory.mktemp("trunc"), fsync=False
        )
        store.put(KEY, payload)
        path = _blob_path(store, KEY)
        blob = path.read_bytes()
        cut = cut % len(blob)  # strictly shorter than the real blob
        path.write_bytes(blob[:cut])
        with pytest.raises(StoreError):
            store.load(KEY)
        assert store.get(KEY) is None


# ------------------------------------------------------------- tiered cache


@pytest.fixture(scope="module")
def small_corpus(libc):
    return generate_variant_corpus(6, libc=libc)


@pytest.fixture(scope="module")
def inspected(small_corpus, all_policies):
    from repro.core import EnGarde

    engarde = EnGarde(all_policies)
    out = []
    for label, raw in small_corpus:
        outcome = engarde.inspect(raw, benchmark=label)
        out.append((label, raw, outcome.report))
    return out


class TestTieredCache:
    def test_put_writes_through_and_survives_restart(
        self, tmp_path, all_policies, inspected
    ):
        store = VerdictStore(tmp_path / "tier", fsync=False)
        cache = TieredCache(store, capacity=16)
        for label, raw, report in inspected:
            cache.put(cache_key(raw, all_policies), report)
        assert store.stats()["puts"] == len(inspected)

        # a brand-new process: fresh memory tier, same directory
        cache2 = TieredCache(VerdictStore(tmp_path / "tier", fsync=False), 16)
        for label, raw, report in inspected:
            got = cache2.get(cache_key(raw, all_policies), benchmark=label)
            assert got is not None, f"{label}: store-warm get missed"
            assert got.serialize() == report.serialize()

    def test_store_hit_is_promoted_to_memory(
        self, tmp_path, all_policies, inspected
    ):
        store = VerdictStore(tmp_path / "tier", fsync=False)
        seed = TieredCache(store, capacity=16)
        label, raw, report = inspected[0]
        key = cache_key(raw, all_policies)
        seed.put(key, report)

        cache = TieredCache(store, capacity=16)
        assert cache.get(key, benchmark=label) is not None
        before = store.stats()["hits"]
        assert cache.get(key, benchmark=label) is not None
        assert store.stats()["hits"] == before, "second get must hit memory"

    def test_corrupt_blob_degrades_to_miss_not_false_hit(
        self, tmp_path, all_policies, inspected
    ):
        store = VerdictStore(tmp_path / "tier", fsync=False)
        seed = TieredCache(store, capacity=16)
        label, raw, report = inspected[0]
        key = cache_key(raw, all_policies)
        seed.put(key, report)
        path = store._path_for(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        cache = TieredCache(store, capacity=16)
        assert cache.get(key, benchmark=label) is None
        assert not path.exists(), "corrupt blob must be discarded"
        assert store.stats()["corrupt_discarded"] == 1

    def test_forged_round_trip_blob_is_refused(
        self, tmp_path, all_policies, inspected
    ):
        """A blob whose envelope digest is valid but whose payload does
        not round-trip through ComplianceReport is refused."""
        store = VerdictStore(tmp_path / "tier", fsync=False)
        label, raw, _ = inspected[0]
        key = cache_key(raw, all_policies)
        store.put(key, b"not-a-report-wire")
        cache = TieredCache(store, capacity=16)
        assert cache.get(key, benchmark=label) is None
        assert store._path_for(key).exists() is False

    def test_is_a_drop_in_inspection_cache(self, tmp_path):
        store = VerdictStore(tmp_path / "tier", fsync=False)
        cache = TieredCache(store, capacity=4)
        assert isinstance(cache, InspectionCache)
        tiers = cache.tier_stats()
        assert set(tiers) == {"memory", "store"}
        assert set(tiers["store"]) == set(ZERO_STORE)
