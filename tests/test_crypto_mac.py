"""HMAC-SHA256 (RFC 4231 vectors) and the HMAC-DRBG."""

from __future__ import annotations

import hashlib
import hmac as std_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import HmacDrbg, generate_keypair, hmac_sha256
from repro.crypto import mac
from repro.crypto.mac import constant_time_eq, hmac_key

# RFC 4231 test cases 1, 2, 3, 4, 6, 7 (the SHA-256 rows; case 5 is the
# truncated-output variant, which this API does not expose).
RFC4231 = [
    (
        b"\x0b" * 20,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        b"\xaa" * 20,
        b"\xdd" * 50,
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)),  # 25-byte key (shorter than the block)
        b"\xcd" * 50,
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
    (
        b"\xaa" * 131,  # key longer than the block size
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
    (
        b"\xaa" * 131,  # long key *and* long data
        b"This is a test using a larger than block-size key and a larger "
        b"than block-size data. The key needs to be hashed before being "
        b"used by the HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
    ),
]

_RFC4231_IDS = ["tc1", "tc2", "tc3", "tc4", "tc6", "tc7"]


@pytest.mark.parametrize("key,msg,expected", RFC4231, ids=_RFC4231_IDS)
def test_rfc4231(key, msg, expected):
    assert hmac_sha256(key, msg).hex() == expected


@pytest.mark.parametrize("key,msg,expected", RFC4231, ids=_RFC4231_IDS)
def test_rfc4231_prepared_key(key, msg, expected):
    """The cached-midstate path produces the same RFC 4231 digests."""
    prepared = hmac_key(key)
    assert prepared.mac(msg).hex() == expected
    # split updates through the same prepared key
    assert prepared.mac(msg[:7], msg[7:]).hex() == expected


@given(st.binary(max_size=200), st.binary(max_size=500))
@settings(max_examples=150, deadline=None)
def test_matches_stdlib_hmac(key, msg):
    expected = std_hmac.new(key, msg, hashlib.sha256).digest()
    assert hmac_sha256(key, msg) == expected


class StdlibDrbg:
    """SP 800-90A HMAC_DRBG (SHA-256) on stdlib ``hmac``, plus the
    integer helpers and fork exactly as HmacDrbg defines them."""

    def __init__(self, seed, personalization=b""):
        self.key, self.value = b"\x00" * 32, b"\x01" * 32
        self.update(seed + personalization)

    def hmac(self, message):
        return std_hmac.new(self.key, message, hashlib.sha256).digest()

    def update(self, provided=None):
        data = b"" if provided is None else provided
        self.key = self.hmac(self.value + b"\x00" + data)
        self.value = self.hmac(self.value)
        if provided is not None:
            self.key = self.hmac(self.value + b"\x01" + data)
            self.value = self.hmac(self.value)

    def generate(self, n):
        out = b""
        while len(out) < n:
            self.value = self.hmac(self.value)
            out += self.value
        self.update()
        return out[:n]

    def randint(self, lo, hi):
        span = hi - lo + 1
        nbytes = (span.bit_length() + 7) // 8 + 1
        limit = (1 << (8 * nbytes)) - (1 << (8 * nbytes)) % span
        while True:
            candidate = int.from_bytes(self.generate(nbytes), "big")
            if candidate < limit:
                return lo + candidate % span

    def randbits(self, k):
        nbytes = (k + 7) // 8
        return int.from_bytes(self.generate(nbytes), "big") >> (8 * nbytes - k)

    def reseed(self, entropy):
        self.update(entropy)

    def fork(self, label):
        return StdlibDrbg(self.generate(32), personalization=label)


def _exercise(drbg) -> list:
    """A fixed mix of every output path, including reseed and fork."""
    out = [drbg.generate(n) for n in (0, 1, 31, 32, 33, 100)]
    out += [drbg.randint(lo, hi) for lo, hi in ((0, 0), (0, 1), (2, 255),
                                                (2, 256), (5, 10**40))]
    out += [drbg.randbits(k) for k in (1, 7, 8, 9, 257)]
    drbg.reseed(b"fresh")
    child = drbg.fork(b"child")
    out += [child.generate(48), child.randint(0, 999), drbg.generate(16)]
    return out


class TestHmacDrbg:
    @pytest.mark.parametrize("seed", [b"", b"seed", b"\xff" * 100])
    def test_matches_stdlib_replay(self, seed):
        drbg, replay = HmacDrbg(seed, b"pers"), StdlibDrbg(seed, b"pers")
        assert _exercise(drbg) == _exercise(replay)
        assert (drbg._key, drbg._value) == (replay.key, replay.value)

    def test_leaves_the_shared_hmac_key_cache_alone(self):
        """Regression: the DRBG used to MAC through hmac_key, which kept
        every (overwritten) DRBG key as raw bytes in the process-global
        LRU and evicted every other caller's prepared key."""
        hmac_key(b"someone else's long-lived key")
        before = list(mac._KEY_CACHE)
        drbg = HmacDrbg(b"seed")
        _exercise(drbg)
        generate_keypair(256, drbg)
        assert list(mac._KEY_CACHE) == before

    def test_deterministic(self):
        assert HmacDrbg(b"seed").generate(64) == HmacDrbg(b"seed").generate(64)

    def test_different_seeds_diverge(self):
        assert HmacDrbg(b"a").generate(32) != HmacDrbg(b"b").generate(32)

    def test_personalization_diverges(self):
        a = HmacDrbg(b"s", personalization=b"x").generate(32)
        b = HmacDrbg(b"s", personalization=b"y").generate(32)
        assert a != b

    def test_sequential_outputs_differ(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.generate(32) != drbg.generate(32)

    def test_generate_zero_and_negative(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.generate(0) == b""
        with pytest.raises(ValueError):
            drbg.generate(-1)

    def test_reseed_changes_stream(self):
        a = HmacDrbg(b"seed")
        b = HmacDrbg(b"seed")
        a.generate(16)
        b.generate(16)
        a.reseed(b"fresh entropy")
        assert a.generate(16) != b.generate(16)

    def test_empty_reseed_runs_both_update_rounds(self):
        """Regression: SP 800-90A's HMAC_DRBG_Update runs its second
        round whenever provided_data was *given* — including an explicit
        empty string.  The old ``provided or b""`` collapsed ``b""`` into
        the None path and skipped the round; this replays the correct
        two-round schedule with stdlib HMAC and demands a byte match."""

        def ref_update(key, value, data):
            key = std_hmac.new(key, value + b"\x00" + data, hashlib.sha256).digest()
            value = std_hmac.new(key, value, hashlib.sha256).digest()
            key = std_hmac.new(key, value + b"\x01" + data, hashlib.sha256).digest()
            value = std_hmac.new(key, value, hashlib.sha256).digest()
            return key, value

        drbg = HmacDrbg(b"seed")
        key, value = drbg._key, drbg._value
        drbg.reseed(b"")
        assert (drbg._key, drbg._value) == ref_update(key, value, b"")
        # and the one-round no-data path is *not* what ran for b""
        one_round_key = std_hmac.new(key, value + b"\x00", hashlib.sha256).digest()
        assert drbg._key != one_round_key

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_randint_in_range(self, a, b):
        lo, hi = min(a, b), max(a, b)
        value = HmacDrbg(b"seed").randint(lo, hi)
        assert lo <= value <= hi

    def test_randint_empty_range(self):
        with pytest.raises(ValueError):
            HmacDrbg(b"s").randint(5, 4)

    def test_randint_covers_range(self):
        drbg = HmacDrbg(b"coverage")
        seen = {drbg.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_randbits_width(self):
        drbg = HmacDrbg(b"seed")
        for k in (1, 7, 8, 9, 64, 257):
            assert 0 <= drbg.randbits(k) < (1 << k)
        with pytest.raises(ValueError):
            drbg.randbits(0)

    def test_choice_and_empty(self):
        drbg = HmacDrbg(b"seed")
        assert drbg.choice([42]) == 42
        assert drbg.choice("abc") in "abc"
        with pytest.raises(ValueError):
            drbg.choice([])

    def test_shuffle_is_permutation(self):
        drbg = HmacDrbg(b"seed")
        items = list(range(50))
        shuffled = list(items)
        drbg.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to collide

    def test_fork_independence(self):
        parent = HmacDrbg(b"seed")
        a = parent.fork(b"left")
        b = parent.fork(b"right")
        assert a.generate(32) != b.generate(32)

    def test_fork_deterministic(self):
        a = HmacDrbg(b"seed").fork(b"x").generate(16)
        b = HmacDrbg(b"seed").fork(b"x").generate(16)
        assert a == b


class TestConstantTimeEq:
    """The shared constant-time comparator (used by the channel's MAC
    check; replaces the hand-rolled copy that lived in channel.py)."""

    def test_equal_and_unequal(self):
        assert constant_time_eq(b"", b"")
        assert constant_time_eq(b"abc", b"abc")
        assert not constant_time_eq(b"abc", b"abd")
        assert not constant_time_eq(b"\x00" * 32, b"\x00" * 31 + b"\x01")

    def test_length_mismatch_short_circuits(self):
        # Documented: length is not secret, so a mismatch returns early.
        assert not constant_time_eq(b"abc", b"abcd")
        assert not constant_time_eq(b"", b"x")

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_equality(self, a, b):
        assert constant_time_eq(a, b) == (a == b)

    def test_accepts_memoryview(self):
        tag = bytes(range(32))
        assert constant_time_eq(memoryview(tag), tag)
        assert not constant_time_eq(memoryview(tag), bytes(32))
