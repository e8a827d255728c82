"""Miller-Rabin and RSA: keygen, encrypt/decrypt, sign/verify, padding."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    HmacDrbg,
    generate_keypair,
    generate_prime,
    is_probable_prime,
)
from repro.crypto import primes
from repro.crypto.primes import (
    _SCREEN,
    SMALL_PRIMES,
    _dlp_rounds,
    _passes_round,
    _screen_rejects,
    _sieve,
)
from repro.crypto.ref import ref_generate_prime
from repro.errors import CryptoError


def _drbg_state(drbg: HmacDrbg) -> tuple:
    return drbg._key, drbg._value, drbg._reseed_counter


def _log2_dlp_bound(k: int, t: int) -> float:
    """log2 of Damgard-Landrock-Pomerance bound (ii), HAC Fact 4.48(ii):
    p(k, t) < k**1.5 * 2**t * t**-0.5 * 4**(2 - sqrt(t*k))."""
    assert k >= 21 and 3 <= t <= k / 9
    return (1.5 * math.log2(k) + t - 0.5 * math.log2(t)
            + 2 * (2 - math.sqrt(t * k)))


class TestPrimes:
    def test_small_primes_table(self):
        assert SMALL_PRIMES[:10] == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        assert all(p < 1000 for p in SMALL_PRIMES)
        assert len(SMALL_PRIMES) == 168  # pi(1000)

    @pytest.mark.parametrize("p", [2, 3, 5, 97, 7919, 104729, 2**31 - 1])
    def test_known_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize("n", [0, 1, 4, 100, 7917, 2**31 - 3, 561, 41041])
    def test_known_composites(self, n):
        # 561 and 41041 are Carmichael numbers — Fermat liars, MR catches them
        assert not is_probable_prime(n)

    def test_generated_prime_has_exact_width(self):
        rng = HmacDrbg(b"primes")
        for bits in (16, 32, 64, 128):
            p = generate_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_top_two_bits_set(self):
        # guarantees n = p*q has exactly 2k bits
        p = generate_prime(64, HmacDrbg(b"x"))
        assert p >> 62 == 0b11

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(4, HmacDrbg(b"x"))


class TestRoundShortcut:
    """generate_prime exponentiates only the rounds the DLP bound needs,
    but must stay draw-for-draw identical to the 40-round generator."""

    @pytest.mark.parametrize("bits,seeds", [
        (8, 6), (128, 4), (256, 6), (384, 4), (512, 10), (1024, 1),
    ])
    def test_matches_forty_round_generator(self, bits, seeds, monkeypatch):
        # Count full rounds per candidate on both sides: without the
        # screen, the generator would exponentiate min(t, ref's count).
        rounds: Counter = Counter()

        def spy(n, a):
            rounds[n] += 1
            return _passes_round(n, a)

        monkeypatch.setattr(primes, "_passes_round", spy)
        t = _dlp_rounds(bits)
        skipped = 0
        for seed in range(seeds):
            label = b"shortcut-%d-%d" % (bits, seed)
            fast, ref = HmacDrbg(label), HmacDrbg(label)
            got = (generate_prime(bits, fast), generate_prime(bits, fast))
            fast_rounds = rounds.copy()
            rounds.clear()
            want = (ref_generate_prime(bits, ref), ref_generate_prime(bits, ref))
            assert got == want, (bits, seed)
            assert _drbg_state(fast) == _drbg_state(ref), (bits, seed)
            assert set(fast_rounds) <= set(rounds), (bits, seed)
            for n, full in rounds.items():
                assert fast_rounds[n] <= min(t, full), (bits, seed)
                skipped += min(t, full) - fast_rounds[n]
            rounds.clear()
        # the screen decided rounds, so the equality above is not vacuous
        assert skipped > 0 if bits >= 128 else skipped == 0, (bits, skipped)

    @pytest.mark.parametrize("bits,rounds", [
        (207, 23), (256, 17), (384, 11), (512, 8), (1024, 4),
    ])
    def test_round_count_is_the_fewest_meeting_the_bound(self, bits, rounds):
        assert _dlp_rounds(bits) == rounds
        assert _log2_dlp_bound(bits, rounds) <= -100
        assert _log2_dlp_bound(bits, rounds - 1) > -100

    @pytest.mark.parametrize("bits", [8, 64, 128, 200, 206])
    def test_sizes_below_207_bits_keep_forty_rounds(self, bits):
        assert _dlp_rounds(bits) == 40
        if bits >= 27:  # the bound's best valid t still misses 2**-100
            assert _log2_dlp_bound(bits, bits // 9) > -100


class TestKeygenScreen:
    """The screen rejects a witness mod g = gcd(n, _SCREEN) only when
    the full Miller-Rabin round on n would reject it too."""

    def test_screen_is_the_primes_between_1000_and_2_15(self):
        inside = _sieve(1 << 15)[len(SMALL_PRIMES):]
        assert inside[0] == 1009 and inside[-1] == 32749
        assert math.prod(inside) == _SCREEN
        assert 45_000 < _SCREEN.bit_length() < 46_000

    def test_fermat_liars_fall_through_to_the_full_round(self):
        # Chernick's Carmichael number: a**(n-1) == 1 (mod n) for every
        # coprime a, and each of its three factors lies inside the screen.
        n = 1171 * 2341 * 3511
        assert n == 9_624_742_921
        g = math.gcd(n, _SCREEN)
        assert g == n
        rng = random.Random(9624742921)
        coprime = rejected = 0
        for _ in range(2000):
            a = rng.randint(2, n - 2)
            if math.gcd(a, n) != 1:
                assert _screen_rejects(n, g, a)
                assert not _passes_round(n, a)
                continue
            coprime += 1
            assert not _screen_rejects(n, g, a), a
            rejected += not _passes_round(n, a)
        # the full round still proves n composite for most of them
        assert coprime > 1900 and coprime * 3 // 4 < rejected < coprime, (
            coprime, rejected)

    def test_screen_never_rejects_a_passing_witness(self):
        """Seeded property over composites p*m, p inside the screen.  Two
        fifths are rich in strong liars, so passing witnesses are common
        enough to test against: Chernick numbers (6k+1)(12k+1)(18k+1),
        and p(2p-1) with p = 3 (mod 4), where half the liars have
        a**((n-1)/2) == -1 (mod n)."""
        inside = _sieve(1 << 15)[len(SMALL_PRIMES):]
        is_inside = set(inside).__contains__
        chernick = [k for k in range(167, 1821)
                    if all(map(is_inside, (6 * k + 1, 12 * k + 1, 18 * k + 1)))]
        twice = [p for p in inside
                 if p % 4 == 3 and is_probable_prime(2 * p - 1)]
        rng = random.Random(20261019)
        screened = passed = 0
        for _ in range(300):
            kind = rng.randrange(5)
            if kind == 0:
                k = rng.choice(chernick)
                p, m = 6 * k + 1, (12 * k + 1) * (18 * k + 1)
            elif kind == 1:
                p = rng.choice(twice)
                m = 2 * p - 1
            else:
                p = rng.choice(inside)
                m = (rng.choice(inside), rng.getrandbits(64) | 1,
                     rng.getrandbits(256) | 1)[kind - 2]
            n = p * m
            g = math.gcd(n, _SCREEN)
            for _ in range(20):
                a = rng.randint(2, n - 2)
                passes = _passes_round(n, a)
                if _screen_rejects(n, g, a):
                    assert not passes, (p, m, a)
                    screened += 1
                passed += passes
        assert screened > 3000 and passed > 300, (screened, passed)


class TestRsa:
    @pytest.fixture(scope="class")
    def keypair(self):
        return generate_keypair(512, HmacDrbg(b"rsa-test"))

    def test_modulus_width(self, keypair):
        assert keypair.n.bit_length() == 512
        assert keypair.p * keypair.q == keypair.n

    def test_keygen_deterministic(self):
        a = generate_keypair(256, HmacDrbg(b"seed"))
        b = generate_keypair(256, HmacDrbg(b"seed"))
        assert (a.n, a.d) == (b.n, b.d)

    def test_encrypt_decrypt_roundtrip(self, keypair):
        rng = HmacDrbg(b"enc")
        for msg in (b"", b"x", b"hello world", b"\x00\x01\x02", b"a" * 32):
            ct = keypair.public_key.encrypt(msg, rng)
            assert keypair.decrypt(ct) == msg

    def test_ciphertext_randomised(self, keypair):
        rng = HmacDrbg(b"enc")
        a = keypair.public_key.encrypt(b"msg", rng)
        b = keypair.public_key.encrypt(b"msg", rng)
        assert a != b  # PKCS#1 v1.5 random filler

    def test_plaintext_too_long(self, keypair):
        with pytest.raises(CryptoError):
            keypair.public_key.encrypt(b"x" * 64, HmacDrbg(b"r"))  # 512-bit cap is 53

    def test_tampered_ciphertext_fails(self, keypair):
        ct = bytearray(keypair.public_key.encrypt(b"secret", HmacDrbg(b"r")))
        ct[-1] ^= 1
        with pytest.raises(CryptoError):
            keypair.decrypt(bytes(ct))

    def test_wrong_length_ciphertext(self, keypair):
        with pytest.raises(CryptoError):
            keypair.decrypt(b"\x00" * 10)

    def test_sign_verify(self, keypair):
        sig = keypair.sign(b"message")
        assert keypair.public_key.verify(b"message", sig)
        assert not keypair.public_key.verify(b"other", sig)

    def test_signature_tamper(self, keypair):
        sig = bytearray(keypair.sign(b"message"))
        sig[0] ^= 0x80
        assert not keypair.public_key.verify(b"message", bytes(sig))

    def test_verify_wrong_length(self, keypair):
        assert not keypair.public_key.verify(b"m", b"short")

    def test_fingerprint_stable_and_distinct(self, keypair):
        other = generate_keypair(512, HmacDrbg(b"other"))
        fp = keypair.public_key.fingerprint()
        assert fp == keypair.public_key.fingerprint()
        assert fp != other.public_key.fingerprint()
        assert len(fp) == 32

    def test_modulus_constraints(self):
        with pytest.raises(CryptoError):
            generate_keypair(64, HmacDrbg(b"r"))  # too small
        with pytest.raises(CryptoError):
            generate_keypair(513, HmacDrbg(b"r"))  # odd

    @pytest.mark.parametrize("e", [-3, 0, 1, 2, 4, 65536])
    def test_bad_public_exponent_rejected_before_any_draw(self, e):
        # e = 1 makes an identity key; no phi is coprime to an even e.
        rng = HmacDrbg(b"r")
        with pytest.raises(CryptoError, match="public exponent"):
            generate_keypair(256, rng, e=e)
        assert _drbg_state(rng) == _drbg_state(HmacDrbg(b"r"))

    def test_small_odd_exponent_accepted(self):
        keypair = generate_keypair(256, HmacDrbg(b"r"), e=3)
        assert keypair.e == 3
        assert (keypair.e * keypair.d) % ((keypair.p - 1) * (keypair.q - 1)) == 1

    @given(st.binary(min_size=0, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, msg):
        keypair = generate_keypair(512, HmacDrbg(b"prop"))
        ct = keypair.public_key.encrypt(msg, HmacDrbg(b"r" + msg))
        assert keypair.decrypt(ct) == msg
