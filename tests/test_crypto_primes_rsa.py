"""Miller-Rabin and RSA: keygen, encrypt/decrypt, sign/verify, padding."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    HmacDrbg,
    generate_keypair,
    generate_prime,
    is_probable_prime,
)
from repro.crypto.primes import SMALL_PRIMES, _dlp_rounds
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
        (8, 6), (128, 4), (256, 6), (384, 4), (512, 3), (1024, 1),
    ])
    def test_matches_forty_round_generator(self, bits, seeds):
        for seed in range(seeds):
            label = b"shortcut-%d-%d" % (bits, seed)
            fast, ref = HmacDrbg(label), HmacDrbg(label)
            got = (generate_prime(bits, fast), generate_prime(bits, fast))
            want = (ref_generate_prime(bits, ref), ref_generate_prime(bits, ref))
            assert got == want, (bits, seed)
            assert _drbg_state(fast) == _drbg_state(ref), (bits, seed)

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
