"""Prime generation for RSA: trial division + Miller-Rabin.

Primes are drawn from a caller-supplied :class:`~repro.crypto.mac.HmacDrbg`
so that key generation is deterministic under a fixed seed — essential for
reproducible enclave-provisioning experiments.
"""

from __future__ import annotations

import math

from .mac import HmacDrbg

__all__ = ["is_probable_prime", "generate_prime", "SMALL_PRIMES"]

# Primes below 1000, used for cheap trial division before Miller-Rabin.


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    return tuple(i for i, f in enumerate(flags) if f)


SMALL_PRIMES = _sieve(1000)

# Product of all small primes: one gcd against this replaces the whole
# trial-division loop for large candidates.  gcd(n, primorial) > 1 iff
# some small prime divides n, so accept/reject decisions (and therefore
# the DRBG draw sequence and every generated key) are unchanged.
_PRIMORIAL = math.prod(SMALL_PRIMES)
_SMALL_PRIME_SET = frozenset(SMALL_PRIMES)

# Product of the primes in (1000, 2**15), a 45.5k-bit screen for
# generate_prime.  A witness a that passes a Miller-Rabin round makes
# a**(n-1) == 1 (mod n), hence mod every divisor g of n (g = n
# included), so pow(a, n - 1, g) != 1 for g = gcd(n, _SCREEN) > 1 proves
# that the round fails without exponentiating mod n.  The screen decides
# no round differently from the full round; it only decides some cheaper.
_SCREEN = math.prod(_sieve(1 << 15)[len(SMALL_PRIMES):])

# Witnesses generate_prime draws per candidate that survives trial
# division, whether or not it exponentiates them.
_DRAWN_ROUNDS = 40

# log2 of the error bound generate_prime's round count must meet.
_LOG2_TARGET_ERROR = -100


def _trial_division(n: int) -> bool | None:
    """Settle *n* by its small factors, or None if Miller-Rabin must."""
    if n <= SMALL_PRIMES[-1]:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    return None


def _passes_round(n: int, a: int) -> bool:
    """One Miller-Rabin round: False iff *a* proves the odd *n* composite."""
    # Write n - 1 = d * 2**r with d odd.
    r = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> r, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = pow(x, 2, n)
        if x == n - 1:
            return True
    return False


def _screen_rejects(n: int, g: int, a: int) -> bool:
    """True only if witness *a* fails a Miller-Rabin round on *n*, decided
    mod ``g = gcd(n, _SCREEN)``; False leaves *a* to :func:`_passes_round`."""
    return g > 1 and pow(a, n - 1, g) != 1


def _dlp_rounds(bits: int) -> int:
    """Fewest Miller-Rabin rounds that keep a random *bits*-bit candidate's
    error at or below 2**-100, by Damgard-Landrock-Pomerance bound (ii).

    The bound (HAC Fact 4.48(ii)) is
    ``p(k, t) < k**1.5 * 2**t * t**-0.5 * 4**(2 - sqrt(t*k))`` for
    k >= 21 and 3 <= t <= k/9.  It falls as t grows over that range, so
    when t = k // 9 misses the target (k < 207) no t does, and the
    generator keeps all 40 rounds.
    """
    k = bits
    for t in range(3, k // 9 + 1):  # t >= 3 and t <= k/9 imply k >= 27
        log2_p = (1.5 * math.log2(k) + t - 0.5 * math.log2(t)
                  + 2 * (2 - math.sqrt(t * k)))
        if log2_p <= _LOG2_TARGET_ERROR:
            return t
    return _DRAWN_ROUNDS


def is_probable_prime(n: int, rounds: int = 40, rng: HmacDrbg | None = None) -> bool:
    """Miller-Rabin primality test.

    With 40 random-base rounds the error probability is below 2**-80 for
    any *n* (each round errs with probability at most 1/4).  When *rng*
    is None, witnesses are the first *rounds* small primes (deterministic
    and adequate for the sizes used here).
    """
    settled = _trial_division(n)
    if settled is not None:
        return settled
    for i in range(rounds):
        if rng is None:
            a = SMALL_PRIMES[i % len(SMALL_PRIMES)]
        else:
            a = rng.randint(2, n - 2)
        if not _passes_round(n, a):
            return False
    return True


def generate_prime(bits: int, rng: HmacDrbg) -> int:
    """Generate a random prime with exactly *bits* bits.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly 2*bits bits (the standard RSA trick).

    Each candidate that survives trial division gets 40 random-base
    Miller-Rabin witnesses from *rng*, but only the first t are
    exponentiated: t is the fewest rounds whose Damgard-Landrock-Pomerance
    bound (ii) puts the chance of returning a composite at or below
    2**-100 (t = 17, 11, 8, 4 for 256-, 384-, 512-, 1024-bit primes; all
    40 below 207 bits).  That bound holds only because every candidate is
    a fresh random draw from this generator's own DRBG; for an arbitrary
    *n*, :func:`is_probable_prime` and its 4**-rounds bound apply.

    Witnesses t+1..40 are still drawn so that the DRBG stream, and with
    it every prime, key and fixture built from it, is the one the
    40-round generator (:func:`repro.crypto.ref.ref_generate_prime`)
    produces.  The two can differ only if some composite candidate passes
    t rounds and fails a later one, which is the same <= 2**-100 event in
    which this generator returns a composite.

    Before exponentiating a round mod the candidate n, the generator
    screens it mod g = gcd(n, P), P the product of the primes in
    (1000, 2**15): a witness that passes a round has a**(n-1) == 1
    (mod n), hence mod g, so ``pow(a, n - 1, g) != 1`` rejects n with
    certainty and the full round runs only when the screen falls
    through.  Every round is decided as the full round decides it, so
    the witness draws, the DRBG stream and every prime are unchanged.
    About a third of the candidates that survive trial division have
    such a factor; the screen settles most of their rounds.
    """
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    exponentiated = _dlp_rounds(bits)
    while True:
        candidate = rng.randbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2))  # full size
        candidate |= 1  # odd
        settled = _trial_division(candidate)
        if settled is None:
            settled = True
            g = math.gcd(candidate, _SCREEN)
            for i in range(_DRAWN_ROUNDS):
                a = rng.randint(2, candidate - 2)
                if i < exponentiated and (
                    _screen_rejects(candidate, g, a)
                    or not _passes_round(candidate, a)
                ):
                    settled = False
                    break
        if settled:
            return candidate
