"""Modular arithmetic kernel.

Prime lists from a per-call sieve, primality and factorization by trial
division, p-adic valuations of factorials, the prime-domain checks shared
by the other modules, and the quadratic-residue bitmap that the reduced
walks and the billiard checks read the Legendre symbol from.  They read
it through `qr_bits`, which keeps the bitmap of the last prime asked for.

numpy is imported inside the prime sieve and QrTable, its only users, so
the primality checks and factorization load without it.

Every function is pure; the bitmaps are immutable after construction and
safe to share across worker processes.
"""

import math
from functools import lru_cache
from itertools import chain

from .errors import DomainError

# Both range sieves stop at 10^8 values.  The prime sieve marks an n-byte
# flag array, 100 MB at the bound.  sieve_range marks a bitmap of n/8
# bytes and reads its survivors back, a fixed block at a time, into an
# int32 array of 4 bytes per survivor, which the bound lets fit: a 10^8
# range where every k survives (l = 1) peaks at about 420 MB, and the
# `sieve` command over 10^7 such k at 68 MB of RSS.  The list that
# SieveOutcome.survivors builds costs about 36 bytes more per survivor;
# the command never builds it.
SIEVE_MAX = 10 ** 8
# Trial division below this bound tries at most 5 * 10^7 divisors.
_IS_PRIME_MAX = 10 ** 16


def _sieve(n: int) -> "numpy.ndarray":
    """flags[i] is True exactly when i <= n is prime."""
    import numpy as np

    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return flags


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending, for hi up to 10^8."""
    if hi > SIEVE_MAX:
        raise DomainError(f"primes up to {hi} requested; prime lists stop at {SIEVE_MAX}")
    lo = max(lo, 2)
    if hi < lo:
        return []
    return (_sieve(hi)[lo:].nonzero()[0] + lo).tolist()


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return primes_in_range(2, n)


def _trial_divisors(n: int):
    """2 and the odd d <= sqrt(n), ascending."""
    r = math.isqrt(n)
    return chain(range(2, min(r, 2) + 1), range(3, r + 1, 2))


@lru_cache(maxsize=1)
def is_prime(n: int) -> bool:
    """Trial division, for n below 10^16; like qr_bits, it keeps the last n's answer."""
    if n >= _IS_PRIME_MAX:
        raise DomainError(f"is_prime needs n below {_IS_PRIME_MAX}, got {n}")
    return n >= 2 and all(n % d for d in _trial_divisors(n))


def check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"expected an odd prime, got {p}")


def check_qualifying_prime(p: int) -> None:
    """Require a prime p = 1 (mod 4), p >= 13: the primes with a middle block J_p."""
    if p < 13 or p % 4 != 1 or not is_prime(p):
        raise DomainError(f"expected a prime p = 1 (mod 4), p >= 13; got {p}")


def qualifying_primes(lo: int, hi: int) -> list[int]:
    """The primes p = 1 (mod 4), p >= 13, in [lo, hi], ascending."""
    return [p for p in primes_in_range(max(lo, 13), hi) if p % 4 == 1]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as ascending (prime, exponent) pairs.

    n = 1 yields the empty list.  Trial division; adequate for sequence
    indices, not cryptographic sizes.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    out = []
    for d in _trial_divisors(n):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
    if n > 1:
        out.append((n, 1))
    return out


def factorial_valuation(n: int, p: int) -> int:
    """p-adic valuation of n!, by Legendre's formula sum_i floor(n / p^i)."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def cumulative_product(n: int) -> int:
    """The starting modulus for an integrality run of length n.

    Returns prod p^v_p(n!) over the primes p dividing n.  For prime n this
    is just n; for composite n it grows far beyond machine words.
    """
    if n < 1:
        raise DomainError(f"cumulative_product requires n >= 1, got {n}")
    P = 1
    for p, _ in factorize(n):
        P *= p ** factorial_valuation(n, p)
    return P


class QrTable:
    """Quadratic-residue bitmap for one odd prime, built in O(p).

    ``bits[x]`` is 1 exactly when x is a nonzero quadratic residue mod p,
    so the Legendre symbol of a unit x is +1 or -1 as ``bits[x]`` is 1 or 0.
    """

    __slots__ = ("p", "bits")

    def __init__(self, p: int):
        import numpy as np

        check_odd_prime(p)
        self.p = p
        bits = np.zeros(p, dtype=np.uint8)
        # squared and reduced in place: no temporaries beside the 8-byte-per-value arange
        x = np.arange(1, (p + 1) // 2, dtype=np.int64)
        np.remainder(np.multiply(x, x, out=x), p, out=x)
        bits[x] = 1
        self.bits = bits.tobytes()


@lru_cache(maxsize=1)
def qr_bits(p: int) -> bytes:
    """QrTable(p).bits, the one residue table every kernel reads.

    Callers go through one prime's starts, sides or rows one after
    another, so the table of the last prime asked for is all that is kept.
    """
    return QrTable(p).bits
