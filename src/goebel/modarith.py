"""Modular arithmetic kernel.

A cached prime table, factorization by trial division, p-adic valuations
of factorials, the prime-domain checks shared by the other modules, and
the quadratic-residue bitmap that the reduced walks and the billiard
checks read the Legendre symbol from.

All functions are pure apart from the growth of the prime table; the
bitmaps are immutable after construction and safe to share across worker
processes.
"""

import math
from bisect import bisect_right

import numpy as np

from .errors import DomainError

DEFAULT_PRIME_BOUND = 10 ** 6
# Sieving to n takes an n-byte flag array and a list of about n / ln n
# ints; this bound keeps the prime table to a few hundred MB.
_PRIME_TABLE_MAX = 10 ** 8

_prime_table: list[int] = []
_prime_bound = 0


def _sieve(n: int) -> bytearray:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def _ensure_primes(bound: int) -> None:
    # Geometric growth so repeated small requests do not re-sieve.
    global _prime_table, _prime_bound
    if bound <= _prime_bound:
        return
    if bound > _PRIME_TABLE_MAX:
        raise DomainError(f"primes up to {bound} requested; the table stops at {_PRIME_TABLE_MAX}")
    bound = min(max(bound, 2 * _prime_bound, 10 ** 4), _PRIME_TABLE_MAX)
    flags = _sieve(bound)
    _prime_table = [i for i in range(bound + 1) if flags[i]]
    _prime_bound = bound


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    if n < 2:
        return []
    _ensure_primes(n)
    return _prime_table[: bisect_right(_prime_table, n)]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending."""
    if hi < lo:
        return []
    _ensure_primes(hi)
    i = bisect_right(_prime_table, lo - 1)
    j = bisect_right(_prime_table, hi)
    return _prime_table[i:j]


def is_prime(n: int) -> bool:
    """Trial division by the prime table, for n below 10^16."""
    if n < 2:
        return False
    _ensure_primes(math.isqrt(n) + 1)
    for p in _prime_table:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return True


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

    n = 1 yields the empty list.  Trial division against a cached prime
    table; adequate for sequence indices, not cryptographic sizes.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    _ensure_primes(min(math.isqrt(n) + 1, DEFAULT_PRIME_BOUND))
    out = []
    for p in _prime_table:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        if n > _prime_bound * _prime_bound:
            raise DomainError(f"cofactor {n} exceeds the trial-division range")
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
        check_odd_prime(p)
        self.p = p
        bits = np.zeros(p, dtype=np.uint8)
        x = np.arange(1, (p + 1) // 2, dtype=np.int64)
        bits[x * x % p] = 1
        self.bits = bits.tobytes()
