import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import goebel.modarith
from goebel.errors import DomainError
from goebel.modarith import (
    QrTable,
    cumulative_product,
    factorial_valuation,
    factorize,
    is_prime,
    primes_in_range,
    primes_up_to,
    qr_bits,
)

from .oracles import factorial_factorization, naive_legendre, naive_primes


def symbols(p):
    """The Legendre symbols (a/p) for a = 0..p-1, read off the bitmap the kernels read."""
    bits = qr_bits(p)
    return [0] + [1 if bits[a] else -1 for a in range(1, p)]


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    # trial division up to sqrt(2039) finds no divisor
    assert all(2039 % d for d in range(2, math.isqrt(2039) + 1))
    assert factorize(2039) == [(2039, 1)]


def test_factorize_rejects_zero():
    with pytest.raises(DomainError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert math.prod(p ** e for p, e in f) == n
    assert all(e >= 1 for _, e in f)
    assert [p for p, _ in f] == sorted({p for p, _ in f})
    assert all(is_prime(p) for p, _ in f)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    ps = primes_up_to(10 ** 4)
    assert len(ps) == 1229
    assert ps[-1] == 9973
    assert primes_up_to(2) == [2]
    assert primes_in_range(-5, 10) == [2, 3, 5, 7]
    assert primes_in_range(0, 2) == [2]
    assert primes_in_range(2, 2) == [2]
    assert primes_in_range(13, 13) == [13]
    assert primes_in_range(14, 16) == []
    assert primes_in_range(20, 10) == []
    assert primes_in_range(-7, -2) == []
    naive = naive_primes(10 ** 4)
    assert ps == naive
    for lo, hi in ((-5, 100), (0, 1), (3, 3), (50, 5000), (9973, 10 ** 4), (7919, 7920)):
        assert primes_in_range(lo, hi) == [p for p in naive if lo <= p <= hi], (lo, hi)


def test_cumulative_product_examples():
    assert cumulative_product(43) == 43  # nu_43(43!) = 1 for a prime
    assert cumulative_product(4) == 8  # nu_2(4!) = 3
    assert cumulative_product(6) == 144  # 2^4 * 3^2


def test_cumulative_product_against_factorial_factorization():
    fac = factorial_factorization(400)
    for n in range(1, 401):
        expected = 1
        divisors = {p for p, _ in factorize(n)}
        for p, e in fac[n].items():
            if p in divisors:
                expected *= p ** e
        assert cumulative_product(n) == expected, n
        # no prime outside n's support divides the product
        P = cumulative_product(n)
        for p in fac[n]:
            if p not in divisors:
                assert P % p, (n, p)


@pytest.mark.slow
def test_cumulative_product_full_range():
    fac = factorial_factorization(10 ** 4)
    for n in range(1, 10 ** 4 + 1):
        divisors = {p for p, _ in factorize(n)}
        expected = math.prod(p ** e for p, e in fac[n].items() if p in divisors)
        assert cumulative_product(n) == expected, n


def test_factorial_valuation():
    fac = factorial_factorization(200)
    for n in (1, 5, 31, 100, 200):
        for p in (2, 3, 5, 7, 11, 97):
            assert factorial_valuation(n, p) == fac[n].get(p, 0), (n, p)


def test_legendre_examples():
    for p in (3, 7, 13, 101):
        chi = symbols(p)
        assert chi[1] == 1
        assert chi[0] == 0
        assert len(chi) == p == len(QrTable(p).bits)
    assert symbols(13)[2] == -1
    assert symbols(13)[12] == 1  # 5^2 = 25 = 12 (mod 13)


def test_legendre_matches_square_enumeration():
    for p in (3, 5, 7, 11, 13, 31, 97):
        chi = symbols(p)
        for a in range(0, p):
            assert chi[a] == naive_legendre(a, p), (a, p)


def test_legendre_rejects_even_or_tiny():
    for p in (4, 2):
        with pytest.raises(DomainError):
            QrTable(p)


def test_legendre_complete_multiplicativity():
    for p in (3, 5, 7, 13, 31, 97):
        chi = symbols(p)
        for a in range(1, p):
            for b in range(1, p):
                assert chi[a] * chi[b] == chi[a * b % p]


def test_legendre_complete_multiplicativity_all_p_below_1000():
    # full (a, b) enumeration for every odd prime <= 997, vectorized
    import numpy as np

    for p in primes_up_to(997):
        if p < 3:
            continue
        chi = np.array(symbols(p), dtype=np.int8)
        a = np.arange(1, p, dtype=np.int64)
        prod = chi[np.outer(a, a) % p]
        assert (np.outer(chi[a], chi[a]) == prod).all(), p


def test_legendre_supplements():
    # (p-1/p) = +1 iff p = 1 (mod 4); (2/p) = +1 iff p = +-1 (mod 8)
    for p in primes_up_to(997):
        if p < 3:
            continue
        chi = symbols(p)
        assert (chi[p - 1] == 1) == (p % 4 == 1), p
        assert (chi[2] == 1) == (p % 8 in (1, 7)), p


def test_qr_table_agrees_with_euler_backend():
    # the bitmap against Euler's criterion, a^((p-1)/2) = 1 (mod p) for residues
    for p in primes_up_to(500) + [9973, 99989]:
        if p < 3:
            continue
        bits = QrTable(p).bits
        assert bits[0] == 0, p
        for a in range(1, p):
            assert bits[a] == (pow(a, (p - 1) // 2, p) == 1), (a, p)


def test_qr_table_peak_memory_is_a_few_bytes_per_unit_of_p():
    import tracemalloc

    p = 2000003
    tracemalloc.start()
    try:
        bits = QrTable(p).bits
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * p  # squaring out of place peaked near 13 bytes per unit of p
    assert sum(bits) == (p - 1) // 2
    assert all(bits[a * a % p] for a in (1, 2, 1000, 999_999, (p - 1) // 2))


def test_qr_table_rejects_non_odd_prime_sizes():
    for p in (4, 9, 1, 0):
        with pytest.raises(DomainError):
            QrTable(p)


def test_prime_table_bound_is_checked_before_sieving(monkeypatch):
    class Sieved(Exception):
        pass

    sieved = []

    def recording_sieve(n):
        sieved.append(n)
        raise Sieved(n)

    monkeypatch.setattr(goebel.modarith, "_sieve", recording_sieve)
    with pytest.raises(DomainError):
        primes_up_to(10 ** 8 + 1)
    with pytest.raises(DomainError):
        primes_in_range(13, 10 ** 9)
    with pytest.raises(DomainError):
        is_prime(10 ** 17 + 3)  # trial division would try divisors up to 3.2 * 10^8
    assert sieved == []


def test_is_prime_of_large_n():
    assert is_prime(10 ** 12 + 39)
    assert is_prime(999999999989)
    assert not is_prime(1000003 * 1000033)
    assert not is_prime(10 ** 12 + 1)


def test_trial_division_does_not_sieve(monkeypatch):
    def no_sieve(n):
        raise AssertionError(f"sieved to {n}")

    monkeypatch.setattr(goebel.modarith, "_sieve", no_sieve)
    assert not is_prime(7 * 142857142857143)
    assert is_prime(1000003)
    assert factorize(7 * 142857142857143) == [
        (7, 1), (11, 1), (13, 1), (211, 1), (241, 1), (2161, 1), (9091, 1)
    ]
    # a prime cofactor above 10^12 is found by trial division too
    assert factorize(2 * (10 ** 12 + 39)) == [(2, 1), (10 ** 12 + 39, 1)]
