"""Independent reference computations for cross-checking the library.

Everything here is deliberately naive: exact fractions, repeated
multiplication, set enumeration.  None of it shares code with the
implementation under test.
"""

import math
from fractions import Fraction


def goebel_terms(k: int, l: int, n_max: int, bit_cap: int = 400_000):
    """Exact rational terms g(1..n_max); stops early when numerators blow up.

    Terms grow doubly exponentially in n (roughly like x -> x^k), so the
    cap keeps the oracle at desk scale; callers work with whatever prefix
    comes back.
    """
    g = Fraction(l)
    out = [g]
    for n in range(1, n_max):
        g = g * (n + g ** (k - 1)) / (n + 1)
        if g.numerator.bit_length() > bit_cap or g.denominator.bit_length() > bit_cap:
            break
        out.append(g)
    return out


def first_nonintegral(terms) -> int | None:
    """1-based index of the first non-integer term, None if all integral."""
    for i, t in enumerate(terms):
        if t.denominator != 1:
            return i + 1
    return None


def rational_trace_at_p(terms, p: int) -> int | None:
    """p*g(p) mod p from exact fractions; None when the oracle cannot say.

    Requires g(1..p-1) to have denominators prime to p (otherwise the
    congruence route the library takes is not even defined) and g(p) to be
    present in the truncated term list.
    """
    if len(terms) < p:
        return None
    if any(terms[i].denominator % p == 0 for i in range(p - 1)):
        return None
    num, den = terms[p - 1].numerator, terms[p - 1].denominator
    if den % p:
        return 0
    if den % (p * p) == 0:
        return None  # would mean p g(p) is not even p-local
    return num * pow(den // p, -1, p) % p


def plocal_trace(k: int, l: int, p: int) -> int:
    """p*g(p) mod p by exact arithmetic in the integers localized at p.

    Carries g(n) = num/den as a pair of residues mod p through the defining
    recurrence g(n+1) = g(n) (n + g(n)^(k-1)) / (n+1), with the literal
    exponent k.  Below p every denominator is a unit, so den stays nonzero
    mod p; it is inverted once, by Fermat, at the end.
    """
    num, den = l % p, 1
    for n in range(1, p):
        num_pow = naive_power_mod(num, k - 1, p)
        den_pow = naive_power_mod(den, k - 1, p)
        num = num * (n * den_pow + num_pow) % p
        den = den * den_pow % p
        if n + 1 < p:  # at n = p-1 the division by p is what p*g(p) leaves out
            den = den * (n + 1) % p
    return num * naive_power_mod(den, p - 2, p) % p


def naive_power_mod(x: int, y: int, m: int) -> int:
    r = 1 % m
    for _ in range(y):
        r = r * x % m
    return r


def naive_legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    squares = {x * x % p for x in range(1, p)}
    return 1 if a in squares else -1


def naive_primes(hi: int) -> list[int]:
    """The n in [2, hi] with no divisor in [2, sqrt(n)]."""
    return [n for n in range(2, hi + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def factorial_factorization(n_top: int) -> list[dict]:
    """fac[n] = prime factorization of n! as a dict, for n = 0..n_top.

    Built by summing the factorizations of 1..n, so it shares nothing with
    the Legendre-formula valuation it checks.
    """
    fac = [dict()]
    current: dict[int, int] = {}
    for i in range(1, n_top + 1):
        m = i
        d = 2
        while d * d <= m:
            while m % d == 0:
                current[d] = current.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            current[m] = current.get(m, 0) + 1
        fac.append(dict(current))
    return fac
