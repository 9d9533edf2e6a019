"""Reference computations and lemma checks that only the tests use.

Two sections.  The naive oracles share no code with the library: exact
fractions, repeated multiplication, mod-p traces walked over tables of
inverses and powers, set enumeration, and brute-force enumeration of the
billiard sign conditions.  The lemma checks and references are built on
library pieces: the shrinking-modulus run that exact_N is scanned
against, the full reduced walk with its zigzag test, the linear-scan J_p
oracle, the billiard wall sign psi, the b-sequence symmetry identities,
the a = b consistency check, the scalar witness search with its O(1) b
evaluator, the exponent representative of a residue class, and the
strided-slice sieve marker.  They check the library against the paper's
lemmas; the library itself never calls them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from goebel.billiards import Witness, _check_pl, construct_a, construct_b
from goebel.errors import DomainError, NoWitness
from goebel.exact import BreakReport
from goebel.modarith import check_qualifying_prime, cumulative_product, primes_in_range, qr_bits
from goebel.reduced import JpSummary, _check_start, final_value
from goebel.sieve import check_range, sieve_tables


# ------------------------------------------------------------- naive oracles
# None of these shares code with the implementation under test.

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


def traces_mod_p(k_res: int, p: int) -> list[int]:
    """The residue of p*g(p) mod p for every start l in [0, p-1], exponent k_res used literally.

    The recurrence of prime_trace_mod_p, walked from tables made once per
    prime: the inverse of every n in [1, p-1] and the k_res-th power of
    every residue, each by one pow.  Each start then takes its p-2 steps by
    list lookups alone.
    """
    inverse = [0] + [pow(n, -1, p) for n in range(1, p)]
    power = [pow(u, k_res, p) for u in range(p)]
    traces = []
    for u in range(p):
        for n in range(1, p - 1):
            u = (n * u + power[u]) * inverse[n + 1] % p
        traces.append(((p - 1) * u + power[u]) % p)
    return traces


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


def brute_force_a(p, l):
    """Every half-assignment satisfying the four sign conditions, enumerated.

    A bit set at position i-1 means a(i) = -1; the mirror condition pins
    the upper half, so enumerating 2^((p-1)/2) assignments is exhaustive.
    """
    m = (p - 1) // 2
    idx = lambda x: x if x <= m else p - x
    A = np.arange(1 << m, dtype=np.uint32)
    ok = (A & 1) == 0  # a(1) = +1
    for n in range(1, l // 2 + 1):
        i, j = idx(n), idx(l + 1 - n)
        ok &= ((A >> (i - 1) ^ A >> (j - 1)) & 1) == 1
    for n in range(1, p - l - 1):
        i, j = idx(n), idx(l + 1 + n)
        ok &= ((A >> (i - 1) ^ A >> (j - 1)) & 1) == 0
    sols = []
    for bits in A[ok]:
        bits = int(bits)
        half = [-1 if bits >> (i - 1) & 1 else 1 for i in range(1, m + 1)]
        sols.append(tuple(half + [half[p - n - 1] for n in range(m + 1, p)]))
    return sols


def brute_force_b(l, s):
    """Every period-(l+1) assignment satisfying the two reflection relations."""
    m = l + 1
    bit = lambda n: (n - 1) % m
    A = np.arange(1 << m, dtype=np.uint32)
    ok = (A & 1) == 0  # b(1) = +1
    for n in range(1, m):
        ok &= ((A >> bit(n) ^ A >> bit(l + 1 - n)) & 1) == 1
    for n in range(0, m):
        ok &= ((A >> bit(s - n) ^ A >> bit(s + 1 + n)) & 1) == 0
    return [
        tuple(-1 if int(bits) >> bit(n) & 1 else 1 for n in range(1, m + 1)) for bits in A[ok]
    ]


# ------------------------------------------------------------- lemma checks and references
# Built on library pieces, to check the library against the paper's lemmas.

def shrinking_run(k: int, l: int, n_max: int) -> BreakReport | None:
    """The recurrence for n = 1..n_max-1 from l mod cumulative_product(n_max); None if no break shows.

    The modulus d shrinks by m = gcd(d, n+1) at each step, and a break
    reports n g + g^k mod d, with d as its modulus.  Only the break at
    n_max is certain to show, so exact_N is checked against the scan of
    this run over n_max = 2, 3, ...
    """
    d = cumulative_product(n_max)
    g = l % d
    for n in range(1, n_max):
        g_mult = n * g + pow(g, k, d)
        m = math.gcd(d, n + 1)
        if m == 1:
            g = g_mult * pow(n + 1, -1, d) % d
        else:
            if g_mult % m:
                return BreakReport(k=k, l=l, n_break=n + 1, residue=g_mult % d, modulus_at_break=d)
            d //= m
            if d == 1:
                return None  # modulus exhausted, no break can follow
            g = g_mult // m * pow((n + 1) // m, -1, d) % d
    return None


@dataclass(frozen=True)
class ReducedTrace:
    """The full walk: values[i] is g~(i+1), for i = 0..p-1."""

    p: int
    l: int
    values: list[int]


def reduced_trace(p: int, l: int) -> ReducedTrace:
    """Full walk of length p, O(p) with the residue bitmap."""
    _check_start(p, l)
    bits = qr_bits(p)
    values = [0] * p
    g = l
    values[0] = g
    for n in range(1, p):
        if 0 < g < p:
            # chi(n) chi(g) = +1 iff n and g are both residues or both not
            g += 1 if bits[n] == bits[g] else -1
        values[n] = g
    return ReducedTrace(p=p, l=l, values=values)


def final_values(p: int, starts) -> np.ndarray:
    """g~(p) of every start, all walked forwards together over the residue bitmap.

    Walks that meet coincide from then on, so every 64 steps the lanes
    are cut down to their distinct positions.
    """
    chi = np.append(np.frombuffer(qr_bits(p), dtype=np.int8) * 2 - 1, 0)
    chi[0] = 0  # both barriers absorb
    g, lane = np.unique(np.asarray(starts, dtype=np.int64), return_inverse=True)
    for n in range(1, p):
        g += chi[n] * chi[g]
        if n % 64 == 0:
            g, merged = np.unique(g, return_inverse=True)
            lane = merged[lane]
    return g[lane]


def compute_jp_linear(p: int) -> JpSummary:
    """Linear-scan reference for compute_jp: the final value of every even start."""
    check_qualifying_prime(p)
    finals = final_values(p, range(0, p, 2))
    l_L = 2 * int(np.flatnonzero(finals != 0)[0])
    l_R = 2 * int(np.flatnonzero(finals == p)[0])
    return JpSummary(p=p, l_L=l_L, l_R=l_R, count=(l_R - l_L) // 2)


def zigzag(trace: ReducedTrace) -> bool:
    """True iff the walk takes both an up step and a down step before absorption."""
    up = down = False
    values, p = trace.values, trace.p
    for i in range(len(values) - 1):
        g = values[i]
        if g == 0 or g == p:
            break
        if values[i + 1] > g:
            up = True
        else:
            down = True
        if up and down:
            return True
    return up and down


@dataclass(frozen=True)
class SymmetryReport:
    l: int
    s: int
    passed: bool
    failure: str | None = None


def _on_board(p: int, l: int, c: int, point: tuple[int, int]) -> tuple[int, int] | None:
    x, y = point
    u, v = x + y - c, x - y + c
    if not (0 <= u <= p - 2 * c and 0 <= v <= 2 * c):
        return None
    if u not in (0, p - 2 * c) and v not in (0, 2 * c):
        return None
    if (u, v) in ((0, 0), (0, 2 * c)):  # entry and exit corners are excluded
        return None
    return u, v


def psi(p: int, l: int, point: tuple[int, int]) -> int:
    """Sign assigned to a visited lattice point.

    The wall x + y = c carries -1 when c = l+1 (near rectangle) and +1
    when c = p-l-1 (far rectangle); every other wall carries the opposite.
    """
    c = _check_pl(p, l)
    uv = _on_board(p, l, c, point)
    if uv is None:
        raise DomainError(f"{point} is not a boundary lattice point for (p={p}, l={l})")
    on_start_wall = uv[0] == 0
    wall_sign = -1 if c == l + 1 else 1
    return wall_sign if on_start_wall else -wall_sign


def check_b_symmetries(l: int, s: int) -> SymmetryReport:
    """Finite check of the b-sequence symmetry identities over one period.

    Covers the s <-> l-s flip (sign change exactly at multiples of l+1)
    and the three shift identities it implies; returns the first
    counterexample if any.
    """
    if l < 2:
        raise DomainError(f"symmetry identities require l >= 2, got {l}")
    b = construct_b(l, s)
    flipped = construct_b(l, l - s)
    L1 = l + 1

    def fail(name, n):
        return SymmetryReport(l=l, s=s, passed=False, failure=f"{name} at n={n}")

    for n in range(1, L1 + 1):
        want = -flipped.value(n) if n % L1 == 0 else flipped.value(n)
        if b.value(n) != want:
            return fail("s<->l-s flip", n)
    for n in range(1, L1 + 1):
        if n % L1 and (n + 2 * s + 1) % L1:
            if b.value(n) != -b.value(n + 2 * s + 1):
                return fail("shift by 2s+1", n)
    if s < l // 2:
        t = l // 2 - s
        for n in range(1, L1 + 1):
            if n % L1 and (n + 2 * t) % L1:
                if b.value(n) != -b.value(n + 2 * t):
                    return fail("shift by 2t", n)
        for n in range(0, L1 + 1):
            if (t - n) % L1 and (t + n) % L1:
                if b.value(t - n) != b.value(t + n):
                    return fail("reflection around t", n)
    return SymmetryReport(l=l, s=s, passed=True)


def a_equals_b_consistency(p: int, l: int) -> bool:
    """Does a(p, l) equal the periodic extension of b(l, s), s = (p-1)/2 mod (l+1)?"""
    _check_pl(p, l)
    a = construct_a(p, l)
    if l == 0:
        return all(v == 1 for v in a.values)
    b = construct_b(l, ((p - 1) // 2) % (l + 1))
    return all(a.value(n) == b.value(n) for n in range(1, p))


def b_query(l: int, s: int):
    """O(1) evaluator for the b sequence, from its propagation chain.

    Walking x -> x + (2s+1) mod (l+1) flips the sign at every step except
    the one leaving residue 0, so b at chain position j is (-1)^j before
    the zero and (-1)^(j-1) after it.
    """
    L1 = l + 1
    if L1 == 1:
        return lambda n: 1
    inv = pow(2 * s + 1, -1, L1)
    j0 = -inv % L1  # chain position of residue 0

    def query(n: int) -> int:
        j = (n % L1 - 1) * inv % L1
        return -1 if (j + (j > j0)) & 1 else 1

    return query


def scalar_witnesses(p: int) -> list[Witness]:
    """Scalar reference for verify_nonmultiplicativity: one l at a time, one n or m at a time."""
    check_qualifying_prime(p)
    bits = qr_bits(p)
    half = (p - 1) // 2
    witnesses = []
    for l in range(2, p - 2, 2):
        query = b_query(l, half % (l + 1))
        for n in range(1, p):
            if (1 if bits[n] else -1) != query(n):
                break
        else:
            raise NoWitness(f"Legendre sequence equals the sign sequence for (p={p}, l={l})")
        q2 = query(2)
        for m in range(2, (p - 3) // 2 + 1):
            if query(2 * m) != q2 * query(m):
                witnesses.append(Witness(p=p, l=l, m=m))
                break
        else:
            raise NoWitness(f"no multiplicativity witness for (p={p}, l={l})")
    return witnesses


def class_exponent(a: int, p: int) -> int:
    """Exponent representative for residue class a of actual k >= 1."""
    a %= p - 1
    return a if a else p - 1


def strided_sieve(k_lo: int, k_hi: int, p_max: int, l: int, tables=None) -> list[int]:
    """Reference for sieve_range's survivors: one bool flag per k, each bad
    class crossed off with a strided slice."""
    check_range(k_lo, k_hi, p_max)
    tables = sieve_tables(p_max, l, tables)
    alive = np.ones(k_hi - k_lo + 1, dtype=bool)
    for p in primes_in_range(3, p_max):
        step = p - 1
        for a in tables[(p, l % p)].bad:
            alive[(a - k_lo) % step :: step] = False
    return [k_lo + int(i) for i in np.flatnonzero(alive)]
