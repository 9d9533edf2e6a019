"""Reference computations and published values for the benchmark's checks.

Nothing here imports goebel or follows its code: the congruence trace keeps
g(n) as a fraction a/b mod q and never inverts anything, the Legendre
symbol comes from Euler's criterion, and primes come from trial division.

Published values (stored, not computed):

- NK_PUBLISHED: N(k) = N(k, 2), the first non-integral index of the
  k-Goebel sequence with start value 2, for 2 <= k <= 359.  These are the
  values of OEIS A108394 as frozen in tests/goldens.py (NK_TABLE).
  Regenerate with
  ``python -m goebel exact --k 2..359 --l 2 --limit 2100 --no-cache``.
- TWO_IN_JP_BELOW_1E4: the 15 primes p < 10^4, p = 1 (mod 4), whose
  reduced walk from l = 2 ends strictly inside (0, p), as frozen in
  tests/goldens.py (TWO_IN_JP_BELOW_1E4).  Regenerate with
  ``python -m goebel two-in-jp --p-max 10000``.
"""

# N(k) for k = 2..359, eighteen values per line.
_NK_FLAT = """
43 89 97 214 19 239 37 79 83 239 31 431 19 79 23 827
43 173 31 103 94 73 19 243 141 101 53 811 47 1077 19 251 29 311
134 71 23 86 43 47 19 419 31 191 83 337 59 1559 19 127 109 163
67 353 83 191 83 107 19 503 29 191 47 83 51 1907 19 131 37 137
31 214 31 127 47 443 19 173 31 227 23 337 83 563 19 47 166 487
29 89 83 79 137 73 19 2039 62 218 59 127 31 81 19 239 37 71
46 167 31 457 101 179 19 173 37 179 29 191 67 563 19 86 43 151
23 101 43 81 59 139 19 47 31 249 46 101 83 647 19 179 25 103
43 486 29 83 23 167 19 167 37 331 53 167 47 167 19 25 59 326
31 191 31 79 43 73 19 479 23 79 47 359 29 359 19 71 37 47
97 839 61 431 46 227 19 827 37 241 159 118 23 167 19 103 97 179
47 131 31 127 29 254 19 251 46 137 43 331 79 479 19 239 23 163
47 214 47 347 83 307 19 251 31 47 173 101 43 83 19 229 173 751
113 191 23 101 53 73 19 1149 61 79 47 103 59 71 19 79 37 173
31 191 31 251 83 201 19 233 31 499 47 313 47 359 19 89 46 139
43 47 46 151 59 151 19 863 25 223 23 614 31 191 19 163 29 173
53 431 31 81 43 311 19 179 37 103 101 129 113 1559 19 127 59 331
34 227 47 179 47 73 19 227 29 158 47 47 46 179 19 79 37 167
23 491 109 79 141 131 19 479 37 86 43 193 47 101 19 223 47 129
29 137 31 311 23 103 19 563 31 169 47 127 34 89 19 337 37 167
"""

NK_PUBLISHED = {k: int(v) for k, v in enumerate(_NK_FLAT.split(), start=2)}
assert len(NK_PUBLISHED) == 358 and max(NK_PUBLISHED) == 359

TWO_IN_JP_BELOW_1E4 = (313, 1873, 2081, 2089, 2377, 4481, 5281, 6361, 6961,
                       7681, 8161, 8209, 8521, 8929, 9001)


def is_prime(n: int) -> bool:
    """Trial division by 2, 3 and numbers 6i +- 1."""
    if n < 4:
        return n >= 2
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def qualifying_primes(lo: int, hi: int) -> list[int]:
    """Primes p = 1 (mod 4) with max(lo, 13) <= p <= hi."""
    return [p for p in range(max(lo, 13), hi + 1) if p % 4 == 1 and is_prime(p)]


def trace_mod_q(k: int, l: int, q: int) -> int:
    """The numerator of q*g(q) mod q, for g(1) = l and exponent k >= 1.

    For n < q every n + 1 is a unit mod q, so g(n) mod q is a fraction a/b
    with b a unit.  The step g -> g (n + g^(k-1)) / (n+1) becomes
    (a, b) -> (n a b^(k-1) + a^k, (n+1) b^k), and q g(q) = (q-1) g + g^k
    has numerator (q-1) a b^(k-1) + a^k.  It is 0 mod q exactly when q
    stays out of the denominator of g(q), given g(1..q-1) integral.
    """
    a, b = l % q, 1
    for n in range(1, q):
        bk1 = pow(b, k - 1, q)
        numer = (n * a * bk1 + pow(a, k, q)) % q
        if n == q - 1:
            return numer
        a, b = numer, (n + 1) * bk1 * b % q
    raise ValueError(f"trace_mod_q needs a prime q >= 3, got {q}")


def legendre_table(p: int) -> list[int]:
    """chi[a] = (a/p) for 0 <= a < p, by Euler's criterion a^((p-1)/2)."""
    half = (p - 1) // 2
    chi = [0] * p
    for a in range(1, p):
        chi[a] = 1 if pow(a, half, p) == 1 else -1
    return chi


def walk_end(p: int, l: int, chi: list[int]) -> int:
    """End of the reduced walk g(1) = l, g(n+1) = g(n) + chi(n) chi(g(n)).

    The walk stops at the barriers 0 and p or after p - 1 steps.
    """
    g, n = l, 1
    while 0 < g < p and n < p:
        g += chi[n] * chi[g]
        n += 1
    return g
