"""Exact breakdown points of generalized Goebel sequences.

The sequence g(1) = l, (n+1) g(n+1) = g(n) (n + g(n)^(k-1)) stays rational;
we want the first index where it leaves the integers.  Terms grow doubly
exponentially, so every run is one lane, _lane: g(n) is kept modulo a
starting modulus d that shrinks by c = gcd(d, n+1) at each step, and the
run breaks at n+1 when c does not divide h = n g(n) + g(n)^k mod d.  The
callers differ only in d:

- exact_N starts a run of length L at d = L!.  While n+1 <= L, n+1 divides
  d = L!/n!, so every step is an exact division, and one run finds the
  first break at any index <= L.  exact_N doubles L from 64 up to its limit.
- run_once starts at d = cumulative_product(n_max), the prime powers of
  n_max! over the primes dividing n_max, so only the break at index n_max
  itself is certain to show.
- prime_trace_mod_p starts at d = p: the lane of one prime, run to p.
"""

from functools import partial
from math import factorial, gcd
from typing import NamedTuple

from .errors import DomainError
from .modarith import check_odd_prime, cumulative_product
from .parallel import pmap

# Covers the largest breakdown point known for k <= 10^7 (9011) with slack.
DEFAULT_N_LIMIT = 12000


class BreakReport(NamedTuple):
    k: int
    l: int
    n_break: int
    residue: int
    modulus_at_break: int


class NkResult(NamedTuple):
    """Outcome of a breakdown-point search: n is None when the limit was exceeded."""

    k: int
    l: int
    n: int | None
    limit: int
    report: BreakReport | None = None

    @property
    def exceeded(self) -> bool:
        return self.n is None

    @property
    def status(self) -> str:
        return "exceeded" if self.n is None else "exact"


def _lane(k: int, l: int, n_max: int, d: int) -> BreakReport | None:
    """The first break at an index in [2, n_max] that the modulus d shows, else None.

    g(n) is kept mod d.  Step n takes h = n g + g^k mod d and c = gcd(d, n+1).
    For c = 1, g(n+1) = h (n+1)^-1 mod d.  Otherwise g(n+1) is an integer
    only if c divides h, the break is reported as (h mod c, c), and g(n+1)
    is (h / c) ((n+1) / c)^-1 mod d / c, the next modulus; for c = n+1
    that is the exact quotient.  The run stops once d reaches 1.
    """
    g = l % d
    for n in range(1, n_max):
        m = n + 1
        h = (n * g + pow(g, k, d)) % d
        c = gcd(d, m)
        if c == 1:
            g = h * pow(m, -1, d) % d
            continue
        g, r = divmod(h, c)
        if r:
            return BreakReport(k=k, l=l, n_break=m, residue=r, modulus_at_break=c)
        d //= c
        if d == 1:
            return None
        if c < m:
            g = g * pow(m // c, -1, d) % d
    return None


def run_once(k: int, l: int, n_max: int) -> BreakReport | None:
    """The lane from l mod cumulative_product(n_max), run to index n_max; None means no break seen."""
    if k < 1 or l < 0 or n_max < 2:
        raise DomainError(f"run_once requires k >= 1, l >= 0, n_max >= 2; got {(k, l, n_max)}")
    return _lane(k, l, n_max, cumulative_product(n_max))


def prime_trace_mod_p(k_res: int, l_res: int, p: int) -> int:
    """Residue of p*g(p) mod p for the sequence with exponent k_res, start l_res.

    The lane under d = p: every divisor below p is invertible, and the last
    step divides by p.  Zero means g(p) keeps p out of its denominator.
    k_res is used literally, so k_res = 0 is the k = 0 recurrence, not the
    class 0 of the sieve tables.
    """
    check_odd_prime(p)
    if not 0 <= l_res < p:
        raise DomainError(f"l_res must be in [0, {p - 1}], got {l_res}")
    report = _lane(k_res, l_res, p, p)
    return 0 if report is None else report.residue


def exact_N(k: int, l: int, n_limit: int = DEFAULT_N_LIMIT) -> NkResult:
    """Smallest n in [2, n_limit] with g(n) not an integer, else exceeded.

    Runs the lane under d = L! at lengths L = 64, 128, ... capped at
    n_limit, so a break at index N costs at most about 2N steps.  l in
    {0, 1} and k = 1 give constant sequences, which never break.
    """
    if k < 1 or l < 0 or n_limit < 2:
        raise DomainError(f"exact_N requires k >= 1, l >= 0, n_limit >= 2; got {(k, l, n_limit)}")
    if l in (0, 1) or k == 1:
        return NkResult(k=k, l=l, n=None, limit=n_limit)
    length = min(64, n_limit)
    while True:
        report = _lane(k, l, length, factorial(length))
        if report is not None:
            return NkResult(k=k, l=l, n=report.n_break, limit=n_limit, report=report)
        if length == n_limit:
            return NkResult(k=k, l=l, n=None, limit=n_limit)
        length = min(2 * length, n_limit)


def exact_N_range(ks, l: int, n_limit: int = DEFAULT_N_LIMIT, workers: int = 1) -> list[NkResult]:
    """exact_N over many k, optionally across worker processes.

    Results come back ordered by the input sequence regardless of worker
    count or scheduling.
    """
    return pmap(partial(exact_N, l=l, n_limit=n_limit), ks, workers)
