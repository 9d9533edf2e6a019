"""Exact breakdown points of generalized Goebel sequences.

The sequence g(1) = l, (n+1) g(n+1) = g(n) (n + g(n)^(k-1)) stays rational;
we want the first index where it leaves the integers.  Terms grow doubly
exponentially, so a run of length L tracks only the residue of g(n) modulo
d = L!/n!.  While n+1 <= L, n+1 divides d, so the step from n to n+1 is a
plain exact division: g(n+1) is non-integral exactly when n+1 does not
divide h = n g(n) + g(n)^k mod d, and otherwise h/(n+1) is g(n+1) modulo
the next modulus d/(n+1).  One run therefore finds the first break at any
index <= L; exact_N doubles L from 64 up to its limit.

run_once is the older shrinking-modulus run: its modulus starts at
cumulative_product(n_max) and is divided by gcd(d, n+1) at each step, so
only the break at index n_max itself is certain to show, and a scan needs
one run per n_max.  The tests keep it as the reference that exact_N is
checked against.
"""

from functools import partial
from math import factorial, gcd
from typing import NamedTuple

from .errors import DomainError
from .modarith import cumulative_product
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


def run_once(k: int, l: int, n_max: int) -> BreakReport | None:
    """Run the recurrence for n = 1..n_max-1; None means no break detected.

    The residue starts as l mod P with P = cumulative_product(n_max).  The
    scan of run_once over n_max = 2, 3, ... is the reference exact_N is
    tested against.
    """
    if k < 1 or l < 0 or n_max < 2:
        raise DomainError(f"run_once requires k >= 1, l >= 0, n_max >= 2; got {(k, l, n_max)}")
    d = cumulative_product(n_max)
    g = l % d
    for n in range(1, n_max):
        g_mult = n * g + pow(g, k, d)
        m = gcd(d, n + 1)
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


def first_break(k: int, l: int, length: int) -> BreakReport | None:
    """The first index in [2, length] where g leaves the integers, else None.

    One run under the modulus d = length!/n! (see the module docstring).
    The report carries the breaking index as modulus_at_break and the
    residue of n g(n) modulo it, as the final step of run_once(k, l, n) does.
    """
    d = factorial(length)
    g = l % d
    for n in range(1, length):
        m = n + 1
        g, r = divmod((n * g + pow(g, k, d)) % d, m)
        if r:
            return BreakReport(k=k, l=l, n_break=m, residue=r, modulus_at_break=m)
        d //= m
    return None


def exact_N(k: int, l: int, n_limit: int = DEFAULT_N_LIMIT) -> NkResult:
    """Smallest n in [2, n_limit] with g(n) not an integer, else exceeded.

    Runs first_break at lengths 64, 128, ... capped at n_limit, so a break
    at index N costs at most about 2N steps.  l in {0, 1} and k = 1 give
    constant sequences, which never break.
    """
    if k < 1 or l < 0 or n_limit < 2:
        raise DomainError(f"exact_N requires k >= 1, l >= 0, n_limit >= 2; got {(k, l, n_limit)}")
    if l in (0, 1) or k == 1:
        return NkResult(k=k, l=l, n=None, limit=n_limit)
    length = min(64, n_limit)
    while True:
        report = first_break(k, l, length)
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
