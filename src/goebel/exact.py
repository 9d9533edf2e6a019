"""Exact breakdown points of generalized Goebel sequences.

The sequence g(1) = l, (n+1) g(n+1) = g(n) (n + g(n)^(k-1)) stays rational;
we want the first index where it leaves the integers.  Terms grow doubly
exponentially, so the run tracks only the residue of g(n) modulo a shrinking
modulus d, initialized to cumulative_product(n_max).  Dividing d by
gcd(d, n+1) at each step removes, for every prime, either all of its
presence in n+1 or all of its presence in d, so the remaining factor of
n+1 is invertible modulo the new d and the residue update is exact.
"""

from dataclasses import dataclass
from math import gcd

from .errors import DomainError
from .modarith import cumulative_product

# Covers the largest breakdown point known for k <= 10^7 (9011) with slack.
DEFAULT_N_LIMIT = 12000


@dataclass(frozen=True)
class GobelState:
    """Residue g of g(n) modulo the current modulus d, at index n."""

    n: int
    g: int
    d: int


@dataclass(frozen=True)
class Break:
    """Non-integrality detected: residue of (n+1) g(n+1) not divisible by m_gcd."""

    residue: int
    m_gcd: int


@dataclass(frozen=True)
class BreakReport:
    k: int
    l: int
    n_break: int
    residue: int
    modulus_at_break: int


@dataclass(frozen=True)
class NkResult:
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


def goebel_proceed(state: GobelState, k: int):
    """One recurrence step under the shrinking modulus.

    Returns the next GobelState, or a Break carrying the offending residue
    (mod d) and the gcd that failed to divide it.
    """
    n, g, d = state.n, state.g, state.d
    g_mult = n * g + pow(g, k, d)
    m_gcd = gcd(d, n + 1)
    if g_mult % m_gcd:
        return Break(residue=g_mult % d, m_gcd=m_gcd)
    d_next = d // m_gcd
    g_next = g_mult // m_gcd * pow((n + 1) // m_gcd, -1, d_next) % d_next
    return GobelState(n=n + 1, g=g_next, d=d_next)


def run_once(k: int, l: int, n_max: int) -> BreakReport | None:
    """Run the recurrence for n = 1..n_max-1; None means no break detected.

    Equivalent to iterating goebel_proceed from (1, l mod P, P) with
    P = cumulative_product(n_max), but with the loop inlined: this is the
    innermost hot path of every exact scan.
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


def exact_N(k: int, l: int, n_limit: int = DEFAULT_N_LIMIT) -> NkResult:
    """Smallest n_max in [2, n_limit] whose run breaks, else exceeded.

    Scans n_max upward with no skipping, so a break during the run for
    n_max can only occur at its final step: integrality below n_max was
    already established by the previous runs.  l in {0, 1} and k = 1 give
    constant sequences, which never break.
    """
    if k < 1 or l < 0 or n_limit < 2:
        raise DomainError(f"exact_N requires k >= 1, l >= 0, n_limit >= 2; got {(k, l, n_limit)}")
    if l in (0, 1) or k == 1:
        return NkResult(k=k, l=l, n=None, limit=n_limit)
    for n_max in range(2, n_limit + 1):
        report = run_once(k, l, n_max)
        if report is not None:
            return NkResult(k=k, l=l, n=n_max, limit=n_limit, report=report)
    return NkResult(k=k, l=l, n=None, limit=n_limit)


def _exact_task(args: tuple[int, int, int]) -> NkResult:
    k, l, n_limit = args
    return exact_N(k, l, n_limit)


def exact_N_range(ks, l: int, n_limit: int = DEFAULT_N_LIMIT, workers: int = 1) -> list[NkResult]:
    """exact_N over many k, optionally across worker processes.

    Results come back ordered by the input sequence regardless of worker
    count or scheduling.
    """
    from .parallel import pmap

    return pmap(_exact_task, [(k, l, n_limit) for k in ks], workers=workers)
