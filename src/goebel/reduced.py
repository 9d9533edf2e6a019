"""Reduced quadratic-residue walks and the (l_L, l_R, J_p) decomposition.

For an odd prime p and start value l, the walk g~(1) = l,
g~(n+1) = g~(n) + chi(n) chi(g~(n)) steps by +-1 while strictly between
the absorbing barriers 0 and p (chi is the Legendre symbol mod p).  The
walk tracks n g(n) mod p for the sequence with exponent (p-1)/2, so its
final value classifies integrality at p:

  final 0 -> Left, final p -> Right, otherwise Middle (non-integral).

For p = 1 mod 4 the final values are monotone in even l, which makes the
block boundaries l_L and l_R binary-searchable.
"""

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .modarith import QrTable, check_odd_prime, check_qualifying_prime, qualifying_primes


class Classification(Enum):
    LEFT = "left"
    MIDDLE = "middle"
    RIGHT = "right"


@dataclass(frozen=True)
class JpSummary:
    p: int
    l_L: int
    l_R: int
    count: int

    @property
    def ratio(self) -> float:
        return self.count / self.p


def _check_start(p: int, l: int) -> None:
    check_odd_prime(p)
    if not 0 <= l <= p - 1:
        raise DomainError(f"l must be in [0, {p - 1}], got {l}")


def final_value(p: int, l: int, qr_bits: bytes | None = None) -> int:
    """g~(p) only, with early exit on absorption.  Hot path for bulk scans."""
    if qr_bits is None:
        _check_start(p, l)
        qr_bits = QrTable(p).bits
    g = l
    if g == 0:
        return 0
    for n in range(1, p):
        g += 1 if qr_bits[n] == qr_bits[g] else -1
        if g == 0:
            return 0
        if g == p:
            return p
    return g


def classify_l(p: int, l: int, qr: QrTable | None = None) -> Classification:
    v = final_value(p, l) if qr is None else final_value(p, l, qr.bits)
    if v == 0:
        return Classification.LEFT
    if v == p:
        return Classification.RIGHT
    return Classification.MIDDLE


def _least_even_with(pred, p: int) -> int:
    # pred is false at l = 0 and true at l = p - 1; the set where it holds
    # is upward closed over even l (monotone final values), so binary
    # search over the even index i (l = 2i).
    lo, hi = 0, (p - 1) // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(2 * mid):
            hi = mid
        else:
            lo = mid
    return 2 * hi


def compute_jp(p: int) -> JpSummary:
    """Block boundaries (l_L, l_R) and #J_p = (l_R - l_L) / 2 for p = 1 mod 4, p >= 13.

    Two independent binary searches: l_L is the least even l whose walk is
    not absorbed at 0, l_R the least even l absorbed at p.  Costs about
    2 log2(p/2) walks.
    """
    check_qualifying_prime(p)
    bits = QrTable(p).bits
    l_L = _least_even_with(lambda l: final_value(p, l, bits) != 0, p)
    l_R = _least_even_with(lambda l: final_value(p, l, bits) == p, p)
    return JpSummary(p=p, l_L=l_L, l_R=l_R, count=(l_R - l_L) // 2)


def _two_in_jp_task(p: int) -> int | None:
    v = final_value(p, 2, QrTable(p).bits)
    return p if 0 < v < p else None


def scan_two_in_jp(p_max: int, workers: int = 1) -> list[int]:
    """Primes p = 1 mod 4 in [13, p_max] whose walk from l = 2 ends mid-board.

    A single walk per prime; no binary search involved.
    """
    from .parallel import pmap

    if p_max < 13:
        raise DomainError(f"scan_two_in_jp requires p_max >= 13, got {p_max}")
    hits = pmap(_two_in_jp_task, qualifying_primes(13, p_max), workers=workers, chunksize=64)
    return [p for p in hits if p is not None]


def jp_summaries(p_min: int, p_max: int, workers: int = 1) -> list[JpSummary]:
    """compute_jp for every qualifying prime in [max(p_min, 13), p_max], ascending."""
    from .parallel import pmap

    return pmap(compute_jp, qualifying_primes(p_min, p_max), workers=workers, chunksize=8)


def format_ratio(count: int, p: int) -> str:
    """count/p with 6 decimal digits, as Python formats the float count / p."""
    return f"{count / p:.6f}"


def jp_ratio_table(p_max: int, p_min: int = 13, workers: int = 1) -> list[tuple]:
    """Rows (p, l_L, l_R, count, ratio-string) for the J_p size table."""
    return [
        (s.p, s.l_L, s.l_R, s.count, format_ratio(s.count, s.p))
        for s in jp_summaries(p_min, p_max, workers=workers)
    ]
