"""Reduced quadratic-residue walks and the (l_L, l_R, J_p) decomposition.

For an odd prime p and start value l, the walk g~(1) = l,
g~(n+1) = g~(n) + chi(n) chi(g~(n)) steps by +-1 while strictly between
the absorbing barriers 0 and p (chi is the Legendre symbol mod p).  The
walk tracks n g(n) mod p for the sequence with exponent (p-1)/2, so its
final value classifies integrality at p:

  final 0 -> Left, final p -> Right, otherwise Middle (non-integral).

Two walks whose starts have the same parity never cross: while neither is
absorbed both move by +-1, so their gap stays even and can only close by
meeting, after which they coincide; an absorbed walk sits on a barrier,
the least or greatest value of the board.  So the final value is monotone
in the start over each parity class.  For p = 1 mod 4 the even starts run
Left, then Middle, then Right, split at the block edges l_L and l_R.

Each edge of a parity class is one walk backwards over n = p-1, ..., 1:

  left:  c starts at 1 for even starts, 0 for odd ones; at step n,
         c -= 1 if c > 0 and chi(n) = chi(c), else c += 1;
  right: d starts at 0 for even starts, 1 for odd ones; at step n,
         d -= 1 if d > 0 and chi(n) != chi(p - d), else d += 1.

The starts of the class that end at 0 are then those <= c - 1, and those
that end at p those >= p + 1 - d; for the even starts of p = 1 mod 4,
l_L = c + 1 and l_R = p + 1 - d.  Why: call a position good at time n
if the walk from it through steps n, ..., p-1 ends at 0.  The walks of
the class sit on one parity at each time, alternating with n.  Suppose
the good positions of that parity at time n + 1 are 0 and those
<= c - 1.  Step n moves each position 0 < x < p of the other parity by
one: those <= c - 2 land <= c - 1, those >= c + 2 land >= c + 1, and c
lands on c - 1 or c + 1 as chi(n) chi(c) is -1 or +1.  So the good
positions at time n are those <= c or those <= c - 2, and at c = 0 only
the barrier 0 is good, which makes c = 1.  Counted back from time p,
where only 0 is good (c = 1 for the even starts, whose walks are on even
positions then, and c = 0 for the odd ones), that is the rule.  The
right edge is the mirror image, with p - d in place of c.  A walk moves
one position per step, so c and d stay <= p - n, and chi(p) is never
read.

`final_value` walks one start forwards, reading chi by Euler's criterion
until its walk has lasted a few steps and from `modarith.qr_bits` after
that; `scan_two_in_jp` calls it once per prime.  `compute_jp` and
`classify_all` run the edge walks one at a time, and `jp_summaries` runs
those of many primes as numpy lanes in lockstep.
"""

from enum import Enum
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .modarith import check_odd_prime, check_qualifying_prime, qr_bits, qualifying_primes
from .parallel import pmap


class Classification(Enum):
    LEFT = "left"
    MIDDLE = "middle"
    RIGHT = "right"


class JpSummary(NamedTuple):
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


# Steps final_value takes on Euler's criterion before it builds the residue
# table: most walks from l = 2 end within a few steps, and the table costs
# O(p).  8 and 16 measured level on `two-in-jp`, 32 slower.
_EULER_STEPS = 16  # any int >= 0


def final_value(p: int, l: int) -> int:
    """g~(p) only, with early exit on absorption.

    The first _EULER_STEPS steps read chi by Euler's criterion, so a walk
    absorbed by then builds no residue table.
    """
    _check_start(p, l)
    e, g = (p - 1) // 2, l
    for n in range(1, min(_EULER_STEPS + 1, p)):
        if g == 0 or g == p:
            return g
        g += 1 if pow(n, e, p) == pow(g, e, p) else -1
    if 0 < g < p and _EULER_STEPS + 1 < p:
        bits = qr_bits(p)
        g = _walk_on(p, g, bits[_EULER_STEPS + 1:], bits)
    return g


def _walk_on(p: int, g: int, steps: bytes, chi: bytes) -> int:
    """Where the walk at g ends after the steps whose chi(n) `steps` holds
    in order, both in qr_bits' coding."""
    for b in steps:
        if g == 0 or g == p:
            return g
        g += 1 if b == chi[g] else -1
    return g


def _class_of(p: int, v: int) -> Classification:
    """The class of a walk on the board of p that ends at v."""
    return (Classification.LEFT if v == 0
            else Classification.RIGHT if v == p else Classification.MIDDLE)


def classify_l(p: int, l: int) -> Classification:
    return _class_of(p, final_value(p, l))


def _edges(chi: bytes, neg: bytes, c: int, d: int) -> tuple[int, int]:
    """The left and right edge walks (module docstring) from (c, d), over
    n = p - 1 down to 1; chi is qr_bits(p), and neg[x] codes chi(-x) =
    chi(p - x) the same way, so it is chi itself for p = 1 mod 4."""
    for b in chi[:0:-1]:
        c = c - 1 if c and b == chi[c] else c + 1
        d = d - 1 if d and b != neg[d] else d + 1
    return c, d


def _jp_from_edges(p: int, c: int, d: int) -> JpSummary:
    l_L, l_R = c + 1, p + 1 - d
    return JpSummary(p=p, l_L=l_L, l_R=l_R, count=(l_R - l_L) // 2)


def compute_jp(p: int) -> JpSummary:
    """Block boundaries (l_L, l_R) and #J_p = (l_R - l_L) / 2 for p = 1 mod 4, p >= 13.

    One backward edge walk per side over the even starts (module
    docstring): 2 (p - 1) steps, and no walk from any start.
    """
    check_qualifying_prime(p)
    chi = qr_bits(p)
    return _jp_from_edges(p, *_edges(chi, chi, 1, 0))


def scan_two_in_jp(p_max: int, workers: int = 1) -> list[int]:
    """Primes p = 1 mod 4 in [13, p_max] whose walk from l = 2 ends mid-board.

    A single walk per prime.
    """
    primes = qualifying_primes(13, p_max)
    finals = pmap(partial(final_value, l=2), primes, workers)
    return [p for p, v in zip(primes, finals) if 0 < v < p]


# Lockstep table bytes per run of primes: 2p - 1 per prime.
JP_BATCH_BYTES = 1 << 25  # any int >= 1
# A run of fewer primes walks its edges one prime at a time: a lockstep step
# of a few lanes costs about as much as 20 scalar steps.  Runs of 20 primes
# measured level both ways near 5*10^4; near 10^6, 12 were level and 16
# faster in lockstep.
_LOCKSTEP_MIN_PRIMES = 20  # any int >= 0
# Steps whose chi(n) the lockstep gathers at once.
_GATHER_STEPS = 256  # any int >= 1


def _chi_table(primes: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(table, centres): per prime p, 2p - 1 int8 entries around its centre,
    chi(x) at centre + x and -chi(x) at centre - x for 0 < x < p, and -1 at
    the centre itself."""
    p_arr = np.asarray(primes, dtype=np.intp)
    centres = np.cumsum(2 * p_arr - 1) - p_arr
    table = np.empty(int(centres[-1]) + primes[-1], dtype=np.int8)
    for p, o in zip(primes, centres.tolist()):
        bits = np.frombuffer(qr_bits(p), dtype=np.int8)
        table[o : o + p] = bits
        np.subtract(1, bits[:0:-1], out=table[o - p + 1 : o])
    table *= 2
    table -= 1
    return table, centres


def _jp_lockstep(primes: list[int]) -> list[JpSummary]:
    """compute_jp for ascending primes, with their edge walks as numpy lanes in lockstep.

    Lanes 2i and 2i + 1 walk c and d of primes[i].  For p = 1 mod 4,
    chi(p - d) = chi(d), so both take the step x += s chi(n) chi(x), with
    s = -1 for c and +1 for d, except that x = 0 steps to 1.  A lane is
    instead at y = +-x on the odd extension of chi that _chi_table lays
    out: the step y += s chi(n) chi(y) keeps |y| = x, the floor included,
    so a lane is just its position in the table.  Every lane starts at
    n = p - 1 of its own prime, and since the primes ascend, the lanes
    whose walk is over form a prefix.
    """
    table, centres = _chi_table(primes)
    pos = np.repeat(centres, 2)
    pos[0::2] += 1
    top = np.repeat(centres + np.asarray(primes, dtype=np.intp), 2)
    sign = np.tile(np.array([-1, 1], dtype=np.int8), len(primes))
    ahead = np.arange(_GATHER_STEPS)[:, None]
    t = 1  # steps taken: the next step of the lanes of p is n = p - t
    for i, p in enumerate(primes):
        y = pos[2 * i :]
        while t < p:
            k = min(_GATHER_STEPS, p - t)
            steps = table[top[2 * i :] - t - ahead[:k]]
            steps *= sign[2 * i :]
            for s in steps:
                y += table[y] * s
            t += k
    x = np.abs(pos - np.repeat(centres, 2)).tolist()
    return [_jp_from_edges(p, c, d) for p, c, d in zip(primes, x[0::2], x[1::2])]


def _jp_run(primes: list[int]) -> list[JpSummary]:
    """compute_jp for a run of ascending primes, in lockstep if it holds enough of them."""
    if len(primes) < _LOCKSTEP_MIN_PRIMES:
        return [compute_jp(p) for p in primes]
    return _jp_lockstep(primes)


def _runs(primes: list[int]) -> list[list[int]]:
    """The primes cut into as few consecutive runs of about equal table
    bytes as keep each near JP_BATCH_BYTES at most."""
    if not primes:
        return []
    size = np.cumsum(2 * np.asarray(primes, dtype=np.int64) - 1)
    count = -(-int(size[-1]) // JP_BATCH_BYTES)
    cuts = np.searchsorted(size, size[-1] * np.arange(1, count) / count)
    return [run.tolist() for run in np.split(np.asarray(primes), cuts) if len(run)]


def jp_summaries(p_min: int, p_max: int, workers: int = 1) -> list[JpSummary]:
    """compute_jp for every qualifying prime in [max(p_min, 13), p_max], ascending.

    The primes are cut into runs of at most about JP_BATCH_BYTES of table
    (`_runs`), spread over the workers when there is more than one; a run
    of at least _LOCKSTEP_MIN_PRIMES primes walks its edges in numpy
    lockstep, a shorter one prime by prime.
    """
    runs = _runs(qualifying_primes(p_min, p_max))
    return [s for run in pmap(_jp_run, runs, workers) for s in run]


def classify_all(p: int) -> list[Classification]:
    """classify_l(p, l) for l = 0, ..., p - 1, from the two edge walks of each parity."""
    check_odd_prime(p)
    chi = qr_bits(p)
    neg = chi[:1] + chi[:0:-1]
    classes = [Classification.MIDDLE] * p
    for lo, (c, d) in enumerate((_edges(chi, neg, 1, 0), _edges(chi, neg, 0, 1))):
        # the starts of this parity <= c - 1 end at 0, those >= p + 1 - d at p
        classes[lo:c:2] = [Classification.LEFT] * len(range(lo, c, 2))
        classes[p + 1 - d :: 2] = [Classification.RIGHT] * len(range(p + 1 - d, p, 2))
    return classes


def jp_ratio_table(p_max: int, p_min: int = 13, workers: int = 1) -> list[tuple]:
    """Rows (p, l_L, l_R, count, ratio) for the J_p size table, the ratio with 6 decimals."""
    return [
        (s.p, s.l_L, s.l_R, s.count, f"{s.ratio:.6f}")
        for s in jp_summaries(p_min, p_max, workers=workers)
    ]
