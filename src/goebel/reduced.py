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
Left, then Middle, then Right, which makes the block boundaries l_L and
l_R searchable.

Two kernels walk.  The scalar `final_value` walks one start at a time;
`compute_jp` bisects with it, `scan_two_in_jp` calls it once per prime,
and it is the reference for the other kernel.  `_walk_runs` walks many
(prime, window of starts) jobs in lockstep as numpy lanes and, by the
no-crossing property, merges each lane into its left neighbour once they
meet, so few lanes stay alive.  `jp_summaries` and `classify_all` use it.
Both read chi from `modarith.qr_bits`, which keeps the table of the last
prime, so a prime's walks build it once.
"""

from bisect import bisect_left
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


def final_value(p: int, l: int) -> int:
    """g~(p) only, with early exit on absorption."""
    _check_start(p, l)
    return _walk_on(p, l, 1, qr_bits(p))


def _walk_on(p: int, g: int, n: int, bits: bytes) -> int:
    """g~(p) of a walk that is at g before step n; bits[x] != bits[y] iff chi(x) != chi(y)."""
    for m in range(n, p):
        if g == 0 or g == p:
            return g
        g += 1 if bits[m] == bits[g] else -1
    return g


def _class_of(p: int, v: int) -> Classification:
    """The class of a walk on the board of p that ends at v."""
    return (Classification.LEFT if v == 0
            else Classification.RIGHT if v == p else Classification.MIDDLE)


def classify_l(p: int, l: int) -> Classification:
    return _class_of(p, final_value(p, l))


def _least_even_with(pred, p: int) -> int:
    # pred is false at l = 0 and true at l = p - 1; the set where it holds
    # is upward closed over even l (monotone final values), so bisect over
    # the even index i (l = 2i) strictly between those two ends.
    m = (p - 1) // 2
    return 2 * bisect_left(range(m + 1), True, 1, m, key=lambda i: pred(2 * i))


def compute_jp(p: int) -> JpSummary:
    """Block boundaries (l_L, l_R) and #J_p = (l_R - l_L) / 2 for p = 1 mod 4, p >= 13.

    Two independent binary searches over the even starts, sound because the
    final values are monotone in even l (walks of one parity never cross):
    l_L is the least even l whose walk is not absorbed at 0, l_R the least
    even l absorbed at p.  Costs at most 2 ceil(log2((p-1)/2)) walks.  It is
    the reference for the lockstep walks of `jp_summaries`.
    """
    check_qualifying_prime(p)
    l_L = _least_even_with(lambda l: final_value(p, l) != 0, p)
    l_R = _least_even_with(lambda l: final_value(p, l) == p, p)
    return JpSummary(p=p, l_L=l_L, l_R=l_R, count=(l_R - l_L) // 2)


def scan_two_in_jp(p_max: int, workers: int = 1) -> list[int]:
    """Primes p = 1 mod 4 in [13, p_max] whose walk from l = 2 ends mid-board.

    A single walk per prime; no binary search involved.
    """
    primes = qualifying_primes(13, p_max)
    finals = pmap(partial(final_value, l=2), primes, workers)
    return [p for p, v in zip(primes, finals) if 0 < v < p]


# Width of the first window of even starts walked from each end of [0, p-1];
# a side it does not settle doubles it and walks again.
JP_WINDOW = 512
# int8 walk-table bytes per lockstep batch: p + 1 per job, two jobs per prime.
JP_BATCH_BYTES = 1 << 25
# Steps between merges of the lanes that have met (measured flat from 32 to
# 128 steps, and 15-20% slower at 8).
_MERGE_EVERY = 32
# Once at most this many lanes are still walking, each finishes as a scalar
# walk.  A numpy step costs about as much as 25 scalar steps, but lanes keep
# merging; 4 to 8 measured fastest for primes near 10^5 and 10^6, and 4 to
# 32 were level on 13 primes near 5*10^4.
_SCALAR_LANES = 8


def _walk_runs(jobs: list[tuple[int, int, int]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Walk the starts lo, lo+2, ..., hi of every job (p, lo, hi) in lockstep.

    jobs must be sorted by p.  Returns, per job, the arrays (starts, finals)
    of its surviving lanes in ascending start order: a lane stands for the
    run of starts from its own start up to the next lane's, all of which
    end at its final value g~(p).

    Each job owns a segment of one concatenated table holding chi of its
    prime, with zeros at both barriers, and a lane holds its position as an
    absolute index into that table, so one step of every lane is
    g += S[off + n] * S[g] and an absorbed lane stays put.  Positions are
    then ascending across the whole lane array (within a job because walks
    of one parity never cross, across jobs because segments are disjoint),
    so a lane that has met its left neighbour is found by one comparison
    and dropped.  Since jobs are sorted by p, the lanes whose walk is over
    form a prefix.  Once at most _SCALAR_LANES lanes are off the barriers,
    each of them finishes as a scalar walk and the lockstep stops.
    """
    sizes = [p + 1 for p, _, _ in jobs]
    seg = np.zeros(len(jobs) + 1, dtype=np.intp)
    np.cumsum(sizes, out=seg[1:])
    table = np.empty(int(seg[-1]), dtype=np.int8)
    for (p, _, _), o in zip(jobs, seg.tolist()):
        table[o : o + p] = np.frombuffer(qr_bits(p), dtype=np.int8)
    table *= 2
    table -= 1
    table[seg[:-1]] = 0
    table[seg[1:] - 1] = 0
    counts = [(hi - lo) // 2 + 1 for _, lo, hi in jobs]
    start = np.concatenate([np.arange(lo, hi + 1, 2, dtype=np.intp) for _, lo, hi in jobs])
    off = np.repeat(seg[:-1], counts)
    g = off + start
    ends = [p - 1 for p, _, _ in jobs]
    done_off, done_start, done_final = [], [], []
    n, done = 1, 0
    while done < len(jobs):
        stop = min(n + _MERGE_EVERY, ends[done] + 1)
        for m in range(n, stop):
            g += table[off + m] * table[g]
        n = stop
        while done < len(jobs) and ends[done] < n:
            done += 1
        cut = len(g) if done == len(jobs) else int(np.searchsorted(g, seg[done]))
        if cut:
            done_off.append(off[:cut])
            done_start.append(start[:cut])
            done_final.append(g[:cut] - off[:cut])
            g, off, start = g[cut:], off[cut:], start[cut:]
        keep = np.empty(len(g), dtype=bool)
        keep[:1] = True
        np.not_equal(g[1:], g[:-1], out=keep[1:])
        g, off, start = g[keep], off[keep], start[keep]
        walking = np.flatnonzero(table[g])  # S is 0 only at the barriers
        if done < len(jobs) and len(walking) <= _SCALAR_LANES:
            for i in walking.tolist():
                o = int(off[i])
                p = int(seg[np.searchsorted(seg, o, side="right")]) - o - 1
                g[i] = o + _walk_on(p, int(g[i]) - o, n, table[o : o + p + 1].tobytes())
            done = len(jobs)
            done_off.append(off)
            done_start.append(start)
            done_final.append(g - off)
    off = np.concatenate(done_off)
    start = np.concatenate(done_start)
    final = np.concatenate(done_final)
    bounds = np.searchsorted(off, seg).tolist()
    return [(start[a:b], final[a:b]) for a, b in zip(bounds, bounds[1:])]


def _jp_sides(sides: list[tuple[int, int]], w: int) -> list[int | None]:
    """l_L (side 0) or l_R (side 1) of each (p, side) job, walking a window
    of w even starts at that end of [0, p - 1]; None where the window does
    not settle it."""
    jobs = [(p, 0, min(w, p - 1)) if side == 0 else (p, max(p - 1 - w, 0), p - 1)
            for p, side in sides]
    out = []
    for (p, side), (starts, finals) in zip(sides, _walk_runs(jobs)):
        if side == 0:
            hit = np.flatnonzero(finals != 0)
            out.append(int(starts[hit[0]]) if len(hit) else None)
        else:
            hit = np.flatnonzero(finals == p)
            # l_R lies in the window once its lowest start is not absorbed at
            # p; that lane is never merged away, and from start 0 it ends at 0
            out.append(int(starts[hit[0]]) if finals[0] != p and len(hit) else None)
    return out


def _byte_batches(sides: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Consecutive runs of the (p, side) jobs with at most JP_BATCH_BYTES of table each."""
    batches, batch, size = [], [], 0
    for job in sides:
        if batch and size + job[0] + 1 > JP_BATCH_BYTES:
            batches.append(batch)
            batch, size = [], 0
        batch.append(job)
        size += job[0] + 1
    if batch:
        batches.append(batch)
    return batches


def _jp_lockstep(primes: list[int], workers: int) -> list[JpSummary]:
    """compute_jp for ascending primes, galloping in from both ends.

    Each side walks the window of JP_WINDOW even starts at its end of
    [0, p - 1]; a side the window does not settle doubles it and walks
    again.  A window over all starts always settles.
    """
    pending = [(p, side) for p in primes for side in (0, 1)]
    found = {}
    w = JP_WINDOW
    while pending:
        batches = _byte_batches(pending)
        results = pmap(partial(_jp_sides, w=w), batches, workers)
        pending = []
        for batch, values in zip(batches, results):
            for job, value in zip(batch, values):
                if value is None:
                    pending.append(job)
                else:
                    found[job] = value
        w *= 2
    return [
        JpSummary(p=p, l_L=found[p, 0], l_R=found[p, 1], count=(found[p, 1] - found[p, 0]) // 2)
        for p in primes
    ]


def jp_summaries(p_min: int, p_max: int, workers: int = 1) -> list[JpSummary]:
    """compute_jp for every qualifying prime in [max(p_min, 13), p_max], ascending.

    The numpy lockstep walks of `_walk_runs` find the boundaries, in
    batches of at most JP_BATCH_BYTES of walk tables spread over the
    workers.  They rely on the final values being monotone in even l, since
    walks from starts of one parity never cross (module docstring).
    """
    return _jp_lockstep(qualifying_primes(p_min, p_max), workers)


def classify_all(p: int) -> list[Classification]:
    """classify_l(p, l) for l = 0, ..., p - 1, by one lockstep walk per parity."""
    check_odd_prime(p)
    classes = [None] * p
    for lo, (starts, finals) in zip((0, 1), _walk_runs([(p, 0, p - 1), (p, 1, p - 2)])):
        # the run holding l begins at the greatest lane start <= l
        runs = np.searchsorted(starts, np.arange(lo, p, 2), side="right") - 1
        classes[lo::2] = [_class_of(p, v) for v in finals[runs].tolist()]
    return classes


def jp_ratio_table(p_max: int, p_min: int = 13, workers: int = 1) -> list[tuple]:
    """Rows (p, l_L, l_R, count, ratio) for the J_p size table, the ratio with 6 decimals."""
    return [
        (s.p, s.l_L, s.l_R, s.count, f"{s.ratio:.6f}")
        for s in jp_summaries(p_min, p_max, workers=workers)
    ]
