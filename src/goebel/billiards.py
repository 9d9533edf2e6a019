"""Arithmetic billiards and the associated +-1 sign sequences.

For p = 1 mod 4 and even l, a diagonal path bounces inside a 45-degree
rectangle whose boundary lattice points it visits exactly once.  Reading
sign constraints off the visit order determines a unique sequence a(1..p-1);
its period-(l+1) skeleton b is pinned by two reflection relations.  The
final theorem checked here: a is never completely multiplicative at 2,
which is what forces the middle block J_p to be non-empty.  The
middle-block conditions and the witness kernel read chi from
`modarith.qr_bits`, so a worker builds each prime's table once across
its witness batches.  `WitnessRows` hands the witness rows to the CLI
one batch at a time, as text in the CLI's record format, so no list of
them is ever built there.
"""

import gc
from itertools import chain, repeat
from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InconsistentConstraints, NoWitness
from .fileio import int_lines
from .modarith import check_qualifying_prime, is_prime, qr_bits, qualifying_primes
from .parallel import pmap


class BilliardPath(NamedTuple):
    """Boundary lattice points of the reflection rectangle, in visit order.

    points excludes the entry and exit corners (start and end); sigma and
    tau are the permutations of {1..(p-1)/2} read off the first half.
    """

    p: int
    l: int
    points: list[tuple[int, int]]
    sigma: list[int]
    tau: list[int]
    start: tuple[int, int]
    end: tuple[int, int]


class SignSequence(NamedTuple):
    """A +-1 sequence: kind "a" of length p-1, or kind "b" of length l+1.

    Kind "b" extends periodically modulo l+1 to every integer index.
    """

    values: tuple[int, ...]
    kind: str
    l: int
    p: int | None = None
    s: int | None = None

    def value(self, n: int) -> int:
        if self.kind == "b":
            return self.values[(n - 1) % len(self.values)]
        if not 1 <= n <= len(self.values):
            raise DomainError(f"index {n} outside [1, {len(self.values)}]")
        return self.values[n - 1]


class Witness(NamedTuple):
    p: int
    l: int
    m: int


def _check_pl(p: int, l: int) -> int:
    if p % 4 != 1 or not is_prime(p):
        raise DomainError(f"expected a prime p = 1 (mod 4), got {p}")
    if l % 2 or not 0 <= l <= p - 3:
        raise DomainError(f"l must be even in [0, {p - 3}], got {l}")
    return min(l + 1, p - (l + 1))


def _tri(t: int, period: int) -> int:
    r = t % (2 * period)
    return r if r <= period else 2 * period - r


def billiard_path(p: int, l: int) -> BilliardPath:
    """Simulate the reflections and collect the p-2 visited lattice points.

    In coordinates rotated 45 degrees the path is the standard diagonal
    billiard in a W x H box with W = p - 2c, H = 2c, c = min(l+1, p-l-1),
    so visits happen exactly at the multiples of W and H below W*H.  The
    two side lengths are coprime, which is what makes every boundary
    lattice point get hit exactly once.
    """
    c = _check_pl(p, l)
    W, H = p - 2 * c, 2 * c
    points = []
    # W and H are coprime, so no multiple of one below W*H is a multiple of the other
    for t in sorted(chain(range(W, W * H, W), range(H, W * H, H))):
        u, v = _tri(t, W), _tri(t, H)
        points.append(((u + v) // 2, (u - v) // 2 + c))
    if len(points) != p - 2:
        raise InconsistentConstraints(f"expected {p - 2} path points, got {len(points)}")
    m = (p - 1) // 2
    sigma = [c] + [points[2 * j - 3][1] for j in range(2, m + 1)]
    tau = [points[2 * j - 2][0] for j in range(1, m + 1)]
    return BilliardPath(p=p, l=l, points=points, sigma=sigma, tau=tau, start=(0, c), end=(c, 0))


def construct_a(p: int, l: int) -> SignSequence:
    """The unique sequence with a(1) = 1 pinned by the billiard constraints.

    Propagates a(x) a(y) = psi(x, y) along the first half of the path,
    where psi is the sign of the wall the point lies on: the wall x + y = c
    carries -1 when c = l+1 and +1 when c = p-l-1, every other wall the
    opposite.  The path introduces each index in {1..(p-1)/2} once; the free
    overall sign is fixed by a(1) = 1 and the upper half is filled by the
    mirror condition a(n) = a(p - n).
    """
    c = _check_pl(p, l)
    path = billiard_path(p, l)
    wall_sign = -1 if c == l + 1 else 1
    m = (p - 1) // 2
    coef = [0] * (m + 1)
    coef[c] = 1
    for i, (x, y) in enumerate(path.points[:m]):
        sign = wall_sign if x + y == c else -wall_sign
        if x == y:
            # the path's self-symmetric bounce; carries no new index
            if i != m - 1 or sign != 1:
                raise InconsistentConstraints(f"bad midpoint at {(x, y)} for (p={p}, l={l})")
            continue
        if x > m or y > m:
            raise InconsistentConstraints(f"first-half point {(x, y)} outside [1, {m}]")
        if coef[x] and not coef[y]:
            coef[y] = sign * coef[x]
        elif coef[y] and not coef[x]:
            coef[x] = sign * coef[y]
        else:
            raise InconsistentConstraints(f"propagation stalled at {(x, y)} for (p={p}, l={l})")
    if not all(coef[1:]):
        raise InconsistentConstraints(f"unpinned indices for (p={p}, l={l})")
    free = coef[1]  # a(1) = coef[1] * free_sign = 1
    values = [0] * (p - 1)
    for n in range(1, m + 1):
        values[n - 1] = coef[n] * free
    for n in range(m + 1, p):
        values[n - 1] = values[p - n - 1]
    return SignSequence(values=tuple(values), kind="a", l=l, p=p)


def _b_odd(j, j0):
    """1 where b = -1 at chain position j, else 0, for ints or arrays.

    The walk x -> x + (2s+1) mod l+1 from x = 1 reaches residue n at step
    j = (n - 1) (2s+1)^-1 and residue 0 at step j0; the sign flips at every
    step except the one leaving residue 0.
    """
    return (j + (j > j0)) & 1


def construct_b(l: int, s: int) -> SignSequence:
    """The unique period-(l+1) sequence with b(1) = 1 satisfying both relations.

    Read off the orbit of n -> n + (2s+1), the composition of the two
    defining reflections, by `_b_odd`; the full constraint set is
    re-checked after construction.
    """
    if l % 2 or l < 0:
        raise DomainError(f"l must be even and non-negative, got {l}")
    if not 0 <= s <= l:
        raise DomainError(f"s must be in [0, {l}], got {s}")
    L1 = l + 1
    if gcd(2 * s + 1, L1) != 1:
        raise DomainError(f"2s+1 = {2 * s + 1} shares a factor with l+1 = {L1}")
    inv = pow(2 * s + 1, -1, L1)
    values = tuple(1 - 2 * _b_odd((n - 1) * inv % L1, -inv % L1) for n in range(1, L1 + 1))
    seq = SignSequence(values=values, kind="b", l=l, s=s)
    for n in range(1, L1):
        if seq.value(n) != -seq.value(L1 - n):
            raise InconsistentConstraints(f"antisymmetry fails at n={n} for (l={l}, s={s})")
    for n in range(L1):
        if seq.value(s - n) != seq.value(s + 1 + n):
            raise InconsistentConstraints(f"reflection fails at n={n} for (l={l}, s={s})")
    return seq


def empty_iff_conditions(p: int, l: int) -> tuple[bool, bool]:
    """The two Legendre-pattern conditions whose conjunction would collapse J_p.

    cond1: chi(n) = -chi(l+1-n) for 1 <= n <= l/2 (vacuous at l = 0);
    cond2: chi(n) = chi(l+1+n) for 1 <= n <= p-l-2.
    """
    _check_pl(p, l)
    bits = qr_bits(p)
    cond1 = all(bits[n] != bits[l + 1 - n] for n in range(1, l // 2 + 1))
    cond2 = all(bits[n] == bits[l + 1 + n] for n in range(1, p - l - 1))
    return cond1, cond2


# Rows (p, l) per witness batch.  On 2 cores, `verify --p-max 2000` took
# 0.68 / 0.61 / 0.56 / 0.57 s at 512 / 1024 / 2048 / 4096 rows, with peak RSS
# level up to 2048 rows and 0.8 MB higher at 4096; verify_range(13, 10**4)
# took 6.6 / 5.2 / 4.7 / 4.6 s.
WITNESS_BATCH_ROWS = 2048
# Rows per pmap call over the batches: the results of one such window, 8
# bytes per row, are the most the row source holds at once.
WITNESS_WINDOW_ROWS = 1 << 20
# Columns of the first block that each search tests per row; a row that the
# block does not settle tests a block twice as wide next.
_FIRST_COLUMNS = 8


def _inverses(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^-1 mod m per row, for coprime a and m >= 2: the extended Euclid
    algorithm, run on all rows at once until every remainder reaches 0."""
    r0, r1 = m, a % m
    t0, t1 = np.zeros_like(m), np.ones_like(m)
    while r1.any():
        live = r1 != 0
        q = r0 // np.where(live, r1, 1)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, 0)
        t0, t1 = np.where(live, t1, t0), np.where(live, t0 - q * t1, 0)
    return t0 % m


def _first_hits(test, lo: int, hi: np.ndarray) -> np.ndarray:
    """Per row r, the least n in [lo, hi[r]] with test(rows, n) true, or -1.

    test gets the row indices and an array n of one row of columns per row
    index, clipped to that row's hi, and returns a bool array of n's shape.
    The columns come in blocks, _FIRST_COLUMNS wide and then doubling, and
    each block tests only the rows that no earlier block settled.
    """
    first = np.full(len(hi), -1, dtype=np.int64)
    rows = np.flatnonzero(hi >= lo)
    c, w = lo, _FIRST_COLUMNS
    while len(rows):
        cols = np.arange(c, c + w, dtype=np.int64)
        top = hi[rows, None]
        hit = test(rows, np.minimum(cols, top)) & (cols <= top)
        settled = hit.any(axis=1)
        first[rows[settled]] = c + hit[settled].argmax(axis=1)
        rows = rows[~settled & (hi[rows] >= c + w)]
        c, w = c + w, 2 * w
    return first


def _job_rows(jobs: list[tuple[int, int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The int64 columns p and l of the rows (p, l), l = lo, lo+2, ..., hi, of each job (p, lo, hi)."""
    counts = [(hi - lo) // 2 + 1 for _, lo, hi in jobs]
    P = np.repeat(np.array([p for p, _, _ in jobs], dtype=np.int64), counts)
    L = np.concatenate([np.arange(lo, hi + 1, 2, dtype=np.int64) for _, lo, hi in jobs])
    return P, L


def _witness_batch(jobs: list[tuple[int, int, int]]) -> np.ndarray:
    """The least witness m of every row (p, l), l = lo, lo+2, ..., hi, of each job (p, lo, hi).

    Each job's prime appears in no other job of the batch.  With L1 = l + 1
    and s = (p-1)/2 mod L1, 2s + 1 = p (mod L1), so the b sequence of the
    row is read off by `_b_odd` with the chain positions j = (n - 1) inv
    mod L1 and j0 = -inv mod L1, where inv = p^-1 mod L1.  Products stay
    below p^2, inside int64 for p below 10^8.

    Raises NoWitness for the first row whose Legendre sequence equals b on
    [1, p-1], or that has no m in [2, (p-3)/2] with b(2m) != b(2) b(m).
    """
    ps = [p for p, _, _ in jobs]
    counts = [(hi - lo) // 2 + 1 for _, lo, hi in jobs]
    P, L = _job_rows(jobs)
    L1 = L + 1
    inv = _inverses(P % L1, L1)
    j0 = -inv % L1
    # bits of every job's prime in one table; a row reads chi(n) at off + n
    bits = np.concatenate([np.frombuffer(qr_bits(p), np.uint8) for p in ps])
    off = np.repeat(np.cumsum([0] + ps[:-1]), counts)

    def chain(rows, n):
        """j(n) = (n - 1) inv mod L1, the step at which the walk from 1 reaches n."""
        return (n - 1) * inv[rows, None] % L1[rows, None]

    # chi(n) = +1 iff bits[n] = 1, and b(n) = +1 iff _b_odd = 0: they differ iff the two are equal
    differs = _first_hits(
        lambda rows, n: bits[off[rows, None] + n] == _b_odd(chain(rows, n), j0[rows, None]),
        1, P - 1,
    )
    everyone = np.arange(len(P))
    odd2 = _b_odd(chain(everyone, np.int64(2)), j0[:, None])[:, 0]

    def witness(rows, m):
        j, z = chain(rows, m), j0[rows, None]
        j2 = (2 * j + inv[rows, None]) % L1[rows, None]  # j(2m) = 2 j(m) + inv
        return _b_odd(j2, z) != _b_odd(j, z) ^ odd2[rows, None]

    m = _first_hits(witness, 2, (P - 3) // 2)
    bad = np.flatnonzero((differs < 0) | (m < 0))
    if len(bad):
        i = int(bad[0])
        p, l = int(P[i]), int(L1[i]) - 1
        if differs[i] < 0:
            raise NoWitness(f"Legendre sequence equals the sign sequence for (p={p}, l={l})")
        raise NoWitness(f"no multiplicativity witness for (p={p}, l={l})")
    return m


def _row_batches(primes: list[int]) -> list[list[tuple[int, int, int]]]:
    """The rows (p, l), l even in [2, p-3], of the primes in order, cut into
    consecutive runs of at most WITNESS_BATCH_ROWS rows, each a list of
    (p, lo, hi) jobs; a prime may be cut between two runs."""
    batches, batch, room = [], [], WITNESS_BATCH_ROWS
    for p in primes:
        lo = 2
        while lo <= p - 3:
            hi = min(p - 3, lo + 2 * (room - 1))
            batch.append((p, lo, hi))
            room -= (hi - lo) // 2 + 1
            lo = hi + 2
            if room == 0:
                batches.append(batch)
                batch, room = [], WITNESS_BATCH_ROWS
    if batch:
        batches.append(batch)
    return batches


def _witness_columns(primes: list[int], workers: int):
    """(P, L, M) int64 arrays of the rows (p, l, m) of the primes, in order, one triple per batch.

    The batches go to pmap a window of about WITNESS_WINDOW_ROWS rows at a
    time, so one window of results is the most that is held at once.
    Raises NoWitness as _witness_batch does, after every triple of the
    windows before the failing one has been yielded.
    """
    batches = _row_batches(primes)
    step = max(1, WITNESS_WINDOW_ROWS // WITNESS_BATCH_ROWS)
    for start in range(0, len(batches), step):
        window = batches[start : start + step]
        for batch, m in zip(window, pmap(_witness_batch, window, workers)):
            yield *_job_rows(batch), m


class WitnessRows:
    """The witness rows (p, l, m) of the qualifying primes in [p_min, p_max], made as they are read.

    The same protocol as sieve.SieveOutcome: len is the row count, the sum
    of (p - 3) / 2 over the primes, known before any row is made, and
    text_blocks gives the rows as text, one kernel batch at a time.
    Reading them raises NoWitness at the first failing batch, after the
    rows of the windows before it.
    """

    def __init__(self, p_min: int, p_max: int, workers: int = 1):
        # a prime bound out of range raises here, before any output is opened
        self.primes = qualifying_primes(p_min, p_max)
        self.workers = workers

    def __len__(self) -> int:
        return sum((p - 3) // 2 for p in self.primes)

    def text_blocks(self, *pieces: str):
        """int_lines of each batch's (p, l, m) columns with the four pieces, one str per batch."""
        for columns in _witness_columns(self.primes, self.workers):
            yield int_lines(columns, pieces)


def _witnesses(primes: list[int], workers: int) -> list[Witness]:
    # the rows share one int object per p and one per even l, which keeps them small
    evens = list(range(0, primes[-1] - 2, 2)) if primes else []
    out = []
    p = None
    # the rows hold no cycles, and the collector would scan them again and
    # again as they are made: it is paused, and left as it was found
    enabled = gc.isenabled()
    gc.disable()
    try:
        for P, L, M in _witness_columns(primes, workers):
            # a batch holds runs of rows of one prime each, l ascending by 2
            cuts = [0, *(np.flatnonzero(P[1:] != P[:-1]) + 1).tolist(), len(P)]
            for a, b in zip(cuts, cuts[1:]):
                if P[a] != p:
                    p = int(P[a])
                ls = evens[L[a] // 2 : L[b - 1] // 2 + 1]
                out.extend(map(Witness, repeat(p), ls, M[a:b].tolist()))
    finally:
        if enabled:
            gc.enable()
    return out


def verify_nonmultiplicativity(p: int) -> list[Witness]:
    """For every even l in [2, p-3], exhibit the least m with a(2m) != a(2) a(m).

    Also checks the premise that the Legendre sequence differs from a as a
    sequence.  Raises NoWitness on any failure, which would contradict the
    middle-block theorem and therefore signals a bug.
    """
    check_qualifying_prime(p)
    return _witnesses([p], 1)


def verify_range(p_min: int, p_max: int, workers: int = 1) -> list[Witness]:
    """verify_nonmultiplicativity over all qualifying primes in [p_min, p_max].

    The rows of all primes go through the numpy witness kernel in batches
    of WITNESS_BATCH_ROWS, spread over the workers.
    """
    return _witnesses(qualifying_primes(p_min, p_max), workers)
