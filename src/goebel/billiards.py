"""Arithmetic billiards and the associated +-1 sign sequences.

For p = 1 mod 4 and even l, a diagonal path bounces inside a 45-degree
rectangle whose boundary lattice points it visits exactly once.  Reading
sign constraints off the visit order determines a unique sequence a(1..p-1);
its period-(l+1) skeleton b is pinned by two reflection relations.  The
final theorem checked here: a is never completely multiplicative at 2,
which is what forces the middle block J_p to be non-empty.
"""

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .errors import DomainError, InconsistentConstraints, NoWitness
from .modarith import QrTable, check_qualifying_prime, is_prime, qualifying_primes
from .parallel import pmap


@dataclass(frozen=True)
class BilliardPath:
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


@dataclass(frozen=True)
class SignSequence:
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
    tW, tH = W, H
    end_t = W * H
    while True:
        t = tW if tW < tH else tH
        if t >= end_t:
            break
        if t == tW:
            tW += W
        if t == tH:
            tH += H
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
    mirror condition a(n) = a(p - n).  l = 0 bypasses the billiard: the
    sequence is identically +1.
    """
    c = _check_pl(p, l)
    if l == 0:
        return SignSequence(values=(1,) * (p - 1), kind="a", l=0, p=p)
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


def _b_query(l: int, s: int):
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


def construct_b(l: int, s: int) -> SignSequence:
    """The unique period-(l+1) sequence with b(1) = 1 satisfying both relations.

    Solved by sign propagation along the orbit of n -> n + (2s+1), the
    composition of the two defining reflections; the full constraint set
    is re-checked after construction.
    """
    if l % 2 or l < 0:
        raise DomainError(f"l must be even and non-negative, got {l}")
    if not 0 <= s <= l:
        raise DomainError(f"s must be in [0, {l}], got {s}")
    L1 = l + 1
    if gcd(2 * s + 1, L1) != 1:
        raise DomainError(f"2s+1 = {2 * s + 1} shares a factor with l+1 = {L1}")
    vals = [0] * L1
    x = 1 % L1
    sign = 1
    vals[x] = 1
    step = 2 * s + 1
    for _ in range(L1 - 1):
        nxt = (x + step) % L1
        sign = sign if x == 0 else -sign
        vals[nxt] = sign
        x = nxt
    values = tuple(vals[n % L1] for n in range(1, L1 + 1))
    seq = SignSequence(values=values, kind="b", l=l, s=s)
    for n in range(1, L1):
        if seq.value(n) != -seq.value(L1 - n):
            raise InconsistentConstraints(f"antisymmetry fails at n={n} for (l={l}, s={s})")
    for n in range(L1):
        if seq.value(s - n) != seq.value(s + 1 + n):
            raise InconsistentConstraints(f"reflection fails at n={n} for (l={l}, s={s})")
    return seq


def empty_iff_conditions(p: int, l: int, qr: QrTable | None = None) -> tuple[bool, bool]:
    """The two Legendre-pattern conditions whose conjunction would collapse J_p.

    cond1: chi(n) = -chi(l+1-n) for 1 <= n <= l/2 (vacuous at l = 0);
    cond2: chi(n) = chi(l+1+n) for 1 <= n <= p-l-2.
    """
    _check_pl(p, l)
    bits = (qr or QrTable(p)).bits
    cond1 = all(bits[n] != bits[l + 1 - n] for n in range(1, l // 2 + 1))
    cond2 = all(bits[n] == bits[l + 1 + n] for n in range(1, p - l - 1))
    return cond1, cond2


def verify_nonmultiplicativity(p: int) -> list[Witness]:
    """For every even l in [2, p-3], exhibit m with a(2m) != a(2) a(m).

    Also checks the premise that the Legendre sequence differs from a as a
    sequence.  Raises NoWitness on any failure, which would contradict the
    middle-block theorem and therefore signals a bug.
    """
    check_qualifying_prime(p)
    bits = QrTable(p).bits
    half = (p - 1) // 2
    witnesses = []
    for l in range(2, p - 2, 2):
        query = _b_query(l, half % (l + 1))
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


def verify_range(p_min: int, p_max: int, workers: int = 1) -> list[Witness]:
    """verify_nonmultiplicativity over all qualifying primes in [p_min, p_max]."""
    out = []
    for ws in pmap(verify_nonmultiplicativity, qualifying_primes(p_min, p_max), workers):
        out.extend(ws)
    return out
