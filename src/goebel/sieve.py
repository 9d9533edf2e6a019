"""Bad-residue tables of single primes, and residue-class sieving over k.

The non-integrality test at an odd prime p depends on k only through
k mod (p-1), so one bad residue class eliminates a whole arithmetic
progression of k values.  Every table comes from one numpy kernel,
_lane_traces, that runs the trace of many lanes (p, u, a) in lockstep:
all exponent classes a of every prime p and start value u in a batch,
with powers from discrete logs against a primitive root.  Lanes that
settle leave early, and most do.  The (k, l) grid of a prime is the
union of its tables.  The tests compare the kernel against the scalar
exact.prime_trace_mod_p, the exact lane of one prime run to p.

Exponent-class convention: table entries are labeled by a in [0, p-2].
For callers with actual k >= 1 the class a = 0 stands for k = p-1,
2(p-1), ..., and is evaluated with exponent p-1.  A literal exponent 0
(the k = 0 recurrence, a different sequence) is available only through
exact.prime_trace_mod_p directly.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .fileio import int_lines, read_keyed, replace_lines
from .modarith import SIEVE_MAX, check_odd_prime, factorize, primes_in_range
from .parallel import pmap


def primitive_root(p: int) -> int:
    order_factors = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in order_factors):
            return g
        g += 1


@lru_cache(maxsize=1)
def _prime_ctx(p: int):
    """(rpow, dlog) of p, rpow[j] = r^j and dlog[r^j] = j for a primitive root r; one p is kept."""
    r = primitive_root(p)
    rpow = np.empty(p - 1, dtype=np.int64)
    x = 1
    for j in range(p - 1):
        rpow[j] = x
        x = x * r % p
    dlog = np.zeros(p, dtype=np.int64)
    dlog[rpow] = np.arange(p - 1)
    return rpow, dlog


def _check_trace_prime(p: int) -> None:
    """The primes _lane_traces can take: (p-1)^3 must fit in int64, so p <= 2^21."""
    if (p - 1) ** 3 > np.iinfo(np.int64).max:
        raise DomainError(f"the vectorized trace overflows int64 for primes above 2^21, got {p}")


class BadResidueTable(NamedTuple):
    """Residue classes a with non-integrality at p for start value l.

    a is in [0, p-2]; class 0 is evaluated at exponent p-1 (k >= 1
    semantics), and is never bad.  Empty for l = 0 and l = 1 mod p.
    """

    p: int
    l: int
    bad: tuple[int, ...]


def bad_residues(p: int, l: int) -> BadResidueTable:
    _check_trace_prime(p)
    check_odd_prime(p)
    return _batch_tables([(p, l % p)])[0]


# Lanes per batch of the lockstep trace.  A cold `sieve --p-max 700` peaks
# at about 31.7 MB with 2^14 lanes, 35.6 MB with 2^16 and 30.7 MB with
# 2^13, which built the tables about 8% slower.
_LANES = 1 << 14  # any int >= 1
# Steps between two retirements of the settled lanes: 16 and 32 measured
# level, 64 slower, and retiring only at step 1 took 2.5 times as long.
_RETIRE = 8  # any int >= 1


def _lane_tables(primes):
    """The tables of primes, concatenated, and the start of each prime's blocks.

    Per prime p, 4p - 2 entries: dlog (p entries, dlog[0] = -1), p - 1
    zeros, rpow, and inv with inv[x] = 1/x mod p for x >= 2.  For E in
    [1, p-2], the log of 0^E that fmod leaves, -E, indexes the zeros
    before rpow, so 0^E = 0 needs no separate test.
    """
    base = np.zeros(len(primes) + 1, dtype=np.int64)
    np.cumsum([4 * p - 2 for p in primes], out=base[1:])
    tab = np.zeros(int(base[-1]), dtype=np.int64)
    for p, b in zip(primes, base.tolist()):
        rpow, dlog = _prime_ctx(p)
        tab[b : b + p] = dlog
        tab[b] = -1
        tab[b + 2 * p - 1 : b + 3 * p - 2] = rpow
        # 1/r^j = r^(p-1-j) for j >= 1: rpow read backwards, down to rpow[1]
        tab[b + 3 * p - 2 + rpow[1:]] = rpow[:0:-1]
    return tab, base


def _lane_traces(P, u, E) -> np.ndarray:
    """exact.prime_trace_mod_p of every lane (P[i], u[i], E[i]), all lanes in one lockstep.

    P holds odd primes in ascending order (at least one), u start values
    in [0, P-1] and E exponents or their classes mod P-1 (class 0 is
    evaluated as exponent P-1).  Step n computes pw = u^E from the
    discrete-log tables and s = n*u + pw, then u = s/(n+1) mod p; at
    n = p-1 the lanes of p, a prefix, end with trace s mod p.  A lane with
    pw = u at some step stays at u and ends at p*u = 0, so every _RETIRE
    steps such lanes leave with trace 0.  The largest intermediate,
    (p-1)^3, must fit in int64.
    """
    P = np.asarray(P, dtype=np.int64)
    _check_trace_prime(int(P[-1]))
    primes, counts = np.unique(P, return_counts=True)
    primes = primes.tolist()
    tab, base = _lane_tables(primes)
    pm1 = P - 1
    u = np.asarray(u, dtype=np.int64)
    E = np.asarray(E, dtype=np.int64) % pm1
    lane = np.arange(len(P))
    out = np.zeros(len(P), dtype=np.int64)
    dlog_at = np.repeat(base[:-1], counts)
    rpow_at = dlog_at + 2 * P - 1
    inv_at = dlog_at + 3 * P - 2
    # The logs cannot give 0^(p-1) = 0, but class 0 ends at trace 0 from
    # every start l: while u != 0, n*u = l + n - 1, so u stays 1 (l = 1)
    # or reaches 0 by n = p - 1 and stays.  So it runs as class 1, where
    # u^1 = u, and leaves at the first retirement.
    E[E == 0] = 1
    ends = set(primes)
    for n in range(1, primes[-1]):
        pw = tab[dlog_at + u]
        pw *= E
        np.fmod(pw, pm1, out=pw)
        pw += rpow_at
        pw = tab[pw]
        if (n - 1) % _RETIRE == 0:
            live = np.flatnonzero(pw != u)
            if len(live) < len(u):
                # one field at a time, so that at most one old array is held
                u = u[live]
                pw = pw[live]
                E = E[live]
                pm1 = pm1[live]
                P = P[live]
                lane = lane[live]
                dlog_at = dlog_at[live]
                rpow_at = rpow_at[live]
                inv_at = inv_at[live]
                if not len(u):
                    break
        s = u * n
        s += pw
        if n + 1 in ends:
            done = int(np.searchsorted(P, n + 1, side="right"))
            out[lane[:done]] = s[:done] % (n + 1)
            s, E, pm1, P, lane = s[done:], E[done:], pm1[done:], P[done:], lane[done:]
            dlog_at, rpow_at, inv_at = dlog_at[done:], rpow_at[done:], inv_at[done:]
            if not len(s):
                break
        s *= tab[inv_at + (n + 1)]
        u = s % P
    return out


def _batch_tables(jobs) -> list:
    """The BadResidueTable of each (p, l_res) job, p ascending, from one _lane_traces."""
    sizes = [p - 1 for p, _ in jobs]
    traces = _lane_traces(
        np.repeat([p for p, _ in jobs], sizes),
        np.repeat([l for _, l in jobs], sizes),
        np.concatenate([np.arange(n) for n in sizes]),
    )
    traces = np.split(traces, np.cumsum(sizes)[:-1])
    return [
        BadResidueTable(p=p, l=l, bad=tuple(np.flatnonzero(t).tolist()))
        for (p, l), t in zip(jobs, traces)
    ]


def _bad_tables(jobs, workers: int) -> list:
    """_batch_tables over jobs sorted by p, in batches of about _LANES lanes.

    Jobs are dealt round-robin, so each batch keeps p ascending and gets a
    like share of small and large primes; at least one batch per worker.
    """
    if not jobs:
        return []
    lanes = sum(p - 1 for p, _ in jobs)
    count = min(len(jobs), max(workers, -(-lanes // _LANES)))
    batches = [jobs[b::count] for b in range(count)]
    out = [None] * len(jobs)
    for b, tables in enumerate(pmap(_batch_tables, batches, workers)):
        out[b::count] = tables
    return out


# Survivors per block, both when sieve_range reads them off its bitmap (in
# bits, rounded down to whole bytes but at least one) and when text_blocks
# writes them out through int_lines: at most 16 KB of unpacked bytes and
# 128 KB of indices, or about 0.5 MB of text.
_BLOCK = 1 << 14  # any int >= 1


@dataclass(frozen=True, eq=False)
class SieveOutcome:
    """The k in [k_lo, k_hi] no odd prime <= bound sieves out.

    offsets holds k - k_lo for each of them, ascending, in one int32 array
    (4 bytes per survivor); survivors and text_blocks give exact ints and
    decimal text for any k_lo >= 0, len the count, nth_sieved the k between.
    An array has no truth value, so outcomes compare by identity.
    """

    k_lo: int
    k_hi: int
    bound: int
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def survivors(self) -> list[int]:
        return [self.k_lo + i for i in self.offsets.tolist()]

    def nth_sieved(self, i: int) -> int:
        """The i-th (from 0) k >= k_lo that is not a survivor.

        It is k_lo + i + j, where j counts the survivors with fewer than
        i + 1 sieved k below them; one bisection finds j.
        """
        j = bisect_right(range(len(self)), i, key=lambda t: int(self.offsets[t]) - t)
        return self.k_lo + i + j

    def text_blocks(self, prefix: str, suffix: str):
        """prefix + str(k) + suffix for each survivor k, joined into one str per _BLOCK survivors.

        With q, r = divmod(k_lo, 10^10), each k is q * 10^10 + (r + offset);
        an offset is an int32, below 2^31 < 10^10, so r + offset fits int64
        and reaches 10^10 at most once.  The high digits are part of the
        prefix: str(q), or str(q + 1) from the survivor at which r + offset
        reaches 10^10 on, after which the low ones are 10 wide.  Before
        that, for q = 0, the head is empty and the low digits are k itself.
        """
        q, r = divmod(self.k_lo, 10 ** 10)
        head, width = (str(q), 10) if q else ("", 1)
        for start in range(0, len(self.offsets), _BLOCK):
            values = self.offsets[start : start + _BLOCK].astype(np.int64)
            values += r
            carry = int(np.searchsorted(values, 10 ** 10))
            yield (int_lines([values[:carry]], [prefix + head, suffix], width)
                   + int_lines([values[carry:] - 10 ** 10], [prefix + str(q + 1), suffix], 10))


def check_l(l: int) -> None:
    """The sieve takes the start values of exact_N, l >= 0, not their residues mod p."""
    if l < 0:
        raise DomainError(f"need l >= 0, got {l}")


def sieve_tables(p_max: int, l: int, tables=None, workers: int = 1) -> dict:
    """Bad-residue tables for all odd primes <= p_max, reusing any given."""
    check_l(l)
    _check_trace_prime(p_max)
    tables = dict(tables) if tables else {}
    todo = [(p, l % p) for p in primes_in_range(3, p_max) if (p, l % p) not in tables]
    for t in _bad_tables(todo, workers):
        tables[(t.p, t.l)] = t
    return tables


def check_range(k_lo: int, k_hi: int, p_max: int) -> None:
    """The arguments sieve_range rejects, checked before any table is built."""
    if not 2 <= k_lo <= k_hi:
        raise DomainError(f"need 2 <= k_lo <= k_hi, got {(k_lo, k_hi)}")
    if p_max < 3:
        raise DomainError(f"need p_max >= 3, got {p_max}")
    _check_trace_prime(p_max)
    size = k_hi - k_lo + 1
    if size > SIEVE_MAX:
        raise DomainError(f"a k range of {size} values requested; sieving stops at {SIEVE_MAX}")


# Bytes per row of the periodic AND in sieve_range: about 4 KB, so that each
# prime's pattern is ANDed in by one numpy call over few, long rows.
_ROW_BYTES = 4096  # any int >= 1


def _and_good_classes(alive: np.ndarray, k_lo: int, m: int, bad) -> None:
    """Clear the bits of every k = k_lo + i in a bad class mod m from the packed bitmap alive.

    Bit i (numpy's big-endian bit order) stands for k_lo + i.  The bits of
    the good classes repeat every lcm(m, 8) bits, a whole number of bytes,
    so one packed row of that pattern, widened to about _ROW_BYTES and never
    longer than alive, is ANDed into every row of a 2-D view of alive, and
    its head into the tail.  Building the row costs O(min(m, n) + len(bad))
    for n bits, or O(_ROW_BYTES) if that is more and n allows it.
    """
    period = m // gcd(m, 8)  # bytes in lcm(m, 8) bits
    row = min(len(alive), period * max(1, _ROW_BYTES // period))
    bits = 8 * row
    # the row's bits as periods of m laid side by side, each cut to the row
    width = min(m, bits)
    good = np.ones((-(-bits // width), width), dtype=bool)
    # position of class a from k_lo; k_lo is reduced first, as it may pass int64
    pos = (np.array(bad, dtype=np.int64) - k_lo % m) % m
    good[:, pos[pos < width]] = False
    pattern = np.packbits(good.ravel()[:bits])
    whole = len(alive) - len(alive) % row
    rows = alive[:whole].reshape(-1, row)
    rows &= pattern
    alive[whole:] &= pattern[: len(alive) - whole]


def _read_offsets(alive: np.ndarray, n: int) -> np.ndarray:
    """The positions of the set bits among the first n bits of alive, ascending, as int32.

    The pad bits past n are cleared, so np.bitwise_count sizes the result
    exactly; the bitmap is then unpacked and searched _BLOCK bits at a time.
    """
    if n % 8:
        alive[-1] &= 0xFF00 >> n % 8 & 0xFF  # the last byte keeps its first n % 8 bits
    offsets = np.empty(int(np.bitwise_count(alive).sum()), dtype=np.int32)
    filled = 0
    step = max(1, _BLOCK // 8)
    for start in range(0, len(alive), step):
        found = np.flatnonzero(np.unpackbits(alive[start : start + step]))
        found += 8 * start
        offsets[filled : filled + len(found)] = found
        filled += len(found)
    return offsets


def sieve_range(k_lo: int, k_hi: int, p_max: int, l: int, tables: dict) -> SieveOutcome:
    """Cross off k in [k_lo, k_hi] whose class is bad for some odd prime <= p_max.

    tables is read, not built: it needs the (p, l % p) table of every odd
    prime p <= p_max, as sieve_tables gives, and a missing one is a KeyError.
    One packed bitmap over the range, one bit per k: each prime with a bad
    class ANDs in its periodic pattern of good classes with one numpy call.
    The survivors are read back a block at a time into one int32 array of
    offsets from k_lo, which check_range's cap on the range size lets fit.
    """
    check_range(k_lo, k_hi, p_max)
    check_l(l)
    n = k_hi - k_lo + 1
    alive = np.full(-(-n // 8), 0xFF, dtype=np.uint8)
    primes = primes_in_range(3, p_max)
    for p in primes:
        bad = tables[(p, l % p)].bad
        if bad:
            _and_good_classes(alive, k_lo, p - 1, bad)
    return SieveOutcome(k_lo=k_lo, k_hi=k_hi, bound=primes[-1], offsets=_read_offsets(alive, n))


def smallest_sieving_prime(k: int, l: int, p_max: int, tables: dict) -> int | None:
    """Least odd prime <= p_max whose bad table covers k, or None; tables as for sieve_range."""
    check_l(l)
    for p in primes_in_range(3, p_max):
        if k % (p - 1) in tables[(p, l % p)].bad:
            return p
    return None


def grid_scan(p: int) -> list[tuple[int, int]]:
    """All (k, l) in [0, p-2] x [0, p-1] with non-integrality at p, sorted.

    Rows are residue classes of actual k (class 0 evaluated at exponent
    p-1), columns are start values mod p: column l is bad_residues(p, l).
    """
    _check_trace_prime(p)
    check_odd_prime(p)
    return sorted((a, t.l) for t in _bad_tables([(p, l) for l in range(p)], 1) for a in t.bad)


def format_table_line(table: BadResidueTable) -> str:
    return f"{table.p},{table.l}:" + ";".join(str(a) for a in table.bad)


def parse_table_line(line: str) -> BadResidueTable:
    """The table on one `p,l:a1;a2;...` line; ValueError if format_table_line cannot write it."""
    head, sep, tail = line.strip().partition(":")
    p_s, _, l_s = head.partition(",")
    p, l = int(p_s), int(l_s)
    bad = tuple(int(a) for a in tail.split(";")) if tail else ()
    # each class is below the next, and the last below p - 1
    ascending = all(0 <= a < b for a, b in zip(bad, bad[1:] + (p - 1,)))
    if not sep or p < 3 or not 0 <= l < p or not ascending:
        raise ValueError(f"not a table line: {line!r}")
    return BadResidueTable(p=p, l=l, bad=bad)


def write_sieve_tables(path, tables: dict) -> None:
    """One LF-terminated ASCII line per (p, l) table, ascending keys."""
    replace_lines(path, [format_table_line(tables[key]) for key in sorted(tables)])


def read_sieve_tables(path) -> dict:
    return read_keyed(path, parse_table_line, lambda t: (t.p, t.l), "sieve tables", header=False)
