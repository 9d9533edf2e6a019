"""Single-prime congruence traces and residue-class sieving over k.

The non-integrality test at an odd prime p depends on k only through
k mod (p-1), so one bad residue class eliminates a whole arithmetic
progression of k values.  A table of bad classes comes from one vectorized
trace over all exponent classes at once (discrete logs against a primitive
root), and the (k, l) grid of a prime is the union of its tables.  The
scalar prime_trace_mod_p is the reference the tests compare it against.

Exponent-class convention: table entries are labeled by a in [0, p-2].
For callers with actual k >= 1 the class a = 0 stands for k = p-1,
2(p-1), ..., and is evaluated with exponent p-1.  A literal exponent 0
(the k = 0 recurrence, a different sequence) is available only through
prime_trace_mod_p directly.
"""

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .fileio import read_keyed, replace_lines
from .modarith import SIEVE_MAX, check_odd_prime, factorize, primes_in_range
from .parallel import pmap


def prime_trace_mod_p(k_res: int, l_res: int, p: int) -> int:
    """Residue of p*g(p) mod p for the sequence with exponent k_res, start l_res.

    Maintains u = g(n) mod p for n = 1..p-1 (every divisor below p is
    invertible), then returns (p-1)*u + u^k_res at the final step.  Zero
    means g(p) keeps p out of its denominator.  k_res is used literally;
    see the module docstring for the class-0 convention.
    """
    check_odd_prime(p)
    if not 0 <= l_res < p:
        raise DomainError(f"l_res must be in [0, {p - 1}], got {l_res}")
    u = l_res
    for n in range(1, p - 1):
        u = (n * u + pow(u, k_res, p)) * pow(n + 1, -1, p) % p
    return ((p - 1) * u + pow(u, k_res, p)) % p


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
    """The primes _trace can take: (p-1)^3 must fit in int64, so p <= 2^21."""
    if (p - 1) ** 3 > np.iinfo(np.int64).max:
        raise DomainError(f"the vectorized trace overflows int64 for primes above 2^21, got {p}")


def _trace(p: int, U, E) -> np.ndarray:
    """prime_trace_mod_p for start values U against exponents E, broadcast.

    E holds exponents k >= 1 or their classes mod p-1 (class 0 is evaluated
    as exponent p-1).  Powers come from the discrete-log tables and 1/(n+1)
    from pow; the largest intermediate is (p-1)^3, which must fit in int64.
    """
    _check_trace_prime(p)
    rpow, dlog = _prime_ctx(p)
    E = np.asarray(E, dtype=np.int64) % (p - 1)
    U = np.asarray(U, dtype=np.int64)

    def power(U):
        return np.where(U == 0, 0, rpow[dlog[U] * E % (p - 1)])

    for n in range(1, p - 1):
        U = (n * U + power(U)) * pow(n + 1, -1, p) % p
    return ((p - 1) * U + power(U)) % p


class BadResidueTable(NamedTuple):
    """Residue classes a with non-integrality at p for start value l.

    a is in [0, p-2]; class 0 is evaluated at exponent p-1 (k >= 1
    semantics).  Empty for l = 0 and l = 1 mod p.
    """

    p: int
    l: int
    bad: tuple[int, ...]


def bad_residues(p: int, l: int) -> BadResidueTable:
    _check_trace_prime(p)
    check_odd_prime(p)
    l_res = l % p
    traces = _trace(p, l_res, np.arange(p - 1))
    return BadResidueTable(p=p, l=l_res, bad=tuple(int(a) for a in np.nonzero(traces)[0]))


# Survivors per block, both when sieve_range reads them off its bitmap (in
# bits) and when text_blocks writes them out as decimal lines: at most
# 16 KB of unpacked bytes and 128 KB of indices, or about 0.5 MB of text.
_BLOCK = 1 << 14
# text_blocks splits k_lo as q * 10^10 + r.  r plus an offset, which is below
# SIEVE_MAX, stays under 2 * 10^10 in int64: numpy writes each line's low 10
# digits from it, and str the high ones, q or q + 1.
_LOW_DIGITS = 10
_LOW = 10 ** _LOW_DIGITS
# 10^1, ..., 10^10: a value v below _LOW has 1 + (how many of them are <= v) digits
_POW10 = 10 ** np.arange(1, _LOW_DIGITS + 1, dtype=np.int64)


def _decimal_lines(values: np.ndarray, lead: str, digits: int, tail: str) -> bytes:
    """lead + the last `digits` decimal digits of each value, zero-padded, + tail, as ASCII."""
    lines = np.empty((len(values), len(lead) + digits + len(tail)), dtype=np.uint8)
    lines[:, : len(lead)] = np.frombuffer(lead.encode("ascii"), dtype=np.uint8)
    lines[:, len(lead) + digits :] = np.frombuffer(tail.encode("ascii"), dtype=np.uint8)
    for col in range(len(lead) + digits - 1, len(lead) - 1, -1):
        values, digit = np.divmod(values, 10)
        lines[:, col] = digit
    lines[:, len(lead) : len(lead) + digits] += ord("0")
    return lines.tobytes()


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

        With q, r = divmod(k_lo, 10^10), each k is q * 10^10 + (r + offset),
        and r + offset < 2 * 10^10 fits int64.  Where it reaches 10^10 the
        high digits are str(q + 1).  Survivors ascend, so a block splits into
        at most two such parts, and for q = 0 the part below 10^10 into runs
        of one digit count; each run is one uint8 matrix of lines.
        """
        q, r = divmod(self.k_lo, _LOW)
        high = str(q) if q else ""
        carried = prefix + str(q + 1)
        for start in range(0, len(self.offsets), _BLOCK):
            values = self.offsets[start : start + _BLOCK].astype(np.int64)
            values += r
            carry = int(np.searchsorted(values, _LOW))
            low = values[:carry]
            if high:
                runs = [_decimal_lines(low, prefix + high, _LOW_DIGITS, suffix)]
            else:
                # ends[d - 1] is the end of the run of d-digit values
                ends = np.searchsorted(low, _POW10).tolist()
                runs = [
                    _decimal_lines(low[begin:end], prefix, digits, suffix)
                    for digits, (begin, end) in enumerate(zip([0] + ends, ends), start=1)
                    if begin < end
                ]
            if carry < len(values):
                runs.append(_decimal_lines(values[carry:] - _LOW, carried, _LOW_DIGITS, suffix))
            yield b"".join(runs).decode("ascii")


def check_l(l: int) -> None:
    """The sieve takes the start values of exact_N, l >= 0, not their residues mod p."""
    if l < 0:
        raise DomainError(f"need l >= 0, got {l}")


def sieve_tables(p_max: int, l: int, tables=None, workers: int = 1) -> dict:
    """Bad-residue tables for all odd primes <= p_max, reusing any given."""
    check_l(l)
    _check_trace_prime(p_max)
    tables = dict(tables) if tables else {}
    todo = [p for p in primes_in_range(3, p_max) if (p, l % p) not in tables]
    for t in pmap(partial(bad_residues, l=l), todo, workers):
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
_ROW_BYTES = 4096


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
    step = _BLOCK // 8
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
    return sorted((a, l) for l in range(p) for a in bad_residues(p, l).bad)


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
