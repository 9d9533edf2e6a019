"""The three workloads: the goebel commands of one round, and their checks.

A round is the sequence of CLI commands a user would type, each one a
fresh process.  Every check recomputes what it needs from oracles.py or
tests a property the method must have; none compares against a saved copy
of an earlier run's output.  Where a check samples, it draws from the
benchmark's --seed.
"""

import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles


@dataclass
class Op:
    """One CLI command of a round.

    label names the command inside its workload; files are output files it
    writes besides stdout; warm marks a command timed as warm_s; traced_args
    replaces args in the traced pass when the two must differ.
    """

    label: str
    args: list
    files: list = field(default_factory=list)
    warm: bool = False
    traced_args: list = None


@dataclass
class Outcome:
    """What one command left behind: its captured streams and output files."""

    stdout: Path
    stderr: Path
    files: list

    def text(self) -> str:
        return self.stdout.read_text(encoding="ascii")


def _csv_rows(text: str, header: str) -> list:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError(f"expected header {header!r} and a final newline")
    return [line.split(",") for line in lines[1:-1]]


def _ints(rows) -> list:
    return [int(row[0]) for row in rows]


class NkTable:
    """A cold `exact` over k = 2..359, then warm reruns at the same and a lower limit."""

    name = "nk-table"

    def __init__(self, seed: int, quick: bool):
        self.k_hi, self.limit, self.lower = (40, 60, 40) if quick else (359, 90, 70)
        self.items = self.k_hi - 1

    def ops(self, d: Path) -> list:
        base = ["exact", "--k", f"2..{self.k_hi}", "--l", "2", "--cache-dir", str(d / "cache")]
        return [
            Op("cold", base + ["--limit", str(self.limit)]),
            Op("warm", base + ["--limit", str(self.limit)], warm=True),
            Op("warm-lower", base + ["--limit", str(self.lower)], warm=True),
        ]

    def _table_problems(self, text: str, limit: int) -> list:
        rows = _csv_rows(text, "k,l,N,status")
        if [row[0] for row in rows] != [str(k) for k in range(2, self.k_hi + 1)]:
            return ["rows do not list k = 2..%d once each, ascending" % self.k_hi]
        problems = []
        for k_s, l_s, n_s, status in rows:
            k, n = int(k_s), oracles.NK_PUBLISHED[int(k_s)]
            want = (str(n), "exact") if n <= limit else ("", "exceeded")
            if l_s != "2" or (n_s, status) != want:
                problems.append(f"k={k}: got N={n_s!r} {status}, published N={n} at limit {limit}")
            elif status == "exact" and oracles.is_prime(n) and oracles.trace_mod_q(k, 2, n) == 0:
                problems.append(f"k={k}: trace mod {n} is 0, so g({n}) would be integral")
        return problems

    def check(self, out: dict, rng: random.Random) -> dict:
        cold = out["cold"].text()
        warm = out["warm"].text()
        return {
            "cold": self._table_problems(cold, self.limit),
            "warm": [] if warm == cold else ["warm rerun differs from the cold run"],
            "warm-lower": self._table_problems(out["warm-lower"].text(), self.lower),
        }


class SieveRange:
    """A cold `sieve` that builds the tables file with a spot check, then a warm `sieve` over a large range."""

    name = "sieve-range"

    def __init__(self, seed: int, quick: bool, spot_seed: int = 0):
        rng = random.Random(seed)
        if quick:
            self.k_hi, self.p_max, self.spot, warm = 2000, 100, 5, 100_000
        else:
            self.k_hi, self.p_max, self.spot, warm = 100_000, 700, 20, 10_000_000
        # a seeded shift of under 1% keeps the marking cost the same on every seed
        self.warm_hi = warm + rng.randrange(warm // 200)
        self.spot_seed = spot_seed
        self.primes = [p for p in range(3, self.p_max + 1) if oracles.is_prime(p)]
        self.items = (self.k_hi - 1) + (self.warm_hi - 1)

    def ops(self, d: Path) -> list:
        tables = str(d / "tables.txt")
        common = ["--k-lo", "2", "--p-max", str(self.p_max), "--l", "2", "--tables", tables]
        return [
            Op("cold", ["sieve", "--k-hi", str(self.k_hi)] + common
               + ["--spot-check", str(self.spot), "--seed", str(self.spot_seed)], files=[tables]),
            Op("warm", ["sieve", "--k-hi", str(self.warm_hi)] + common, files=[tables], warm=True),
        ]

    def _read_tables(self, path: Path) -> dict:
        bad = {}
        for line in path.read_text(encoding="ascii").splitlines():
            head, _, tail = line.partition(":")
            p_s, _, l_s = head.partition(",")
            bad[(int(p_s), int(l_s))] = {int(a) for a in tail.split(";") if a}
        return bad

    def _survivors(self, text: str, hi: int) -> tuple:
        ks = _ints(_csv_rows(text, "k"))
        if ks != sorted(set(ks)) or (ks and not 2 <= ks[0] <= ks[-1] <= hi):
            return ks, [f"survivors not ascending and unique within [2, {hi}]"]
        return ks, []

    def _sieved(self, k: int, bad: dict) -> bool:
        return any(k % (p - 1) in bad[(p, 2)] for p in self.primes)

    def _marking_problems(self, ks: list, hi: int, bad: dict, rng) -> list:
        """Sampled k agree with the tables: a survivor is in no bad class, a sieved k in one."""
        alive = set(ks)
        sample = rng.sample(ks, min(30, len(ks))) + [rng.randrange(2, hi + 1) for _ in range(30)]
        return [f"k={k}: {'survives' if k in alive else 'is sieved'} against its tables"
                for k in sample if self._sieved(k, bad) == (k in alive)]

    def check(self, out: dict, rng: random.Random) -> dict:
        cold_ks, cold = self._survivors(out["cold"].text(), self.k_hi)
        warm_ks, warm = self._survivors(out["warm"].text(), self.warm_hi)
        bad = self._read_tables(out["cold"].files[0])
        if sorted(bad) != [(p, 2) for p in self.primes]:
            cold.append("tables file does not hold one table per odd prime <= p_max")
            return {"cold": cold, "warm": warm + ["no usable tables file"]}
        alive = set(cold_ks)
        for k, n in oracles.NK_PUBLISHED.items():
            if k <= self.k_hi and n <= self.p_max and n > 2 and oracles.is_prime(n) and k in alive:
                cold.append(f"k={k} survives although N(k)={n} is a prime <= p_max")
        # every class of the primes below 128, and 60 sampled classes of the larger ones
        classes = [(p, a) for p in self.primes if p < 128 for a in range(p - 1)]
        large = [p for p in self.primes if p >= 128]
        for _ in range(60 if large else 0):
            p = rng.choice(large)
            classes.append((p, rng.randrange(p - 1)))
        for p, a in classes:
            if (oracles.trace_mod_q(a or p - 1, 2, p) != 0) != (a in bad[(p, 2)]):
                cold.append(f"class {a} mod {p - 1} at p={p}: table disagrees with the trace")
        want = f"spot-check OK ({self.spot} sieved k confirmed)\n"
        if out["cold"].stderr.read_text(encoding="ascii") != want:
            cold.append("the CLI's spot check did not report success")
        marked = [k for k in range(2, self.k_hi + 1) if not self._sieved(k, bad)]
        if marked != cold_ks:
            cold.append("survivors differ from marking every k in range with the tables")
        if [k for k in warm_ks if k <= self.k_hi] != cold_ks:
            warm.append(f"warm survivors up to {self.k_hi} differ from the cold survivors")
        warm += self._marking_problems(warm_ks, self.warm_hi, bad, rng)
        return {"cold": cold, "warm": warm}


class MiddleBlock:
    """`jp` on two workers over a window near 5*10^4, then `two-in-jp`, then `verify` to a file."""

    name = "middle-block"

    def __init__(self, seed: int, quick: bool):
        if quick:
            self.jp_lo, self.jp_hi, self.two_hi, self.verify_hi = 1000, 1200, 10_000, 200
        else:
            self.jp_lo, self.jp_hi, self.two_hi, self.verify_hi = 50_000, 50_300, 20_000, 2000
        self.items = sum(
            len(oracles.qualifying_primes(13, hi)) for hi in (self.two_hi, self.verify_hi)
        ) + len(oracles.qualifying_primes(self.jp_lo, self.jp_hi))

    def ops(self, d: Path) -> list:
        jp = ["jp", "--p-min", str(self.jp_lo), "--p-max", str(self.jp_hi), "--threads"]
        witnesses = str(d / "witnesses.csv")
        return [
            Op("jp", jp + ["2"], traced_args=jp + ["1"]),
            # no cache or table links these to jp: warm_s here is the time jp does not touch
            Op("two-in-jp", ["two-in-jp", "--p-max", str(self.two_hi)], warm=True),
            Op("verify", ["verify", "--p-max", str(self.verify_hi), "-o", witnesses],
               files=[witnesses], warm=True),
        ]

    def _jp_problems(self, text: str) -> list:
        rows = _csv_rows(text, "p,l_L,l_R,J_size,ratio")
        if _ints(rows) != oracles.qualifying_primes(self.jp_lo, self.jp_hi):
            return ["rows do not list each prime p = 1 mod 4 of the window once"]
        problems = []
        for p_s, l_l, l_r, size, ratio in rows:
            p, l_l, l_r, size = int(p_s), int(l_l), int(l_r), int(size)
            if l_l % 2 or l_r % 2 or not 2 <= l_l <= l_r < p or size != (l_r - l_l) // 2:
                problems.append(f"p={p}: malformed block ({l_l}, {l_r}, {size})")
                continue
            if ratio != f"{size / p:.6f}" or not float(ratio) < 0.5:
                problems.append(f"p={p}: ratio {ratio} is not #J_p/p below 1/2")
            chi = oracles.legendre_table(p)
            ends = [oracles.walk_end(p, l, chi) for l in (l_l - 2, l_l, l_r - 2, l_r)]
            if ends[0] != 0 or ends[1] == 0 or ends[2] == p or ends[3] != p:
                problems.append(f"p={p}: walks from l_L-2, l_L, l_R-2, l_R end at {ends}")
        return problems

    def _two_in_jp_problems(self, text: str, rng) -> list:
        listed = _ints(_csv_rows(text, "p"))
        candidates = oracles.qualifying_primes(13, self.two_hi)
        if not set(listed) <= set(candidates) or listed != sorted(listed):
            return ["lists a number that is not a prime p = 1 mod 4 in range, or out of order"]
        problems = []
        if [p for p in listed if p < 10_000] != list(oracles.TWO_IN_JP_BELOW_1E4):
            problems.append("primes below 10^4 differ from the 15 published ones")
        unlisted = sorted(set(candidates) - set(listed))
        for p in listed + rng.sample(unlisted, min(20, len(unlisted))):
            end = oracles.walk_end(p, 2, oracles.legendre_table(p))
            if (0 < end < p) != (p in listed):
                problems.append(f"p={p}: walk from 2 ends at {end}")
        return problems

    def _verify_problems(self, path: Path, rng) -> list:
        rows = [tuple(map(int, r)) for r in _csv_rows(path.read_text(encoding="ascii"), "p,l,m")]
        primes = oracles.qualifying_primes(13, self.verify_hi)
        if len(rows) != sum((p - 3) // 2 for p in primes):
            return [f"{len(rows)} witness rows, expected sum of (p-3)/2 over qualifying p"]
        want = [(p, l) for p in primes for l in range(2, p - 2, 2)]
        if [(p, l) for p, l, _ in rows] != want:
            return ["witness rows do not cover each qualifying p and even l once, in order"]
        from goebel.billiards import construct_a

        problems = []
        for p, l, m in rng.sample(rows, min(30, len(rows))):
            a = (0,) + construct_a(p, l).values  # a[n] for 1 <= n <= p - 1
            first = next((j for j in range(2, (p - 3) // 2 + 1) if a[2 * j] != a[2] * a[j]), None)
            if first != m:
                problems.append(f"(p={p}, l={l}): witness m={m}, construct_a gives {first}")
        return problems

    def check(self, out: dict, rng: random.Random) -> dict:
        return {
            "jp": self._jp_problems(out["jp"].text()),
            "two-in-jp": self._two_in_jp_problems(out["two-in-jp"].text(), rng),
            "verify": self._verify_problems(out["verify"].files[0], rng),
        }


WORKLOADS = {w.name: w for w in (NkTable, SieveRange, MiddleBlock)}
