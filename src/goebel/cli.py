"""Command-line front end.

Every subcommand writes ASCII CSV with LF line endings (or JSON: a list of
the same records, one object in sieve), byte-identical across repeated runs
and across worker counts.  Exit codes: 0 success, 1 domain or I/O error or
out of memory, 2 usage.
"""

import argparse
import csv
import io
import json
import os
import random
import sys
from bisect import bisect_right
from contextlib import contextmanager

# each subcommand imports the kernel modules it runs (sieve, reduced,
# billiards) when it runs, so exact and stats start without numpy
from . import exact
from .errors import GoebelError
from .fileio import read_keyed, read_rows, replace_lines
from .modarith import SIEVE_MAX, is_prime

CACHE_ENV = "GOEBEL_CACHE"


def parse_krange(text: str) -> range:
    """"A..B" (inclusive) or a single "K"."""
    lo, sep, hi = text.partition("..")
    try:
        r = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k range {text!r}") from None
    if len(r) == 0 or r.start < 1:
        raise argparse.ArgumentTypeError(f"bad k range {text!r}")
    return r


def _int_in(lo: int, hi: int | None = None):
    """An argparse type for the integers >= lo, and <= hi if given; anything else is a usage error."""
    def integer(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text}")
        if hi is not None and int(text) > hi:
            raise argparse.ArgumentTypeError(f"expected an integer <= {hi}, got {text}")
        return int(text)
    return integer


def cache_dir(args) -> str:
    if args.cache_dir:
        return args.cache_dir
    if os.environ.get(CACHE_ENV):
        return os.environ[CACHE_ENV]
    return os.path.join(os.path.expanduser("~"), ".local", "share", "goebel")


@contextmanager
def _output(path):
    """stdout for None or "-", else the file at path, LF-terminated ASCII.

    A stdout that writes through to a raw file, as under PYTHONUNBUFFERED,
    would make each row one write(2), so while it is written it does not
    write through and rows are handed on in blocks.  Its setting is
    restored, and stdout flushed, however the writing ends: a block whose
    write fails is dropped, so the restore has nothing left to flush.  A
    stdout over a buffered writer already hands on blocks and is left as
    it is.
    """
    if path in (None, "-"):
        stream = sys.stdout
        # a stdout replaced by, say, an io.StringIO has no such setting
        write_through = getattr(stream, "write_through", False) and isinstance(
            stream.buffer, io.RawIOBase)
        if write_through:
            stream.reconfigure(write_through=False)
        try:
            yield stream
        finally:
            try:
                stream.flush()
            finally:
                if write_through:
                    stream.reconfigure(write_through=True)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            yield fh


def _json_value(v) -> str:
    # json.dumps writes an int as str does; the check skips the encoder for most fields
    return str(v) if type(v) is int else json.dumps(v)


def write_rows(path, header, rows, fmt: str) -> None:
    """rows are tuples of scalars matching header; None fields serialize as empty/null.

    JSON is written one record at a time, with the bytes of
    json.dumps(records, indent=2) + "\\n" for the list of records.  A
    _SurvivorRows source (CSV only) hands over its lines as text blocks.
    """
    with _output(path) as fh:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            if isinstance(rows, _SurvivorRows):
                fh.writelines(rows.outcome.text_blocks("", "\n"))
            else:
                writer.writerows(rows)
            return
        keys = [f"    {json.dumps(key)}: " for key in header]
        sep = "[\n"
        for row in rows:
            fields = ",\n".join(k + _json_value(v) for k, v in zip(keys, row))
            fh.write(f"{sep}  {{\n{fields}\n  }}")
            sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")


def write_outcome_json(path, outcome: "sieve.SieveOutcome") -> None:
    """The bytes of json.dumps({k_lo, k_hi, bound, survivors}, indent=2) + "\\n", a block at a time."""
    with _output(path) as fh:
        fh.write(f'{{\n  "k_lo": {outcome.k_lo},\n  "k_hi": {outcome.k_hi},\n'
                 f'  "bound": {outcome.bound},\n  "survivors": ')
        # each survivor's line starts with the separator before it, and the
        # first one's comma becomes the opening bracket
        blocks = outcome.text_blocks(",\n    ", "")
        first = next(blocks, None)
        if first is None:
            fh.write("[]\n}\n")
            return
        fh.write("[" + first[1:])
        fh.writelines(blocks)
        fh.write("\n  ]\n}\n")


class _SurvivorRows:
    """The (k,) rows of an outcome's survivors, which write_rows writes as text; len counts them."""

    def __init__(self, outcome: "sieve.SieveOutcome"):
        self.outcome = outcome

    def __len__(self) -> int:
        return len(self.outcome.offsets)


class _SizedRows:
    """count rows, made one at a time as they are written; len gives the count up front."""

    def __init__(self, count: int, rows):
        self.count = count
        self.rows = rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.rows)


def write_text(path, lines) -> None:
    with _output(path) as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------- exact

def _parse_nk_row(line: str) -> tuple[int, int, int | None, list[str]]:
    """k, l, N and the fields after status in a `k,l,N,status[,...]` row as exact writes it;
    ValueError for a short row, N < 2, or a status that N does not imply."""
    k_s, l_s, n_s, status, *rest = line.split(",")
    n = int(n_s) if n_s else None
    if status != ("exceeded" if n is None else "exact") or (n is not None and n < 2):
        raise ValueError(f"not an exact row: {line!r}")
    return int(k_s), int(l_s), n, rest


def _parse_cache_row(line: str, l: int) -> exact.NkResult:
    k, row_l, n, (limit_s,) = _parse_nk_row(line)
    if row_l != l or (n is not None and n > int(limit_s)):
        raise ValueError(f"not a row of the cache of l = {l}: {line!r}")
    return exact.NkResult(k=k, l=l, n=n, limit=int(limit_s))


def _load_nk_cache(path, l: int) -> dict:
    """The cache of l by k; a row for another l, or a repeated k, is a bad row."""
    if not os.path.exists(path):
        return {}
    return read_keyed(path, lambda line: _parse_cache_row(line, l), lambda r: r.k, "cache")


def _save_nk_cache(path, cached: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = ["k,l,N,status,limit"]
    for k in sorted(cached):
        r = cached[k]
        n = "" if r.n is None else str(r.n)
        lines.append(f"{r.k},{r.l},{n},{r.status},{r.limit}")
    replace_lines(path, lines)


def cmd_exact(args) -> int:
    ks = list(args.k)
    path = os.path.join(cache_dir(args), f"nk_l{args.l}.csv")
    cached = {} if args.no_cache else _load_nk_cache(path, args.l)
    # a cached exceeded outcome is only reusable at or below its own limit
    todo = [
        k
        for k in ks
        if k not in cached or (cached[k].exceeded and cached[k].limit < args.limit)
    ]
    for r in exact.exact_N_range(todo, args.l, args.limit, workers=args.threads):
        cached[r.k] = r
    # a run that computed nothing leaves the file it read as it was
    if todo and not args.no_cache:
        _save_nk_cache(path, cached)
    rows = []
    for k in sorted(set(ks)):
        n = cached[k].n
        if n is not None and n > args.limit:
            n = None  # cached from a run with a larger limit
        rows.append((k, args.l, n, "exceeded" if n is None else "exact"))
    write_rows(args.output, ["k", "l", "N", "status"], rows, args.format)
    return 0


# ---------------------------------------------------------------- stats

def _read_dataset(path) -> list[tuple[int, int, int | None]]:
    # a cache file is a dataset too: its limit is one more field
    return sorted((k, l, n) for k, l, n, _rest in read_rows(path, _parse_nk_row, "dataset"))


def cmd_stats(args) -> int:
    data = _read_dataset(args.dataset)
    exact_rows = [(k, n) for k, _, n in data if n is not None]
    if args.mean_mod:
        d = args.mean_mod
        # only the classes that occur in the data; every other class is an empty row
        sums = {}
        counts = {}
        for k, n in exact_rows:
            sums[k % d] = sums.get(k % d, 0) + n
            counts[k % d] = counts.get(k % d, 0) + 1
        rows = (
            (a, counts[a], f"{sums[a] / counts[a]:.6f}") if a in counts else (a, 0, None)
            for a in range(d)
        )
        write_rows(args.output, ["class", "count", "mean"], _SizedRows(d, rows), args.format)
    elif args.records:
        best = 0
        rows = []
        for k, n in exact_rows:
            if n > best:
                best = n
                rows.append((k, n))
        write_rows(args.output, ["k", "N"], rows, args.format)
    else:
        prime_count = sum(1 for _, n in exact_rows if is_prime(n))
        total = len(exact_rows)
        share = f"{prime_count / total:.6f}" if total else None
        write_rows(
            args.output, ["prime_N", "total", "share"], [(prime_count, total, share)], args.format
        )
    return 0


# ---------------------------------------------------------------- sieve

def _nth_sieved(k_lo: int, offsets, i: int) -> int:
    """The i-th (from 0) k >= k_lo that is not k_lo plus one of the ascending offsets.

    It is k_lo + i + j, where j counts the offsets with fewer than i + 1
    sieved k below them; one bisection finds j.
    """
    j = bisect_right(range(len(offsets)), i, key=lambda t: int(offsets[t]) - t)
    return k_lo + i + j


def cmd_sieve(args) -> int:
    from . import sieve

    sieve.check_range(args.k_lo, args.k_hi, args.p_max)
    sieve.check_l(args.l)
    stored = args.tables and os.path.exists(args.tables)
    known = sieve.read_sieve_tables(args.tables) if stored else {}
    tables = sieve.sieve_tables(args.p_max, args.l, known, workers=args.threads)
    outcome = sieve.sieve_range(args.k_lo, args.k_hi, args.p_max, args.l, tables)
    # a run that built no table leaves the file it read as it was
    if args.tables and len(tables) > len(known):
        sieve.write_sieve_tables(args.tables, tables)
    if args.spot_check:
        rng = random.Random(args.seed)
        # sampling indices draws the same k for a seed as sampling the list
        # of sieved k would, without building that list
        size = args.k_hi - args.k_lo + 1 - len(outcome.offsets)
        sample = [
            _nth_sieved(args.k_lo, outcome.offsets, i)
            for i in rng.sample(range(size), min(args.spot_check, size))
        ]
        for k in sorted(sample):
            bound = sieve.smallest_sieving_prime(k, args.l, args.p_max, tables)
            result = exact.exact_N(k, args.l, bound)
            if result.exceeded:
                print(f"sieve unsound at k={k}: no break up to {bound}", file=sys.stderr)
                return 1
        print(f"spot-check OK ({len(sample)} sieved k confirmed)", file=sys.stderr)
    if args.format == "json":
        write_outcome_json(args.output, outcome)
    else:
        write_rows(args.output, ["k"], _SurvivorRows(outcome), "csv")
    return 0


# ---------------------------------------------------------------- grids and J_p

def cmd_grid(args) -> int:
    from . import sieve

    pairs = sieve.grid_scan(args.p)
    write_rows(args.output, ["p", "k", "l"], [(args.p, k, l) for k, l in pairs], args.format)
    return 0


def cmd_jp(args) -> int:
    from . import reduced

    if args.classify is not None:
        rows = [(l, c.value) for l, c in enumerate(reduced.classify_all(args.classify))]
        write_rows(args.output, ["l", "classification"], rows, args.format)
    else:
        rows = reduced.jp_ratio_table(args.p_max, args.p_min, workers=args.threads)
        write_rows(args.output, ["p", "l_L", "l_R", "J_size", "ratio"], rows, args.format)
    return 0


def cmd_two_in_jp(args) -> int:
    from . import reduced

    ps = reduced.scan_two_in_jp(args.p_max, workers=args.threads)
    write_rows(args.output, ["p"], [(p,) for p in ps], args.format)
    return 0


# ---------------------------------------------------------------- billiards and verification

def _dump_line(p: int, l: int) -> str:
    from . import billiards

    seq = billiards.construct_a(p, l)
    return f"{p},{l}:" + "".join("+" if v == 1 else "-" for v in seq.values)


def cmd_billiards(args) -> int:
    ls = [args.l] if args.l is not None else list(range(0, args.p - 2, 2))
    write_text(args.output, [_dump_line(args.p, l) for l in ls])
    return 0


def cmd_verify(args) -> int:
    from . import billiards

    witnesses = billiards.verify_range(args.p_min, args.p_max, workers=args.threads)
    write_rows(args.output, ["p", "l", "m"], witnesses, args.format)
    return 0


# ---------------------------------------------------------------- wiring

def _add_common(sp, cache=False, seed=False, threads=False):
    sp.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    if threads:
        sp.add_argument("--threads", type=_int_in(1), default=1, help="worker processes")
    if cache:
        sp.add_argument("--cache-dir", default=None, help=f"cache directory (or ${CACHE_ENV})")
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="sampling seed")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="goebel", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("exact", help="exact integrality breakdown points over a k range")
    sp.add_argument("--k", type=parse_krange, required=True, help="k or k_lo..k_hi")
    sp.add_argument("--l", type=int, default=2)
    sp.add_argument("--limit", type=_int_in(2), default=exact.DEFAULT_N_LIMIT)
    sp.add_argument("--no-cache", action="store_true")
    _add_common(sp, cache=True, threads=True)
    sp.set_defaults(fn=cmd_exact)

    sp = sub.add_parser("stats", help="statistics over a computed dataset")
    sp.add_argument("--dataset", required=True)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--mean-mod", type=_int_in(1, SIEVE_MAX), metavar="D")
    mode.add_argument("--records", action="store_true")
    mode.add_argument("--prime-share", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("sieve", help="sieve a k range by bad residue classes")
    sp.add_argument("--k-lo", type=int, required=True)
    sp.add_argument("--k-hi", type=int, required=True)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--l", type=int, default=2)
    sp.add_argument("--tables", default=None, help="sieve-table cache file")
    sp.add_argument("--spot-check", type=_int_in(0), default=0, metavar="N")
    _add_common(sp, seed=True, threads=True)
    sp.set_defaults(fn=cmd_sieve)

    sp = sub.add_parser("grid", help="non-integral (k, l) pairs for one prime")
    sp.add_argument("--p", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(fn=cmd_grid)

    sp = sub.add_parser("jp", help="left/right block boundaries and J_p sizes")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p-max", type=int)
    mode.add_argument("--classify", type=int, metavar="P", help="diagnostic: classify every l for one prime")
    sp.add_argument("--p-min", type=int, default=13)
    _add_common(sp, threads=True)
    sp.set_defaults(fn=cmd_jp)

    sp = sub.add_parser("two-in-jp", help="primes whose middle block starts at l = 2")
    sp.add_argument("--p-max", type=int, required=True)
    _add_common(sp, threads=True)
    sp.set_defaults(fn=cmd_two_in_jp)

    sp = sub.add_parser("billiards", help="dump billiard sign sequences")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--l", type=int, default=None)
    sp.add_argument("-o", "--output", default="-", help="output path, '-' for stdout")
    sp.set_defaults(fn=cmd_billiards)

    sp = sub.add_parser("verify", help="machine-verify the non-multiplicativity theorem")
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--p-min", type=int, default=13)
    _add_common(sp, threads=True)
    sp.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except GoebelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
