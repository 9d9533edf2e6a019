"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy criteria use
worker processes; everything is deterministic regardless of worker count.
"""

import os
from fractions import Fraction

import pytest

from goebel import (
    DEFAULT_N_LIMIT,
    Classification,
    classify_l,
    compute_jp,
    construct_a,
    empty_iff_conditions,
    exact_N,
    exact_N_range,
    grid_scan,
    billiard_path,
    jp_summaries,
    prime_trace_mod_p,
    primes_in_range,
    scan_two_in_jp,
    sieve_range,
    sieve_tables,
    smallest_sieving_prime,
    verify_range,
)
from goebel.parallel import pmap

from .goldens import (
    A_37_12_FIRST_HALF,
    JP_TABLE,
    NK_TABLE,
    SIEVE_1E5_P2000_FIRST,
    SIEVE_1E5_P2000_SURVIVORS,
    SIGMA_37_12,
    TWO_IN_JP_BELOW_1E4,
)
from .oracles import first_nonintegral, goebel_terms, plocal_trace, rational_trace_at_p
from .test_billiards import brute_force_a, brute_force_b

WORKERS = os.cpu_count() or 1


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num:02d}: {desc}"


def test_criterion_01_classic_breakdown():
    r = exact_N(2, 2, 100)
    ok = (
        r.n == 43
        and r.report is not None
        and r.report.residue == 24
        and r.report.modulus_at_break == 43
    )
    _report(1, ok, "breakdown of the classic sequence at 43 with residue 24 (mod 43)")


def test_criterion_02_published_table_reproduction():
    ks = sorted(NK_TABLE)
    results = exact_N_range(ks, 2, 2100, workers=WORKERS)
    mismatches = [(r.k, r.n, NK_TABLE[r.k]) for r in results if r.n != NK_TABLE[r.k]]
    named = {5: 214, 17: 827, 31: 1077, 49: 1559, 67: 1907, 97: 2039, 142: 25, 306: 34}
    by_k = {r.k: r.n for r in results}
    ok = not mismatches and all(by_k[k] == v for k, v in named.items())
    _report(2, ok, f"all {len(ks)} published breakdown points for k <= 359 match exactly")
    assert not mismatches, mismatches[:10]


def test_criterion_03_minimum_values():
    ok_min_kl = exact_N(2, 3, 100).n == 7
    ok_grid = grid_scan(7) == [(2, 3)]
    ks = [k for k in range(2, 501) if k % 18 in (6, 14)]
    results = exact_N_range(ks, 2, 100, workers=WORKERS)
    ok_19 = all(r.n == 19 for r in results)
    _report(
        3,
        ok_min_kl and ok_grid and ok_19,
        "minimum breakdowns: N(2,3) = 7, grid(7) = {(2,3)}, N(k,2) = 19 on 6,14 (mod 18)",
    )


def test_criterion_04_jp_table_reproduction():
    ok = True
    for p, (count, l_L, l_R) in JP_TABLE.items():
        jp = compute_jp(p)
        ok = ok and (jp.count, jp.l_L, jp.l_R) == (count, l_L, l_R)
    _report(4, ok, "block decomposition (l_L, l_R, #J_p) matches for the 32 listed primes")


def test_criterion_05_two_in_jp_scan():
    got = scan_two_in_jp(10 ** 4, workers=WORKERS)
    ok = got == TWO_IN_JP_BELOW_1E4
    _report(5, ok, "the 15 primes below 10^4 with 2 in the middle block, ending 9001")


@pytest.mark.slow
def test_criterion_05_extended_count_below_1e6():
    got = scan_two_in_jp(10 ** 6, workers=WORKERS)
    ok = len(got) == 502 and got[:15] == TWO_IN_JP_BELOW_1E4
    _report(5, ok, "extended scan: 502 qualifying primes below 10^6")


def test_criterion_06_middle_block_theorem():
    ps = [p for p in primes_in_range(13, 10 ** 4) if p % 4 == 1]
    summaries = jp_summaries(13, 10 ** 4, workers=WORKERS)
    ok_nonempty = len(summaries) == len(ps) and all(s.l_L < s.l_R for s in summaries)
    ok_conditions = True
    for p in ps:
        for l in range(0, p - 2, 2):
            if empty_iff_conditions(p, l) == (True, True):
                ok_conditions = False
                break
    witnesses = verify_range(13, 10 ** 4, workers=WORKERS)
    expected_rows = sum((p - 3) // 2 for p in ps)
    ok_witnesses = len(witnesses) == expected_rows
    _report(
        6,
        ok_nonempty and ok_conditions and ok_witnesses,
        f"for all {len(ps)} primes = 1 (mod 4) in [13, 10^4]: l_L < l_R, "
        "no conjoined emptiness conditions, and a witness for every even l",
    )


def test_criterion_07_cross_oracle_equivalence():
    # walk classification vs single-prime congruence runs, all p <= 500
    ok_trace = True
    for p in primes_in_range(3, 500):
        for l in range(p):
            middle = classify_l(p, l) is Classification.MIDDLE
            if middle != (prime_trace_mod_p((p - 1) // 2, l, p) != 0):
                ok_trace = False
    # exact arithmetic in the localization at p (literal half exponent,
    # reimplemented in the test suite) for p <= 31
    ok_local = True
    for p in primes_in_range(3, 31):
        for l in range(p):
            middle = classify_l(p, l) is Classification.MIDDLE
            if middle != (plocal_trace((p - 1) // 2, l, p) != 0):
                ok_local = False
    # unbounded exact fractions where term growth permits (doubly
    # exponential in (p-1)/2, so p <= 7 is the honest full-integer scale)
    ok_frac = True
    for p in (3, 5, 7):
        k = (p - 1) // 2
        for l in range(p):
            terms = goebel_terms(k, l, p)
            trace = rational_trace_at_p(terms, p)
            if trace is None:
                ok_frac = ok_frac and first_nonintegral(terms[: p - 1]) is not None
                continue
            if (classify_l(p, l) is Classification.MIDDLE) != (trace != 0):
                ok_frac = False
    ok = ok_trace and ok_local and ok_frac
    _report(
        7,
        ok,
        "walk classification == congruence runs (p <= 500) == exact localized "
        "arithmetic (p <= 31) == exact fractions (p <= 7)",
    )


def test_criterion_08_billiards_golden_and_uniqueness():
    path = billiard_path(37, 12)
    a = construct_a(37, 12)
    ok_golden = path.sigma == SIGMA_37_12 and list(a.values[:18]) == A_37_12_FIRST_HALF
    ok_unique_a = True
    for p in (13, 17, 29):
        for l in range(0, p - 2, 2):
            sols = brute_force_a(p, l)
            ok_unique_a = ok_unique_a and sols == [construct_a(p, l).values]
    from math import gcd

    from goebel.billiards import construct_b

    ok_unique_b = True
    for l in range(0, 15, 2):
        for s in range(l + 1):
            if gcd(2 * s + 1, l + 1) == 1:
                sols = brute_force_b(l, s)
                ok_unique_b = ok_unique_b and sols == [construct_b(l, s).values]
    _report(
        8,
        ok_golden and ok_unique_a and ok_unique_b,
        "golden sigma and sign sequence at (37, 12); brute-force uniqueness suites",
    )


def _soundness_sample(args):
    k, bound = args
    r = exact_N(k, 2, bound)
    return (k, bound, r.n)


def test_criterion_09_sieve_soundness():
    import random

    tables = sieve_tables(2000, 2, workers=WORKERS)
    outcome = sieve_range(2, 10 ** 5, 2000, 2, tables)
    survivors = set(outcome.survivors)
    sieved = [k for k in range(2, 10 ** 5 + 1) if k not in survivors]
    # frozen from the first full run
    ok_regression = (
        len(outcome.survivors) == SIEVE_1E5_P2000_SURVIVORS
        and outcome.survivors[:10] == SIEVE_1E5_P2000_FIRST
        and outcome.bound == 1999
    )
    # the 6, 14 (mod 18) classes are all sieved, and 19 is what sieves them
    ok_19 = all(k % 18 not in (6, 14) for k in survivors)
    sample_19 = [k for k in range(2, 10 ** 5, 397) if k % 18 in (6, 14)]
    ok_19 = ok_19 and sample_19 and all(
        smallest_sieving_prime(k, 2, 2000, tables) == 19 for k in sample_19
    )
    rng = random.Random(0)
    picks = rng.sample(sieved, 100)
    tasks = [(k, smallest_sieving_prime(k, 2, 2000, tables)) for k in picks]
    checked = pmap(_soundness_sample, tasks, workers=WORKERS)
    ok_sound = all(n is not None and n <= bound <= 2000 for _, bound, n in checked)
    _report(
        9,
        ok_19 and ok_sound and ok_regression,
        "range sieve to 10^5 removes the 6,14 (mod 18) classes via 19, leaves "
        f"{SIEVE_1E5_P2000_SURVIVORS} survivors, and 100 seeded sieved k all "
        "break at or below their sieving prime",
    )


def test_criterion_10_ratio_trend():
    low = jp_summaries(13, 10 ** 3, workers=WORKERS)
    high = jp_summaries(5 * 10 ** 4, 10 ** 5, workers=WORKERS)
    ok_bound = all(s.ratio < 0.5 for s in low + high)
    mean_low = sum(s.ratio for s in low) / len(low)
    mean_high = sum(s.ratio for s in high) / len(high)
    ok_trend = mean_high > mean_low
    _report(
        10,
        ok_bound and ok_trend,
        f"all middle-block ratios < 1/2 and the mean rises: "
        f"{mean_low:.4f} over [13, 10^3] -> {mean_high:.4f} over [5*10^4, 10^5]",
    )


def test_criterion_11_out_of_scale_results_documented():
    # The published full-scale results (exhaustive k <= 10^7 with its mean
    # statistics, the k <= 10^14 sieve bound 29363, primorial-class means,
    # and the 502-below-10^6 count as a default test) are intentionally not
    # reproduced here; criteria 2, 9 and 10 plus the per-module invariant
    # suites stand in at desk scale.  The default search limit still covers
    # the largest breakdown point known from the exhaustive scan.
    ok = DEFAULT_N_LIMIT >= 9011
    _report(
        11,
        ok,
        "full-scale results substituted at desk scale; default limit covers N = 9011",
    )
