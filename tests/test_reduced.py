import math
import random

import pytest

from goebel import (
    Classification,
    classify_l,
    compute_jp,
    prime_trace_mod_p,
    primes_in_range,
    scan_two_in_jp,
)
from goebel import reduced
from goebel.errors import DomainError
from goebel.modarith import qualifying_primes
from goebel.reduced import JpSummary, classify_all, final_value, jp_ratio_table, jp_summaries

from .goldens import JP_TABLE, TWO_IN_JP_BELOW_1E4
from .oracles import compute_jp_linear, naive_legendre, reduced_trace


def test_trace_from_zero_is_constant():
    for p in (5, 13, 31):
        assert reduced_trace(p, 0).values == [0] * p


def test_trace_step_law_and_absorption():
    for p in primes_in_range(3, 200):
        chi = [naive_legendre(a, p) for a in range(p)]
        for l in range(p):
            vals = reduced_trace(p, l).values
            assert vals[0] == l
            for n in range(1, p):
                prev = vals[n - 1]
                if prev == 0 or prev == p:
                    assert vals[n] == prev, (p, l, n)
                else:
                    assert vals[n] == prev + chi[n] * chi[prev], (p, l, n)
            assert all(0 <= v <= p for v in vals)


def test_trace_matches_final_value():
    for p in (13, 101, 499):
        for l in range(p):
            assert reduced_trace(p, l).values[-1] == final_value(p, l), (p, l)


def test_diagonal_absorption():
    # touching the diagonal locks the walk onto it
    for p in primes_in_range(3, 120):
        for l in range(p):
            vals = reduced_trace(p, l).values
            for m in range(1, p + 1):
                if vals[m - 1] == m:
                    assert all(vals[n - 1] == n for n in range(m, p + 1)), (p, l, m)
                    break


def test_odd_start_dominates_diagonal():
    for p in primes_in_range(3, 500):
        for l in range(1, p, 2):
            vals = reduced_trace(p, l).values
            assert all(vals[n - 1] >= n for n in range(1, p + 1)), (p, l)
            assert vals[-1] == p


def test_even_start_dominated_by_antidiagonal_for_3_mod_4():
    for p in primes_in_range(3, 500):
        if p % 4 != 3:
            continue
        for l in range(0, p, 2):
            vals = reduced_trace(p, l).values
            assert all(vals[n - 1] <= p - n for n in range(1, p + 1)), (p, l)
            assert vals[-1] == 0


def test_monotone_final_values_for_1_mod_4():
    for p in primes_in_range(5, 500):
        if p % 4 != 1:
            continue
        finals = [final_value(p, l) for l in range(0, p, 2)]
        assert all(a <= b for a, b in zip(finals, finals[1:])), p


def test_top_even_start_is_absorbed_at_p_immediately():
    for p in (13, 17, 29, 101):
        vals = reduced_trace(p, p - 1).values
        assert vals[1] == p
        assert vals[-1] == p


def test_classify_examples():
    assert classify_l(13, 2) is Classification.LEFT
    assert classify_l(13, 4) is Classification.MIDDLE
    assert classify_l(13, 10) is Classification.RIGHT
    for p in (13, 29, 101):
        for l in range(1, p, 2):
            assert classify_l(p, l) is Classification.RIGHT


def test_classification_equivalence_with_prime_traces():
    # mid-board finish <-> non-integrality at p for the half exponent
    for p in primes_in_range(3, 200):
        for l in range(p):
            middle = classify_l(p, l) is Classification.MIDDLE
            assert middle == (prime_trace_mod_p((p - 1) // 2, l, p) != 0), (p, l)


def test_compute_jp_against_published_table():
    for p, (count, l_L, l_R) in JP_TABLE.items():
        jp = compute_jp(p)
        assert (jp.count, jp.l_L, jp.l_R) == (count, l_L, l_R), p
        assert jp.count == (jp.l_R - jp.l_L) // 2


def test_compute_jp_rejects_bad_primes():
    for p in (5, 7, 11, 12, 15, 19):
        with pytest.raises(DomainError):
            compute_jp(p)


def test_compute_jp_matches_linear_scan():
    for p in primes_in_range(13, 500):
        if p % 4 == 1:
            assert compute_jp(p) == compute_jp_linear(p), p


def test_compute_jp_bisects_over_the_even_starts(monkeypatch):
    # two bisections over the (p - 1) / 2 even starts, not a scan
    calls = []
    walk = reduced.final_value
    monkeypatch.setattr(reduced, "final_value", lambda p, l: calls.append(l) or walk(p, l))
    for p in qualifying_primes(13, 2000):
        calls.clear()
        compute_jp(p)
        assert 0 < len(calls) <= 2 * math.ceil(math.log2((p - 1) / 2)), p


@pytest.mark.slow
def test_compute_jp_matches_linear_scan_wide():
    for p in primes_in_range(13, 2000):
        if p % 4 == 1:
            assert compute_jp(p) == compute_jp_linear(p), p


@pytest.mark.slow
def test_walk_dominance_invariants_wide():
    for p in primes_in_range(3, 2000):
        for l in range(1, p, 2):
            vals = reduced_trace(p, l).values
            assert all(vals[n - 1] >= n for n in range(1, p + 1)) and vals[-1] == p, (p, l)
        if p % 4 == 3:
            for l in range(0, p, 2):
                vals = reduced_trace(p, l).values
                assert all(vals[n - 1] <= p - n for n in range(1, p + 1)), (p, l)
                assert vals[-1] == 0, (p, l)
        else:
            finals = [final_value(p, l) for l in range(0, p, 2)]
            assert all(a <= b for a, b in zip(finals, finals[1:])), p


def test_block_boundaries_classify_consistently():
    for p in (13, 97, 313):
        jp = compute_jp(p)
        assert classify_l(p, jp.l_L - 2) is Classification.LEFT
        assert classify_l(p, jp.l_L) is not Classification.LEFT
        assert classify_l(p, jp.l_R) is Classification.RIGHT
        assert classify_l(p, jp.l_R - 2) is not Classification.RIGHT


def test_scan_two_in_jp():
    assert scan_two_in_jp(300) == []
    assert scan_two_in_jp(2100) == [313, 1873, 2081, 2089]
    assert 313 == compute_jp(313).l_L + 311  # l_L = 2 for the first hit


def test_scan_two_in_jp_walks_each_prime_once_through_final_value(monkeypatch):
    calls = []
    walk = reduced.final_value
    monkeypatch.setattr(reduced, "final_value", lambda p, l: calls.append((p, l)) or walk(p, l))
    assert scan_two_in_jp(2000) == [313, 1873]
    assert calls == [(p, 2) for p in qualifying_primes(13, 2000)]


def test_scan_two_in_jp_parallel_matches():
    assert scan_two_in_jp(3000, workers=2) == scan_two_in_jp(3000)


def test_middle_block_forces_breakdowns():
    # the point of the decomposition: any even k that is an odd multiple of
    # (p-1)/2 breaks at or before p for every start value in the middle
    # block, and for every start congruent to one mod p
    from goebel import exact_N

    for p in (13, 17, 29):
        jp = compute_jp(p)
        middles = list(range(jp.l_L, jp.l_R, 2))
        assert middles
        for c in (1, 3):
            k = c * (p - 1) // 2
            for l in middles:
                for l_shift in (l, l + p, l + 2 * p):
                    r = exact_N(k, l_shift, p)
                    assert not r.exceeded and r.n <= p, (p, k, l_shift, r)


def test_jp_ratio_rows():
    rows = jp_ratio_table(349)
    assert len(rows) == 32
    by_p = {r[0]: r for r in rows}
    assert by_p[13] == (13, 4, 10, 3, "0.230769")
    assert by_p[349] == (349, 20, 344, 162, "0.464183")
    assert all(float(r[4]) < 0.5 for r in rows)
    assert f"{JpSummary(p=8, l_L=0, l_R=2, count=1).ratio:.6f}" == "0.125000"


def test_ratio_formatting_rounds_half_even():
    assert f"{JpSummary(p=16, l_L=0, l_R=2, count=1).ratio:.6f}" == "0.062500"
    # exact binary ties go to even: 1/64 = 0.015625
    assert f"{1 / 64:.5f}" == "0.01562"


# ---------------------------------------------------------------- lockstep walks


def test_lockstep_jp_matches_scalar_below_3000():
    # windows of 512 from each end span every start below p = 1027
    primes = qualifying_primes(13, 3000)
    assert jp_summaries(13, 3000) == [compute_jp(p) for p in primes]
    # calls over no, one and two primes
    assert jp_summaries(14, 16) == []
    assert jp_summaries(13, 16) == [compute_jp(13)]
    assert jp_summaries(13, 17) == [compute_jp(13), compute_jp(17)]


def test_lockstep_jp_matches_scalar_near_1e5_with_a_second_round():
    # the first windows do not settle l_L of 99881 or l_R of 99901
    first = reduced._jp_sides([(99881, 0), (99901, 1), (99989, 0), (99989, 1)], reduced.JP_WINDOW)
    assert first[:2] == [None, None] and None not in first[2:]
    primes = qualifying_primes(5 * 10 ** 4, 10 ** 5)
    sample = sorted(random.Random(10).sample(primes[:-3], 4)) + [99881, 99901, 99989]
    assert reduced._jp_lockstep(sample, workers=1) == [compute_jp(p) for p in sample]


def test_lockstep_jp_matches_linear_scan():
    for s in jp_summaries(1000, 1200):
        assert s == compute_jp_linear(s.p), s.p


def test_lockstep_jp_gallops_from_a_tiny_window(monkeypatch):
    monkeypatch.setattr(reduced, "JP_WINDOW", 2)
    primes = qualifying_primes(13, 1500)
    want = [compute_jp(p) for p in primes]
    # windows {0, 2} and {p - 3, p - 1} settle only l_L = 2 and l_R = p - 1
    first = reduced._jp_sides([(p, s) for p in primes for s in (0, 1)], 2)
    assert first[0::2] == [s.l_L if s.l_L == 2 else None for s in want]
    assert first[1::2] == [s.l_R if s.l_R == s.p - 1 else None for s in want]
    assert jp_summaries(13, 1500) == want


def test_walk_tables_peak_memory_is_a_few_bytes_per_unit_of_p():
    import tracemalloc

    # two jobs on one prime, as the two sides of a J_p search make; their
    # lanes start on the barrier at 0, so the tables are built but no step
    # runs: the tables set the peak, and tracing the steps of the two side
    # windows would take seconds
    p = 2000029
    tracemalloc.start()
    try:
        runs = reduced._walk_runs([(p, 0, 0), (p, 0, 0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an int64 temporary for the +-1 table peaked at 12 bytes per unit of p
    assert peak < 10.5 * p
    assert [(list(starts), list(finals)) for starts, finals in runs] == [([0], [0])] * 2


def test_lockstep_batches_split_by_table_bytes(monkeypatch):
    monkeypatch.setattr(reduced, "JP_BATCH_BYTES", 4000)
    jobs = [(p, s) for p in qualifying_primes(13, 3000) for s in (0, 1)]
    batches = reduced._byte_batches(jobs)
    assert [j for b in batches for j in b] == jobs
    assert all(sum(p + 1 for p, _ in b) <= 4000 for b in batches)
    assert jp_summaries(13, 3000, workers=2) == [compute_jp(p) for p, _ in jobs[::2]]


def test_classify_all_matches_classify_l():
    # 103 is 3 mod 4: every even start ends at 0
    for p in (3, 5, 13, 101, 103, 4001):
        assert classify_all(p) == [classify_l(p, l) for l in range(p)], p


def test_classify_all_rejects_non_primes():
    for p in (1, 2, 9):
        with pytest.raises(DomainError):
            classify_all(p)
