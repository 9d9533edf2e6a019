import math

import pytest

from goebel import bad_residues, exact_N, exact_N_range, primes_in_range
from goebel.errors import DomainError
from goebel.exact import BreakReport, run_once

from .oracles import first_nonintegral, goebel_terms, rational_trace_at_p, shrinking_run


def test_run_once_spans_the_classic_breakdown():
    assert run_once(2, 2, 42) is None
    report = run_once(2, 2, 43)
    assert report == BreakReport(k=2, l=2, n_break=43, residue=24, modulus_at_break=43)
    assert report.residue % math.gcd(report.modulus_at_break, report.n_break)


def test_run_once_zero_and_one_starts_never_break():
    for k in (1, 2, 7):
        for n_max in (2, 10, 30):
            assert run_once(k, 0, n_max) is None
            assert run_once(k, 1, n_max) is None


def test_run_once_validates_arguments():
    with pytest.raises(DomainError):
        run_once(0, 2, 10)
    with pytest.raises(DomainError):
        run_once(2, -1, 10)
    with pytest.raises(DomainError):
        run_once(2, 2, 1)


def test_exact_N_run_once_and_prime_trace_run_the_one_lane_kernel(monkeypatch):
    import goebel.exact
    from goebel import prime_trace_mod_p

    def lane(*args):
        raise RuntimeError("the lane kernel ran")

    monkeypatch.setattr(goebel.exact, "_lane", lane)
    for run in (lambda: exact_N(2, 2, 100), lambda: run_once(2, 2, 43),
                lambda: prime_trace_mod_p(2, 2, 43)):
        with pytest.raises(RuntimeError, match="the lane kernel ran"):
            run()
    assert not hasattr(goebel.exact, "first_break")


def test_run_once_breaks_where_the_shrinking_run_does():
    """The same first break index; at n_max itself the same report, and before
    it the residue of the reference's report modulo the gcd that broke."""
    for k in range(1, 9):
        for l in range(9):
            for n_max in range(2, 71):
                want, got = shrinking_run(k, l, n_max), run_once(k, l, n_max)
                assert (got is None) == (want is None), (k, l, n_max)
                if want is None:
                    continue
                assert got.n_break == want.n_break, (k, l, n_max)
                if want.n_break == n_max:
                    assert got == want, (k, l, n_max)
                else:
                    assert want.modulus_at_break % got.modulus_at_break == 0, (k, l, n_max)
                    assert got.residue == want.residue % got.modulus_at_break, (k, l, n_max)


def test_exact_N_published_values():
    assert exact_N(2, 2, 100).n == 43
    assert exact_N(6, 2, 100).n == 19
    assert exact_N(2, 3, 100).n == 7
    assert exact_N(5, 2, 300).n == 214  # composite breakdown point


def test_exact_N_break_report_is_attached():
    r = exact_N(2, 2, 100)
    assert r.report is not None
    assert (r.report.n_break, r.report.residue, r.report.modulus_at_break) == (43, 24, 43)
    assert r.status == "exact"


def test_exact_N_trivial_starts_exceed_immediately():
    for l in (0, 1):
        r = exact_N(9, l, 50)
        assert r.exceeded and r.n is None and r.status == "exceeded"


def test_exact_N_k1_is_constant_and_exceeds_immediately(monkeypatch):
    import goebel.exact

    def no_scan(*args):
        raise AssertionError("exact_N ran a scan for the constant k = 1 sequence")

    monkeypatch.setattr(goebel.exact, "_lane", no_scan)
    r = exact_N(1, 2, 12000)
    assert r.exceeded and r.limit == 12000
    assert goebel_terms(1, 5, 30) == [5] * 30


def _run_once_scan(k, l, n_limit):
    """The reference scan: the shrinking run for n_max = 2, 3, ..., first break wins."""
    for n_max in range(2, n_limit + 1):
        report = shrinking_run(k, l, n_max)
        if report is not None:
            return report
    return None


def test_exact_N_matches_run_once_scan():
    for n_limit in (2, 3, 10, 40, 70):
        for k in range(1, 9):
            for l in range(9):
                want = _run_once_scan(k, l, n_limit)
                got = exact_N(k, l, n_limit)
                assert got.report == want, (k, l, n_limit)
                assert got.n == (None if want is None else want.n_break), (k, l, n_limit)


def test_exact_N_prime_breaks_match_bad_residue_tables():
    """At a prime N(k, l) = q the class of k is bad at q; at no odd prime below N is it bad."""
    n_limit = 300
    prime_breaks = 0
    for l in (2, 3, 4, 5):
        bad = {q: set(bad_residues(q, l).bad) for q in primes_in_range(3, n_limit)}
        for k in range(2, 81):
            n = exact_N(k, l, n_limit).n
            below = n if n is not None else n_limit + 1
            assert not [q for q in bad if q < below and k % (q - 1) in bad[q]], (k, l, n)
            if n in bad:
                assert k % (n - 1) in bad[n], (k, l, n)
                prime_breaks += 1
    assert prime_breaks > 100


def test_exact_N_exceeded_at_limit():
    r = exact_N(2, 2, 42)
    assert r.exceeded and r.limit == 42


def test_exact_N_range_matches_scalar_and_preserves_order():
    ks = [6, 2, 14, 3]
    out = exact_N_range(ks, 2, 100, workers=2)
    assert [r.k for r in out] == ks
    assert [r.n for r in out] == [19, 43, 19, 89]


def test_rational_oracle_agreement_small_parameters():
    """Exact fractions and the shrinking-modulus runs must tell one story."""
    for k in range(1, 7):
        for l in range(2, 7):
            terms = goebel_terms(k, l, 25)
            n_cap = len(terms)
            oracle_break = first_nonintegral(terms)
            algo = exact_N(k, l, n_cap)
            assert algo.n == oracle_break, (k, l, algo.n, oracle_break)
            # while the terms are integral a run must complete, and the run
            # for the breakdown index itself must break exactly there (runs
            # past it carry no guarantee: the tracked quantity is no longer
            # an integer sequence)
            for m in range(2, n_cap + 1):
                if oracle_break is None or m < oracle_break:
                    assert run_once(k, l, m) is None, (k, l, m)
            if oracle_break is not None:
                broke = run_once(k, l, oracle_break)
                assert broke is not None and broke.n_break == oracle_break, (k, l)


def test_rational_oracle_residues_at_primes():
    """n g(n) mod p from exact fractions matches the congruence runs."""
    from goebel import prime_trace_mod_p

    for k in range(1, 7):
        for l in range(2, 7):
            terms = goebel_terms(k, l, 25)
            for p in (3, 5, 7, 11, 13, 17, 19, 23):
                if p > len(terms):
                    continue
                want = rational_trace_at_p(terms, p)
                if want is None:
                    continue
                k_res = (k - 1) % (p - 1) + 1
                assert prime_trace_mod_p(k_res, l % p, p) == want, (k, l, p)


def test_fermat_reduction_of_the_exponent():
    for p in (5, 7, 11, 13):
        for l in (2, 3, 4):
            for k in range(1, p):
                a, b = run_once(k, l, p), run_once(k + (p - 1), l, p)
                assert (a is None) == (b is None), (k, l, p)
                if a is not None:
                    assert (a.n_break, a.residue) == (b.n_break, b.residue)


def test_start_value_periodicity_mod_p():
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for l in (0, 1, 2, 3, 5, 11):
            a, b = run_once(3, l, p), run_once(3, l + p, p)
            assert (a is None) == (b is None), (l, p)
            if a is not None:
                assert (a.n_break, a.residue) == (b.n_break, b.residue)
