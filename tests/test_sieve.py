import random

import numpy as np
import pytest

from goebel import (
    bad_residues,
    exact_N,
    grid_scan,
    prime_trace_mod_p,
    sieve_range,
    sieve_tables,
    smallest_sieving_prime,
)
from goebel.errors import DomainError
from goebel.modarith import primes_up_to
from goebel.sieve import (
    BadResidueTable,
    format_table_line,
    parse_table_line,
    read_sieve_tables,
    write_sieve_tables,
)

from .oracles import class_exponent, plocal_trace, strided_sieve, traces_mod_p


def test_prime_trace_examples():
    for k in (1, 2, 9):
        for p in (3, 7, 19, 43):
            assert prime_trace_mod_p(k, 0, p) == 0
    assert prime_trace_mod_p(2, 2, 43) == 24
    assert prime_trace_mod_p(2, 3, 7) == 2


def test_prime_trace_validates():
    with pytest.raises(DomainError):
        prime_trace_mod_p(2, 2, 9)
    with pytest.raises(DomainError):
        prime_trace_mod_p(2, 7, 7)


def test_prime_trace_against_local_arithmetic_oracle():
    for p in (5, 7, 13, 31, 43):
        for k in range(1, p):
            for l in range(0, p, 3):
                assert prime_trace_mod_p(k, l, p) == plocal_trace(k, l, p), (k, l, p)


def test_table_driven_traces_equal_the_scalar_trace_for_every_start():
    primes = primes_up_to(200)[1:41]
    assert len(primes) == 40 and primes[-1] == 179
    for p in primes:
        for k in ((p - 1) // 2, 2, p - 1):
            assert traces_mod_p(k, p) == [prime_trace_mod_p(k, l, p) for l in range(p)], (k, p)


def test_class_exponent_convention():
    assert class_exponent(0, 19) == 18
    assert class_exponent(5, 19) == 5
    assert class_exponent(18, 19) == 18
    assert class_exponent(19, 19) == 1


def test_fermat_periodicity_of_traces():
    for p in primes_up_to(100):
        if p < 5:
            continue
        for l in (0, 1, 2, 5):
            for a in range(1, p - 1):
                assert prime_trace_mod_p(a, l % p, p) == prime_trace_mod_p(a + p - 1, l % p, p)


def test_bad_residues_known_tables():
    assert bad_residues(19, 2).bad == (6, 14)
    assert bad_residues(7, 3).bad == (2,)
    for p in (3, 7, 19, 43):
        assert bad_residues(p, 1).bad == ()
        assert bad_residues(p, 0).bad == ()


def test_bad_residues_backends_agree():
    # the vectorized table against the scalar reference trace, class by class
    for p in primes_up_to(200):
        if p < 3:
            continue
        for l in (0, 1, 2, 3, p - 1):
            want = tuple(
                a for a in range(p - 1) if prime_trace_mod_p(class_exponent(a, p), l % p, p)
            )
            assert bad_residues(p, l).bad == want, (p, l)


def test_lockstep_traces_match_the_scalar_trace_lane_by_lane(monkeypatch):
    # every class of every odd prime up to 61 at five start values, the
    # lanes of a prime in shuffled order, in one lockstep: u = 0 and class
    # 0 read their own tables, and retired lanes must end at trace 0
    from goebel import sieve
    from goebel.sieve import _bad_tables, _lane_traces

    jobs = [(p, l % p) for p in primes_up_to(61)[1:] for l in (0, 1, 2, p - 1, p + 2)]
    lanes = [(p, u, a) for p, u in jobs for a in range(p - 1)]
    random.Random(0).shuffle(lanes)
    lanes.sort(key=lambda lane: lane[0])
    P, U, A = (np.array(column) for column in zip(*lanes))
    want = [prime_trace_mod_p(class_exponent(a, p), u, p) for p, u, a in lanes]
    assert _lane_traces(P, U, A).tolist() == want
    tables = [
        BadResidueTable(p=p, l=l, bad=tuple(
            a for a in range(p - 1) if prime_trace_mod_p(class_exponent(a, p), l, p)
        ))
        for p, l in jobs
    ]
    monkeypatch.setattr(sieve, "_LANES", 1)  # one job per batch
    assert _bad_tables(jobs, 1) == tables
    monkeypatch.setattr(sieve, "_LANES", 10 ** 9)  # one batch for all
    assert _bad_tables(jobs, 1) == tables
    monkeypatch.undo()
    assert sieve_tables(300, 2, workers=2) == sieve_tables(300, 2, workers=1)


def test_vector_trace_rejects_primes_that_overflow_int64():
    # 2097169 is the first prime above 2^21, where (p-1)^3 no longer fits in
    # int64; the check must come before the O(p) discrete-log tables are built
    from goebel.sieve import _lane_traces, _prime_ctx

    _prime_ctx.cache_clear()
    with pytest.raises(DomainError):
        _lane_traces(np.full(3, 2097169), np.full(3, 2), np.arange(3))
    # a prime far above 2^21 is rejected before its primality test or any array
    for p in (2097169, 10 ** 13 + 37):
        with pytest.raises(DomainError):
            bad_residues(p, 2)
    assert _prime_ctx.cache_info().currsize == 0


def test_prime_context_holds_only_the_discrete_log_tables():
    # rpow and dlog take 16 bytes per unit of p; a table of inverses as
    # Python ints beside them held 5.6 MB in all at p = 100003
    import tracemalloc

    from goebel.sieve import _prime_ctx

    _prime_ctx.cache_clear()
    tracemalloc.start()
    try:
        _prime_ctx(100003)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _prime_ctx.cache_clear()
    assert held <= 2.5e6


def test_grid_scan_builds_the_prime_context_once():
    from goebel.sieve import _prime_ctx

    _prime_ctx.cache_clear()
    grid_scan(211)
    assert _prime_ctx.cache_info().misses == 1


def test_sieve_rejects_a_p_max_the_trace_cannot_take_before_any_table(
    monkeypatch, capsys, tmp_path
):
    # without the check, tables for all 155,610 primes below 2^21 come first
    from goebel import sieve
    from goebel.cli import main

    def no_trace(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(sieve, "_lane_traces", no_trace)
    assert main(["sieve", "--k-lo", "2", "--k-hi", "10", "--p-max", "2097169"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "2097169" in err[0]
    with pytest.raises(DomainError):
        sieve_tables(2097169, 2)
    # so is a negative l, which the tables of l mod p would sieve for, and
    # which the spot check's exact_N rejects
    tables = tmp_path / "T"
    argv = ["sieve", "--k-lo", "2", "--k-hi", "2000", "--p-max", "100", "--l", "-2"]
    assert main(argv + ["--spot-check", "3", "--tables", str(tables)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "-2" in err[0]
    assert not tables.exists()
    for call in (lambda: sieve_tables(100, -1),
                 lambda: smallest_sieving_prime(2, -1, 100, {})):
        with pytest.raises(DomainError):
            call()
    # p_max = 2^21 is allowed: with every table given, none is built
    given = {(p, 2 % p): None for p in primes_up_to(2 ** 21)[1:]}
    assert sieve_tables(2 ** 21, 2, given) == given


def test_bad_residues_class_zero_uses_positive_exponent():
    # the class-0 entry must describe actual k = p-1, 2(p-1), ...; the
    # literal zero exponent is a different recurrence
    for p in (7, 11, 19):
        for l in range(p):
            zero_class_bad = 0 in bad_residues(p, l).bad
            assert zero_class_bad == (prime_trace_mod_p(p - 1, l, p) != 0), (p, l)


def test_sieve_range_19_classes():
    tables = sieve_tables(19, 2)
    out = sieve_range(2, 1000, 19, 2, tables)
    sieved = set(range(2, 1001)) - set(out.survivors)
    assert sieved == {k for k in range(2, 1001) if k % 18 in (6, 14)}
    assert out.bound == 19
    # survivors stay exact ints past int64
    for k_lo in (2 ** 63 - 50, 2 ** 64):
        out = sieve_range(k_lo, k_lo + 100, 19, 2, tables)
        expected = [
            k for k in range(k_lo, k_lo + 101)
            if smallest_sieving_prime(k, 2, 19, tables) is None
        ]
        assert out.survivors == expected
        assert all(type(k) is int for k in out.survivors)


def test_bitmap_sieve_matches_the_strided_oracle():
    tables = {l: sieve_tables(300, l) for l in (1, 2, 3, 5)}
    # 32760 bits is the widened row of p = 19, where lcm(18, 8) = 72 bits
    # is one period of its pattern; one more bit runs into the tail
    for r in range(8):
        for n in (1, 7, 8, 9, 72, 73, 32760, 32761):
            k_lo = 16 + r
            k_hi = k_lo + n - 1
            got = sieve_range(k_lo, k_hi, 19, 2, tables[2]).survivors
            assert got == strided_sieve(k_lo, k_hi, 19, 2, tables[2]), (k_lo, n)
    # shorter than p - 1 for most primes; past int64; each l up to p_max = 300
    cases = [(1000, 1049, 300, 2), (2 ** 63 - 40, 2 ** 63 + 3000, 300, 2),
             (10 ** 30, 10 ** 30 + 20000, 300, 2)]
    cases += [(2, 50000, 300, l) for l in (1, 2, 3, 5)]
    for k_lo, k_hi, p_max, l in cases:
        got = sieve_range(k_lo, k_hi, p_max, l, tables[l]).survivors
        assert got == strided_sieve(k_lo, k_hi, p_max, l, tables[l]), (k_lo, k_hi, l)
        assert all(type(k) is int for k in got)
    # every class of 43 bad: nothing survives
    every = {**tables[2], (43, 2): BadResidueTable(p=43, l=2, bad=tuple(range(42)))}
    for k_lo, k_hi in ((2, 20), (5, 100000), (2 ** 64, 2 ** 64 + 99)):
        assert sieve_range(k_lo, k_hi, 43, 2, every).survivors == []


def test_survivors_are_read_back_in_blocks_as_the_strided_oracle_finds_them():
    from goebel.sieve import _BLOCK

    tables = sieve_tables(19, 2)
    for k_lo in (2, 13, 2 ** 63 + 5):
        for n in (1, 7, 8, 9, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
            k_hi = k_lo + n - 1
            out = sieve_range(k_lo, k_hi, 19, 2, tables)
            assert out.offsets.dtype == np.int32
            assert out.survivors == strided_sieve(k_lo, k_hi, 19, 2, tables), (k_lo, n)
            assert all(type(k) is int for k in out.survivors)
            assert "".join(out.text_blocks("", "\n")) == "".join(f"{k}\n" for k in out.survivors)
    # every k survives: the pad bits after k_hi are not counted
    ones = sieve_tables(19, 1)
    for n in (1, 9, _BLOCK + 1):
        assert sieve_range(2 ** 64, 2 ** 64 + n - 1, 19, 1, ones).survivors == [
            2 ** 64 + i for i in range(n)
        ]


def test_short_range_with_many_given_tables_matches_the_strided_oracle(monkeypatch):
    # a short range with a large p_max: most primes' patterns are cut to the
    # range, and no trace runs when every table is given
    from goebel import sieve

    def no_trace(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(sieve, "_lane_traces", no_trace)
    rng = random.Random(0)
    tables = {}
    for p in primes_up_to(20011)[1:]:
        bad = tuple(sorted(rng.sample(range(p - 1), min(p - 2, rng.randrange(3)))))
        tables[(p, 2)] = BadResidueTable(p=p, l=2, bad=bad)
    got = sieve_range(2, 10 ** 4, 20011, 2, tables)
    assert got.survivors == strided_sieve(2, 10 ** 4, 20011, 2, tables)
    assert got.survivors and got.bound == 20011


def test_sieve_lookups_read_the_given_tables_and_build_none(monkeypatch):
    from goebel import sieve

    tables = sieve_tables(100, 2)
    survivors = strided_sieve(2, 10 ** 4, 100, 2, tables)
    primes = [smallest_sieving_prime(k, 2, 100, tables) for k in range(2, 200)]

    def no_build(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(sieve, "_lane_traces", no_build)
    monkeypatch.setattr(sieve, "sieve_tables", no_build)
    assert sieve_range(2, 10 ** 4, 100, 2, tables).survivors == survivors
    assert [smallest_sieving_prime(k, 2, 100, tables) for k in range(2, 200)] == primes
    # a missing table is a KeyError naming its key, not a table built on the spot
    del tables[(3, 2)]
    for call in (lambda: sieve_range(2, 10 ** 4, 100, 2, tables),
                 lambda: smallest_sieving_prime(5, 2, 100, tables)):
        with pytest.raises(KeyError) as caught:
            call()
        assert caught.value.args == ((3, 2),)


def test_sieve_range_small_prime_no_bad_classes():
    # nothing is non-integral at p = 3 with start 2, so everything survives
    assert bad_residues(3, 2).bad == ()
    out = sieve_range(2, 100, 3, 2, sieve_tables(3, 2))
    assert out.survivors == list(range(2, 101))


def test_sieve_range_validates():
    with pytest.raises(DomainError):
        sieve_range(5, 4, 19, 2, {})
    with pytest.raises(DomainError):
        sieve_range(2, 10, 2, 2, {})
    with pytest.raises(DomainError):
        sieve_range(2, 10, 19, -1, {})


def test_sieve_range_bound_is_checked_before_tables(monkeypatch):
    import goebel.sieve

    def no_tables(*args, **kwargs):
        raise AssertionError("built tables")

    monkeypatch.setattr(goebel.sieve, "sieve_tables", no_tables)
    for k_lo, k_hi in ((2, 10 ** 8 + 2), (10 ** 12, 2 * 10 ** 12)):
        with pytest.raises(DomainError):
            sieve_range(k_lo, k_hi, 3, 2, {})


def test_sieve_soundness_sampled():
    tables = sieve_tables(100, 2)
    out = sieve_range(2, 20000, 100, 2, tables)
    survivors = set(out.survivors)
    sieved = [k for k in range(2, 20001) if k not in survivors]
    rng = random.Random(0)
    for k in rng.sample(sieved, 25):
        p = smallest_sieving_prime(k, 2, 100, tables)
        assert p is not None
        result = exact_N(k, 2, p)
        assert not result.exceeded and result.n <= p, (k, p, result)


def test_sieve_survivors_never_break_below_bound():
    out = sieve_range(2, 200, 30, 2, sieve_tables(30, 2))
    for k in out.survivors[:40]:
        r = exact_N(k, 2, 29)
        assert r.exceeded, (k, r)


def test_grid_scan_p7_is_exactly_the_known_minimum_class():
    assert grid_scan(7) == [(2, 3)]


def test_grid_scan_row_structure():
    # row (p-1)/2 is empty for p = 3 (mod 4); for p = 1 (mod 4), p >= 13 it
    # is a block of consecutive even l
    for p in (7, 11, 19, 23):
        assert all(k != (p - 1) // 2 for k, _ in grid_scan(p))
    from goebel import compute_jp

    for p in (13, 17, 29, 37):
        jp = compute_jp(p)
        row = sorted(l for k, l in grid_scan(p) if k == (p - 1) // 2)
        assert row == list(range(jp.l_L, jp.l_R, 2)), p


def test_grid_half_exponent_row_matches_walk_classification():
    # the k = (p-1)/2 grid row equals the walk's Middle set, every odd p <= 500
    from goebel import Classification, classify_l
    from goebel.sieve import _lane_traces

    for p in primes_up_to(500):
        if p < 3:
            continue
        traces = _lane_traces(np.full(p, p), np.arange(p), np.full(p, (p - 1) // 2))
        row = set(np.nonzero(traces)[0].tolist())
        middles = {l for l in range(p) if classify_l(p, l) is Classification.MIDDLE}
        assert row == middles, p


def test_grid_scan_column_l0_and_l1_empty():
    for p in (5, 7, 13, 19):
        pairs = grid_scan(p)
        assert all(l not in (0, 1) for _, l in pairs), p


def test_grid_matches_scalar_traces():
    for p in (5, 7, 13, 19, 31):
        pairs = set(grid_scan(p))
        for a in range(p - 1):
            for l in range(p):
                want = prime_trace_mod_p(class_exponent(a, p), l, p) != 0
                assert ((a, l) in pairs) == want, (p, a, l)


def test_table_file_roundtrip(tmp_path):
    tables = sieve_tables(50, 2)
    assert format_table_line(bad_residues(19, 2)) == "19,2:6;14"
    assert parse_table_line("19,2:6;14\n") == bad_residues(19, 2)
    assert parse_table_line("3,2:") == bad_residues(3, 2)
    path = tmp_path / "tables.txt"
    write_sieve_tables(path, tables)
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data
    assert read_sieve_tables(path) == tables


def test_sieve_tables_parallel_agree():
    assert sieve_tables(60, 2, workers=2) == sieve_tables(60, 2, workers=1)
