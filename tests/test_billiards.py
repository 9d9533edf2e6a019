import numpy as np
import pytest

from goebel import (
    Classification,
    billiard_path,
    classify_l,
    compute_jp,
    construct_a,
    empty_iff_conditions,
    primes_in_range,
    verify_nonmultiplicativity,
    verify_range,
)
from goebel import billiards, modarith
from goebel.billiards import construct_b
from goebel.errors import DomainError, NoWitness

from . import checks
from .checks import (
    a_equals_b_consistency,
    b_query,
    check_b_symmetries,
    psi,
    reduced_trace,
    scalar_witnesses,
    zigzag,
)
from .goldens import A_37_12_FIRST_HALF, B_2_0, B_8_2, SIGMA_37_12


def _valid_pl(p_max):
    for p in primes_in_range(5, p_max):
        if p % 4 == 1:
            for l in range(0, p - 2, 2):
                yield p, l


# ------------------------------------------------------------- brute force

def brute_force_a(p, l):
    """Every half-assignment satisfying the four sign conditions, enumerated.

    A bit set at position i-1 means a(i) = -1; the mirror condition pins
    the upper half, so enumerating 2^((p-1)/2) assignments is exhaustive.
    """
    m = (p - 1) // 2
    idx = lambda x: x if x <= m else p - x
    A = np.arange(1 << m, dtype=np.uint32)
    ok = (A & 1) == 0  # a(1) = +1
    for n in range(1, l // 2 + 1):
        i, j = idx(n), idx(l + 1 - n)
        ok &= ((A >> (i - 1) ^ A >> (j - 1)) & 1) == 1
    for n in range(1, p - l - 1):
        i, j = idx(n), idx(l + 1 + n)
        ok &= ((A >> (i - 1) ^ A >> (j - 1)) & 1) == 0
    sols = []
    for bits in A[ok]:
        bits = int(bits)
        half = [-1 if bits >> (i - 1) & 1 else 1 for i in range(1, m + 1)]
        sols.append(tuple(half + [half[p - n - 1] for n in range(m + 1, p)]))
    return sols


def brute_force_b(l, s):
    """Every period-(l+1) assignment satisfying the two reflection relations."""
    m = l + 1
    bit = lambda n: (n - 1) % m
    A = np.arange(1 << m, dtype=np.uint32)
    ok = (A & 1) == 0  # b(1) = +1
    for n in range(1, m):
        ok &= ((A >> bit(n) ^ A >> bit(l + 1 - n)) & 1) == 1
    for n in range(0, m):
        ok &= ((A >> bit(s - n) ^ A >> bit(s + 1 + n)) & 1) == 0
    return [
        tuple(-1 if int(bits) >> bit(n) & 1 else 1 for n in range(1, m + 1)) for bits in A[ok]
    ]


# ------------------------------------------------------------- paths

def test_path_golden_sigma():
    path = billiard_path(37, 12)
    assert path.sigma == SIGMA_37_12
    assert path.tau[0] == 37 - 2 * 13  # first bounce of the golden example


def test_path_endpoints_and_counts():
    for p, l in _valid_pl(100):
        path = billiard_path(p, l)
        c = min(l + 1, p - l - 1)
        assert path.start == (0, c)
        assert path.end == (c, 0)
        if l <= (p - 5) // 2:
            assert path.end == (l + 1, 0)
        assert len(path.points) == p - 2
        assert len(set(path.points)) == p - 2


def test_path_symmetry_and_permutations():
    for p, l in _valid_pl(500):
        path = billiard_path(p, l)
        pts = path.points
        n = len(pts)
        # the visit order mirrors itself through y = x
        assert all(pts[n - 1 - j] == (pts[j][1], pts[j][0]) for j in range(n))
        m = (p - 1) // 2
        assert sorted(path.sigma) == list(range(1, m + 1))
        assert sorted(path.tau) == list(range(1, m + 1))
        assert all(path.tau[(p + 1) // 2 - n - 1] == path.sigma[n - 1] for n in range(1, m + 1))


def test_path_rejects_bad_parameters():
    for p, l in ((15, 2), (19, 2), (13, 3), (13, 12), (13, -2)):
        with pytest.raises(DomainError):
            billiard_path(p, l)


def test_psi_values():
    assert psi(37, 12, (1, 12)) == -1  # on the x+y = 13 wall
    assert psi(37, 12, (11, 13)) == 1
    assert psi(37, 12, (15, 2)) == 1
    # far-rectangle case: the x+y = p-(l+1) wall carries +1, the rest -1
    assert psi(13, 8, (1, 3)) == 1  # on x+y = 4
    assert psi(13, 8, (2, 6)) == -1  # on the y-x = 4 wall


def test_psi_rejects_points_off_the_board():
    with pytest.raises(DomainError):
        psi(37, 12, (13, 2))  # interior point, not on the boundary
    with pytest.raises(DomainError):
        psi(37, 12, (0, 13))  # excluded entry corner
    with pytest.raises(DomainError):
        psi(37, 12, (13, 0))  # excluded exit corner


def test_psi_consistent_along_path():
    for p, l in _valid_pl(60):
        if l == 0:
            continue
        a = construct_a(p, l)
        for x, y in billiard_path(p, l).points:
            assert a.value(x) * a.value(y) == psi(p, l, (x, y)), (p, l, x, y)


# ------------------------------------------------------------- sequence a

def test_construct_a_golden():
    a = construct_a(37, 12)
    assert list(a.values[:18]) == A_37_12_FIRST_HALF
    assert list(a.values[18:]) == A_37_12_FIRST_HALF[::-1]


def test_construct_a_trivial_start():
    a = construct_a(13, 0)
    assert a.values == (1,) * 12


def test_construct_a_satisfies_all_conditions():
    for p, l in _valid_pl(200):
        a = construct_a(p, l)
        v = a.value
        assert v(1) == 1
        assert all(v(n) == v(p - n) for n in range(1, (p - 1) // 2 + 1)), (p, l)
        assert all(v(n) == -v(l + 1 - n) for n in range(1, l // 2 + 1)), (p, l)
        assert all(v(n) == v(l + 1 + n) for n in range(1, p - l - 1)), (p, l)


def test_construct_a_unique_by_exhaustion():
    for p in (5, 13, 17, 29, 37, 41):
        for l in range(0, p - 2, 2):
            sols = brute_force_a(p, l)
            assert len(sols) == 1, (p, l)
            assert sols[0] == construct_a(p, l).values, (p, l)


def test_a_value_range_checked():
    a = construct_a(13, 2)
    with pytest.raises(DomainError):
        a.value(13)
    with pytest.raises(DomainError):
        a.value(0)


# ------------------------------------------------------------- sequence b

def test_construct_b_golden():
    assert list(construct_b(2, 0).values) == B_2_0
    assert list(construct_b(8, 2).values) == B_8_2


def test_construct_b_block_patterns():
    # s = l/2 - 1: (+1,+1,-1,-1) blocks then -1 when 4 | l
    for l in (4, 8, 12, 16):
        vals = list(construct_b(l, l // 2 - 1).values)
        assert vals == ([1, 1, -1, -1] * (l // 4))[: l] + [-1], l
    # and (+1, (-1,-1,+1,+1)*, -1, +1) when l = 2 (mod 4)
    for l in (6, 10, 14):
        vals = list(construct_b(l, l // 2 - 1).values)
        assert vals == [1] + ([-1, -1, 1, 1] * l)[: l - 2] + [-1, 1], l


def test_construct_b_alternates_at_s0():
    for l in (2, 4, 10):
        assert list(construct_b(l, 0).values) == [(-1) ** n for n in range(l + 1)]


def test_construct_b_validates():
    with pytest.raises(DomainError):
        construct_b(3, 1)  # odd l
    with pytest.raises(DomainError):
        construct_b(8, 9)  # s out of range
    with pytest.raises(DomainError):
        construct_b(8, 1)  # gcd(3, 9) > 1


def test_construct_b_unique_by_exhaustion():
    from math import gcd

    for l in range(0, 15, 2):
        for s in range(l + 1):
            if gcd(2 * s + 1, l + 1) != 1:
                continue
            sols = brute_force_b(l, s)
            assert len(sols) == 1, (l, s)
            assert sols[0] == construct_b(l, s).values, (l, s)


def test_b_query_matches_construction():
    from math import gcd

    for l in range(0, 41, 2):
        for s in range(l + 1):
            if gcd(2 * s + 1, l + 1) != 1:
                continue
            q = b_query(l, s)
            b = construct_b(l, s)
            assert all(q(n) == b.value(n) for n in range(-5, 3 * l + 5)), (l, s)


def test_b_periodic_extension():
    b = construct_b(8, 2)
    assert b.value(1) == b.value(10) == b.value(-8)
    assert b.value(9) == b.value(0) == b.value(18)


def test_check_b_symmetries():
    from math import gcd

    assert check_b_symmetries(8, 2).passed
    assert check_b_symmetries(2, 0).passed
    for l in range(2, 41, 2):
        for s in range(l + 1):
            if gcd(2 * s + 1, l + 1) == 1:
                report = check_b_symmetries(l, s)
                assert report.passed, (l, s, report.failure)


@pytest.mark.slow
def test_check_b_symmetries_wide():
    from math import gcd

    for l in range(2, 61, 2):
        for s in range(l + 1):
            if gcd(2 * s + 1, l + 1) == 1:
                assert check_b_symmetries(l, s).passed, (l, s)


def test_a_equals_b_consistency():
    assert ((37 - 1) // 2) % 13 == 5
    assert a_equals_b_consistency(37, 12)
    assert a_equals_b_consistency(13, 2)
    assert a_equals_b_consistency(13, 0)
    for p, l in _valid_pl(150):
        assert a_equals_b_consistency(p, l), (p, l)


# ------------------------------------------------------------- criteria and walks

def test_empty_iff_conditions_examples():
    cond1, cond2 = empty_iff_conditions(13, 2)
    assert cond1 and not cond2
    assert empty_iff_conditions(13, 0)[0]  # vacuous range


def test_empty_iff_conditions_test_the_prime_once():
    modarith.is_prime.cache_clear()
    for l in range(0, 1009 - 2, 2):
        empty_iff_conditions(1009, l)
    assert modarith.is_prime.cache_info().misses == 1


def test_zigzag_examples():
    assert not zigzag(reduced_trace(13, 0))
    assert zigzag(reduced_trace(13, 4))
    # a strictly alternating wall-free start: l = p-1 is absorbed in one step
    assert not zigzag(reduced_trace(13, 12))


def test_zigzag_characterizes_condition_one():
    for p in primes_in_range(13, 500):
        if p % 4 != 1:
            continue
        for l in range(0, p - 2, 2):
            cond1, _ = empty_iff_conditions(p, l)
            trace = reduced_trace(p, l)
            rhs = (not zigzag(trace)) and classify_l(p, l) is Classification.LEFT
            assert cond1 == rhs, (p, l)


def test_zigzag_characterizes_condition_two():
    for p in primes_in_range(13, 300):
        if p % 4 != 1:
            continue
        for l in range(0, p - 2, 2):
            _, cond2 = empty_iff_conditions(p, l)
            trace = reduced_trace(p, l + 2)
            rhs = (not zigzag(trace)) and classify_l(p, l + 2) is Classification.RIGHT
            assert cond2 == rhs, (p, l)


def test_conditions_never_conjoin_and_blocks_never_touch():
    for p in primes_in_range(13, 2000):
        if p % 4 != 1:
            continue
        both = any(all(empty_iff_conditions(p, l)) for l in range(0, p - 2, 2))
        assert not both, p
        jp = compute_jp(p)
        assert jp.l_L < jp.l_R, p


def test_verify_nonmultiplicativity_examples():
    for p in (13, 17):
        witnesses = verify_nonmultiplicativity(p)
        assert [w.l for w in witnesses] == list(range(2, p - 2, 2))
        for w in witnesses:
            q = b_query(w.l, ((p - 1) // 2) % (w.l + 1))
            assert q(2 * w.m) != q(2) * q(w.m)
            assert 2 * w.m <= p - 3


def test_verify_nonmultiplicativity_golden_witness():
    a = construct_a(37, 12)
    assert a.value(2) * a.value(6) != a.value(12)  # m = 6 witnesses l = 12
    ws = {w.l: w for w in verify_nonmultiplicativity(37)}
    w = ws[12]
    assert a.value(2) * a.value(w.m) != a.value(2 * w.m)


def test_verify_nonmultiplicativity_rejects_bad_p():
    for p in (5, 7, 11, 15):
        with pytest.raises(DomainError):
            verify_nonmultiplicativity(p)


# ------------------------------------------------------------- witness kernel

def test_witness_kernel_matches_scalar_oracle():
    for lo, hi in ((13, 3000), (9000, 10 ** 4)):
        want = [w for p in primes_in_range(lo, hi) if p % 4 == 1 for w in scalar_witnesses(p)]
        assert verify_range(lo, hi) == want, (lo, hi)
    assert 49993 % 4 == 1
    assert verify_nonmultiplicativity(49993) == scalar_witnesses(49993)


def test_witness_batches_split_mid_range(monkeypatch):
    want = verify_range(13, 200)
    monkeypatch.setattr(billiards, "WITNESS_BATCH_ROWS", 3)
    assert billiards._row_batches([13, 17]) == [
        [(13, 2, 6)], [(13, 8, 10), (17, 2, 2)], [(17, 4, 8)], [(17, 10, 14)]
    ]
    for workers in (1, 2):
        assert verify_range(13, 200, workers=workers) == want, workers


def chi_equals_b(p):
    """Residue bits whose chi is the b sequence of l = 2."""
    q = b_query(2, ((p - 1) // 2) % 3)
    return bytes([0] + [q(n) == 1 for n in range(1, p)])


def test_witness_kernel_raises_when_chi_equals_b(monkeypatch):
    monkeypatch.setattr(billiards, "qr_bits", chi_equals_b)
    monkeypatch.setattr(checks, "qr_bits", chi_equals_b)
    message = r"Legendre sequence equals the sign sequence for \(p=13, l=2\)"
    for run in (lambda: verify_nonmultiplicativity(13), lambda: verify_range(13, 60),
                lambda: scalar_witnesses(13)):
        with pytest.raises(NoWitness, match=message):
            run()


def test_witness_rows_share_one_p_per_prime(monkeypatch):
    ws = verify_nonmultiplicativity(37)
    assert all(w.p is ws[0].p for w in ws)
    monkeypatch.setattr(billiards, "WITNESS_BATCH_ROWS", 5)
    rows = verify_range(13, 100)
    for p in {w.p for w in rows}:
        ws = [w for w in rows if w.p == p]
        assert all(w.p is ws[0].p for w in ws), p


def test_witness_batches_of_one_prime_build_its_residue_table_once(monkeypatch, cold_qr_bits):
    built = []

    class CountingQrTable(modarith.QrTable):
        __slots__ = ()

        def __init__(self, p):
            built.append(p)
            super().__init__(p)

    want = verify_nonmultiplicativity(100049)
    modarith.qr_bits.cache_clear()
    monkeypatch.setattr(modarith, "QrTable", CountingQrTable)
    monkeypatch.setattr(billiards, "WITNESS_BATCH_ROWS", 64)
    assert len(billiards._row_batches([100049])) == 782
    assert verify_nonmultiplicativity(100049) == want
    assert built == [100049]


def test_witness_rows_are_built_with_the_collector_paused(monkeypatch):
    import gc

    states = []
    witness = billiards.Witness

    def recording_witness(p, l, m):
        states.append(gc.isenabled())
        return witness(p, l, m)

    monkeypatch.setattr(billiards, "Witness", recording_witness)
    want = [w for p in primes_in_range(13, 300) if p % 4 == 1 for w in scalar_witnesses(p)]
    assert verify_range(13, 300) == want
    assert len(states) == len(want) and not any(states) and gc.isenabled()

    monkeypatch.setattr(billiards, "qr_bits", chi_equals_b)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(NoWitness):
                verify_range(13, 60)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
