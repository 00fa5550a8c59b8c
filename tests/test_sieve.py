import hashlib
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smolab import sieve
from smolab.errors import LimitExceeded, UsageError
from smolab.sieve import (_BLOCK_CELLS, PRIME_LIMIT, RECURRENCE_MODULUS_LIMIT, SEGMENT_SPAN,
                          TABLE_PER_TEST, _four_witness_test, _icbrt, _lucy_values,
                          _segment_bounds, _sieve_segment, class_sums, is_prime,
                          is_prime_array, iter_prime_segments,
                          prefix_sums, prime_array, prime_count, residue_counts_pay,
                          prime_divisors, residue_sums, residues, segment_map, simple_sieve,
                          totient, unit_mask)
from smolab.tau import TAU_LIMIT

ORACLE_LIMIT = 3 * 10**6
DENSE = simple_sieve(ORACLE_LIMIT)
BASE = simple_sieve(math.isqrt(ORACLE_LIMIT) + 1)


def counts_at(x: int, q: int) -> np.ndarray:
    """``residue_sums`` counts at the one point x: a walk of its own."""
    return residue_sums([x], q)[0]


def sums_at(x: int, q: int, exponents) -> np.ndarray:
    """``residue_sums`` power sums at the one point x: a walk of its own."""
    return residue_sums([x], q, exponents)[0]


def test_small_stream():
    assert prime_array(10).tolist() == [2, 3, 5, 7]
    assert prime_array(1).tolist() == []
    assert prime_array(2).tolist() == [2]


def test_count_at_powers_of_ten():
    # classical counts, recomputable with the dense one-shot sieve below
    assert prime_count(10**6) == 78498
    assert prime_count(10**5) == 9592


def test_segmented_matches_dense_oracle():
    dense = simple_sieve(3 * 10**6)
    segmented = prime_array(3 * 10**6)
    assert np.array_equal(dense, segmented)


def test_segment_boundaries_exact():
    # segments span 2**20; make sure primes at the seam are not lost
    span = 1 << 20
    lo, hi = span - 50, span + 50
    expected = [p for p in range(lo, hi) if is_prime(p)]
    got = [p for p in prime_array(hi - 1).tolist() if p >= lo]
    assert got == expected


def test_worker_count_does_not_change_results():
    def power_sum(seg):
        return float((seg.astype(np.float64) ** -1.5).sum())

    limit = 5 * 10**6
    single = segment_map(limit, power_sum, workers=1)
    eight = segment_map(limit, power_sum, workers=8)
    assert single == eight  # identical per-segment floats, same order


def test_limit_enforced():
    with pytest.raises(LimitExceeded):
        prime_count(10**9 + 1)


def test_is_prime_64bit_cases():
    assert is_prime(2) and is_prime(3) and is_prime(10**9 + 7)
    assert not is_prime(1) and not is_prime(0) and not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to first four bases


def test_is_prime_matches_dense_sieve_below_1e6():
    flags = np.zeros(10**6, dtype=bool)
    flags[simple_sieve(10**6 - 1)] = True
    assert [is_prime(n) for n in range(10**6)] == flags.tolist()


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2, and 3215031751 = 151 * 751 * 28351, the least
    # to bases 2, 3, 5 and 7, where the witness set switches to all twelve primes
    for n in (2047, 3277, 4033, 4681, 8321, 3215031751):
        assert not is_prime(n), n
    assert 151 * 751 * 28351 == 3215031751
    # the next prime, by trial division; a Mersenne prime; 2**61 + 1 = 3 * 768614336404564651
    assert is_prime(3215031767) and is_prime(2**61 - 1) and not is_prime(2**61 + 1)


def test_is_prime_array_cases():
    # 561 and 41041 are Carmichael numbers; 2047, 1373653 and 25326001 are the least
    # strong pseudoprimes to {2}, {2, 3} and {2, 3, 5}; 3215031751 to {2, 3, 5, 7}
    # lies at the four-witness limit and takes the scalar test
    cases = [0, 1, 2, 3, 5, 7, 11, 4, 9, 49, 97**2, 65521**2, 561, 41041, 2047, 1373653,
             25326001, 3215031751, 3215031767, -7, 2**61 - 1, 2**64 + 13, 10**30]
    cases += [2**32 + k for k in range(-40, 41)]
    assert is_prime_array(cases).tolist() == [is_prime(n) for n in cases]
    assert not is_prime_array([3215031751])[0] and is_prime_array([2**32 - 5])[0]
    assert is_prime_array(np.array([2, 4, 2**31 - 1], dtype=np.int64)).tolist() == \
        [True, False, True]
    assert is_prime_array([]).tolist() == []


def test_is_prime_array_matches_dense_sieve_below_1e6():
    # the segmented sieve, which takes only its base primes below 1000 from the
    # dense table that the column below is looked up in
    flags = np.zeros(10**6, dtype=bool)
    flags[prime_array(10**6 - 1)] = True
    assert np.array_equal(is_prime_array(range(10**6)), flags)
    # the column above takes the sieve table; the four-witness tier on its own
    assert np.array_equal(_four_witness_test(np.arange(10**6, dtype=np.uint64)), flags)


# entries at the edges of the three tiers: the table's reach for columns of 1, 4
# and 16 entries below 2**20, the four-witness limit, 0, 1, negatives, 2**64
_TIER_EDGES = [0, 1, 2, -1, -2, -(2**64) - 1, 3_215_031_751, 3_215_031_767, 2**64 - 59,
               2**64 + 13, SEGMENT_SPAN] + [TABLE_PER_TEST * k for k in (1, 4, 16)]
_near_edges = st.builds(lambda edge, offset: edge + offset,
                        st.sampled_from(_TIER_EDGES), st.integers(-40, 40))


@settings(max_examples=300, deadline=None)
@given(st.lists(_near_edges | st.integers(-(2**70), 2**70) | st.integers(0, 2**33 - 1),
                max_size=50))
def test_is_prime_array_matches_is_prime(values):
    assert is_prime_array(values).tolist() == [is_prime(n) for n in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(_near_edges.filter(lambda n: -(2**63) <= n < 2**63)
                | st.integers(-(2**63), 2**63 - 1) | st.integers(0, 2**33 - 1), max_size=50))
def test_is_prime_array_of_an_int64_column_matches_is_prime(values):
    # the file loaders pass their int64 columns as they are
    column = np.array(values, dtype=np.int64)
    assert is_prime_array(column).tolist() == [is_prime(n) for n in values]


def test_is_prime_array_tier_edges(monkeypatch):
    # a column of n entries looks up those below min(SEGMENT_SPAN, TABLE_PER_TEST n)
    # in the table and tests the rest by four witnesses
    tested = []

    def four_witness_test(n):
        tested.extend(n.tolist())
        return _four_witness_test(n)

    monkeypatch.setattr(sieve, "_four_witness_test", four_witness_test)
    for size in (1, 4, 16, 4096, 8192):
        reach = min(SEGMENT_SPAN, TABLE_PER_TEST * size)
        for edge in range(reach - 3, reach + 4):
            column = [2] * (size - 1) + [edge]
            tested.clear()
            assert is_prime_array(column).tolist() == [is_prime(n) for n in column]
            assert tested == ([] if edge < reach else [edge]), (size, edge)


def test_tau_column_takes_no_four_witness_test(monkeypatch):
    def refused(n):
        raise AssertionError(f"four-witness test of {len(n)} entries")

    monkeypatch.setattr(sieve, "_four_witness_test", refused)
    for limit in (20, 2000, TAU_LIMIT):
        column = prime_array(limit)
        assert is_prime_array(column.astype(object)).all()
        assert is_prime_array(column.tolist() + [limit + 1]).tolist()[-1] == is_prime(limit + 1)


def test_primes_to_1e7_match_pinned_digest():
    # digest taken from the earlier kernel, which struck every integer;
    # ten segments, the last one partial
    primes = prime_array(10**7)
    assert primes.dtype == np.int64 and len(primes) == 664579
    assert len(_segment_bounds(10**7)) == 10
    digest = hashlib.sha256(primes.astype("<i8").tobytes()).hexdigest()
    assert digest == "2ad296d1337aaafbb800643fa0cf7a36badb424747f4b9a112d353f8b6631993"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, ORACLE_LIMIT), st.integers(0, ORACLE_LIMIT))
@example(0, 1)
@example(0, 2)
@example(0, 3)
@example(0, 100)
@example(1, 14)
@example(2, 3)
@example(2, 16)
@example(3, 4)
@example(3, 13)
@example(4, 30)
@example(12, 14)
@example(13, 2000)
@example(15015 * 2 - 7, 15015 * 2 + 9)   # across a pattern period
@example(1000, 1000 + 15015)
@example(1001, 1001 + 2 * 15015 - 1)
@example(SEGMENT_SPAN + 2, 2 * SEGMENT_SPAN + 2)
@example(SEGMENT_SPAN + 3, 2 * SEGMENT_SPAN + 3)
@example(1, ORACLE_LIMIT)                 # wider than a segment
def test_segment_matches_dense_oracle(a, b):
    low, high = min(a, b), max(a, b)
    got = _sieve_segment(low, high, BASE)
    assert got.dtype == np.int64
    expected = DENSE[np.searchsorted(DENSE, low):np.searchsorted(DENSE, high)]
    assert np.array_equal(got, expected)


def test_last_segment_below_cap_matches_is_prime():
    low, high = _segment_bounds(PRIME_LIMIT)[-1]
    assert high == PRIME_LIMIT + 1
    seg = _sieve_segment(low, high, simple_sieve(math.isqrt(PRIME_LIMIT) + 1))
    top = high - 4000
    assert seg[seg >= top].tolist() == [n for n in range(top, high) if is_prime(n)]
    # and the seam at the bottom of the segment
    assert seg[seg < low + 2000].tolist() == [n for n in range(low, low + 2000) if is_prime(n)]


@settings(max_examples=100, deadline=None)
@given(st.integers(-3, ORACLE_LIMIT), st.integers(1, 60))
@example(-1, 7)
@example(0, 1)
@example(1, 4)
@example(2, 1)
@example(2, 2)
@example(3, 6)
@example(4, 4)      # x a perfect square: the values x // n meet at sqrt(x)
@example(30, 30)    # x = q, every prime divides q or is a unit
@example(121, 11)
@example(1000, 60)
@example(ORACLE_LIMIT, 56)
def test_residue_prime_counts_match_sieve_bincount(x, q):
    counts = counts_at(x, q)
    assert counts.dtype == np.int64
    expected = np.bincount(prime_array(x) % q, minlength=q)
    assert counts.tolist() == expected.tolist()


# per-class counts of the primes up to 1e8, taken from np.bincount(prime_array(10**8) % q)
# with the segment sieve
CLASSES_1E8 = {
    4: [0, 2880504, 1, 2880950],
    11: [1, 576103, 576332, 575872, 575818, 576332, 576056, 576487, 576172, 575927, 576355],
    56: [0, 239867, 1, 240069, 0, 240180, 0, 1, 0, 239715, 0, 240213, 0, 240078, 0, 240147,
         0, 240123, 0, 240010, 0, 0, 0, 240142, 0, 239748, 0, 240117, 0, 239959, 0, 240001,
         0, 240087, 0, 0, 0, 240171, 0, 239998, 0, 240430, 0, 240050, 0, 240020, 0, 240102,
         0, 0, 0, 240085, 0, 240126, 0, 240015],
}


@pytest.mark.parametrize("q", sorted(CLASSES_1E8))
def test_residue_prime_counts_pinned_at_1e8(q):
    counts = counts_at(10**8, q)
    assert counts.tolist() == CLASSES_1E8[q]
    assert counts.sum() == 5761455


def reference_lucy_walk(x: int, q: int, state: np.ndarray,
                        exponents: np.ndarray | None = None) -> None:
    """Lucy's recurrence with every prime p <= sqrt(x) in its own
    column-blocked update: the oracle for the bits of ``sieve._lucy_walk``,
    which batches the primes above x^(1/3)."""
    values, n_small = _lucy_values(x)
    units = np.flatnonzero(unit_mask(q))
    m = len(values)
    r = math.isqrt(x)
    row_of = np.full(q, -1, dtype=np.int64)
    row_of[units] = np.arange(len(units))
    blocks = np.arange(len(state) // len(units))[:, None] * len(units)
    per_row = None if exponents is None else np.repeat(exponents, len(units))[:, None]
    width = max(1, _BLOCK_CELLS // len(state))
    for p in simple_sieve(r).tolist():
        if q % p == 0:
            continue
        k = min(r, x // (p * p)) + max(0, n_small - p * p + 1)  # values >= p*p
        w = values[:k] // p
        src = np.where(w > n_small, x // w - 1, m - w)  # column of each v // p
        low = state[:, m - (p - 1) if p - 1 <= n_small else x // (p - 1) - 1]
        perm = (row_of[units * pow(p, -1, q) % q] + blocks).ravel()
        scale = None if per_row is None else float(p) ** -per_row
        # ascending columns are descending values and every read is at a
        # smaller value, so each block reads columns no earlier block wrote
        for start in range(0, k, width):
            end = min(k, start + width)
            block = np.take(state, src[start:end], axis=1)
            block -= low[:, None]
            if scale is not None:
                block *= scale
            state[:, start:end] -= block[perm]


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        np.array_equal(a.view(np.uint8), b.view(np.uint8))


def reference(fn, *args):
    with mock.patch.object(sieve, "_lucy_walk", reference_lucy_walk):
        return fn(*args)


# perfect cubes keep p**3 = x in the head loop; below 8 no prime is in the
# head; 101 is a tail prime at 1e6 and divides 202; q = 1 has one row.
# 10**6 - 1, 10**6 and 10**6 + 2000 are r*r - 1, r*r and r*r + 2r for r =
# 1000, the seams of the head's column ranges; at 19 with q = 1, 2449 with
# q = 30 and 14761 with q = 210 every head prime has p*p > n_small, so no
# head prime reaches the small values; the 1e8 walks are the multi-row
# walks of the prime statistics
@settings(max_examples=150, deadline=None)
@given(st.integers(0, ORACLE_LIMIT), st.integers(1, 60))
@example(343, 7)
@example(343, 1)
@example(1331, 12)
@example(29791, 30)
@example(29791, 31)
@example(3, 1)
@example(4, 3)
@example(7, 4)
@example(10**6, 202)
@example(10**6, 1)
@example(10**6 - 1, 12)
@example(10**6, 7)
@example(10**6 + 2000, 56)
@example(19, 1)
@example(2449, 30)
@example(14761, 210)
@example(10**8, 56)
def test_residue_prime_counts_match_reference_walk(x, q):
    assert same_bytes(counts_at(x, q), reference(counts_at, x, q))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, ORACLE_LIMIT), st.integers(1, 60),
       st.lists(st.floats(1.0, 2.0, exclude_min=True), min_size=1, max_size=3))
@example(343, 7, [1.5])
@example(1331, 12, [1.5, 1.25])
@example(29791, 30, [1.1, 1.9, 1.5])
@example(5, 2, [1.5])
@example(7, 1, [2.0, 1.0 + 1e-9])
@example(10**6, 202, [1.25])
@example(10**6, 1, [1.0625])
@example(10**6 - 1, 8, [1.5])
@example(10**6, 1, [1.25])
@example(10**6 + 2000, 12, [1.1, 1.9])
@example(19, 1, [1.5])
@example(2449, 30, [1.25, 1.5])
@example(10**8, 8, [1.5, 1.25, 1.1])
def test_residue_prime_power_sums_match_reference_walk(x, q, exponents):
    got = sums_at(x, q, exponents)
    assert same_bytes(got, reference(sums_at, x, q, exponents))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**18))
@example(0)
@example(7)
@example(8)
@example(10**8)
@example(29791)
@example(10**18 - 1)
def test_icbrt_is_the_integer_cube_root(x):
    c = _icbrt(x)
    assert c**3 <= x < (c + 1) ** 3


# one walk at max(grid) is read at every point among its values, and any
# other point walks again: 999 is no 1000 // n and 3e6 - 1 no 3e6 // n, while
# 77, below sqrt(3e6), is one
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-3, ORACLE_LIMIT), min_size=1, max_size=6, unique=True),
       st.integers(1, 60),
       st.none() | st.lists(st.floats(1.0, 2.0, exclude_min=True), min_size=1, max_size=3))
@example([10**4, 10**5, 10**6], 4, None)
@example([0, 1, 2], 6, None)
@example([999, 1000], 202, None)
@example([1000, 3 * 10**6], 56, None)
@example([10**4, 10**5, 10**6], 4, [1.5])
@example([0, 1, 2], 6, [1.25])
@example([999, 1000], 202, [1.1, 1.9])
@example([2, 77, 3 * 10**6 - 1, 3 * 10**6], 8, [1.5, 1.25, 1.1])
def test_residue_prime_counts_grid_matches_one_walk_per_point(grid, q, exponents):
    grid = sorted(grid)
    with mock.patch.object(sieve, "_lucy_walk", wraps=sieve._lucy_walk) as walk:
        got = residue_sums(grid, q, exponents)
    values = set(_lucy_values(grid[-1])[0].tolist()) if grid[-1] >= 2 else set()
    assert walk.call_count == (grid[-1] >= 2) + sum(g >= 2 and g not in values for g in grid)
    per_point = () if exponents is None else (len(exponents),)
    assert got.shape == (len(grid),) + per_point + (q,)
    assert got.dtype == (np.int64 if exponents is None else np.float64)
    for row, g in zip(got, grid):
        one = residue_sums([g], q, exponents)[0]
        assert row.tolist() == one.tolist()
        assert same_bytes(row, one)


@st.composite
def coset_tables(draw):
    """A modulus q <= 600 and a class table over range(q) in -1..3 that is
    constant on the cosets of a random subgroup H of the units, with a random
    class per coset and per non-unit residue."""
    q = draw(st.integers(1, 600))
    units = np.flatnonzero(unit_mask(q))
    gens = np.array(draw(st.lists(st.sampled_from(units.tolist()), max_size=3)), dtype=np.int64)
    group = np.array([1 % q])
    while len(grown := np.union1d(group, group[:, None] * gens % q)) > len(group):
        group = grown
    cosets, coset_of = np.unique((units[:, None] * group % q).min(axis=1), return_inverse=True)
    table = np.array(draw(st.lists(st.integers(-1, 3), min_size=q, max_size=q)))
    labels = np.array(draw(st.lists(st.integers(-1, 3), min_size=len(cosets),
                                    max_size=len(cosets))))
    table[units] = labels[coset_of]
    return q, table


# the recurrence walks one row per coset of the table's stabilizer, which
# holds H and more when cosets share a class: the examples walk 1, 4, 2 and
# 1 rows, the last 598 units of one class
@settings(max_examples=60, deadline=None)
@given(coset_tables(), st.lists(st.integers(-3, ORACLE_LIMIT), min_size=1, max_size=3,
                                unique=True))
@example((1, np.array([0])), [10**5])
@example((8, np.array([-1, 0, -1, 1, -1, 2, -1, 3])), [10**5, 10**6])
@example((35, np.where(np.isin(np.arange(35), [1, 2, 4, 8, 9, 11, 16, 18, 22, 23, 29, 32]),
                       0, 1)), [999, 1000])
@example((599, np.where(np.arange(599) > 0, 2, -1)), [ORACLE_LIMIT])
def test_class_counts_on_cosets_match_bincount(case, grid):
    q, table = case
    grid = sorted(grid)
    with mock.patch.object(sieve, "residue_counts_pay", return_value=True):
        got = class_sums(grid, 4, lambda p: table[p % q], q)
    for row, g in zip(got, grid):
        classes = table[DENSE[:np.searchsorted(DENSE, g, side="right")] % q]
        assert row.tolist() == np.bincount(classes[classes >= 0], minlength=4).tolist()


def test_recurrence_memory_is_bounded():
    # the traced peak takes in the state, about 2 sqrt(x) cells per row, and
    # every temporary of the walk; the tail batch goes in bounded groups
    for fn, args in ((counts_at, (10**8, 56)),
                     (sums_at, (10**8, 8, [1.5, 1.25, 1.1]))):
        tracemalloc.start()
        try:
            fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20, (fn.__name__, peak)


def test_recurrence_state_above_the_bound_is_refused_before_it_is_built():
    # 17.7 MB and 19.2 MB of state against RECURRENCE_STATE_BYTES = 16 MiB
    start = time.perf_counter()
    with pytest.raises(LimitExceeded):
        counts_at(10**5, 7001)
    with pytest.raises(LimitExceeded):
        sums_at(10**6, 8, [1.5] * 300)
    assert time.perf_counter() - start < 0.25


def test_residue_prime_counts_at_the_cap():
    # pi(10**9) = 50,847,534; 2 is the one prime in class 2 mod 4
    counts = counts_at(PRIME_LIMIT, 4)
    assert counts.sum() == 50_847_534
    assert counts[2] == 1 and counts[0] == 0


def test_residue_prime_counts_checks_arguments():
    with pytest.raises(LimitExceeded):
        counts_at(PRIME_LIMIT + 1, 4)
    with pytest.raises(UsageError):
        counts_at(100, 0)
    with pytest.raises(ValueError):  # power sums take no coset rows
        residue_sums([100], 8, [1.5], sieve._coset_rows(8, np.arange(8)))


def power_sum_bound(x: int) -> float:
    """Absolute error allowed for ``sums_at(x, q, ...)`` against
    ``math.fsum`` over the sieved primes, fixed from the kernel's error analysis
    before any measurement: each of the pi(sqrt(x)) updates of a cell rounds
    three times by at most eps times a partial sum, a starting row is within
    64 eps of its exact value, and ``math.fsum`` of the rounded terms is within
    eps of the exact prime sum, all relative to the largest starting row, at
    most sum_{2 <= n <= x} 1/n < log(x) + 1 for s > 1."""
    eps = 2.0**-53
    return (3 * len(simple_sieve(math.isqrt(x))) + 65) * eps * (math.log(x) + 1)


def fsum_by_class(x: int, q: int, exponents) -> np.ndarray:
    primes = prime_array(x)
    classes = primes % q
    out = np.zeros((len(exponents), q))
    for i, s in enumerate(exponents):
        terms = primes.astype(np.float64) ** -s
        for a in range(q):
            out[i, a] = math.fsum(terms[classes == a])
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, ORACLE_LIMIT), st.integers(1, 60),
       st.lists(st.floats(1.0, 2.0, exclude_min=True), min_size=1, max_size=4))
@example(2, 1, [2.0])
@example(4, 4, [1.5, 1.25])       # x a perfect square
@example(30, 30, [1.1])           # every prime divides q or is a unit
@example(1000, 60, [1.0 + 1e-9, 2.0])
@example(ORACLE_LIMIT, 56, [1.5, 1.25, 1.1])
@example(ORACLE_LIMIT, 1, [1.0625])
def test_residue_prime_power_sums_match_fsum(x, q, exponents):
    sums = sums_at(x, q, exponents)
    assert sums.shape == (len(exponents), q) and sums.dtype == np.float64
    if x < 2:
        assert not sums.any()
        return
    expected = fsum_by_class(x, q, exponents)
    assert np.abs(sums - expected).max() <= power_sum_bound(x)


# per-class sums of p^-s over the primes up to 1e8, taken with math.fsum over
# the segment sieve's primes of each class mod 8
SUMS_1E8_MOD8 = {
    1.5: [0.0, 0.028500329087087165, 0.3535533905932738, 0.24899266619595514,
          0.0, 0.13519648853482033, 0.0, 0.08330993421591312],
    1.25: [0.0, 0.0868632913781493, 0.42044820762685725, 0.3952874352028561,
           0.0, 0.25776717235471763, 0.0, 0.1813687445450739],
    1.1: [0.0, 0.20811910112031895, 0.46651649576840365, 0.5917453381185857,
          0.0, 0.439168327648832, 0.0, 0.34232167875610797],
}


def test_residue_prime_power_sums_pinned_at_1e8():
    exponents = sorted(SUMS_1E8_MOD8, reverse=True)
    sums = sums_at(10**8, 8, exponents)
    expected = np.array([SUMS_1E8_MOD8[s] for s in exponents])
    assert np.abs(sums - expected).max() <= power_sum_bound(10**8)


@pytest.mark.parametrize("s", [1.05, 1.25, 1.5, 2.0])
def test_prime_sums_lie_below_the_prime_zeta_function(s):
    mp = pytest.importorskip("mpmath")
    limit = float(mp.primezeta(s))
    for x in (2, 3, 100, 10**4 + 7, 10**6):
        total = sums_at(x, 1, [s])[0, 0]
        assert 2.0**-s <= total < limit


def test_residue_prime_power_sums_check_arguments():
    with pytest.raises(LimitExceeded):
        sums_at(PRIME_LIMIT + 1, 4, [1.5])
    with pytest.raises(UsageError):
        sums_at(100, 0, [1.5])
    for s in (1.0, 0.5, float("nan")):
        with pytest.raises(UsageError):
            sums_at(100, 4, [1.5, s])


def test_cost_model_choices():
    # the prime-scan counts: natural mod 4, frobstats N = 11, the compound q = 56
    assert residue_counts_pay([10**6, 10**7, 10**8], 4)
    assert residue_counts_pay([10**8], 11)
    assert residue_counts_pay([10**7, 10**8], 56)
    # small cutoffs and nothing to count stay on the sieve
    assert not residue_counts_pay([10**4], 4)
    assert not residue_counts_pay([-5, 0, 1], 4)
    # a long grid costs a recurrence at each point off the values of the
    # largest one's walk, but still one sieve
    assert not residue_counts_pay(range(10**8 - 100, 10**8), 4)
    # 1e6 and 1e7 are among the values of the walk at 1e8: one walk serves all
    assert residue_counts_pay([10**6, 10**7, 10**8], 97)
    # no cutoff admits phi(q) = 150 (q = 151), and the moduli above the limit
    # have far larger phi(q), so the limit turns none of them away
    grid = sorted({int(10 ** (k / 16)) for k in range(16 * 9 + 1)})
    assert not any(residue_counts_pay([x], 151) for x in grid)
    assert any(residue_counts_pay([x], 185) for x in grid)  # phi(185) = 144
    phi = np.arange(10**5 + 1)
    for p in simple_sieve(10**5).tolist():
        phi[p::p] -= phi[p::p] // p
    assert phi[RECURRENCE_MODULUS_LIMIT + 1:].min() == 2304
    assert not residue_counts_pay([10**8], RECURRENCE_MODULUS_LIMIT + 1)
    # power sums: 8-byte rows, one block per exponent
    assert residue_counts_pay([10**8], 8, exponents=3)  # density dirichlet mod:8
    assert residue_counts_pay([10**8], 4, exponents=1)  # smo poleorder mod:4
    assert not residue_counts_pay([10**6], 1, exponents=1)
    assert not residue_counts_pay([10**5], 8, exponents=3)
    assert not any(residue_counts_pay([x], 149, exponents=1) for x in grid)


def class_sum_bound(x: int, q: int) -> float:
    """Absolute error allowed for a ``class_sums`` power sum up to x against
    ``math.fsum``: ``power_sum_bound`` with one more eps per halving of the
    pairwise reduction over at most q residue cells, from its docstring."""
    return power_sum_bound(x) + q.bit_length() * 2.0**-53 * (math.log(x) + 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 600), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.lists(st.integers(-3, ORACLE_LIMIT), min_size=1, max_size=3),
       st.lists(st.floats(1.0, 2.0, exclude_min=True), min_size=1, max_size=2))
@example(1, 1, 0, [ORACLE_LIMIT], [1.5])
@example(600, 3, 1, [2, 10**5, ORACLE_LIMIT], [1.1])   # phi(600) = 160 rows
@example(30, 2, 2, [-3, 0, 1], [2.0])                   # nothing to count
@example(8, 2, 3, [SEGMENT_SPAN + 1, 3], [1.25, 1.5])   # a grid point in each segment
def test_class_sums_match_bincount_and_fsum(q, n_classes, seed, grid, exponents):
    table = np.random.default_rng(seed).integers(-1, n_classes, q)  # -1: left out
    k = len(exponents)
    assume(sieve._state_bytes(max(max(grid), 2), k * totient(q), 8) <= sieve.RECURRENCE_STATE_BYTES)
    primes = DENSE[:np.searchsorted(DENSE, max(grid), side="right")]
    counts = np.array([np.bincount(table[primes[primes <= g] % q] + 1,
                                   minlength=n_classes + 1)[1:] for g in grid])
    results = []
    for accept in (True, False):
        with mock.patch.object(sieve, "residue_counts_pay", lambda xs, q, exponents=None: accept):
            got = sieve.class_sums(grid, n_classes, lambda p: table[p % q], q)
            assert got.dtype == np.int64 and got.tolist() == counts.tolist()
            results.append(sieve.class_sums(grid, n_classes, lambda p: table[p % q], q,
                                            exponents=exponents))
    by_callable = sieve.class_sums(grid, n_classes, lambda seg: table[seg % q], exponents=exponents)
    assert np.array_equal(by_callable, results[1])  # both sieve walks, to the bit
    for g, at_g in zip(grid, np.moveaxis(np.array(results), 1, 0)):
        assert at_g.shape == (2, k, n_classes) and at_g.dtype == np.float64
        chosen = primes[primes <= g]
        for i, s in enumerate(exponents):
            terms = chosen.astype(np.float64) ** -s
            expected = [math.fsum(terms[table[chosen % q] == c]) for c in range(n_classes)]
            assert np.abs(at_g[:, i] - expected).max() <= class_sum_bound(max(g, 2), q)


def per_class_power_loop(grid, n_classes, of_primes, exponents) -> np.ndarray:
    """Per-class sums of p^-s on the sieve as ``class_sums`` made them before
    ``prefix_sums``: a loop over classes, exponents and grid points per segment."""
    bounds = np.array(grid, dtype=np.int64)
    powers = [-float(s) for s in exponents]

    def per_segment(seg):
        classes = of_primes(seg)
        out = np.zeros((len(grid), len(powers), n_classes))
        for c in range(n_classes):
            primes = seg[classes == c]
            cuts = np.searchsorted(primes, bounds, side="right").tolist()
            pf = primes.astype(np.float64)
            for i, power in enumerate(powers):
                terms = pf ** power
                for g, cut in enumerate(cuts):
                    out[g, i, c] = terms[:cut].sum()
        return out

    total = np.zeros((len(grid), len(powers), n_classes))
    for part in segment_map(max(grid), per_segment):
        total += part
    return total


PREFIX_LIMIT = 2 * 10**6


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
       st.lists(st.integers(-3, PREFIX_LIMIT), min_size=1, max_size=4),
       st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3))
@example(7, 2, 0, 1, [SEGMENT_SPAN, SEGMENT_SPAN + 1, PREFIX_LIMIT], [1.5])  # a cut at the seam
@example(5, 3, 1, 2, [1, 4, 1000, 10**6], [0.5, 1.25])  # norms p**2
def test_prefix_sums_match_fsum_and_the_per_class_power_loop(q, n_classes, seed, power,
                                                             cuts, exponents):
    rng = np.random.default_rng(seed)
    table = rng.integers(-1, n_classes, q)  # -1: in no class
    weights = rng.random(q) * 2  # one weight per residue, so rows are not plain powers

    def of_primes(seg):
        pairs = []
        for c in range(n_classes):
            primes = seg[table[seg % q] == c]
            pf = primes.astype(np.float64)
            pairs.append((pf ** power, [weights[primes % q] * pf ** -s for s in exponents]))
        return pairs

    limit = math.isqrt(max(max(cuts), 0)) if power == 2 else max(cuts)
    got = prefix_sums(limit, cuts, of_primes)
    assert got.shape == (len(cuts), len(exponents), n_classes) and got.dtype == np.float64
    primes = DENSE[:np.searchsorted(DENSE, limit, side="right")]
    for c, (keys, rows) in enumerate(of_primes(primes)):
        for i, row in enumerate(rows):
            for g, cut in enumerate(cuts):
                terms = row[keys <= cut]
                # pairwise sums within segments, then at most three segment totals
                bound = (len(terms).bit_length() + 4) * 2.0**-53 * math.fsum(terms)
                assert abs(got[g, i, c] - math.fsum(terms)) <= bound
    if power == 1:
        classes = lambda seg: table[seg % q]
        old = per_class_power_loop(cuts, n_classes, classes, exponents)
        assert np.array_equal(sieve.class_sums(cuts, n_classes, classes, exponents=exponents),
                              old)  # to the bit


def test_class_sums_read_the_residue_table_only_on_the_recurrence():
    def classes(seg):
        if (seg < 2).any():  # np.arange(q): the residue table is being built
            raise AssertionError("residue table built")
        return np.zeros(len(seg), dtype=np.int64)

    got = sieve.class_sums([10**4], 1, classes, RECURRENCE_MODULUS_LIMIT + 1)
    assert got.tolist() == [[1229]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**32 + 5) | st.integers(-2**63, 2**63 - 1), max_size=20),
       st.integers(1, PRIME_LIMIT))
def test_residues_match_int64_remainder(values, q):
    primes = np.array(values, dtype=np.int64)
    assert residues(primes, q).tolist() == (primes % q).tolist()
    assert residues(primes[::2], q).tolist() == (primes[::2] % q).tolist()


@pytest.mark.parametrize("q", [1, 8, 11, 56, 99991, PRIME_LIMIT])
def test_residues_of_sieved_primes(q):
    primes = np.concatenate([prime_array(10**5), np.array([PRIME_LIMIT - 63, 2**32 - 5])])
    assert residues(primes, q).tolist() == (primes % q).tolist()
    assert residues(primes.astype(np.int32)[:-2], q).tolist() == (primes[:-2] % q).tolist()


def test_prime_divisors_and_totient():
    for n in range(1, 600):
        divisors = {p for p in range(2, n + 1) if n % p == 0 and is_prime(p)}
        assert prime_divisors(n) == divisors
        assert totient(n) == sum(1 for r in range(n) if math.gcd(r, n) == 1)
