import json
import math
from unittest import mock

import numpy as np
import pytest

import smolab.sieve
from smolab.cli import main
from smolab.density import (SMALL_PRIME_FLOOR, dirichlet_density_estimate,
                            frobenius_statistics, natural_density_estimate, prime_zeta)
from smolab.errors import LimitExceeded
from smolab.fields import FieldSpec
from smolab.report import canonical_json
from smolab.selectors import (AllPrimes, Complement, CongruenceSelector,
                              DegreeSelector, Intersection, NoPrimes, Union)
from smolab.sieve import PRIME_LIMIT, iter_prime_segments, segment_map, simple_sieve, unit_mask
from test_selectors import residue_set


def test_natural_density_all_is_one():
    est = natural_density_estimate(AllPrimes(), [10**4, 10**5])
    assert est.partial_values == (1.0, 1.0)


def test_natural_density_empty_is_zero():
    est = natural_density_estimate(NoPrimes(), [10**4])
    assert est.partial_values == (0.0,)


def test_natural_density_mod4_matches_direct_count():
    est = natural_density_estimate(CongruenceSelector(4, frozenset({1})), [10**6])
    primes = simple_sieve(10**6)
    hits = int((primes % 4 == 1).sum())
    assert est.diagnostics["selected_counts"] == [hits]
    assert abs(est.extrapolated - 0.5) < 0.01


def test_natural_density_complement_sums_to_one():
    sel = CongruenceSelector(4, frozenset({1}))
    grid = [10**4, 10**5]
    a = natural_density_estimate(sel, grid)
    b = natural_density_estimate(Complement(sel), grid)
    for x, y in zip(a.partial_values, b.partial_values):
        assert abs((x + y) - 1.0) < 1e-12


def test_natural_density_rejects_bad_grid():
    with pytest.raises(ValueError):
        natural_density_estimate(AllPrimes(), [100, 100])
    with pytest.raises(LimitExceeded):
        natural_density_estimate(AllPrimes(), [2 * 10**9])


def test_dirichlet_all_primes_normalized_to_one():
    est = dirichlet_density_estimate(AllPrimes(), [1.5, 1.25, 1.125, 1.0625], 10**6)
    assert abs(est.extrapolated - 1.0) < 0.05
    # literal ratios against log(1/(s-1)) drift below 1 at fixed cutoff
    assert all(0.5 < v < 1.5 for v in est.partial_values)
    assert est.diagnostics["truncation_bias"][-1] is True


def test_dirichlet_inert_norms_vanish():
    fs = FieldSpec(7, (6,))
    est = dirichlet_density_estimate(DegreeSelector(fs, 3), [1.5, 1.25, 1.0625], 10**6)
    assert est.extrapolated < 0.01
    # norm-weighted partial sums stay bounded: already convergent at s=1
    assert max(est.diagnostics["numerator_sums"]) < 0.5


def test_dirichlet_underlying_primes_of_inert_set():
    fs = FieldSpec(7, (6,))
    inert = np.flatnonzero(fs.residue_degrees(np.arange(7)) == 3)
    under = CongruenceSelector(7, frozenset(inert.tolist()))
    est = dirichlet_density_estimate(under, [1.5, 1.25, 1.0625], 10**6)
    assert abs(est.extrapolated - 2.0 / 3.0) < 0.03


def test_dirichlet_validates_grid():
    with pytest.raises(ValueError):
        dirichlet_density_estimate(AllPrimes(), [1.25, 1.5], 10**4)  # ascending
    with pytest.raises(ValueError):
        dirichlet_density_estimate(AllPrimes(), [2.5], 10**4)


def test_prime_zeta_at_two():
    scan = prime_zeta(2.0, 10**7)
    assert abs(scan.value - 0.45224742) < 1e-4  # independent value via mpmath below
    mp = pytest.importorskip("mpmath")
    assert abs(scan.value - float(mp.primezeta(2))) < 1e-6


def test_prime_zeta_tracks_log_pole():
    # deviation from log(1/(s-1)) stays bounded across the approach window
    for s in (1.5, 1.25, 1.1, 1.0625):
        scan = prime_zeta(s, 10**6)
        assert abs(scan.deviation) < 2.0


def test_prime_zeta_small_cutoff():
    assert prime_zeta(1.5, 1).value == 0.0


def test_prime_zeta_tail_bound_is_conservative():
    mp = pytest.importorskip("mpmath")
    scan = prime_zeta(1.5, 10**6)
    true_tail = float(mp.primezeta(1.5)) - scan.value
    assert 0 < true_tail < 3.0 * scan.tail_bound


def test_frobenius_statistics_two_classes():
    stats = frobenius_statistics(FieldSpec(4), 10**5)
    assert stats.class_labels == (1, 3)
    assert abs(stats.fractions[0] - 0.5) < 0.01
    assert abs(stats.fractions[1] - 0.5) < 0.01


def test_frobenius_statistics_mod8():
    stats = frobenius_statistics(FieldSpec(8), 10**6)
    assert stats.class_labels == (1, 3, 5, 7)
    for frac in stats.fractions:
        assert abs(frac - 0.25) < 0.01
    assert stats.first_hits == (17, 3, 5, 7)
    assert stats.first_hit_bound == 17


def test_frobenius_trivial_subgroup_single_class():
    stats = frobenius_statistics(FieldSpec(1), 10**4)
    assert len(stats.counts) == 1
    assert stats.fractions == (1.0,)


def test_worker_independence_of_estimates():
    sel = CongruenceSelector(8, frozenset({1}))
    one = dirichlet_density_estimate(sel, [1.5, 1.25], 10**6, workers=1)
    many = dirichlet_density_estimate(sel, [1.5, 1.25], 10**6, workers=8)
    assert one.partial_values == many.partial_values
    assert one.extrapolated == many.extrapolated


# -- counting by residue against the segment path ---------------------------------


def segment_natural_counts(selector, grid):
    """The per-segment counting of natural_density_estimate before residue counts."""
    excluded = np.array(sorted(selector.excluded), dtype=np.int64)
    bounds = np.array(grid, dtype=np.int64)

    def per_segment(seg):
        sel = selector.mask(seg)
        unram = ~np.isin(seg, excluded) if len(excluded) else np.ones(len(seg), dtype=bool)
        pos = np.searchsorted(seg, bounds, side="right")
        sel_c = np.cumsum(sel)
        un_c = np.cumsum(unram)
        take = lambda c: np.where(pos > 0, c[np.maximum(pos - 1, 0)], 0)
        return take(sel_c), take(un_c)

    sel_tot = np.zeros(len(grid), dtype=np.int64)
    un_tot = np.zeros(len(grid), dtype=np.int64)
    for sel_part, un_part in segment_map(grid[-1], per_segment):
        sel_tot += sel_part
        un_tot += un_part
    return sel_tot.tolist(), un_tot.tolist()


def segment_frobenius_counts(fs, cutoff):
    """The per-segment counting of frobenius_statistics before residue counts."""
    num_classes = len(fs.class_labels)

    def per_segment(seg):
        idx = fs.classes(seg)
        keep = idx >= 0
        counts = np.bincount(idx[keep], minlength=num_classes)
        first = np.full(num_classes, -1, dtype=np.int64)
        kept, kidx = seg[keep], idx[keep]
        for c in range(num_classes):
            where = np.flatnonzero(kidx == c)
            if len(where):
                first[c] = kept[where[0]]
        return counts, first

    counts = np.zeros(num_classes, dtype=np.int64)
    first_hits = np.full(num_classes, -1, dtype=np.int64)
    for part_counts, part_first in segment_map(cutoff, per_segment):
        counts += part_counts
        fill = (first_hits == -1) & (part_first != -1)
        first_hits[fill] = part_first[fill]
    return counts.tolist(), first_hits.tolist()


SEGMENT_MAP, LUCY_WALK = smolab.sieve.segment_map, smolab.sieve._lucy_walk


def force_path(m, recurrence: bool):
    """Send ``sieve.class_sums`` down one path whatever the cost model says,
    with the other path's kernel replaced by None so that reaching it fails."""
    m.setattr(smolab.sieve, "residue_counts_pay", lambda xs, q, exponents=None: recurrence)
    m.setattr(smolab.sieve, "segment_map", None if recurrence else SEGMENT_MAP)
    m.setattr(smolab.sieve, "_lucy_walk", LUCY_WALK if recurrence else None)


@pytest.fixture
def by_residue(monkeypatch):
    """Run the estimators on residue counts whatever the cost model says."""
    force_path(monkeypatch, True)


def on_segments(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        force_path(m, False)
        return fn(*args)


COMPOUND = Intersection(Union(CongruenceSelector(8, frozenset({1})),
                              CongruenceSelector(8, frozenset({3}))),
                        Complement(DegreeSelector(FieldSpec(7, (6,)), 1)))
NATURAL_CASES = [
    (AllPrimes(), [-7, 0, 1, 2, 3, 10**4, 10**6 + 3]),
    (NoPrimes(), [-1, 0, 1, 2, 10**5]),
    (CongruenceSelector(1, frozenset({0})), [0, 1, 2, 3, 5, 10**5]),
    (CongruenceSelector(4, frozenset({1})), [-3, 1, 2, 4, 5, 10**5, 2**20 + 7]),
    (Complement(CongruenceSelector(4, frozenset({1}))), [1, 2, 3, 10**5]),
    (DegreeSelector(FieldSpec(5), 1), [2, 5, 11, 12345]),
    (COMPOUND, [-1, 0, 7, 8, 10**4, 10**5]),
]


@pytest.mark.parametrize("selector,grid", NATURAL_CASES, ids=lambda v: str(v))
def test_natural_by_residue_is_byte_identical(selector, grid, by_residue, monkeypatch):
    fast = natural_density_estimate(selector, grid)
    assert (fast.diagnostics["selected_counts"],
            fast.diagnostics["reference_counts"]) == segment_natural_counts(selector, grid)
    slow = on_segments(monkeypatch, natural_density_estimate, selector, grid)
    assert canonical_json(fast) == canonical_json(slow)


FROBENIUS_CASES = [
    (FieldSpec(1), 10**4),
    (FieldSpec(1), 1),
    (FieldSpec(4), -5),
    (FieldSpec(8), 0),
    (FieldSpec(8), 2),
    (FieldSpec(8), 10),            # class 1 first hit is 17: stays -1
    (FieldSpec(8), 17),
    (FieldSpec(11), 10**5),
    (FieldSpec(35, (2,)), 10**5),  # a subgroup: classes are cosets
    (FieldSpec(101), 200),         # most classes still empty
    (FieldSpec(101), 2**20 + 100), # hits past the first segment
]


@pytest.mark.parametrize("fs,cutoff", FROBENIUS_CASES, ids=lambda v: str(v))
def test_frobenius_by_residue_is_byte_identical(fs, cutoff, by_residue, monkeypatch):
    fast = frobenius_statistics(fs, cutoff)
    assert (list(fast.counts), list(fast.first_hits)) == segment_frobenius_counts(fs, cutoff)
    slow = on_segments(monkeypatch, frobenius_statistics, fs, cutoff)
    assert canonical_json(fast) == canonical_json(slow)


MOD8_1 = CongruenceSelector(8, frozenset({1}))
# counts walk one row per coset of the stabilizer of their class table: mod 56
# COMPOUND's is {1, 27, 41, 43}, the units that are 1 or 3 mod 8 and +-1 mod
# 7; the subgroup <2> of (Z/35)* has index 2; mod 8 no unit but 1 fixes the
# class of 1 alone.  Power sums keep one row per unit and exponent
WALK_ROWS = [
    ("compound counts", lambda: natural_density_estimate(COMPOUND, [10**4, 10**5]), 6),
    ("frobstats N=35 H=<2>", lambda: frobenius_statistics(FieldSpec(35, (2,)), 10**5), 2),
    ("mod:8:1 counts", lambda: natural_density_estimate(MOD8_1, [10**5]), 4),
    ("mod:8:1 sums", lambda: dirichlet_density_estimate(MOD8_1, [1.5, 1.25, 1.1], 10**5), 12),
    ("compound sums", lambda: dirichlet_density_estimate(COMPOUND, [1.5, 1.25], 10**5), 48),
]


@pytest.mark.parametrize("run,rows", [case[1:] for case in WALK_ROWS],
                         ids=[case[0] for case in WALK_ROWS])
def test_recurrence_walks_one_row_per_coset_for_counts(run, rows, by_residue):
    with mock.patch.object(smolab.sieve, "_lucy_walk", wraps=LUCY_WALK) as walk:
        run()
    assert walk.call_count >= 1
    assert {call.args[2].shape[0] for call in walk.call_args_list} == {rows}


def reduced_tables(run) -> list:
    """The class tables over range(modulus) that ``class_sums`` reduces by during ``run()``."""
    with mock.patch.object(smolab.sieve, "_reduce_classes",
                           wraps=smolab.sieve._reduce_classes) as reduce:
        run()
    return [call.args[1].tolist() for call in reduce.call_args_list]


# class_sums derives the table from the one class function of a statistic:
# a table read off np.arange(q) alone would put the prime q of a prime modulus
# in a class (residue 0 of DegreeSelector(FieldSpec(5), 1)), and one keeping
# the non-units in a class would add zero cells to that class's float sums
@pytest.mark.parametrize("selector", [case[0] for case in NATURAL_CASES], ids=lambda v: str(v))
def test_derived_selector_table_is_the_residue_rule(selector, by_residue):
    modulus, residues = residue_set(selector)
    picked = np.zeros(modulus, dtype=bool)
    picked[list(residues)] = True
    expected = np.where(picked, 0, np.where(unit_mask(modulus), 1, -1))
    assert reduced_tables(lambda: natural_density_estimate(selector, [10**4])) == [
        expected.tolist()]


@pytest.mark.parametrize("fs", list(dict.fromkeys(case[0] for case in FROBENIUS_CASES)),
                         ids=lambda v: str(v))
def test_derived_frobenius_table_is_the_coset_table(fs, by_residue):
    assert reduced_tables(lambda: frobenius_statistics(fs, 10**4)) == [
        fs.classes(np.arange(fs.modulus)).tolist()]


ABOVE_CAP = [
    ("natural", lambda: natural_density_estimate(COMPOUND, [10**4, PRIME_LIMIT + 1])),
    ("dirichlet", lambda: dirichlet_density_estimate(MOD8_1, [1.5, 1.25], PRIME_LIMIT + 1)),
    ("frobstats", lambda: frobenius_statistics(FieldSpec(11), PRIME_LIMIT + 1)),
    ("prime_zeta", lambda: prime_zeta(1.5, PRIME_LIMIT + 1)),
]


@pytest.mark.parametrize("recurrence", [True, False], ids=["recurrence", "sieve"])
@pytest.mark.parametrize("run", [case[1] for case in ABOVE_CAP],
                         ids=[case[0] for case in ABOVE_CAP])
def test_density_entry_points_refuse_cutoffs_above_the_cap(run, recurrence, monkeypatch):
    # the one check is where the walk starts: residue_sums or segment_map
    force_path(monkeypatch, recurrence)
    with pytest.raises(LimitExceeded, match=rf"^prime enumeration capped at {PRIME_LIMIT}, "
                                            rf"got {PRIME_LIMIT + 1}$"):
        run()


@pytest.mark.parametrize("fs,cutoff", [(FieldSpec(11), 3 * 10**5),
                                       (FieldSpec(35, (2,)), 3 * 10**5),
                                       (FieldSpec(99991), 10**5)], ids=lambda v: str(v))
def test_frobenius_segment_path_matches_per_class_loop(fs, cutoff, monkeypatch):
    # N = 99991 is above the recurrence's modulus limit: 99990 classes, one segment
    stats = on_segments(monkeypatch, frobenius_statistics, fs, cutoff)
    assert (list(stats.counts), list(stats.first_hits)) == segment_frobenius_counts(fs, cutoff)


def test_frobenius_first_hits_sieve_a_prefix(monkeypatch):
    segments = []

    def counted(limit):
        for seg in iter_prime_segments(limit):
            segments.append(len(seg))
            yield seg

    monkeypatch.setattr(smolab.sieve, "iter_prime_segments", counted)  # under prime_stream
    monkeypatch.setattr(smolab.sieve, "segment_map", None)  # the sieve path is not taken
    stats = frobenius_statistics(FieldSpec(11), 10**8)
    assert len(segments) == 1
    # least prime = r mod 11, r = 1..10
    assert stats.first_hits == (23, 2, 3, 37, 5, 17, 7, 19, 31, 43)
    assert stats.total_unramified == 5761455 - 1


def test_huge_compound_modulus_is_never_lifted(capsys, monkeypatch):
    # lcm(1e8, 99999989) is near 1e16: the modulus alone sends this to the
    # sieve, where the lift over range(lcm) would never finish
    def no_lift(self):
        raise AssertionError("residue lift attempted")

    monkeypatch.setattr(Intersection, "analytic_density", no_lift)
    code = main(["density", "natural", "--selector", "mod:100000000:1 and mod:99999989:1",
                 "--x", "100"])
    diagnostics = json.loads(capsys.readouterr().out)["results"]["diagnostics"]
    assert code == 0
    assert diagnostics["selected_counts"] == [0]
    assert diagnostics["reference_counts"] == [25 - 2]  # 2 and 5 divide 1e8


# -- Dirichlet sums by the power-sum recurrence against the segment path -----------


def sum_bound(x: int) -> float:
    """Absolute gap allowed between the two paths' sums up to x.

    The recurrence is within (3 pi(sqrt(x)) + 64) eps (log x + 1) of the
    exact sum (``sieve.residue_sums``); the segment path adds up
    rounded terms, within eps times the sum per segment and per pairwise level,
    far less.  Twice the recurrence's bound covers both, and one more
    pi(sqrt(x)) eps covers the few primes below SMALL_PRIME_FLOOR taken off
    term by term."""
    eps = 2.0**-53
    return 2 * (4 * len(simple_sieve(math.isqrt(max(x, 1)))) + 64) * eps * (math.log(max(x, 2)) + 1)


def assert_reports_close(fast, slow, tol: float):
    """Equal ints, bools and strings; floats within ``tol`` relative to max(1, |v|)."""
    a, b = json.loads(canonical_json(fast)), json.loads(canonical_json(slow))

    def walk(x, y):
        if isinstance(x, dict):
            assert x.keys() == y.keys()
            for k in x:
                walk(x[k], y[k])
        elif isinstance(x, list):
            assert len(x) == len(y)
            for u, v in zip(x, y):
                walk(u, v)
        elif isinstance(x, float):
            assert type(y) is float and abs(x - y) <= tol * max(1.0, abs(y)), (x, y)
        else:
            assert type(x) is type(y) and x == y

    walk(a, b)


def on_recurrence(monkeypatch, fn, *args, accept=True):
    with monkeypatch.context() as m:
        force_path(m, accept)
        return fn(*args)


DIRICHLET_CASES = [
    (AllPrimes(), 10**5 + 3),
    (AllPrimes(), 2 * 10**6),
    (CongruenceSelector(8, frozenset({1})), 10**6),
    (CongruenceSelector(4, frozenset({3})), 99),
    (DegreeSelector(FieldSpec(7, (6,)), 1), 3 * 10**5),
    (DegreeSelector(FieldSpec(7, (6,)), 3), 10**6),
    (DegreeSelector(FieldSpec(7, (6,)), 3), 7),  # no prime of norm p**3 <= 7
    (DegreeSelector(FieldSpec(13), 2), 10**5),
    (COMPOUND, 10**6),
]


def segment_dirichlet_sums(selector, s_values, cutoff):
    """The four Dirichlet sums (numerator, floored numerator, reference,
    floored reference) term by term per segment, the floored sums summed
    directly: the reference both paths of the estimator are checked against."""
    s_arr = np.array(s_values)
    excluded = np.array(sorted(selector.excluded), dtype=np.int64)

    def one_sum(norms, mult):
        keep = norms <= cutoff
        if not keep.any():
            return np.zeros(len(s_values))
        n, m = norms[keep], mult[keep]
        return (m[None, :] * n[None, :] ** (-s_arr[:, None])).sum(axis=1)

    def per_segment(seg):
        chosen = seg[selector.mask(seg)]
        norms = selector.norms(chosen)
        mult = selector.place_multiplicity(chosen).astype(np.float64)
        sums = one_sum(norms, mult)
        unram = ~np.isin(seg, excluded) if len(excluded) else np.ones(len(seg), dtype=bool)
        kept = seg[unram].astype(np.float64)
        ref = (kept[None, :] ** (-s_arr[:, None])).sum(axis=1)
        above = chosen > SMALL_PRIME_FLOOR
        sums_floored = one_sum(norms[above], mult[above])
        kept_f = kept[kept > SMALL_PRIME_FLOOR]
        ref_floored = (kept_f[None, :] ** (-s_arr[:, None])).sum(axis=1)
        return np.stack([sums, sums_floored, ref, ref_floored])

    total = np.zeros((4, len(s_values)))
    for part in segment_map(cutoff, per_segment):
        total += part
    return total


@pytest.mark.parametrize("selector,cutoff", DIRICHLET_CASES, ids=lambda v: str(v))
def test_dirichlet_by_recurrence_matches_segments(selector, cutoff, monkeypatch):
    s_grid = [1.5, 1.25, 1.1]
    numerator, num_floored, reference, ref_floored = segment_dirichlet_sums(selector, s_grid,
                                                                            cutoff)
    bound = sum_bound(cutoff)
    # the report's ratios divide by log(1/(s-1)) >= log 2 and by the floored
    # reference sum, so their gaps scale by the inverse of the smaller one
    denominator = min([math.log(2.0), *ref_floored[ref_floored > 0]])
    normalized = np.divide(num_floored, ref_floored, out=np.zeros(len(s_grid)),
                           where=ref_floored > 0)
    estimates = [on_recurrence(monkeypatch, dirichlet_density_estimate, selector, s_grid,
                               cutoff, accept=accept) for accept in (True, False)]
    for est in estimates:
        d = est.diagnostics
        assert np.abs(np.array(d["numerator_sums"]) - numerator).max() <= bound
        assert np.abs(np.array(d["reference_sums"]) - reference).max() <= bound
        assert np.abs(np.array(d["normalized_ratios"]) - normalized).max() \
            <= 4 * bound / denominator
    assert_reports_close(*estimates, 4 * bound / denominator)


def test_dirichlet_empty_selector_is_exactly_zero(monkeypatch):
    est = on_recurrence(monkeypatch, dirichlet_density_estimate, NoPrimes(), [1.5, 1.25], 10**6)
    assert est.diagnostics["numerator_sums"] == [0.0, 0.0]
    assert est.partial_values == (0.0, 0.0)
    assert est.diagnostics["normalized_ratios"] == [0.0, 0.0]
    assert est.extrapolated == 0.0


def test_dirichlet_at_1e8_takes_the_recurrence(monkeypatch):
    # the prime-scan command: the cost model picks the recurrence, no sieve segment runs
    monkeypatch.setattr(smolab.sieve, "segment_map", None)
    est = dirichlet_density_estimate(CongruenceSelector(8, frozenset({3})), [1.5, 1.25, 1.1], 10**8)
    assert abs(est.extrapolated - 0.25) < 0.01


@pytest.mark.parametrize("s,cutoff", [(2.0, 10**6), (1.5, 3 * 10**6 + 1), (1.0625, 10**5)])
def test_prime_zeta_by_recurrence_matches_segments(s, cutoff, monkeypatch):
    fast = on_recurrence(monkeypatch, prime_zeta, s, cutoff)
    slow = on_recurrence(monkeypatch, prime_zeta, s, cutoff, accept=False)
    assert abs(fast.value - slow.value) <= sum_bound(cutoff)
    assert (fast.cutoff, fast.tail_bound) == (slow.cutoff, slow.tail_bound)
