import math
import tracemalloc
from fractions import Fraction

import smolab.experiments

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolab.errors import (DegreeMismatch, InfeasibleEpsilon, NotNested,
                           NotPrimeDegree)
from smolab.euler import grc_profile
from smolab.experiments import (_contains, compare_local, inert_experiment,
                                pole_order_estimate, rajan_criterion,
                                tempered_bound_check, tower_degree_check,
                                z_ratio)
from smolab.fields import FieldSpec
from smolab.hecke import parse_hecke_text, synthetic_tempered
from smolab.selectors import (AllPrimes, Complement, CongruenceSelector, DegreeSelector,
                              ExplicitList, Intersection, NoPrimes, Union)
from smolab.sieve import simple_sieve
from smolab.tau import tau_csv_text

ONES = lambda primes: np.ones(len(primes))


@pytest.fixture(scope="module")
def tau_rep():
    return parse_hecke_text(tau_csv_text(10**4), weight=12, label="tau")


@pytest.fixture(scope="module")
def synthetic():
    return synthetic_tempered(7)


# -- comparison -------------------------------------------------------------

def test_compare_self_is_empty(tau_rep):
    report = compare_local(tau_rep, tau_rep, 10**4)
    assert report.disagreement_primes == ()
    assert report.first_disagreement is None


def test_compare_detects_single_perturbation(tau_rep):
    rows = ["p,a_p"]
    from smolab.tau import generate_tau
    for p, v in sorted(generate_tau(500).items()):
        # bump one eigenvalue by ~1e-3 of the normalization scale: visible,
        # an integer +-1 would vanish below the 1e-9 comparison tolerance
        bump = round(101**5.5 * 1e-3) if p == 101 else 0
        rows.append(f"{p},{v + bump}")
    perturbed = parse_hecke_text("\n".join(rows), weight=12, label="tau-perturbed")
    report = compare_local(tau_rep, perturbed, 500)
    assert report.disagreement_primes == (101,)
    assert report.first_disagreement == 101


def test_compare_symmetric(tau_rep, synthetic):
    a = compare_local(tau_rep, synthetic, 2000)
    b = compare_local(synthetic, tau_rep, 2000)
    assert a.disagreement_primes == b.disagreement_primes
    assert a.disagreement_density > 0.9  # unrelated sources disagree a.e.
    assert a.annotations["refined_density_threshold"] == Fraction(1, 8)
    assert a.annotations["non_dihedral_density_threshold"] == Fraction(1, 4)
    assert a.annotations["general_degree_threshold"] == Fraction(1, 8)


def test_compare_memory_does_not_grow_with_the_scan():
    A, B = synthetic_tempered(1), synthetic_tempered(2)

    def peak(limit: int) -> int:
        tracemalloc.start()
        try:
            compare_local(A, B, limit)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    compare_local(A, B, 10**4)  # builds what the first scan caches
    assert peak(3 * 10**6) <= 1.5 * peak(10**6)


def test_compare_degree_mismatch(tau_rep):
    with pytest.raises(DegreeMismatch):
        compare_local(tau_rep, synthetic_tempered(1, degree=3), 100)


# -- pole order --------------------------------------------------------------

def test_pole_order_zeta_model_slope_near_one():
    est = pole_order_estimate(ONES, AllPrimes())
    assert 0.85 <= est.slope <= 1.15
    assert est.slope_interval[0] <= est.slope <= est.slope_interval[1]


def test_pole_order_density_halves_slope():
    est = pole_order_estimate(ONES, CongruenceSelector(4, frozenset({1})))
    assert 0.35 <= est.slope <= 0.65


def test_pole_order_empty_selector():
    est = pole_order_estimate(ONES, NoPrimes())
    assert est.slope == 0.0
    assert est.values == (0.0, 0.0, 0.0)


def test_pole_order_epsilon_feasibility():
    with pytest.raises(InfeasibleEpsilon):
        pole_order_estimate(ONES, AllPrimes(),
                            eps_grid=(Fraction(1, 30), Fraction(1, 10), Fraction(1, 8)))


def test_pole_order_cutoffs_are_coupled():
    est = pole_order_estimate(ONES, AllPrimes())
    for eps, cut in zip(est.eps_grid, est.cutoffs):
        assert cut == min(10**8, math.ceil(math.exp(1.5 / eps)))


def pole_sum_bound(x: int) -> float:
    """Absolute gap allowed between a recurrence sum up to x and the sieve's:
    twice the recurrence's (3 pi(sqrt(x)) + 64) eps (log x + 1), which also
    covers the sieve path's rounding (``sieve.residue_prime_power_sums``)."""
    eps = 2.0**-53
    return 2 * (3 * len(simple_sieve(math.isqrt(x))) + 64) * eps * (math.log(x) + 1)


def slope_gap_bound(L: np.ndarray, value_gap: float) -> float:
    """How far the fitted slope and its interval ends can move when every value
    moves by at most ``value_gap``: the slope is sum (L - mean) V / Sxx, and
    the standard error moves by at most the residuals' gap over sqrt(dof Sxx)."""
    centred = L - L.mean()
    sxx = float((centred**2).sum())
    slope_gap = value_gap * float(np.abs(centred).sum()) / sxx
    residual_gap = value_gap + slope_gap * float(np.abs(centred).max()) + value_gap
    stderr_gap = residual_gap * math.sqrt(len(L) / max(len(L) - 2, 1) / sxx)
    return slope_gap + 2 * stderr_gap


POLE_CASES = [
    AllPrimes(),
    CongruenceSelector(4, frozenset({1})),
    DegreeSelector(FieldSpec(7, (6,)), 1),
    DegreeSelector(FieldSpec(7, (6,)), 3),
    Intersection(Union(CongruenceSelector(8, frozenset({1})),
                       CongruenceSelector(8, frozenset({3}))),
                 Complement(DegreeSelector(FieldSpec(7, (6,)), 1))),
]
POLE_EPS = (Fraction(1, 8), Fraction(1, 6), Fraction(1, 5))  # cutoffs 162755, 8104, 1809


def pole_order_by(monkeypatch, accept, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(smolab.experiments, "residue_counts_pay",
                  lambda xs, q, exponents=None: accept(xs[0]))
        return pole_order_estimate(*args, **kwargs)


@pytest.mark.parametrize("selector", POLE_CASES, ids=lambda s: s.describe())
@pytest.mark.parametrize("accept", [lambda x: True, lambda x: x > 5000],
                         ids=["all-recurrence", "mixed"])
def test_pole_order_by_recurrence_matches_sieve(selector, accept, monkeypatch):
    fast = pole_order_by(monkeypatch, accept, None, selector, eps_grid=POLE_EPS)
    slow = pole_order_estimate(ONES, selector, eps_grid=POLE_EPS)
    assert (fast.eps_grid, fast.cutoffs, fast.data_limited, fast.diagnostics) == \
        (slow.eps_grid, slow.cutoffs, slow.data_limited, slow.diagnostics)
    gap = max(pole_sum_bound(c) for c in slow.cutoffs)
    assert all(abs(a - b) <= gap for a, b in zip(fast.values, slow.values))
    L = np.array([math.log(1.0 / e) for e in slow.eps_grid])
    ends = [(fast.slope, slow.slope), *zip(fast.slope_interval, slow.slope_interval)]
    assert all(abs(a - b) <= slope_gap_bound(L, gap) for a, b in ends)


def test_pole_order_refused_sums_keep_their_sieve_bits(monkeypatch):
    # values the model refuses are the sieve's floats to the bit, and the sieve
    # stops at the largest refused cutoff
    limits = []
    original = smolab.experiments.segment_map

    def recorded(limit, fn, workers=None):
        limits.append(limit)
        return original(limit, fn, workers=workers)

    monkeypatch.setattr(smolab.experiments, "segment_map", recorded)
    selector = CongruenceSelector(4, frozenset({3}))
    mixed = pole_order_by(monkeypatch, lambda x: x > 10**5, None, selector, eps_grid=POLE_EPS)
    assert limits == [8104]
    plain = pole_order_estimate(ONES, selector, eps_grid=POLE_EPS)
    assert mixed.cutoffs == (1809, 8104, 162755)
    assert mixed.values[:2] == plain.values[:2]


def test_pole_order_empty_selector_by_recurrence(monkeypatch):
    est = pole_order_by(monkeypatch, lambda x: True, None, NoPrimes())
    assert est.slope == 0.0
    assert est.values == (0.0, 0.0, 0.0)


def test_pole_order_cli_takes_the_recurrence_at_1e8(monkeypatch):
    # the prime-scan command's two large cutoffs need no sieve; the third,
    # exp(12) = 162755, is below the model's crossover and sieves one segment
    limits = []
    monkeypatch.setattr(smolab.experiments, "segment_map",
                        lambda limit, fn, workers=None: limits.append(limit) or [])
    est = pole_order_estimate(None, CongruenceSelector(4, frozenset({1})),
                              eps_grid=(Fraction(1, 16), Fraction(1, 12), Fraction(1, 8)))
    assert limits == [162755]
    assert est.cutoffs[1:] == (65659970, 10**8)
    assert est.values[2] > est.values[1] > 0


# -- tempered bound ------------------------------------------------------------

def test_tempered_bound_on_eigenvalue_data(tau_rep):
    report = tempered_bound_check(tau_rep, CongruenceSelector(8, frozenset({1})))
    assert report.density == Fraction(1, 4)
    assert report.bound == pytest.approx(1.0)
    assert report.estimate.slope <= report.bound + 0.1
    assert report.passed
    assert report.estimate.data_limited  # eigenvalue file stops at 1e4
    assert report.annotations["refined_density_threshold"] == Fraction(1, 8)


def test_tempered_bound_empty_set(tau_rep):
    report = tempered_bound_check(tau_rep, CongruenceSelector(8, frozenset()))
    assert report.bound == 0.0
    assert report.estimate.slope == pytest.approx(0.0)
    assert report.passed


def test_tempered_bound_full_set(tau_rep):
    report = tempered_bound_check(tau_rep, AllPrimes())
    assert report.bound == pytest.approx(4.0)
    assert report.passed


# -- ratio consistency ------------------------------------------------------------

def test_z_ratio_identical_inputs_give_one(tau_rep):
    report = z_ratio(tau_rep, tau_rep, CongruenceSelector(8, frozenset({1})), [1.25, 1.5])
    assert report.direct_values == (1.0, 1.0)
    assert report.log_values == pytest.approx((1.0, 1.0))


def test_z_ratio_empty_selector_is_one(tau_rep, synthetic):
    report = z_ratio(tau_rep, synthetic, NoPrimes(), [1.25])
    assert report.direct_values == (1.0,)
    assert report.primes_used == 0


def test_z_ratio_two_paths_agree(tau_rep, synthetic):
    report = z_ratio(tau_rep, synthetic, CongruenceSelector(8, frozenset({1})),
                     [1.25, 1.5])
    assert report.max_discrepancy < 1e-6
    assert report.positive_type_combined
    assert report.primes_used > 100


def test_z_ratio_degree_mismatch(tau_rep):
    with pytest.raises(DegreeMismatch):
        z_ratio(tau_rep, synthetic_tempered(1, degree=3), AllPrimes(), [1.5])


# -- summability --------------------------------------------------------------------

def test_rajan_cubic_inert_is_summable():
    fs = FieldSpec(7, (6,), label="cubic")
    report = rajan_criterion(DegreeSelector(fs, 3), 2)
    assert report.verdict == "summable"
    assert report.test_exponent == Fraction(6, 5)
    assert len(report.partial_sums) == 4
    # evidence: increments shrink fast on the convergent side
    inc = [b - a for a, b in zip(report.partial_sums, report.partial_sums[1:])]
    assert inc[-1] < inc[0]


def test_rajan_quadratic_inert_diverges():
    fs = FieldSpec(4, label="quadratic")
    report = rajan_criterion(DegreeSelector(fs, 2), 2)
    assert report.verdict == "divergent"
    assert report.test_exponent == Fraction(4, 5)


def test_rajan_matches_sign_of_exponent_test():
    for n in (2, 3):
        for N, gens, j in ((4, (), 2), (7, (6,), 3), (11, (10,), 5)):
            fs = FieldSpec(N, gens)
            if fs.degree != j:
                continue
            report = rajan_criterion(DegreeSelector(fs, j), n, cutoffs=(10**4, 10**5))
            expect = "summable" if Fraction(2 * j, n * n + 1) > 1 else "divergent"
            assert report.verdict == expect


def test_rajan_explicit_list():
    report = rajan_criterion(ExplicitList((2, 3, 5)), 2, cutoffs=(10, 100))
    assert report.verdict == "summable"
    assert report.partial_sums[-1] == pytest.approx(
        sum(p ** (-2 / 5) for p in (2, 3, 5)))


# -- abscissa arithmetic ----------------------------------------------------------------

def test_inert_experiment_bounds():
    lrs = grc_profile("LRS", 2)
    cases = {
        FieldSpec(4, label="p2"): (Fraction(11, 10), False),
        FieldSpec(7, (6,), label="p3"): (Fraction(14, 15), True),
        FieldSpec(11, (10,), label="p5"): (Fraction(4, 5), True),
    }
    for fs, (bound, sufficient) in cases.items():
        report = inert_experiment(fs, 2, lrs, probe_cutoffs=(10**4, 10**5))
        assert report.pair_bound == bound
        assert report.sufficient is sufficient


def test_inert_experiment_variant_threshold():
    report = inert_experiment(FieldSpec(4, label="p2"), 2, grc_profile("LRS", 2),
                              variant_delta=Fraction(7, 64),
                              probe_cutoffs=(10**4, 10**5))
    assert report.variant_bound == Fraction(23, 32)
    assert report.variant_sufficient is False


def test_inert_experiment_rejects_composite_degree():
    with pytest.raises(NotPrimeDegree):
        inert_experiment(FieldSpec(5, label="deg4"), 2, grc_profile("LRS", 2))


def test_inert_probe_attached():
    report = inert_experiment(FieldSpec(7, (6,), label="p3"), 2, grc_profile("LRS", 2),
                              probe_cutoffs=(10**4, 10**5, 10**6))
    assert report.probe.norm_exponent == 3
    assert len(report.probe.cutoffs) == 3


# -- towers ------------------------------------------------------------------------------

def test_tower_quadratic_inside_quartic():
    F = FieldSpec(5, (4,), label="inner")
    K = FieldSpec(5, label="outer")
    report = tower_degree_check(F, K, 10**4)
    assert report.p == 2 and report.m == 2
    assert report.counterexamples == ()
    assert report.checked > 0
    for prime, below, above in report.examples:
        assert below == 2 and above == 4


def test_tower_rejects_non_nested():
    with pytest.raises(NotNested):
        tower_degree_check(FieldSpec(5), FieldSpec(5, (4,)), 100)


def test_tower_rejects_wrong_power():
    # [K:F] = 3 over degree-2 subfield: not a 2-power chain
    F = FieldSpec(7, (6,))   # degree 3... subfield degree must be prime p=3
    K = FieldSpec(7)         # degree 6 = 3 * 2: not 3^m
    with pytest.raises(NotNested):
        tower_degree_check(F, K, 100)


def test_tower_split_primes_not_counted():
    F = FieldSpec(5, (4,), label="inner")
    K = FieldSpec(5, label="outer")
    report = tower_degree_check(F, K, 10**4)
    from smolab.sieve import prime_array
    split = [int(p) for p in prime_array(10**4) if p % 5 in (1, 4)]
    assert report.checked + len(split) + 1 == len(prime_array(10**4))  # +1 for p=5


def _lift_subgroup(fs: FieldSpec, modulus: int) -> frozenset[int]:
    """The former nesting check: H over range(modulus), residue by residue."""
    return frozenset(r for r in range(modulus)
                     if math.gcd(r, modulus) == 1 and (r % fs.modulus) in fs.subgroup)


@st.composite
def field_specs(draw, modulus=None):
    N = modulus or draw(st.integers(1, 40))
    units = [r for r in range(1, N + 1) if math.gcd(r, N) == 1]
    return FieldSpec(N, tuple(draw(st.lists(st.sampled_from(units), max_size=2))))


@st.composite
def field_pairs(draw):
    F = draw(field_specs())
    # a multiple of N_F as often as not, so nested pairs are common
    multiple = draw(st.integers(1, 3)) * F.modulus
    K = draw(field_specs(modulus=draw(st.sampled_from([multiple, None]))))
    return F, K


@settings(max_examples=300, deadline=None)
@given(field_pairs())
def test_nesting_matches_the_lifted_subgroups(pair):
    F, K = pair
    modulus = math.lcm(F.modulus, K.modulus)
    assert _contains(K, F) == (_lift_subgroup(K, modulus) <= _lift_subgroup(F, modulus))
