import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolab import euler
from smolab.errors import (NormMismatch, NotPositiveType, PoleHit,
                           UnknownProfile, UsageError)
from smolab.euler import (EulerProduct, LocalFactor, convergence_probe,
                          dedekind_product, eval_local, first_pole_line,
                          grc_profile, key_observation_abscissa,
                          landau_region_check, log_expansion,
                          positive_type_check, rankin_selberg_local,
                          rs_leading_coefficient, zeta_product)
from smolab.fields import FieldSpec
from smolab.hecke import parse_hecke_text, synthetic_tempered, synthetic_with_profile
from smolab.selectors import (AllPrimes, CongruenceSelector, DegreeSelector, ExplicitList,
                              NoPrimes)
from smolab.sieve import iter_prime_segments, simple_sieve
from smolab.tau import tau_csv_text
from test_fields import multiplicative_order_oracle, subgroup_by_search

UNIT = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)
NONZERO = st.complex_numbers(min_magnitude=0.25, max_magnitude=4.0,
                             allow_nan=False, allow_infinity=False)


def test_eval_simple_values():
    assert eval_local(LocalFactor(q=2, alphas=(1,), degree=1), 1.0) == pytest.approx(2.0)
    val = eval_local(LocalFactor(q=3, alphas=(1, -1), degree=2), 2.0)
    assert val == pytest.approx(81 / 80)


def test_eval_trivial_factor_is_one():
    assert eval_local(LocalFactor(q=7, alphas=(), degree=2), 1.23) == 1.0


def test_eval_raises_at_pole():
    with pytest.raises(PoleHit):
        eval_local(LocalFactor(q=2, alphas=(2.0,), degree=1), 1.0)


@given(st.lists(NONZERO, min_size=1, max_size=4), st.floats(1.5, 3.0))
@settings(max_examples=60, deadline=None)
def test_eval_never_zero_and_reciprocal_is_polynomial(alphas, s):
    f = LocalFactor(q=5, alphas=tuple(alphas), degree=4)
    try:
        value = eval_local(f, s)
    except PoleHit:
        return
    assert value != 0
    qs = 5.0 ** (-s)
    recip = 1.0
    for a in alphas:
        recip *= 1 - a * qs
    assert recip * value == pytest.approx(1.0, rel=1e-9)


def test_first_pole_line_values():
    assert first_pole_line(LocalFactor(q=4, alphas=(2, 0.5), degree=2)) == pytest.approx(0.5)
    assert first_pole_line(LocalFactor(q=9, alphas=(1j, -1j), degree=2)) == pytest.approx(0.0)
    assert first_pole_line(LocalFactor(q=3, alphas=(), degree=1)) is None


def test_rankin_selberg_matches_pole_rule():
    f = LocalFactor(q=2, alphas=(2 ** 0.25,), degree=1)
    rs = rankin_selberg_local(f, f)
    assert first_pole_line(rs) == pytest.approx(0.5)
    g = LocalFactor(q=3, alphas=(1,), degree=1)
    with pytest.raises(NormMismatch):
        rankin_selberg_local(f, g)


@given(st.lists(UNIT, min_size=1, max_size=3), st.lists(UNIT, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_paired_pole_line_is_max_of_products(thetas_a, thetas_b):
    alphas = tuple(2.0 * cmath.exp(1j * t) for t in thetas_a)   # |a| = 2
    betas = tuple(0.5 * cmath.exp(1j * t) for t in thetas_b)    # |b| = 1/2
    f = LocalFactor(q=7, alphas=alphas, degree=3)
    g = LocalFactor(q=7, alphas=betas, degree=3)
    rs = rankin_selberg_local(f, g)
    expected = max(math.log(abs(a * b.conjugate())) / math.log(7)
                   for a in alphas for b in betas)
    assert first_pole_line(rs) == pytest.approx(expected)


@given(st.lists(NONZERO, min_size=1, max_size=4), st.floats(-0.5, 0.5))
@settings(max_examples=40, deadline=None)
def test_pole_line_shift_covariance(alphas, t):
    f = LocalFactor(q=4, alphas=tuple(alphas), degree=4)
    shifted = LocalFactor(q=4, alphas=tuple(a * 4**t for a in alphas), degree=4)
    assert first_pole_line(shifted) == pytest.approx(first_pole_line(f) + t, abs=1e-9)


def test_tempered_pairing_of_conjugate_pair():
    a = cmath.exp(0.7j)
    f = LocalFactor(q=5, alphas=(a, a.conjugate()), degree=2)
    rs = rankin_selberg_local(f, f)
    values = sorted(rs.alphas, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    expect = sorted([1, 1, a * a, (a * a).conjugate()],
                    key=lambda z: (round(complex(z).real, 9), round(complex(z).imag, 9)))
    assert np.allclose(values, expect)
    assert all(abs(abs(a) - 1.0) <= 1e-9 for a in rs.alphas)


def test_rs_leading_coefficient_examples():
    assert rs_leading_coefficient(LocalFactor(q=3, alphas=(1, -1), degree=2)).conjugated == 0
    assert rs_leading_coefficient(LocalFactor(q=3, alphas=(1, 1), degree=2)).conjugated == 4
    both = rs_leading_coefficient(LocalFactor(q=3, alphas=(1j, -1j), degree=2))
    assert both.conjugated == 0 and both.unconjugated == 0


@given(st.lists(UNIT, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_conjugated_coefficient_is_modulus_squared(thetas):
    alphas = tuple(cmath.exp(1j * t) for t in thetas)
    coeff = rs_leading_coefficient(LocalFactor(q=11, alphas=alphas, degree=2))
    assert coeff.conjugated.real == pytest.approx(abs(sum(alphas)) ** 2)
    assert abs(coeff.conjugated.imag) < 1e-9
    assert abs(coeff.conjugated) <= len(alphas) ** 2 + 1e-9


def by_index(le) -> dict[int, complex]:
    """A log expansion's coefficients keyed by their prime-power index."""
    return dict(zip(le.indices.tolist(), le.coefficients.tolist()))


def constant_places(alphas):
    """Place source with one place of norm p and the given parameters at every p."""
    params = np.array(alphas, dtype=np.complex128)

    def places(primes):
        return (np.ones((len(primes), 1), dtype=np.int64),
                np.broadcast_to(params, (len(primes), 1, len(params))))

    return places


def test_zeta_log_expansion_coefficients():
    coefficients = by_index(log_expansion(zeta_product(), AllPrimes(), 50))
    assert coefficients[2] == 1
    assert coefficients[4] == pytest.approx(0.5)
    assert coefficients[8] == pytest.approx(1 / 3)
    assert coefficients[27] == pytest.approx(1 / 3)
    assert 6 not in coefficients  # supported on prime powers only


def test_empty_selector_gives_empty_expansion():
    coefficients = by_index(log_expansion(zeta_product(), NoPrimes(), 1000))
    assert coefficients == {}


def test_self_pairing_coefficients_are_power_sum_squares():
    a = cmath.exp(0.3j)
    factor = LocalFactor(q=2, alphas=(a, a.conjugate()), degree=2)
    paired = rankin_selberg_local(factor, factor)
    product = EulerProduct(places=constant_places(paired.alphas),
                           universe=ExplicitList((2,)))
    coefficients = by_index(log_expansion(product, AllPrimes(), 2**10))
    for m in range(1, 10):
        coeff = coefficients[2**m]
        expected = abs(a**m + a.conjugate() ** m) ** 2 / m
        assert coeff.real == pytest.approx(expected, abs=1e-12)
        assert coeff.real >= -1e-9


def test_positive_type_examples():
    assert positive_type_check(zeta_product(), AllPrimes(), 10**4) == (True, None)
    assert positive_type_check(dedekind_product(FieldSpec(4)), AllPrimes(), 10**4)[0]
    bad = EulerProduct(places=constant_places((-1.0,)), universe=AllPrimes())
    ok, first = positive_type_check(bad, AllPrimes(), 100)
    assert not ok and first == 2


def test_landau_region_check():
    report = landau_region_check(zeta_product(), AllPrimes(), [2.0, 1.5], 10**4)
    assert all(v >= 1.0 for v in report.values)
    bad = EulerProduct(places=constant_places((-1.0,)), universe=AllPrimes())
    with pytest.raises(NotPositiveType):
        landau_region_check(bad, AllPrimes(), [2.0], 100)


def test_landau_region_check_expands_once(monkeypatch):
    calls = []
    expand = euler.log_expansion
    monkeypatch.setattr(euler, "log_expansion", lambda *args: calls.append(args) or expand(*args))
    landau_region_check(zeta_product(), AllPrimes(), [2.0], 1000)
    assert len(calls) == 1


# -- the array expansion against the per-prime walk it replaced --------------------------

REFERENCE_INDEX = 10**5


def reference_log_expansion(factors_at, primes, max_index) -> dict[int, complex]:
    """One LocalFactor walk per prime, power sums added into a dict by index."""
    coefficients = {}
    for p in primes:
        for f in factors_at(p):
            power, m = f.q, 1
            while power <= max_index:
                coefficients[power] = coefficients.get(power, 0j) + sum(a**m for a in f.alphas) / m
                m += 1
                power *= f.q
    return coefficients


def self_pairing_factors(rep):
    def factors_at(p):
        local = LocalFactor(q=p, alphas=rep.satake(p), degree=rep.degree)
        return (rankin_selberg_local(local, local),)
    return factors_at


def dedekind_factors(fs):
    """g = degree / f places of norm p^f at an unramified p, f by the order oracle."""
    H = subgroup_by_search(fs.modulus, fs.subgroup_generators)

    def factors_at(p):
        assert math.gcd(p, fs.modulus) == 1
        f = multiplicative_order_oracle(p, fs.modulus, H)
        return tuple(LocalFactor(q=p**f, alphas=(1.0,), degree=1) for _ in range(fs.degree // f))
    return factors_at


MIXED = ((0.5 + 1j, -1.0), (2.0j, 0.0))  # a place of norm p and one of norm p^2


def mixed_places(primes):
    n = len(primes)
    return (np.tile([1, 2], (n, 1)),
            np.broadcast_to(np.array(MIXED, dtype=np.complex128), (n, 2, 2)))


def mixed_factors(p):
    return (LocalFactor(q=p, alphas=MIXED[0], degree=2),
            LocalFactor(q=p * p, alphas=MIXED[1][:1], degree=1))


def reference_case(name):
    if name == "zeta":
        return zeta_product(), dedekind_factors(FieldSpec(1)), AllPrimes()
    if name == "dedekind-8":
        return dedekind_product(FieldSpec(8)), dedekind_factors(FieldSpec(8)), AllPrimes()
    if name == "dedekind-7-cubic":
        fs = FieldSpec(7, (6,))
        return (dedekind_product(fs), dedekind_factors(fs),
                CongruenceSelector(7, frozenset({1, 2, 3})))
    if name == "tau":
        tau = parse_hecke_text(tau_csv_text(2000), weight=12, label="tau")
        return tau.self_rankin_selberg(), self_pairing_factors(tau), AllPrimes()
    if name in ("synthetic", "profile"):
        # |a| up to p^(7/64): off the unit circle conjugation is not a relabelling,
        # and the coefficients stay small enough for the absolute bound
        rep = synthetic_tempered(1) if name == "synthetic" else synthetic_with_profile(
            2, grc_profile("KSa-BB"))
        return rep.self_rankin_selberg(), self_pairing_factors(rep), AllPrimes()
    return EulerProduct(places=mixed_places, universe=AllPrimes()), mixed_factors, AllPrimes()


@pytest.mark.parametrize("name", ["zeta", "dedekind-8", "dedekind-7-cubic", "tau",
                                  "synthetic", "profile", "mixed"])
def test_log_expansion_matches_per_prime_reference(name):
    product, factors_at, selector = reference_case(name)
    limit = min(REFERENCE_INDEX, product.universe.largest_prime or REFERENCE_INDEX)
    primes = [p for p in simple_sieve(limit).tolist()
              if p not in product.ramified and selector.contains(p)]
    expected = reference_log_expansion(factors_at, primes, REFERENCE_INDEX)
    got = by_index(log_expansion(product, selector, REFERENCE_INDEX))
    assert list(got) == sorted(expected)
    assert max(abs(got[n] - expected[n]) for n in expected) <= 1e-12


def test_dedekind_coefficients_of_q_i_are_character_sums():
    # log zeta_K = sum over places: (1 + chi_-4(p)^m) / m at p^m for odd p
    got = by_index(log_expansion(dedekind_product(FieldSpec(4)), AllPrimes(), REFERENCE_INDEX))
    expected = {}
    for p in simple_sieve(REFERENCE_INDEX).tolist()[1:]:
        chi = 1 if p % 4 == 1 else -1
        m = 1
        while p**m <= REFERENCE_INDEX:
            expected[p**m] = (1 + chi**m) / m
            m += 1
    assert set(got) <= set(expected)
    assert all(abs(got.get(n, 0) - value) <= 1e-12 for n, value in expected.items())


def test_large_norm_exponents_do_not_overflow():
    def places(primes):
        n = len(primes)
        return np.tile([1, 40, 70], (n, 1)), np.ones((n, 3, 1), dtype=np.complex128)

    product = EulerProduct(places=places, universe=AllPrimes())
    got = by_index(log_expansion(product, AllPrimes(), 10**6))
    assert got == by_index(log_expansion(zeta_product(), AllPrimes(), 10**6))


@pytest.mark.parametrize("rep", [synthetic_tempered(3, degree=2), synthetic_tempered(4, degree=3),
                                 synthetic_with_profile(5, grc_profile("JS")),
                                 synthetic_with_profile(6, grc_profile("KSh"), degree=3)],
                         ids=lambda rep: rep.label)
def test_synthetic_self_pairings_are_positive_type(rep):
    assert positive_type_check(rep.self_rankin_selberg(), AllPrimes(), 10**6) == (True, None)


def test_abscissa_arithmetic():
    assert key_observation_abscissa(0, 2) == Fraction(1, 2)
    assert key_observation_abscissa(Fraction(1, 4), 2) == Fraction(3, 4)
    assert key_observation_abscissa(1 - 2 / 5, 3) == pytest.approx(0.6 + 1 / 3)


def test_profile_exponents():
    assert grc_profile("KSa-BB").exponent == Fraction(7, 64)
    assert grc_profile("LRS", 2).exponent == Fraction(3, 10)
    assert grc_profile("JS").exponent == Fraction(1, 2)
    assert grc_profile("GJ").exponent == Fraction(1, 4)
    assert grc_profile("KSh").exponent == Fraction(1, 9)
    with pytest.raises(UnknownProfile):
        grc_profile("nope")
    with pytest.raises(UnknownProfile):
        grc_profile("LRS")


def test_profile_exponents_totally_ordered():
    chain = [grc_profile("KSa-BB"), grc_profile("KSh"), grc_profile("GJ"),
             grc_profile("LRS", 2), grc_profile("JS")]
    values = [p.exponent for p in chain]
    assert values == sorted(values)
    assert grc_profile("LRS", 2).exponent == Fraction(3, 10)


def test_probe_growth_separates_the_edge():
    fs = FieldSpec(4)
    selector = DegreeSelector(fs, 2)
    probe = convergence_probe(selector, 0.25, [0.80, 0.70], [10**5, 10**6, 10**7])
    assert probe.analytic_abscissa == pytest.approx(0.75)
    up = probe.partial_sums[0.80]
    assert up[0] < up[1] < up[2]  # monotone in cutoff
    # convergent side: per-decade increments shrink
    assert (up[2] - up[1]) < (up[1] - up[0])
    down = probe.partial_sums[0.70]
    assert (down[2] - down[1]) > 1e-2  # divergent side keeps growing
    assert probe.classifications[0.70] == "growing"


def test_probe_bounded_by_majorant_in_the_convergence_region():
    fs = FieldSpec(4)
    selector = DegreeSelector(fs, 2)
    sigma, delta, j = 0.85, 0.25, 2
    probe = convergence_probe(selector, delta, [sigma], [10**6, 10**7])
    majorant = sum(m ** (-(sigma - delta) * j) for m in range(1, 10**6))
    assert probe.partial_sums[sigma][-1] <= majorant


def test_probe_trivial_case_stabilizes():
    probe = convergence_probe(AllPrimes(), 0.0, [1.5], [10**5, 10**6, 10**7])
    assert probe.classifications[1.5] == "growing" or probe.partial_sums[1.5][-1] > 0
    # at sigma comfortably beyond the edge the tail is tiny per decade
    diff = probe.partial_sums[1.5][-1] - probe.partial_sums[1.5][-2]
    assert diff < 1e-2


def probe_sums_by_flushing(selector, delta, sigmas, cuts) -> dict:
    """The probe's partial sums as ``convergence_probe`` made them before
    ``prefix_sums``: a running total per sigma over the segments, and each
    cutoff flushed in the segment where it ends."""
    running = {s: 0.0 for s in sigmas}
    cut_idx = {s: 0 for s in sigmas}
    pending = {s: [] for s in sigmas}
    for seg in iter_prime_segments(selector.max_prime_for_norm(cuts[-1])):
        chosen = seg[selector.mask(seg)]
        if len(chosen) == 0:
            continue
        norms = selector.norms(chosen)
        mult = selector.place_multiplicity(chosen).astype(np.float64)
        for s in sigmas:
            x = norms ** (-(s - delta))
            term = np.where(x < 1.0, -np.log1p(-np.clip(x, None, 1.0 - 1e-15)), np.inf)
            while cut_idx[s] < len(cuts) and cuts[cut_idx[s]] < norms[-1]:
                inside = norms <= cuts[cut_idx[s]]
                pending[s].append(running[s] + float((mult[inside] * term[inside]).sum()))
                cut_idx[s] += 1
            running[s] += float((mult * term).sum())
    for s in sigmas:
        pending[s] += [running[s]] * (len(cuts) - cut_idx[s])
    return {s: tuple(v) for s, v in pending.items()}


@pytest.mark.parametrize("selector,delta,sigmas,cuts", [
    (DegreeSelector(FieldSpec(4), 2), 0.25, (0.8, 0.7), (10**5, 10**6, 10**7)),
    (DegreeSelector(FieldSpec(7, (6,)), 1), 0.25, (0.8, 1.2), (10**5, 1 << 20, 3 * 10**6)),
    (DegreeSelector(FieldSpec(7, (6,)), 3), 0.25, (0.8,), (1, 10**6, 10**9)),
    (AllPrimes(), 0.5, (0.5, 1.5), (10, 2 * 10**6)),  # sigma = delta: infinite terms
    (ExplicitList((2, 3, 5, 1009)), 0.1, (0.9,), (10, 100, 2000)),
    (NoPrimes(), 0.0, (1.5,), (10**4,)),
], ids=lambda v: v.describe() if hasattr(v, "describe") else None)
def test_probe_keeps_its_flushed_sums(selector, delta, sigmas, cuts):
    probe = convergence_probe(selector, delta, sigmas, cuts)
    assert probe.partial_sums == probe_sums_by_flushing(selector, delta, sigmas, cuts)


def test_probe_repeated_sigma_is_summed_once():
    selector = DegreeSelector(FieldSpec(4), 2)
    twice = convergence_probe(selector, 0.25, [0.8, 0.8], [10**4, 10**6])
    assert twice.partial_sums == convergence_probe(selector, 0.25, [0.8], [10**4, 10**6]).partial_sums


@pytest.mark.parametrize("cutoffs,sigmas", [((-5,), (0.8,)), ((0, 10**4), (0.8,)),
                                            ((10**4,), ())])
def test_probe_refuses_cutoffs_below_one_and_no_sigma(cutoffs, sigmas):
    with pytest.raises(UsageError):
        convergence_probe(DegreeSelector(FieldSpec(7, (6,)), 3), 0.25, sigmas, cutoffs)


def test_validation_errors():
    with pytest.raises(ValueError):
        LocalFactor(q=1, alphas=(1,), degree=1)
    with pytest.raises(ValueError):
        LocalFactor(q=2, alphas=(0,), degree=1)
    with pytest.raises(ValueError):
        LocalFactor(q=2, alphas=(1, 1, 1), degree=2)
