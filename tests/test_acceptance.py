"""Acceptance gate: one test per numbered criterion.

Each test prints a single ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts the criterion at its stated
tolerance.

Criterion 6 once asked the sigma = 0.80 probe sums over the primes inert in
Q(i) (norm q = p^2) to move by less than 1e-6 between norm cutoffs 1e6 and
1e7.  That is false of the series itself, whatever computes it: sigma = 0.80
lies only 0.05 right of the edge 0.75, the 138 inert primes 1000 < p <= 3162
move the sum by 3.558e-2, the tail beyond norm 1e7 is still about 0.15, and
a decade of norm first moves the sum by less than 1e-6 near norms of 10^76.
The criterion is restated in its test's docstring.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from smolab.characters import (agreement_fraction, character_table,
                               distinguishing_threshold, extremal_search)
from smolab.density import (dirichlet_density_estimate, frobenius_statistics,
                            natural_density_estimate, prime_zeta)
from smolab.euler import (EulerProduct, convergence_probe, grc_profile,
                          landau_region_check, log_expansion,
                          positive_type_check)
from smolab.experiments import (compare_local, inert_experiment,
                                pole_order_estimate, rajan_criterion,
                                tempered_bound_check, tower_degree_check,
                                z_ratio)
from smolab.fields import FieldSpec
from smolab.groups import bundled_catalog
from smolab.hecke import parse_hecke_text, synthetic_tempered
from smolab.report import canonical_json
from smolab.selectors import (AllPrimes, CongruenceSelector, DegreeSelector,
                              ExplicitList)
from smolab.sieve import simple_sieve
from smolab.tau import generate_tau, tau_csv_text

ONES = lambda primes: np.ones(len(primes))


def verdict(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def catalog():
    return bundled_catalog()


@pytest.fixture(scope="module")
def tables(catalog):
    return {name: character_table(G) for name, G in catalog.items()}


@pytest.fixture(scope="module")
def tau_rep():
    return parse_hecke_text(tau_csv_text(10**4), weight=12, label="tau")


def test_criterion_01_distinguishing_sweep(catalog, tables):
    start = time.time()
    assert len(catalog) >= 20
    violations = []
    pairs = 0
    for name, G in catalog.items():
        assert G.order <= 64
        table = tables[name]
        for n in set(table.degrees):
            for i, j in combinations(table.rows_of_degree(n), 2):
                pairs += 1
                frac = agreement_fraction(table.rows[i], table.rows[j], G)
                if frac > distinguishing_threshold(n):
                    violations.append((name, n, frac))
    elapsed = time.time() - start
    ok = not violations and elapsed < 60
    assert verdict(1, ok, f"{len(catalog)} groups, {pairs} same-degree pairs, "
                          f"{len(violations)} violations, {elapsed:.1f}s")


def test_criterion_02_sharpness_witness(catalog, tables):
    start = time.time()
    best = Fraction(0)
    witness = None
    for name, G in catalog.items():
        if G.order & (G.order - 1):
            continue  # 2-groups only
        found = extremal_search(G, 2)
        if found and found.fraction > best:
            best, witness = found.fraction, (name, found.pair)
    elapsed = time.time() - start
    ok = best == Fraction(7, 8) and elapsed < 60
    assert verdict(2, ok, f"max degree-2 agreement {best} at {witness}, {elapsed:.1f}s")


def test_criterion_03_orthogonality(catalog, tables):
    worst = 0.0
    exact = True
    for name, G in catalog.items():
        table = tables[name]
        sizes = np.array(table.partition.class_sizes, dtype=float)
        vals = np.array([r.values for r in table.rows])
        gram = (vals * sizes) @ vals.conj().T
        worst = max(worst, float(np.max(np.abs(gram - G.order * np.eye(len(vals)))))
                    / G.order)
        exact = exact and sum(r.degree**2 for r in table.rows) == G.order
    ok = worst <= 1e-6 and exact
    assert verdict(3, ok, f"max orthogonality defect {worst:.2e} x |G|, "
                          f"sum of squared degrees exact: {exact}")


def test_criterion_04_log_pole_offset_bounded():
    start = time.time()
    devs = {}
    for s in (1.5, 1.25, 1.1, 1.0625):
        devs[s] = abs(prime_zeta(s, 10**7).deviation)
    elapsed = time.time() - start
    worst = max(devs.values())
    ok = worst < 2.0 and elapsed < 30
    assert verdict(4, ok, f"max |sum p^-s - log(1/(s-1))| = {worst:.3f} at 1e7, "
                          f"{elapsed:.1f}s")


def test_criterion_05_densities():
    nat = natural_density_estimate(CongruenceSelector(4, frozenset({1})), [10**6])
    stats = frobenius_statistics(FieldSpec(8), 10**6)
    nat_ok = abs(nat.extrapolated - 0.5) < 0.01
    frob_ok = all(abs(f - 0.25) < 0.01 for f in stats.fractions)
    ok = nat_ok and frob_ok
    assert verdict(5, ok, f"density(1 mod 4)={nat.extrapolated:.4f}, "
                          f"mod-8 classes {[round(f, 4) for f in stats.fractions]}")


def test_criterion_06_convergence_probe():
    """The probe separates the two sides of the edge delta + 1/j, quickly.

    Inert primes of Q(i) (j = 2, q = p^2) with delta = 1/4, so the edge is
    0.75; sigma = 0.80 lies right of it and sigma = 0.70 left.  Asserted:
    the analytic edge; every partial sum against an independent pure-Python
    sum to relative 1e-12; growth > 1e-2 on the divergent side; on the
    convergent side, movement below a closed-form bound on the whole tail
    beyond norm 1e6 and below the divergent growth; under 60 s.
    """
    start = time.time()
    delta, up_sigma, down_sigma = 0.25, 0.80, 0.70
    cutoffs = [10**6, 10**7]
    selector = DegreeSelector(FieldSpec(4), 2)
    probe = convergence_probe(selector, delta, [up_sigma, down_sigma], cutoffs)
    elapsed = time.time() - start

    edge_ok = probe.analytic_abscissa == 0.75 and down_sigma < 0.75 < up_sigma

    # oracle: inert primes p = 3 mod 4 from the plain sieve, norm p^2 <= cutoff
    inert = [int(p) for p in simple_sieve(math.isqrt(cutoffs[-1])) if p % 4 == 3]

    def oracle(sigma: float, cutoff: int) -> float:
        root = math.isqrt(cutoff)
        return math.fsum(-math.log1p(-p ** (-2 * (sigma - delta)))
                         for p in inert if p <= root)

    mismatches = []
    for s in (up_sigma, down_sigma):
        for got, cutoff in zip(probe.partial_sums[s], cutoffs):
            want = oracle(s, cutoff)
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
                mismatches.append((s, cutoff, got, want))

    up = probe.partial_sums[up_sigma]
    down = probe.partial_sums[down_sigma]
    movement = abs(up[-1] - up[-2])
    growth = down[-1] - down[-2]
    # Whole tail beyond norm 1e6 (p > P = 1000), a = sigma - delta:
    # -log(1 - y) <= y / (1 - y) with y = p^(-2a) < 10^(-6a), and the sum of
    # n^(-2a) over n = 3 mod 4, n > P is at most (1/4) int_{P-4}^inf x^(-2a) dx.
    # Finite only because 2a > 1, i.e. sigma > delta + 1/2.
    a, big_p = up_sigma - delta, 1000
    tail_bound = ((big_p - 4) ** (1 - 2 * a) / (4 * (2 * a - 1))
                  / (1 - 10 ** (-6 * a)))
    converging_ok = movement <= tail_bound and movement < growth
    growing_ok = growth > 1e-2
    ok = edge_ok and not mismatches and growing_ok and converging_ok and elapsed < 60
    verdict(6, ok, f"edge {probe.analytic_abscissa}; {len(mismatches)} oracle mismatches; "
                   f"sigma=0.80 decade movement {movement:.3e} (<= tail bound "
                   f"{tail_bound:.3f} and < growth); sigma=0.70 growth {growth:.3e} "
                   f"(> 1e-2 required), {elapsed:.1f}s")
    assert edge_ok, f"analytic edge {probe.analytic_abscissa} != delta + 1/2 = 0.75"
    assert not mismatches, f"partial sums differ from the oracle: {mismatches}"
    assert growing_ok, "divergent side must keep growing"
    assert converging_ok, (
        f"convergent side moved {movement:.3e}, above the tail bound "
        f"{tail_bound:.3f} or the divergent growth {growth:.3e}")
    assert elapsed < 60


def test_criterion_07_self_pairing_positivity(tau_rep):
    tau = generate_tau(10**4)
    seed_ok = tau[2] == -24 and tau[3] == 252 and tau[5] == 4830
    product = tau_rep.self_rankin_selberg()
    positive, first_bad = positive_type_check(product, AllPrimes(), 10**6)
    landau = landau_region_check(product, AllPrimes(), [1.5, 2.0], 10**6)
    landau_ok = all(v >= 1.0 for v in landau.values)
    ok = seed_ok and positive and landau_ok
    assert verdict(7, ok, f"tau seeds ok: {seed_ok}, log coefficients >= -1e-9 up to 1e6: "
                          f"{positive} (first bad: {first_bad}), "
                          f"truncation values at (1.5, 2.0): "
                          f"{[round(v, 4) for v in landau.values]}")


def test_criterion_08_pole_order_slopes():
    start = time.time()
    full = pole_order_estimate(ONES, AllPrimes())
    restricted = pole_order_estimate(ONES, CongruenceSelector(4, frozenset({1})))
    elapsed = time.time() - start
    full_ok = 0.85 <= full.slope <= 1.15
    restricted_ok = 0.35 <= restricted.slope <= 0.65
    ok = full_ok and restricted_ok and elapsed < 120
    assert verdict(8, ok, f"slope(all)={full.slope:.4f} in [0.85,1.15]: {full_ok}; "
                          f"slope(1 mod 4)={restricted.slope:.4f} in [0.35,0.65]: "
                          f"{restricted_ok}; {elapsed:.1f}s")


def test_criterion_09_restricted_growth_bound(tau_rep):
    report = tempered_bound_check(tau_rep, CongruenceSelector(8, frozenset({1})))
    bound_ok = report.estimate.slope <= 4 * float(report.density) + 0.1
    notes_ok = (report.annotations["refined_density_threshold"] == Fraction(1, 8)
                and report.annotations["non_dihedral_density_threshold"] == Fraction(1, 4))
    ok = bound_ok and notes_ok and report.passed
    assert verdict(9, ok, f"slope {report.estimate.slope:.4f} <= "
                          f"4*{report.density}+0.1 = {report.bound + 0.1:.2f}; "
                          f"thresholds annotated: {notes_ok}")


def test_criterion_10_ratio_consistency(tau_rep):
    synthetic = synthetic_tempered(7)
    crossed = z_ratio(tau_rep, synthetic, CongruenceSelector(8, frozenset({1})),
                      [1.25, 1.5])
    same = z_ratio(tau_rep, tau_rep, CongruenceSelector(8, frozenset({1})),
                   [1.25, 1.5])
    paths_ok = crossed.max_discrepancy < 1e-6
    identity_ok = same.direct_values == (1.0, 1.0) and same.log_values == (1.0, 1.0)
    ok = paths_ok and identity_ok
    assert verdict(10, ok, f"two-path discrepancy {crossed.max_discrepancy:.2e} < 1e-6; "
                           f"identical inputs give ratio 1: {identity_ok}")


def test_criterion_11_summability_verdicts():
    cubic = rajan_criterion(DegreeSelector(FieldSpec(7, (6,)), 3), 2)
    quadratic = rajan_criterion(DegreeSelector(FieldSpec(4), 2), 2)
    cubic_ok = cubic.verdict == "summable" and cubic.test_exponent == Fraction(6, 5)
    quad_ok = quadratic.verdict == "divergent" and quadratic.test_exponent == Fraction(4, 5)
    tables_ok = len(cubic.partial_sums) == 4 and len(quadratic.partial_sums) == 4
    ok = cubic_ok and quad_ok and tables_ok
    assert verdict(11, ok, f"degree-3 {cubic.verdict} (test 6/5), degree-2 "
                           f"{quadratic.verdict} (test 4/5), evidence rows: "
                           f"{tables_ok}")


def test_criterion_12_abscissa_arithmetic():
    lrs = grc_profile("LRS", 2)
    expected = {
        2: (Fraction(11, 10), False),
        3: (Fraction(14, 15), True),
        5: (Fraction(4, 5), True),
    }
    specs = {2: FieldSpec(4), 3: FieldSpec(7, (6,)), 5: FieldSpec(11, (10,))}
    results = {}
    all_ok = True
    for p, (bound, sufficient) in expected.items():
        report = inert_experiment(specs[p], 2, lrs, probe_cutoffs=(10**4, 10**5))
        results[p] = (report.pair_bound, report.sufficient)
        all_ok = all_ok and report.pair_bound == bound \
            and report.sufficient == sufficient
    variant = inert_experiment(specs[2], 2, lrs, variant_delta=Fraction(7, 64),
                               probe_cutoffs=(10**4, 10**5))
    variant_ok = (variant.variant_bound == Fraction(23, 32)
                  and variant.variant_sufficient is False)
    ok = all_ok and variant_ok
    rendered = {p: (str(b), s) for p, (b, s) in results.items()}
    assert verdict(12, ok, f"bounds per p: {rendered}; half-plane variant "
                           f"2*(7/64)+1/2 = {variant.variant_bound} > 1/2: "
                           f"flagged insufficient")


def test_criterion_13_tower_degrees():
    report = tower_degree_check(FieldSpec(5, (4,), label="inner"),
                                FieldSpec(5, label="outer"), 10**5)
    ok = report.counterexamples == () and report.checked > 4000
    assert verdict(13, ok, f"{report.checked} degree-2 primes scanned to 1e5, "
                           f"{len(report.counterexamples)} counterexamples; all "
                           f"reach degree {report.p ** report.m} upstairs")


def _report_bundle(workers: int) -> str:
    """Canonical serialization of every criterion's report artifacts."""
    tau_text = tau_csv_text(2000)
    tau = parse_hecke_text(tau_text, weight=12, label="tau")
    synthetic = synthetic_tempered(7)
    mod8 = CongruenceSelector(8, frozenset({1}))
    quad = FieldSpec(4)
    cubic = FieldSpec(7, (6,))
    bundle = {}
    tables = {}
    for name, G in bundled_catalog().items():
        table = character_table(G)
        tables[name] = {
            "degrees": list(table.degrees),
            "rows": [[[v.real, v.imag] for v in r.values.tolist()] for r in table.rows],
        }
        found = extremal_search(G, 2)
        if found:
            tables[name]["extremal2"] = [str(found.fraction), list(found.pair)]
    bundle["characters"] = tables
    bundle["prime_zeta"] = [prime_zeta(s, 10**6, workers=workers)
                            for s in (1.5, 1.0625)]
    bundle["natural"] = natural_density_estimate(
        CongruenceSelector(4, frozenset({1})), [10**6], workers=workers)
    bundle["dirichlet"] = dirichlet_density_estimate(
        mod8, [1.5, 1.25], 10**6, workers=workers)
    bundle["frobenius"] = frobenius_statistics(FieldSpec(8), 10**6,
                                               workers=workers)
    bundle["probe"] = convergence_probe(DegreeSelector(quad, 2), 0.25,
                                        [0.80, 0.70], [10**5, 10**6])
    product = tau.self_rankin_selberg()
    ok, first = positive_type_check(product, AllPrimes(), 10**5)
    bundle["positivity"] = {"ok": ok, "first": first}
    bundle["landau"] = landau_region_check(product, AllPrimes(), [1.5, 2.0],
                                           10**5)
    bundle["poleorder"] = pole_order_estimate(
        ONES, AllPrimes(), eps_grid=(Fraction(1, 10), Fraction(1, 9), Fraction(1, 8)),
        workers=workers)
    bundle["tempered"] = tempered_bound_check(tau, mod8, workers=workers)
    bundle["zratio"] = z_ratio(tau, synthetic, mod8, [1.25, 1.5])
    bundle["rajan"] = rajan_criterion(DegreeSelector(cubic, 3), 2,
                                      cutoffs=(10**4, 10**5, 10**6))
    bundle["inert"] = inert_experiment(cubic, 2, grc_profile("LRS", 2),
                                       probe_cutoffs=(10**4, 10**5))
    bundle["tower"] = tower_degree_check(FieldSpec(5, (4,)), FieldSpec(5),
                                         10**4)
    bundle["compare"] = compare_local(tau, synthetic, 2000)
    return canonical_json(bundle)


def test_criterion_14_worker_independence():
    start = time.time()
    single = _report_bundle(workers=1)
    eight = _report_bundle(workers=8)
    elapsed = time.time() - start
    ok = single == eight
    assert verdict(14, ok, f"report bundles byte-identical at 1 vs 8 workers "
                           f"({len(single)} bytes, {elapsed:.1f}s)")
