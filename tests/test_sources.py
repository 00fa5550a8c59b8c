"""Array-valued coefficient sources and the scans built on them.

The array paths are checked against one-prime calls (a source's value at p
must not depend on the other primes asked for), against the complex
formula the file-backed parameters came from, and against scalar reference
loops for the comparison and ratio scans.
"""

import cmath
import dataclasses
import functools
import hashlib
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smolab.errors import NormMismatch
from smolab.euler import (EulerProduct, dedekind_product, eval_local, grc_profile, log_expansion,
                          one_place, rankin_selberg_local, scan_primes, zeta_product)
from smolab.experiments import COEFF_EQ_TOL, compare_local, z_ratio
from smolab.fields import FieldSpec
from smolab.hecke import (parse_hecke_text, synthetic_tempered, synthetic_with_profile,
                          tempered_angles)
from smolab.selectors import AllPrimes, CongruenceSelector, ExplicitList, Intersection
from smolab.sieve import STREAM_CHUNK, prime_array, prime_stream, simple_sieve
from smolab.tau import generate_tau, tau_csv_text

PRIMES = simple_sieve(10**5).tolist()
FIRST_1000 = simple_sieve(7919)
SEEDS = st.integers(min_value=-(2**70), max_value=2**70)
MOD8 = CongruenceSelector(8, frozenset({1}))


@pytest.fixture(scope="module")
def tau_rep():
    return parse_hecke_text(tau_csv_text(10**4), weight=12, label="tau")


def _perturbed(limit: int, bumps: dict[int, int]):
    rows = ["p,a_p"] + [f"{p},{v + bumps.get(p, 0)}"
                        for p, v in sorted(generate_tau(limit).items())]
    return parse_hecke_text("\n".join(rows), weight=12, label="tau-perturbed")


def _assert_matches_one_prime_path(rep, primes):
    params = rep.satake_array(primes)
    coeffs = rep.coefficient_array(primes)
    assert params.shape == (len(primes), rep.degree)
    for p, row, c in zip(primes, params.tolist(), coeffs.tolist()):
        assert tuple(row) == rep.satake(p)
        assert c == rep.coefficient(p)
        assert rep.local_factor(p).alphas == rep.satake(p)


# -- one-element path ---------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(PRIMES[:1229]), min_size=1, max_size=30))
def test_file_backed_arrays_match_one_prime_path(tau_rep, primes):
    _assert_matches_one_prime_path(tau_rep, primes)
    assert tau_rep.coefficient_array(primes).dtype == np.float64


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from([2, 3]), st.lists(st.sampled_from(PRIMES), min_size=1,
                                               max_size=30))
def test_tempered_arrays_match_one_prime_path(seed, degree, primes):
    _assert_matches_one_prime_path(synthetic_tempered(seed, degree=degree), primes)


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from(["JS", "GJ", "KSh", "LRS(2)"]), st.sampled_from([2, 3]),
       st.lists(st.sampled_from(PRIMES), min_size=1, max_size=30))
def test_profile_arrays_match_one_prime_path(seed, name, degree, primes):
    rep = synthetic_with_profile(seed, grc_profile(name), degree=degree)
    _assert_matches_one_prime_path(rep, primes)


# parts whose sums turn on the order of the adds: signed zeros, infinities whose
# sum is a NaN, NaNs, overflow and cancellation
_PARTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e308, -1e308, 5e-324,
                          math.inf, -math.inf, math.nan, -math.nan]) | st.floats()


def _part_bits(z: np.ndarray) -> bytes:
    """The bits of each real and imaginary part, every NaN made one NaN: IEEE 754
    leaves the sign of a NaN result open, and numpy's add loops differ in it."""
    parts = z.view(np.float64).copy()
    parts[np.isnan(parts)] = math.nan
    return parts.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.tuples(_PARTS, _PARTS), min_size=width, max_size=width), max_size=20)))
@example([[(-0.0, -0.0), (-0.0, 0.0)], [(-0.0, 1.0), (-0.0, -1.0)]])
@example([[(-0.0, -0.0), (-0.0, -0.0), (-0.0, -0.0)], [(math.inf, 1.0), (-math.inf, 1e308),
                                                        (1.0, 1e308)]])
@example([[(1e308, 0.0), (1e308, 0.0), (-1e308, 0.0), (-1e308, 0.0)]])
def test_traces_are_the_parameter_sums_bit_for_bit(rows):
    # up to three columns the traces are numpy's sum(axis=1); at every width they
    # are a left fold of Python complex adds from +0, one prime at a time as for
    # the whole column (numpy sums four or more columns pairwise)
    width = len(rows[0]) if rows else 2
    params = np.array([[complex(re, im) for re, im in row] for row in rows],
                      dtype=np.complex128).reshape(len(rows), width)
    rep = EulerProduct(places=one_place(lambda primes: params[primes]), label="parts")
    with np.errstate(invalid="ignore", over="ignore"):
        traces = rep.coefficient_array(np.arange(len(rows)))
        one_prime = np.array([rep.coefficient(p) for p in range(len(rows))], dtype=np.complex128)
        if width <= 3:
            sums = params.sum(axis=1)
            assert traces.dtype == sums.dtype and _part_bits(traces) == _part_bits(sums)
    folds = np.array([functools.reduce(operator.add, row, 0j) for row in params.tolist()],
                     dtype=np.complex128)
    assert _part_bits(traces) == _part_bits(folds) == _part_bits(one_prime)


def _unitary_pair(lam: float) -> tuple[complex, complex]:
    root = cmath.sqrt(lam * lam - 4.0)
    return (lam + root) / 2.0, (lam - root) / 2.0


def test_file_backed_parameters_equal_the_complex_formula(tau_rep):
    # including rows that break the size bound, where the pair is real
    loud = parse_hecke_text("p,a_p\n2,100\n3,-2000\n5,4830\n", weight=12)
    for rep in (tau_rep, loud):
        primes = list(rep.universe.primes)
        for p, row, c in zip(primes, rep.satake_array(primes).tolist(),
                             rep.coefficient_array(primes).tolist()):
            assert c == rep.coefficient(p)
            assert tuple(row) == _unitary_pair(c)


def test_file_backed_lookup_outside_support(tau_rep):
    with pytest.raises(KeyError):
        tau_rep.coefficient_array([2, 4])
    with pytest.raises(KeyError):
        tau_rep.satake_array([10007])


# -- the hashed generator -------------------------------------------------------------

ANGLES_SEED7_DIGEST = "a75aa8b98ebb56b4b2f5c3984c6063a0fe31ebb1ff3af6f14d1f1ee22048f1b5"


def _angle_digest(seed: int) -> str:
    return hashlib.sha256(tempered_angles(seed, FIRST_1000).astype("<f8").tobytes()).hexdigest()


def test_seed7_angles_are_pinned():
    assert len(FIRST_1000) == 1000
    assert _angle_digest(7) == ANGLES_SEED7_DIGEST


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_angles_do_not_depend_on_the_string_hash_seed(hash_seed):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import hashlib; from smolab.hecke import tempered_angles; "
            "from smolab.sieve import simple_sieve; "
            "a = tempered_angles(7, simple_sieve(7919)); "
            "print(hashlib.sha256(a.astype('<f8').tobytes()).hexdigest())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ANGLES_SEED7_DIGEST


def test_seeds_reduce_mod_2_64():
    primes = FIRST_1000[:50]
    minus_one = synthetic_tempered(-1).satake_array(primes)
    assert np.array_equal(minus_one, synthetic_tempered(2**64 - 1).satake_array(primes))
    big = synthetic_with_profile(2**64 + 3, grc_profile("GJ")).satake_array(primes)
    assert np.array_equal(big, synthetic_with_profile(3, grc_profile("GJ")).satake_array(primes))
    assert not np.array_equal(minus_one, synthetic_tempered(3).satake_array(primes))


def test_angles_are_uniform_enough():
    angles = tempered_angles(1, prime_array(10**6))[:, 0]
    assert len(angles) == 78498
    assert ((angles >= 0.0) & (angles < math.pi)).all()
    assert abs(float(np.cos(2.0 * angles).mean())) < 0.01
    # each parameter index draws from its own stream: a second angle is uncorrelated
    other = tempered_angles(1, prime_array(10**6), degree=4)[:, 1]
    assert abs(float(np.corrcoef(angles, other)[0, 1])) < 0.01


@pytest.mark.parametrize("name", ["JS", "GJ", "KSa-BB"])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_profile_window_holds_across_a_prime_array(name, degree):
    profile = grc_profile(name)
    primes = prime_array(10**5)
    params = synthetic_with_profile(11, profile, degree=degree).satake_array(primes)
    ceiling = primes.astype(np.float64) ** float(profile.exponent) * (1 + 1e-12)
    assert (np.abs(params) <= ceiling[:, None]).all()
    for i in range(0, degree - 1, 2):
        assert np.allclose(np.abs(params[:, i] * params[:, i + 1]), 1.0, rtol=0, atol=1e-12)
    if degree % 2:
        assert (params[:, -1] == 1.0).all()
    # the radii fill the window rather than sitting on the unit circle
    assert np.abs(params[:, 0]).max() > primes[-1] ** float(profile.exponent) * 0.5


def test_tempered_odd_degree_sign_is_balanced():
    signs = synthetic_tempered(5, degree=3).satake_array(prime_array(10**5))[:, -1]
    assert set(signs.tolist()) == {1.0, -1.0}
    assert abs(float(signs.real.mean())) < 0.05


# -- prime stream ------------------------------------------------------------------------


def test_prime_stream_matches_filtered_oracle():
    limit = 3 * 10**6
    support = simple_sieve(limit)[::7]
    exclude = frozenset({2, 3, int(support[5]), int(support[-1])})
    universe = Intersection(MOD8, ExplicitList(tuple(support.tolist())))
    got = np.concatenate(list(prime_stream(limit, universe, exclude=exclude)))
    oracle = [p for p in support.tolist() if p % 8 == 1 and p not in exclude]
    assert got.tolist() == oracle
    assert all(len(seg) for seg in prime_stream(limit, universe))


def test_prime_stream_slices_cover_every_prime():
    arrays = list(prime_stream(2 * 10**6))
    assert max(len(a) for a in arrays) == STREAM_CHUNK
    assert np.array_equal(np.concatenate(arrays), simple_sieve(2 * 10**6))


def test_euler_product_primes_follow_universe_and_ramified():
    ep = EulerProduct(places=zeta_product().places,
                      universe=Intersection(CongruenceSelector(4, frozenset({1})),
                                            ExplicitList(tuple(simple_sieve(1000).tolist()))),
                      ramified=frozenset({5, 13}))
    expected = [p for p in simple_sieve(1000).tolist() if p % 4 == 1 and p not in (5, 13)]
    assert np.concatenate(list(prime_stream(*scan_primes(10**4, [ep])))).tolist() == expected


def test_every_scan_reads_a_library_built_universe():
    # an Intersection has no largest prime; compare_local and z_ratio used to
    # scan every prime to their limit for it, and log_expansion did not
    universe = Intersection(CongruenceSelector(4, frozenset({1})),
                            ExplicitList(tuple(simple_sieve(1000).tolist())))
    A = EulerProduct(places=synthetic_tempered(1).places, universe=universe,
                     ramified=frozenset({5, 13}))
    B = synthetic_tempered(2)
    expected = [p for p in simple_sieve(1000).tolist() if p % 4 == 1 and p not in (5, 13)]
    report = compare_local(A, B, 10**4)
    assert report.compared == report.disagreements == len(expected)
    assert list(report.disagreement_primes) == expected
    assert z_ratio(A, B, AllPrimes(), [1.5]).primes_used == len(expected)
    indices = log_expansion(A, AllPrimes(), 10**4).indices.tolist()
    assert [n for n in indices if n in set(simple_sieve(10**4).tolist())] == expected


def test_one_place_reads_refuse_other_places():
    # in Q(i), 3 is inert (one place of norm 9) and 5 splits (two of norm 5);
    # neither may be read as the one place of norm p
    zeta_i = dedekind_product(FieldSpec(4))
    for p in (3, 5):
        with pytest.raises(NormMismatch, match=f"p={p}"):
            zeta_i.satake_array([p])
    with pytest.raises(NormMismatch, match="p=3"):
        compare_local(zeta_i, zeta_product(), 100)
    assert zeta_product().satake_array([2, 3]).tolist() == [[1], [1]]


# -- scans against scalar reference loops ---------------------------------------------------


def _reference_disagreements(A, B, limit: int) -> list[int]:
    out = []
    for p in simple_sieve(limit).tolist():
        if not all(r.universe.contains(p) for r in (A, B)):
            continue
        if p in A.ramified or p in B.ramified:
            continue
        if abs(complex(A.coefficient(p)) - complex(B.coefficient(p))) > COEFF_EQ_TOL:
            out.append(p)
    return out


def test_compare_local_matches_scalar_loop(tau_rep):
    bumps = {p: max(1, round(p**5.5 * 1e-3)) for p in (3, 101, 433)}
    cases = [
        (tau_rep, _perturbed(500, bumps), 500),
        (tau_rep, synthetic_tempered(7), 3000),
        (synthetic_tempered(7), synthetic_tempered(7, label="copy"), 3000),
        (dataclasses.replace(tau_rep, ramified=frozenset({2, 101})),
         dataclasses.replace(_perturbed(2000, bumps), ramified=frozenset({3})), 5000),
    ]
    for A, B, limit in cases:
        report = compare_local(A, B, limit)
        expected = _reference_disagreements(A, B, report.scan_limit)
        assert report.disagreements == len(expected)
        assert list(report.disagreement_primes) == expected[:200]
    # tau against synthetic:7 disagrees at 430 primes; the report lists the first 200
    report = compare_local(*cases[1])
    assert len(report.disagreement_primes) == 200 < report.disagreements
    assert compare_local(*cases[0][:2], 500).disagreement_primes == (3, 101, 433)
    assert compare_local(*cases[3][:2], 5000).disagreement_primes == (433,)


def _reference_z_ratio(A, B, primes, s_values, m_cap: int = 40):
    """The per-prime loop: four paired local factors at each p, evaluated directly."""
    direct, logs = [], []
    combined_min = 0.0
    for s in s_values:
        prod = 1.0 + 0.0j
        log_sum = 0.0 + 0.0j
        for p in primes:
            fa, fb = A.local_factor(p), B.local_factor(p)
            aa, bb = rankin_selberg_local(fa, fa), rankin_selberg_local(fb, fb)
            ab, ba = rankin_selberg_local(fa, fb), rankin_selberg_local(fb, fa)
            prod *= (eval_local(aa, s) * eval_local(bb, s)
                     / (eval_local(ab, s) * eval_local(ba, s)))
            for m in range(1, m_cap + 1):
                sums = [sum(a**m for a in f.alphas) for f in (aa, bb, ab, ba)]
                combined_min = min(combined_min, sum(sums).real / m)
                log_sum += (sums[0] + sums[1] - sums[2] - sums[3]) / m * p ** (-s * m)
        direct.append(prod)
        logs.append(cmath.exp(log_sum))
    return direct, logs, combined_min >= -1e-9


@pytest.mark.parametrize("case", ["tau-tempered", "profile-tempered", "degree-3"])
def test_z_ratio_matches_scalar_loop(tau_rep, case):
    if case == "tau-tempered":
        A, B, s_values = tau_rep, synthetic_tempered(7), [1.25, 1.5]
    elif case == "profile-tempered":
        A, B, s_values = synthetic_with_profile(3, grc_profile("GJ")), synthetic_tempered(5), [1.5, 2.0]
    else:
        A, B, s_values = synthetic_tempered(3, degree=3), synthetic_tempered(4, degree=3), [1.25]
    report = z_ratio(A, B, MOD8, s_values)
    primes = [p for p in simple_sieve(10**4).tolist() if p % 8 == 1]
    direct, logs, positive = _reference_z_ratio(A, B, primes, s_values)
    assert report.primes_used == len(primes)
    assert report.direct_values == pytest.approx([d.real for d in direct], rel=1e-12)
    assert report.log_values == pytest.approx([v.real for v in logs], rel=1e-12)
    assert report.positive_type_combined is positive
    assert report.max_discrepancy < 1e-9 * max(report.direct_values)


def test_z_ratio_of_identical_sources_is_exactly_one(tau_rep):
    for rep in (tau_rep, synthetic_tempered(9), synthetic_with_profile(2, grc_profile("JS"))):
        report = z_ratio(rep, rep, AllPrimes(), [1.1, 1.25, 2.0])
        assert report.direct_values == (1.0, 1.0, 1.0)
        assert report.log_values == (1.0, 1.0, 1.0)
        assert report.max_discrepancy == 0.0
