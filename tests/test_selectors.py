import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolab.errors import LimitExceeded, ParseError
from smolab.fields import FieldSpec
from smolab.selectors import (LIFT_MODULUS_LIMIT, MODULUS_LIMIT, AllPrimes, Complement,
                              CongruenceSelector,
                              DegreeSelector, ExplicitList, Intersection,
                              NoPrimes, SELECTOR_TOKEN_LIMIT, Union, parse_selector)
from smolab.sieve import prime_array, totient

PRIMES = prime_array(1000)
PRIMES_1E5 = prime_array(10**5)


def members(selector, primes=PRIMES):
    return set(primes[selector.mask(primes)].tolist())


def residue_set(selector):
    """The residue table as (modulus, frozenset of the residues set), or None."""
    lifted = selector.residue_table()
    if lifted is None:
        return None
    N, table = lifted
    return N, frozenset(np.flatnonzero(table).tolist())


def test_all_and_none():
    assert members(AllPrimes()) == set(PRIMES.tolist())
    assert members(NoPrimes()) == set()


def test_congruence_excludes_ramified():
    sel = CongruenceSelector(4, frozenset({1}))
    got = members(sel)
    assert 2 not in got
    assert got == {int(p) for p in PRIMES if p % 4 == 1}
    assert sel.analytic_density() == Fraction(1, 2)


def test_degree_selector_matches_residue_degrees():
    fs = FieldSpec(4)
    inert = DegreeSelector(fs, 2)
    assert members(inert) == {int(p) for p in PRIMES if p % 4 == 3}
    assert inert.norm_exponent == 2
    assert inert.norms(np.array([3, 7]))[0] == 9.0
    assert inert.analytic_density() == Fraction(1, 2)
    assert inert.max_prime_for_norm(10**6) == 1000


def test_degree_selector_multiplicity():
    fs = FieldSpec(5)
    split = DegreeSelector(fs, 1)
    assert list(split.place_multiplicity(np.array([11, 31]))) == [4, 4]
    quad = DegreeSelector(fs, 2)
    assert list(quad.place_multiplicity(np.array([19]))) == [2]
    with pytest.raises(ParseError):
        DegreeSelector(fs, 3)  # 3 does not divide 4


def test_explicit_list_and_complement():
    chosen = ExplicitList((5, 11, 13))
    assert members(chosen) == {5, 11, 13}
    assert chosen.analytic_density() == 0
    rest = Complement(chosen)
    assert members(rest) == set(PRIMES.tolist()) - {5, 11, 13}


@pytest.mark.parametrize("primes", [(13, 5, 11, 5, 997), ()])
def test_explicit_list_holds_its_distinct_primes_sorted(primes):
    chosen = ExplicitList(primes)
    distinct = sorted(set(primes))
    assert chosen._sorted.tobytes() == np.array(distinct, dtype=np.int64).tobytes()
    assert chosen._sorted.dtype == np.int64
    assert type(chosen.largest_prime) is int
    assert chosen.largest_prime == (distinct[-1] if distinct else 0)


def test_explicit_list_entry_beyond_int64_overflows():
    with pytest.raises(OverflowError):
        ExplicitList((5, 2**64 + 13))


def test_complement_respects_exclusions():
    sel = CongruenceSelector(4, frozenset({1}))
    comp = Complement(sel)
    got = members(comp)
    assert 2 not in got  # ramified stays excluded on both sides
    assert got == {int(p) for p in PRIMES if p % 4 == 3}
    assert comp.analytic_density() == Fraction(1, 2)


def test_boolean_combinations():
    a = CongruenceSelector(4, frozenset({1}))
    b = CongruenceSelector(3, frozenset({1}))
    both = Intersection(a, b)
    either = Union(a, b)
    ga, gb = members(a), members(b)
    assert members(both) == (ga & gb) - {2, 3}
    assert members(either) == (ga | gb) - {2, 3}
    assert both.analytic_density() == Fraction(1, 4)
    assert either.analytic_density() == Fraction(3, 4)


def test_and_or_pairs_differ_only_in_their_operation(tmp_path):
    a = CongruenceSelector(8, frozenset({1}))
    b = DegreeSelector(FieldSpec(7, (6,)), 3)
    assert Intersection(a, b) != Union(a, b)
    assert Intersection(a, b) == Intersection(CongruenceSelector(8, frozenset({1})), b)
    assert hash(Union(a, b)) == hash(Union(CongruenceSelector(8, frozenset({1})), b))
    assert Intersection(a, b).norm_exponent is None and Union(a, a).norm_exponent == 1
    assert repr(Union(a, b)).startswith("Union(left=CongruenceSelector(")
    (tmp_path / "n7h6.txt").write_text("N=7\nH=6\n")
    sel = parse_selector("(mod:8:1 or mod:8:3) and not degree:n7h6.txt:1", base_dir=tmp_path)
    assert sel.describe() == "((mod:8:1 or mod:8:3) and not degree:n7h6.txt:1)"


def test_density_of_degree_classes_sums_to_one():
    fs = FieldSpec(7, (6,))
    total = sum(DegreeSelector(fs, j).analytic_density() for j in (1, 3))
    assert total == 1


def test_parse_mini_language(tmp_path):
    assert isinstance(parse_selector("all"), AllPrimes)
    sel = parse_selector("mod:8:1,3")
    assert members(sel) == {int(p) for p in PRIMES if p % 8 in (1, 3)}
    combo = parse_selector("mod:4:1 and not mod:3:1")
    expect = {int(p) for p in PRIMES if p % 4 == 1 and p % 3 != 1 and p != 3}
    assert members(combo) == expect

    spec = tmp_path / "field.txt"
    spec.write_text("N=4\nH=\n")
    sel2 = parse_selector(f"degree:{spec.name}:2", base_dir=tmp_path)
    assert sel2.norm_exponent == 2

    listfile = tmp_path / "primes.txt"
    listfile.write_text("5\n11\n")
    sel3 = parse_selector(f"list:{listfile.name}", base_dir=tmp_path)
    assert members(sel3) == {5, 11}

    grouped = parse_selector("( mod:4:1 or mod:4:3 ) and not mod:8:1")
    assert members(grouped) == {int(p) for p in PRIMES if p % 2 and p % 8 != 1}


@pytest.mark.parametrize("bad", ["", "bogus", "mod:4", "mod:a:1", "degree:x", "all extra"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_selector(bad)


def test_parse_refuses_expressions_above_the_token_bound():
    # each ended in RecursionError: in the parser, and in congruence_modulus
    for expr in ("(" * 400 + "all" + ")" * 400, " and ".join(["mod:4:1"] * 1000)):
        with pytest.raises(ParseError, match=f"tokens, above {SELECTOR_TOKEN_LIMIT}$"):
            parse_selector(expr)
    nested = parse_selector("( " * 127 + "not mod:4:1" + " )" * 127)
    chain = parse_selector(" and ".join(["mod:4:1"] * (SELECTOR_TOKEN_LIMIT // 2)))
    assert members(nested) == {int(p) for p in PRIMES if p % 4 == 3}
    assert members(chain) == {int(p) for p in PRIMES if p % 4 == 1}
    assert nested.congruence_modulus() == chain.congruence_modulus() == 4


def test_membership_is_pure():
    sel = CongruenceSelector(8, frozenset({1}))
    first = sel.mask(PRIMES).tolist()
    second = sel.mask(PRIMES).tolist()
    assert first == second


def test_explicit_list_contains_agrees_with_mask():
    chosen = ExplicitList((13, 5, 11, 5, 997))
    candidates = np.arange(0, 1100, dtype=np.int64)
    expected = chosen.mask(candidates)
    assert [chosen.contains(int(n)) for n in candidates] == expected.tolist()
    assert chosen.contains(np.int64(997)) and not chosen.contains(np.int64(7))


@pytest.mark.parametrize("modulus", [0, -4])
def test_congruence_modulus_must_be_positive(modulus):
    with pytest.raises(ParseError):
        CongruenceSelector(modulus, frozenset({1}))
    with pytest.raises(ParseError):
        parse_selector(f"mod:{modulus}:1")


def test_congruence_modulus_above_limit_is_refused():
    CongruenceSelector(MODULUS_LIMIT, frozenset({1}))
    with pytest.raises(LimitExceeded):
        CongruenceSelector(MODULUS_LIMIT + 1, frozenset({1}))
    with pytest.raises(LimitExceeded):
        parse_selector("mod:1000000000000:1")


def test_congruence_modulus_needs_no_residue_lift():
    a = CongruenceSelector(10**8, frozenset({1}))
    b = CongruenceSelector(99999989, frozenset({1}))
    assert Intersection(a, b).congruence_modulus() == 10**8 * 99999989
    assert Complement(Union(a, b)).congruence_modulus() == 10**8 * 99999989
    assert Union(a, ExplicitList((5,))).congruence_modulus() is None
    assert ExplicitList((5,)).congruence_modulus() is None
    assert AllPrimes().congruence_modulus() == NoPrimes().congruence_modulus() == 1
    assert DegreeSelector(FieldSpec(7, (6,)), 3).congruence_modulus() == 7


@st.composite
def degree_atoms(draw):
    N = draw(st.integers(1, 16))
    units = [r for r in range(1, N + 1) if math.gcd(r, N) == 1]
    gens = tuple(draw(st.lists(st.sampled_from(units), max_size=2)))
    fs = FieldSpec(N, gens)
    j = draw(st.sampled_from([j for j in range(1, fs.degree + 1) if fs.degree % j == 0]))
    return DegreeSelector(fs, j)


@st.composite
def mod_atoms(draw):
    N = draw(st.integers(1, 24))
    return CongruenceSelector(N, frozenset(draw(st.lists(st.integers(0, N - 1), max_size=4))))


selector_trees = st.recursive(
    mod_atoms() | degree_atoms() | st.just(AllPrimes()) | st.just(NoPrimes()),
    lambda inner: (st.builds(Complement, inner) | st.builds(Intersection, inner, inner)
                   | st.builds(Union, inner, inner)),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(selector_trees)
def test_mask_picks_exactly_the_congruence_residues(selector):
    # the residue counts of the density estimators rest on this invariant
    modulus, residues = residue_set(selector)
    assert selector.congruence_modulus() == modulus
    picked = selector.mask(PRIMES_1E5)
    expected = np.isin(PRIMES_1E5 % modulus, np.array(sorted(residues), dtype=np.int64))
    assert picked.tolist() == expected.tolist()
    assert not np.isin(PRIMES_1E5[picked], np.array(sorted(selector.excluded))).any()


def density_over_all_residues(selector):
    """The former analytic_density: every unit residue of range(N), one by one."""
    cong = residue_set(selector)
    if cong is None:
        return None
    N, residues = cong
    units = [r for r in range(N) if math.gcd(r, N) == 1] if N > 1 else [0]
    return Fraction(sum(1 for r in units if r in residues), len(units))


@settings(max_examples=150, deadline=None)
@given(selector_trees)
def test_analytic_density_matches_residue_walk(selector):
    assert selector.analytic_density() == density_over_all_residues(selector)
    assert Complement(selector).analytic_density() == \
        density_over_all_residues(Complement(selector))


def test_analytic_density_without_congruence_is_none():
    assert Complement(ExplicitList((5, 7))).analytic_density() is None
    assert Complement(Union(CongruenceSelector(4, frozenset({1})),
                            ExplicitList((5,)))).analytic_density() is None


def test_analytic_density_of_a_huge_modulus_is_immediate():
    start = time.perf_counter()
    assert CongruenceSelector(2_000_003, frozenset({1})).analytic_density() == \
        Fraction(1, 2_000_002)
    assert Complement(CongruenceSelector(999_999_937, frozenset({1}))).analytic_density() == \
        Fraction(999_999_935, 999_999_936)
    assert time.perf_counter() - start < 0.25


def congruence_by_residue_walk(selector):
    """The former lifts: each residue of range(lcm) checked one by one in Python."""
    if isinstance(selector, Complement):
        N, residues = congruence_by_residue_walk(selector.inner)
        units = {r for r in range(N) if math.gcd(r, N) == 1} if N > 1 else {0}
        return N, frozenset(units - residues)
    if isinstance(selector, (Intersection, Union)):
        (na, ra), (nb, rb) = map(congruence_by_residue_walk, (selector.left, selector.right))
        N = math.lcm(na, nb)

        def lift(n, residues):
            return {r for r in range(N) if math.gcd(r, N) == 1 and r % n in residues}

        op = set.intersection if isinstance(selector, Intersection) else set.union
        return N, frozenset(op(lift(na, ra), lift(nb, rb)))
    return residue_set(selector)


@settings(max_examples=100, deadline=None)
@given(selector_trees)
def test_lifted_congruence_matches_residue_walk(selector):
    assert residue_set(selector) == congruence_by_residue_walk(selector)
    assert residue_set(Complement(selector)) == \
        congruence_by_residue_walk(Complement(selector))


def test_lift_above_the_cap_is_refused_before_any_residue_set():
    start = time.perf_counter()
    with pytest.raises(LimitExceeded):
        parse_selector("mod:999999937:1 and mod:4:1").analytic_density()
    with pytest.raises(LimitExceeded):
        Complement(CongruenceSelector(999_999_937, frozenset({1}))).residue_table()
    with pytest.raises(LimitExceeded):
        Intersection(CongruenceSelector(LIFT_MODULUS_LIMIT + 1, frozenset({1})),
                     AllPrimes()).analytic_density()
    assert time.perf_counter() - start < 0.25
    at_cap = Intersection(CongruenceSelector(LIFT_MODULUS_LIMIT, frozenset({1})), AllPrimes())
    assert at_cap.analytic_density() == Fraction(1, totient(LIFT_MODULUS_LIMIT))
    assert parse_selector("mod:250007:1 and mod:4:1").analytic_density() == \
        Fraction(1, 500012)
