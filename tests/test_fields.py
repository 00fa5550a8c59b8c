import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smolab.errors import ParseError
from smolab.fields import FieldSpec, parse_fieldspec
from smolab.sieve import simple_sieve


def multiplicative_order_oracle(r, N, H):
    x, f = r % N, 1
    while x not in H:
        x = (x * r) % N
        f += 1
    return f


def subgroup(fs):
    """The former FieldSpec.subgroup: the members of H as a frozenset."""
    return frozenset(fs._subgroup_array.tolist())


def residue_degree(fs, p):
    """The former FieldSpec.residue_degree, read from the array interface:
    0 where p divides N, where the former method raised."""
    return int(fs.residue_degrees(np.array([p], dtype=np.int64))[0])


def places(fs, p):
    """The former FieldSpec.places: (residue degree f, number of places above p)."""
    f = residue_degree(fs, p)
    return f, fs.degree // f


def test_quadratic_field_degrees():
    fs = FieldSpec(4)
    assert fs.degree == 2
    assert residue_degree(fs, 7) == 2   # inert
    assert residue_degree(fs, 5) == 1   # split
    assert residue_degree(fs, 2) == 0   # ramified


def test_quartic_cyclotomic_field():
    fs = FieldSpec(5)
    assert fs.degree == 4
    assert residue_degree(fs, 7) == 4  # order of 2 mod 5
    assert residue_degree(fs, 11) == 1
    assert residue_degree(fs, 19) == 2  # 19 = 4 mod 5, order 2


def test_subgroup_generation():
    fs = FieldSpec(7, (6,))
    assert subgroup(fs) == frozenset({1, 6})
    assert fs.degree == 3
    assert np.flatnonzero(fs._degree_table == 3).tolist() == [2, 3, 4, 5]


def subgroup_by_search(N, generators):
    """The former FieldSpec.subgroup: a Python search from 1 over products with each generator."""
    H = {1 % N}
    frontier = [1 % N]
    gens = [g % N for g in generators]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x * g) % N
            if y not in H:
                H.add(y)
                frontier.append(y)
    return frozenset(H)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2000).flatmap(lambda N: st.tuples(
    st.just(N), st.lists(st.sampled_from([r for r in range(N + 1) if math.gcd(r, N) == 1]),
                         max_size=4))))
@example((1, []))
@example((8, [3, 5]))        # (Z/8)* = {1, 3, 5, 7} is not cyclic
@example((1999, [3]))        # 3 generates (Z/1999)*
@example((840, [11, 13, 29]))
@example((1024, [3, 1023]))
def test_subgroup_matches_search(case):
    N, gens = case
    fs = FieldSpec(N, tuple(gens))
    members = fs._subgroup_array
    assert members[0] == 1 % N
    assert len(set(members.tolist())) == len(members)
    assert subgroup(fs) == subgroup_by_search(N, gens)


def test_residue_degree_matches_order_oracle():
    fs = FieldSpec(35, (6,))
    H = subgroup(fs)
    for p in (2, 3, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if p in (5, 7):
            continue
        assert residue_degree(fs, p) == multiplicative_order_oracle(p, 35, H)
        assert fs.degree % residue_degree(fs, p) == 0


def test_places_count():
    fs = FieldSpec(5)
    f, g = places(fs, 19)
    assert (f, g) == (2, 2)
    assert 19**f == 361


def test_split_iff_in_subgroup():
    fs = FieldSpec(8)
    for p in (7, 17, 23, 31, 41):
        f = residue_degree(fs, p)
        assert (f == 1) == (p % 8 in subgroup(fs))


def test_ramified_primes():
    assert FieldSpec(12).ramified_primes() == frozenset({2, 3})
    assert FieldSpec(5).ramified_primes() == frozenset({5})


def test_parse_fieldspec():
    fs = parse_fieldspec("# comment\nN=5\nH=4\n")
    assert fs.modulus == 5 and subgroup(fs) == frozenset({1, 4})
    fs2 = parse_fieldspec("N=8\nH=\n")
    assert subgroup(fs2) == frozenset({1})
    with pytest.raises(ParseError):
        parse_fieldspec("H=3\n")
    with pytest.raises(ParseError):
        parse_fieldspec("N=abc\n")
    with pytest.raises(ParseError):
        parse_fieldspec("N=5\nQ=2\n")
    with pytest.raises(ParseError):
        parse_fieldspec("N=6\nH=2\n")  # 2 is not a unit mod 6


def test_trivial_field():
    fs = FieldSpec(1)
    assert fs.degree == 1
    assert residue_degree(fs, 13) == 1


def degree_table_by_multiplying(fs):
    """The former FieldSpec._degree_table: multiply until the power lands in H."""
    N = fs.modulus
    out = np.zeros(max(N, 1), dtype=np.int64)
    H = subgroup(fs)
    units = [r for r in range(1, N + 1) if math.gcd(r, N) == 1] if N > 1 else [0]
    for r in units:
        x, f = r % N, 1
        while x not in H:
            x = (x * r) % N
            f += 1
        out[r % N] = f
    return out


@pytest.mark.parametrize("N,gens", [
    (1, ()), (2, ()), (4, ()), (8, (3,)), (12, (5,)), (35, (6,)), (840, (11, 13)),
    (1000, (3,)), (2187, (2,)), (3989, ()), (4001, ()), (4001, (3,)), (4001, (16,)),
    (4003, (2,)),
])
def test_degree_table_matches_multiplying_loop(N, gens):
    fs = FieldSpec(N, gens)
    assert fs._degree_table.tolist() == degree_table_by_multiplying(fs).tolist()
    assert fs.unit_order == sum(1 for r in range(N) if math.gcd(r, N) == 1)


def test_degree_table_near_the_modulus_cap():
    # (Z/N)* is cyclic of order N - 1 = 2 * 79 * 6329 for this prime N, so for
    # each divisor d, the product of some of these primes, exactly phi(d)
    # residues have degree d
    N = 999983
    table = FieldSpec(N)._degree_table
    expected = {}
    for subset in range(8):
        chosen = [p for k, p in enumerate((2, 79, 6329)) if subset >> k & 1]
        expected[math.prod(chosen)] = math.prod(p - 1 for p in chosen)
    orders, counts = np.unique(table[1:], return_counts=True)
    assert dict(zip(orders.tolist(), counts.tolist())) == expected
    assert table[0] == 0


def coset_table_by_unit_loop(fs):
    """The former coset table: a Python loop over the units, one sorted coset each."""
    N = fs.modulus
    table = np.full(max(N, 1), -1, dtype=np.int64)
    reps = []
    for r in np.flatnonzero([math.gcd(r, N) == 1 for r in range(N)]).tolist():
        if table[r % N] != -1:
            continue
        coset = sorted((r * h) % N for h in subgroup(fs))
        for c in coset:
            table[c] = len(reps)
        reps.append(coset[0])
    return table, tuple(reps)


@st.composite
def small_fields(draw):
    N = draw(st.integers(1, 600))
    units = [r for r in range(1, N + 1) if math.gcd(r, N) == 1]
    return FieldSpec(N, tuple(draw(st.lists(st.sampled_from(units), max_size=3))))


def on_small_fields(test):
    """Run ``test`` on drawn fields and on fields with one class, two, or a
    non-cyclic quotient."""
    for fs in (FieldSpec(1), FieldSpec(840, (11, 13)),
               FieldSpec(599, (7,)),  # 7 generates (Z/599)*: one coset
               FieldSpec(599, (3,)),  # index 2
               FieldSpec(512, (3, 511))):
        test = example(fs)(test)
    return settings(max_examples=150, deadline=None)(given(small_fields())(test))


@on_small_fields
def test_coset_table_matches_unit_loop(fs):
    table, reps = fs._coset_table
    expected_table, expected_reps = coset_table_by_unit_loop(fs)
    assert table.tolist() == expected_table.tolist()
    assert reps == expected_reps
    assert len(reps) == fs.degree


def test_coset_table_near_the_modulus_cap():
    # trivial H: every unit is its own coset; H = {+-1}: r and N - r share one
    table, reps = FieldSpec(999983)._coset_table
    assert reps == tuple(range(1, 999983)) and table[0] == -1
    table, reps = FieldSpec(999983, (999982,))._coset_table
    assert reps == tuple(range(1, 999983 // 2 + 1))
    assert table[999982] == table[1] == 0


# The interface is read at every prime below this bound: past 600, the
# largest drawn modulus, so every field meets ramified and unramified primes
INTERFACE_PRIME_BOUND = 2000
INTERFACE_PRIMES = simple_sieve(INTERFACE_PRIME_BOUND)


@on_small_fields
def test_residue_degrees_match_order_oracle(fs):
    N, H = fs.modulus, subgroup_by_search(fs.modulus, fs.subgroup_generators)
    expected = [multiplicative_order_oracle(p, N, H) if math.gcd(p, N) == 1 else 0
                for p in INTERFACE_PRIMES.tolist()]
    assert fs.residue_degrees(INTERFACE_PRIMES).tolist() == expected


@on_small_fields
def test_classes_match_unit_loop(fs):
    expected_table, expected_reps = coset_table_by_unit_loop(fs)
    got = fs.classes(INTERFACE_PRIMES)
    assert got.tolist() == expected_table[INTERFACE_PRIMES % fs.modulus].tolist()
    assert ((got == -1) == (np.gcd(INTERFACE_PRIMES, fs.modulus) > 1)).all()
    assert fs.class_labels == expected_reps


@on_small_fields
def test_cyclic_matches_a_search_for_a_generator(fs):
    N, H = fs.modulus, subgroup_by_search(fs.modulus, fs.subgroup_generators)
    assert fs.cyclic == any(multiplicative_order_oracle(r, N, H) == fs.degree
                            for r in range(N) if math.gcd(r, N) == 1)
