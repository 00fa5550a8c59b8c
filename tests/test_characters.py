import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from smolab.characters import (_MAX_ATTEMPTS, Verdict, _attempt_coeffs, _class_cells,
                               _class_matrix, _orthogonality_ok, _snap_half_integers,
                               agreement_fraction, character_table,
                               distinguishing_threshold, extremal_search,
                               inner_product, lemma_check)
from smolab.errors import ClassMismatch, DegreeMismatch
from smolab.groups import BUNDLED_CATALOG, build_group, bundled_catalog, catalog

# the groups of the character-tables benchmark workload
WORKLOAD_GROUPS = ("q8_power_family(3)", "direct_product(q8_power_family(2),dihedral(5))",
                   "cyclic(120)", "symmetric(6)")


def expand_to_elements(chi, G):
    """Character as a function on all elements (independent of class sums)."""
    part = G.conjugacy_classes()
    return [chi.values[part.class_of[g]] for g in range(G.order)]


def elementwise_inner(chi, psi, G):
    a = expand_to_elements(chi, G)
    b = expand_to_elements(psi, G)
    return sum(x * y.conjugate() for x, y in zip(a, b)) / G.order


def test_c2_table_is_exact():
    G = build_group(["(1 2)"])
    table = character_table(G)
    assert [r.degree for r in table.rows] == [1, 1]
    assert table.rows[0].values == ((1 + 0j), (1 + 0j))
    assert table.rows[1].values == ((1 + 0j), (-1 + 0j))
    assert table.rows[0].integer_values == (1, 1)


def test_s3_degrees():
    table = character_table(catalog("symmetric(3)"))
    assert sorted(r.degree for r in table.rows) == [1, 1, 2]


def test_quaternion_table_values():
    G = catalog("quaternion8")
    table = character_table(G)
    assert [r.degree for r in table.rows] == [1, 1, 1, 1, 2]
    two_dim = table.rows[4]
    assert sorted(v.real for v in two_dim.values) == [-2.0, 0.0, 0.0, 0.0, 2.0]
    assert all(abs(v.imag) < 1e-9 for v in two_dim.values)


def test_trivial_group_table():
    table = character_table(build_group([]))
    assert len(table.rows) == 1
    assert table.rows[0].degree == 1


def test_sum_of_squared_degrees():
    for expr in ("cyclic(12)", "dihedral(5)", "symmetric(4)", "q8_power_family(2)"):
        G = catalog(expr)
        table = character_table(G)
        assert sum(r.degree**2 for r in table.rows) == G.order
        assert len(table.rows) == G.conjugacy_classes().num_classes


def test_row_orthogonality_elementwise():
    # independent oracle: sums over raw elements, not class sums
    G = catalog("symmetric(4)")
    table = character_table(G)
    for i, chi in enumerate(table.rows):
        for j, psi in enumerate(table.rows):
            value = elementwise_inner(chi, psi, G)
            assert abs(value - (1 if i == j else 0)) < 1e-6


def test_inner_product_examples():
    G = build_group(["(1 2)"])
    table = character_table(G)
    assert abs(inner_product(table.rows[0], table.rows[0], G) - 1) < 1e-9
    assert abs(inner_product(table.rows[0], table.rows[1], G)) < 1e-9
    q8 = catalog("quaternion8")
    chi2 = character_table(q8).rows[4]
    assert abs(inner_product(chi2, chi2, q8) - 1) < 1e-9


def test_inner_product_rejects_foreign_group():
    c2 = build_group(["(1 2)"])
    s3 = catalog("symmetric(3)")
    chi = character_table(c2).rows[0]
    psi = character_table(s3).rows[0]
    with pytest.raises(ClassMismatch):
        inner_product(chi, psi, s3)


def test_agreement_identity_and_sign():
    G = build_group(["(1 2)"])
    table = character_table(G)
    assert agreement_fraction(table.rows[0], table.rows[0], G) == 1
    assert agreement_fraction(table.rows[0], table.rows[1], G) == Fraction(1, 2)


def test_agreement_symmetric_and_exhaustive():
    # element-level oracle over the 16 elements of the direct product
    G = catalog("direct_product(quaternion8,cyclic(2))")
    table = character_table(G)
    a, b = table.rows_of_degree(2)
    chi, psi = table.rows[a], table.rows[b]
    frac = agreement_fraction(chi, psi, G)
    assert frac == agreement_fraction(psi, chi, G)
    ea = expand_to_elements(chi, G)
    eb = expand_to_elements(psi, G)
    agree = sum(1 for x, y in zip(ea, eb) if abs(x - y) <= 1e-9)
    assert frac == Fraction(agree, G.order) == Fraction(7, 8)


def test_thresholds():
    assert distinguishing_threshold(1) == Fraction(1, 2)
    assert distinguishing_threshold(2) == Fraction(7, 8)
    assert distinguishing_threshold(4) == Fraction(31, 32)


def test_lemma_check_verdicts():
    G = build_group(["(1 2)"])
    table = character_table(G)
    triv, sign = table.rows
    # agreement exactly at the threshold does not force equality
    assert lemma_check(triv, sign, G) is Verdict.BELOW_THRESHOLD
    assert lemma_check(triv, triv, G) is Verdict.FORCED_EQUAL


def test_lemma_check_degree_mismatch():
    table = character_table(catalog("symmetric(3)"))
    with pytest.raises(DegreeMismatch):
        lemma_check(table.rows[0], table.rows[2], catalog("symmetric(3)"))


def test_extremal_c4():
    best = extremal_search(catalog("cyclic(4)"), 1)
    assert best.fraction == Fraction(1, 2)


def test_extremal_none_when_single_row():
    assert extremal_search(catalog("quaternion8"), 2) is None


def test_extremal_sharp_pair_in_q8_family():
    best = extremal_search(catalog("q8_power_family(1)"), 2)
    assert best is not None
    assert best.fraction == Fraction(7, 8)
    best4 = extremal_search(catalog("q8_power_family(2)"), 4)
    assert best4 is not None
    assert best4.fraction == Fraction(31, 32)


def test_no_pair_beats_the_threshold_across_catalog():
    for name, G in bundled_catalog().items():
        table = character_table(G)
        for n in set(table.degrees):
            rows = table.rows_of_degree(n)
            for i, j in combinations(rows, 2):
                frac = agreement_fraction(table.rows[i], table.rows[j], G)
                assert frac <= distinguishing_threshold(n), (name, n, frac)


def test_offdiagonal_mass_bound():
    # distinct irreducibles: sum over the disagreement set of |chi conj(psi)|
    # stays below |Y| n^2 because each value is at most n in modulus
    G = catalog("direct_product(quaternion8,cyclic(2))")
    table = character_table(G)
    a, b = table.rows_of_degree(2)
    chi, psi = table.rows[a], table.rows[b]
    ea = expand_to_elements(chi, G)
    eb = expand_to_elements(psi, G)
    disagreement = [(x, y) for x, y in zip(ea, eb) if abs(x - y) > 1e-9]
    mass = sum(abs(x * y.conjugate()) for x, y in disagreement)
    assert mass <= len(disagreement) * chi.degree**2 + 1e-9


def test_table_deterministic_across_runs():
    a = character_table(catalog("symmetric(4)"))
    b = character_table(catalog("symmetric(4)"))
    assert [r.values for r in a.rows] == [r.values for r in b.rows]


def test_complex_values_snap_to_gaussian_grid():
    table = character_table(catalog("cyclic(4)"))
    values = {v for row in table.rows for v in row.values}
    assert 1j in values and -1j in values


def test_golden_ratio_values_stay_unsnapped():
    table = character_table(catalog("dihedral(5)"))
    values = [v for row in table.rows for v in row.values]
    # 1e-9 from the irrational value: neither snapped nor pulled onto a fraction
    for target in ((-1 + math.sqrt(5)) / 2, (-1 - math.sqrt(5)) / 2):
        assert any(abs(v.real - target) < 1e-9 for v in values)


def test_snap_only_to_half_integers():
    third = 1 / 3 + 5e-9  # within SNAP_TOL of 1/3, which is not in (1/2)Z
    assert _snap_half_integers(np.array([third]))[0] == third
    snapped = _snap_half_integers(np.array([-0.5 + 1e-9, -0.5 - 1e-9, 2.5 + 3e-8, 0.7]))
    assert snapped.tolist() == [-0.5, -0.5, 2.5, 0.7]


def test_snap_zero_is_positive_zero():
    snapped = _snap_half_integers(np.array([0.0, -0.0, 1e-9, -1e-9]))
    assert [math.copysign(1.0, z) for z in snapped] == [1.0] * 4
    assert snapped.tolist() == [0.0] * 4


def structure_constants_reference(G):
    """The dense (r, r, r) structure-constant tensor, counted element by element."""
    part = G.conjugacy_classes()
    r = part.num_classes
    inv = G._inverses
    class_of = np.array(part.class_of)
    reps = np.array(part.representatives, dtype=np.intp)
    mats = np.zeros((r, r, r), dtype=np.int64)
    for x in range(G.order):
        j_of_k = class_of[G.table[int(inv[x]), reps]]
        for k in range(r):
            mats[part.class_of[x], int(j_of_k[k]), k] += 1
    return mats


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + WORKLOAD_GROUPS)
def test_class_matrix_matches_tensordot(expr):
    G = catalog(expr)
    mats = structure_constants_reference(G).astype(float)
    cells, part = _class_cells(G)
    class_of = np.array(part.class_of)
    for attempt in range(_MAX_ATTEMPTS):
        coeffs = _attempt_coeffs(G.order, part.num_classes, attempt)
        M = _class_matrix(cells, class_of, coeffs)
        assert M.tobytes() == np.tensordot(coeffs, mats, axes=(0, 0)).tobytes()


@pytest.mark.parametrize("expr", BUNDLED_CATALOG)
def test_bundled_tables_are_orthogonal(expr):
    assert _orthogonality_ok(character_table(catalog(expr)))


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + WORKLOAD_GROUPS)
def test_rows_follow_degree_then_descending_values(expr):
    rows = character_table(catalog(expr)).rows
    key = lambda row: (row.degree, tuple((-v.real, -v.imag) for v in row.values))
    assert list(rows) == sorted(rows, key=key)
    assert all(v == 1 for v in rows[0].values)
