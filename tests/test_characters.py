import gc
import math
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from smolab import characters
from smolab.characters import (ORTHOGONALITY_TOL, VALUE_EQ_TOL, Verdict, _class_cells,
                               _class_matrix, _orthogonality_ok, _round_coeffs, _row_order,
                               _snap_half_integers, agreement_fraction, character_table,
                               distinguishing_threshold, extremal_search, inner_product,
                               lemma_check)
from smolab.errors import ClassMismatch, DegreeMismatch, NumericalDegeneracy
from smolab.groups import BUNDLED_CATALOG, build_group, bundled_catalog, catalog

# the groups of the character-tables benchmark workload
WORKLOAD_GROUPS = ("q8_power_family(3)", "direct_product(q8_power_family(2),dihedral(5))",
                   "cyclic(120)", "symmetric(6)")


def expand_to_elements(chi, G):
    """Character as a function on all elements (independent of class sums)."""
    part = G.conjugacy_classes()
    values = chi.values.tolist()
    return [values[part.class_of[g]] for g in range(G.order)]


def integer_row(values):
    """The row's values as ints when each is within VALUE_EQ_TOL of one, else None."""
    ints = np.round(values.real)
    if (np.all(np.abs(values.imag) <= VALUE_EQ_TOL)
            and np.all(np.abs(values.real - ints) <= VALUE_EQ_TOL)):
        return tuple(ints.astype(np.int64).tolist())
    return None


def elementwise_inner(chi, psi, G):
    a = expand_to_elements(chi, G)
    b = expand_to_elements(psi, G)
    return sum(x * y.conjugate() for x, y in zip(a, b)) / G.order


def test_group_and_table_are_freed_without_the_cycle_collector():
    # a table kept in its group's cache formed a cycle that only the cyclic
    # collector freed, so a run's peak memory depended on when it ran
    G = catalog("symmetric(4)")
    table = character_table(G)
    group, rows = weakref.ref(G), weakref.ref(table)
    gc.disable()
    try:
        del G, table
        assert group() is None and rows() is None
    finally:
        gc.enable()


def test_c2_table_is_exact():
    G = build_group(["(1 2)"])
    table = character_table(G)
    assert [r.degree for r in table.rows] == [1, 1]
    assert table.values.tolist() == [[(1 + 0j), (1 + 0j)], [(1 + 0j), (-1 + 0j)]]


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
    assert a.values.tobytes() == b.values.tobytes()


# groups above 200 classes, whose table bytes followed the BLAS thread count
# while the full eigh ran multithreaded
THREAD_COUNT_GROUPS = ("cyclic(250)", "cyclic(600)", "dihedral(999)",
                       "direct_product(cyclic(30),dihedral(15))")

# prints whether importing smolab looked up the BLAS, then a digest per table
_DIGEST_PROBE = """
import hashlib, sys
import smolab
from smolab.characters import _blas_thread_functions, character_table
from smolab.groups import catalog
print(_blas_thread_functions.cache_info().currsize)
for expr in sys.argv[1:]:
    print(expr, hashlib.sha256(character_table(catalog(expr)).values.tobytes()).hexdigest())
"""


def _bundled_openblas():
    """numpy's bundled OpenBLAS thread-count (get, set), skipping the test without one."""
    functions = characters._blas_thread_functions()
    if functions is None:
        pytest.skip("numpy bundles no OpenBLAS here, so the BLAS thread count is not pinned")
    return functions


def test_table_bytes_do_not_depend_on_the_blas_thread_count():
    _bundled_openblas()
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for threads in ("1", "2", "3"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _DIGEST_PROBE, *THREAD_COUNT_GROUPS],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # the lookup happens on the first table, not at import
        assert proc.stdout.startswith("0\n"), proc.stdout
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def test_table_pins_one_blas_thread_and_restores_the_count(monkeypatch):
    get, set_ = _bundled_openblas()
    found, seen = get(), []
    solve = characters._eigenvector_rows

    def recording(*args):
        seen.append(get())
        return solve(*args)

    def failing(*args):
        seen.append(get())
        raise NumericalDegeneracy("planted")

    G = catalog("symmetric(4)")
    try:
        set_(3)
        monkeypatch.setattr(characters, "_eigenvector_rows", recording)
        character_table(G)
        assert (seen, get()) == ([1], 3)
        monkeypatch.setattr(characters, "_eigenvector_rows", failing)
        with pytest.raises(NumericalDegeneracy, match="planted"):
            character_table(G)
        assert (seen, get()) == ([1, 1], 3)
    finally:
        set_(found)


@pytest.mark.parametrize("expr", WORKLOAD_GROUPS)
def test_table_without_a_bundled_openblas_is_the_same(monkeypatch, expr):
    # the path of every other BLAS: nothing is pinned, and below 200 classes
    # the bytes are the same
    pinned = character_table(catalog(expr)).values.tobytes()
    monkeypatch.setattr(characters, "_blas_thread_functions", lambda: None)
    assert character_table(catalog(expr)).values.tobytes() == pinned


def test_complex_values_snap_to_gaussian_grid():
    table = character_table(catalog("cyclic(4)"))
    values = {v for row in table.rows for v in row.values.tolist()}
    assert 1j in values and -1j in values


def test_golden_ratio_values_stay_unsnapped():
    table = character_table(catalog("dihedral(5)"))
    values = [v for row in table.rows for v in row.values.tolist()]
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
    inverse = class_of[G._inverses[np.array(part.representatives, dtype=np.intp)]]
    sizes = np.array(part.class_sizes, dtype=float)
    for round_ in range(3):
        sym, anti = _round_coeffs(G.order, part.num_classes, inverse, round_)
        assert np.array_equal(sym, sym[inverse]) and np.array_equal(anti, -anti[inverse])
        for coeffs, sign in ((sym, 1), (anti, -1)):
            M = _class_matrix(cells, class_of, coeffs)
            assert M.tobytes() == np.tensordot(coeffs, mats, axes=(0, 0)).tobytes()
            # D^(-1/2) M D^(1/2) is (anti)symmetric: M[j, k] |C_k| exactly so
            N = M * sizes
            assert np.array_equal(N, sign * N.T)


@pytest.mark.parametrize("expr", BUNDLED_CATALOG)
def test_bundled_tables_are_orthogonal(expr):
    assert _orthogonality_ok(character_table(catalog(expr)))


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + WORKLOAD_GROUPS)
def test_rows_follow_degree_then_descending_values(expr):
    rows = character_table(catalog(expr)).rows
    key = lambda row: (row.degree, tuple((-v.real, -v.imag) for v in row.values.tolist()))
    assert list(rows) == sorted(rows, key=key)
    assert all(v == 1 for v in rows[0].values)


# the eigenvalue gap, relative to the spectrum, below which an attempt failed
FORMER_EIG_SEPARATION_TOL = 1e-8


def attempt_coeffs(order, r, attempt):
    """The random class-sum combination of one attempt of the former retry loop."""
    rng = random.Random(f"class-algebra:{order}:{r}:{attempt}")
    return np.array([rng.randrange(1, 1000) for _ in range(r)], dtype=float)


def try_table_per_row(G, cells, part, attempt):
    """The former eig-based _try_table, one character per loop step: (degree,
    values, integer_values) rows in table order, or None where the attempt fails."""
    r = part.num_classes
    order = G.order
    sizes = np.array(part.class_sizes, dtype=float)
    coeffs = attempt_coeffs(order, r, attempt)
    M = _class_matrix(cells, np.array(part.class_of), coeffs)
    eigvals, eigvecs = np.linalg.eig(M)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    gaps = np.abs(eigvals[:, None] - eigvals[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.any(gaps <= FORMER_EIG_SEPARATION_TOL * scale):
        return None
    order_idx = np.lexsort((eigvals.imag, eigvals.real))
    eigvecs = eigvecs[:, order_idx]

    rows = []
    sum_sq = 0
    for t in range(r):
        v = eigvecs[:, t]
        if abs(v[0]) < 1e-12:
            return None
        omega = v / v[0]
        norm = float(np.sum(np.abs(omega) ** 2 / sizes))
        deg_f = (order / norm) ** 0.5
        degree = int(round(deg_f))
        if degree < 1 or abs(deg_f - degree) > 1e-6:
            return None
        sum_sq += degree * degree
        raw = omega * degree / sizes
        values = np.empty(r, dtype=complex)
        values.real = _snap_half_integers(raw.real)
        values.imag = _snap_half_integers(raw.imag)
        if abs(values[0] - degree) > VALUE_EQ_TOL or np.any(np.abs(values) > degree + 1e-6):
            return None
        ints = np.round(values.real)
        integral = bool(np.all(np.abs(values.imag) <= VALUE_EQ_TOL)
                        and np.all(np.abs(values.real - ints) <= VALUE_EQ_TOL))
        rows.append((degree, tuple(values.tolist()),
                     tuple(map(int, ints)) if integral else None))
    if sum_sq != order:
        return None
    vals = np.array([row[1] for row in rows])
    keys = np.empty((2 * r, r))
    keys[0::2] = -vals.real.T
    keys[1::2] = -vals.imag.T
    ranked = np.lexsort(np.vstack([keys[::-1], [[row[0] for row in rows]]]))
    rows = [rows[i] for i in ranked]
    vals = np.array([row[1] for row in rows])
    gram = (vals * sizes) @ vals.conj().T
    if np.max(np.abs(gram - order * np.eye(r))) > ORTHOGONALITY_TOL * order:
        return None
    return rows


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + WORKLOAD_GROUPS)
def test_array_table_matches_per_row_reference(expr):
    # independent oracle: the former eig solve with its retries, row by row
    G = catalog(expr)
    cells, part = _class_cells(G)
    for attempt in range(8):
        expected = try_table_per_row(G, cells, part, attempt)
        if expected is not None:
            break
    else:
        raise AssertionError(f"no attempt of the reference succeeded on {expr}")
    table = character_table(G)
    assert [(row.degree, integer_row(row.values)) for row in table.rows] == \
        [(degree, ints) for degree, _, ints in expected]
    # row order and values; the arithmetic differs, so not the last bits
    reference = np.array([values for _, values, _ in expected])
    assert np.max(np.abs(table.values - reference)) <= 1e-9
    assert not table.values.flags.writeable
    assert table.values.flags.c_contiguous


def test_one_full_symmetric_solve_and_no_eig(monkeypatch):
    # one eigh of the whole class algebra; refinement only solves small stacked blocks
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    def no_eig(a):
        raise AssertionError("np.linalg.eig called")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eig", no_eig)
    for expr in ("symmetric(6)", "cyclic(120)", "q8_power_family(3)"):
        G = catalog(expr)
        r = G.conjugacy_classes().num_classes
        shapes.clear()
        assert _orthogonality_ok(character_table(G))
        assert shapes[0] == (r, r)
        assert all(len(s) == 3 and s[1] < r for s in shapes[1:]), shapes
        # only symmetric(6) has neither conjugate pairs nor coincident eigenvalues
        assert (len(shapes) == 1) == (expr == "symmetric(6)")


def test_unsplittable_eigenspaces_raise(monkeypatch):
    # a tolerance no gap can exceed puts every eigenvalue in one cluster for good
    monkeypatch.setattr(characters, "EIG_SEPARATION_TOL", 1e300)
    with pytest.raises(NumericalDegeneracy, match="unsplit"):
        character_table(catalog("symmetric(3)"))


def _s3_rows(pick):
    """Eigenvector rows of symmetric(3)'s class algebra (trivial, sign,
    standard): row i of its table times the class sizes over the degree."""
    table = character_table(catalog("symmetric(3)"))
    sizes = np.array(table.partition.class_sizes, dtype=float)
    return np.array([table.values[i] * sizes / table.rows[i].degree for i in pick])


@pytest.mark.parametrize("rows,message", [
    (lambda: np.zeros((3, 3)), "an eigenvector has a zero identity-class entry"),
    (lambda: np.ones((3, 3)), "a degree is not a positive integer"),
    (lambda: np.array([[1.0, 0.0, 3 * math.sqrt(5 / 3)]] * 3),
     "a value is above its character's degree"),
    (lambda: _s3_rows([0, 1, 1]), "the squared degrees sum to 3, not the order 6"),
    (lambda: _s3_rows([0, 0, 2]), "the rows are not orthogonal"),
], ids=["identity-entry", "degree", "value", "squared-degrees", "orthogonality"])
def test_each_failed_table_check_is_named(monkeypatch, rows, message):
    omega = rows()
    monkeypatch.setattr(characters, "_eigenvector_rows", lambda G, cells, part: omega)
    with pytest.raises(NumericalDegeneracy) as failure:
        character_table(catalog("symmetric(3)"))
    assert str(failure.value) == f"character table of S3: {message}"


# rows equal at a class with an irrational value: on the former exact-key
# sort, the last bits of those values decided the row order
NEAR_TIE_GROUPS = ("direct_product(cyclic(7),dihedral(9))",
                   "direct_product(symmetric(4),cyclic(6))",
                   "direct_product(quaternion8,cyclic(15))")


def exact_key_order(degrees, values):
    r = values.shape[1]
    keys = np.empty((2 * r, values.shape[0]))
    keys[0::2] = -values.real.T
    keys[1::2] = -values.imag.T
    return np.lexsort(np.vstack([keys[::-1], degrees[None, :]]))


@pytest.mark.parametrize("expr", NEAR_TIE_GROUPS)
def test_row_order_ignores_float_noise(expr):
    table = character_table(catalog(expr))
    degrees = np.array(table.degrees)
    identity = np.arange(len(degrees))
    rng = np.random.default_rng(1)
    moved = False
    for _ in range(5):
        noise = rng.uniform(-1e-13, 1e-13, (2,) + table.values.shape)
        perturbed = table.values + noise[0] + 1j * noise[1]
        assert np.array_equal(_row_order(degrees, perturbed), identity)
        moved |= not np.array_equal(exact_key_order(degrees, perturbed), identity)
    assert np.array_equal(_row_order(degrees, table.values), identity)
    # the same noise does reorder rows under exact float keys
    assert moved


def test_extremal_bound_attained_at_degrees_8_and_16():
    for expr, n, expected in (("q8_power_family(3)", 8, Fraction(127, 128)),
                              ("q8_power_family(4)", 16, Fraction(511, 512))):
        G = catalog(expr)
        best = extremal_search(G, n)
        assert best.fraction == expected == distinguishing_threshold(n)
        assert _orthogonality_ok(character_table(G))
        assert sum(d * d for d in character_table(G).degrees) == G.order


@pytest.mark.parametrize("expr", ("symmetric(4)", "cyclic(12)", "q8_power_family(2)"))
def test_rows_are_read_only_views_of_the_table(expr):
    table = character_table(catalog(expr))
    for i, row in enumerate(table.rows):
        assert np.shares_memory(row.values, table.values[i])
        assert np.array_equal(row.values, table.values[i])
        assert not row.values.flags.writeable
        with pytest.raises(ValueError):
            row.values[0] = 0


def extremal_by_pairs(G, n):
    """The former pair loop: (fraction, pair) of the first pair of distinct
    degree-n rows with the most agreement, class by class in Python."""
    table = character_table(G)
    sizes = G.conjugacy_classes().class_sizes
    values = table.values.tolist()
    best = None
    for i, j in combinations(table.rows_of_degree(n), 2):
        agree = sum(s for s, a, b in zip(sizes, values[i], values[j])
                    if abs(a - b) <= VALUE_EQ_TOL)
        if best is None or agree > best[0]:
            best = (agree, (i, j))
    return None if best is None else (Fraction(best[0], G.order), best[1])


@pytest.mark.parametrize("expr,degrees", [(expr, None)
                                          for expr in BUNDLED_CATALOG + WORKLOAD_GROUPS]
                         + [("cyclic(300)", (1,))])
def test_extremal_search_matches_the_pair_loop(expr, degrees):
    G = catalog(expr)
    for n in degrees or sorted(set(character_table(G).degrees)):
        found, expected = extremal_search(G, n), extremal_by_pairs(G, n)
        if expected is None:
            assert found is None, n
        else:
            assert (found.fraction, found.pair, found.degree) == (*expected, n)
