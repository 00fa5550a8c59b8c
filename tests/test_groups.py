import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolab.errors import (ClosureExceedsLimit, InvalidPermutation,
                           UnknownCatalogEntry)
from smolab.groups import (BUNDLED_CATALOG, _conjugacy_classes, build_group, bundled_catalog,
                           catalog, central_product_mod_diagonal_center,
                           cyclic, dihedral, direct_product, parse_group_file,
                           parse_permutation, perm_to_cycles, q8_power_family,
                           quaternion8, quotient_by_central, symmetric)


def brute_closure(gen_maps, cap=10000):
    """Independent set-based closure oracle (no numbering, no tables)."""
    degree = max((max(m) for m in gen_maps if m), default=0)
    def full(m):
        return tuple(m.get(i, i) - 1 for i in range(1, degree + 1))
    identity = tuple(range(degree))
    gens = [full(m) for m in gen_maps]
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in seen:
                assert len(seen) < cap
                seen.add(y)
                frontier.append(y)
    return seen


def tuple_bfs_reference(gen_maps, limit):
    """One-element-queue closure over permutation tuples, filling the table
    column by column: the numbering and table the level-wise closure must match.
    Returns (perms, table, generator perms), or None past ``limit``."""
    degree = max((max(m) for m in gen_maps if m), default=0)
    identity = tuple(range(degree))
    gen_perms = []
    for m in gen_maps:
        perm = tuple(m.get(i, i) - 1 for i in range(1, degree + 1))
        if perm != identity and perm not in gen_perms:
            gen_perms.append(perm)
    elems, index, parent = [identity], {identity: 0}, [(-1, -1)]
    head = 0
    while head < len(elems):
        for gi, g in enumerate(gen_perms):
            y = tuple(g[x] for x in elems[head])
            if y not in index:
                if len(elems) >= limit:
                    return None
                index[y] = len(elems)
                elems.append(y)
                parent.append((head, gi))
        head += 1
    order = len(elems)
    table = np.zeros((order, order), dtype=np.int64)
    table[:, 0] = np.arange(order)
    gen_elems = [index[g] for g in gen_perms]
    for g_elem, g in zip(gen_elems, gen_perms):
        table[:, g_elem] = [index[tuple(g[x] for x in e)] for e in elems]
    for j in range(1, order):
        p, gi = parent[j]
        if p > 0:
            table[:, j] = table[table[:, p], gen_elems[gi]]
    return tuple(elems), table, gen_perms


def set_classes_reference(G):
    """Conjugacy classes as sets of G.mul conjugates, ordered by (size, least element)."""
    classes, remaining = [], set(range(G.order))
    while remaining:
        x = min(remaining)
        orbit = {G.mul(G.mul(G.inverse(g), x), g) for g in range(G.order)}
        classes.append(sorted(orbit))
        remaining -= orbit
    classes.sort(key=lambda c: (len(c), c[0]))
    class_of = [0] * G.order
    for ci, members in enumerate(classes):
        for y in members:
            class_of[y] = ci
    return tuple(class_of), tuple(map(len, classes)), tuple(c[0] for c in classes)


def brute_class_sizes(G):
    """Exhaustive conjugation oracle on the multiplication table."""
    sizes = []
    remaining = set(range(G.order))
    while remaining:
        x = min(remaining)
        orbit = {G.mul(G.mul(G.inverse(g), x), g) for g in range(G.order)}
        sizes.append(len(orbit))
        remaining -= orbit
    return sorted(sizes)


def test_parse_cycles():
    assert parse_permutation("(1 2 3)(4 5)") == {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}
    assert parse_permutation("(1,2)") == {1: 2, 2: 1}
    assert parse_permutation("()") == {}
    assert parse_permutation("") == {}


@pytest.mark.parametrize("bad", ["(1 2", "1 2)", "(1 2)(2 3)", "(1 1)", "(a b)", "(0 1)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(InvalidPermutation):
        parse_permutation(bad)


def test_cycle_roundtrip():
    for text in ["(1 2 3)(4 5)", "(2 7)", "()"]:
        m = parse_permutation(text)
        degree = max(m, default=0)
        perm = tuple(m.get(i, i) - 1 for i in range(1, degree + 1))
        assert parse_permutation(perm_to_cycles(perm)) == m


def test_single_transposition_gives_c2():
    G = build_group(["(1 2)"])
    assert G.order == 2
    G.validate()


def test_empty_generators_give_trivial_group():
    G = build_group([])
    assert G.order == 1
    assert G.conjugacy_classes().class_sizes == (1,)
    G.validate()


def test_quaternion_group_matches_brute_closure():
    G = quaternion8()
    oracle = brute_closure([parse_permutation(g) for g in G.generators])
    assert G.order == len(oracle) == 8
    assert G.conjugacy_classes().class_sizes == (1, 1, 2, 2, 2)
    assert brute_class_sizes(G) == [1, 1, 2, 2, 2]
    G.validate()


def test_s3_classes_match_exhaustive_conjugation():
    G = build_group(["(1 2)", "(1 2 3)"])
    assert G.order == 6
    assert G.conjugacy_classes().class_sizes == (1, 2, 3)
    assert brute_class_sizes(G) == [1, 2, 3]


def test_closure_limit_enforced():
    with pytest.raises(ClosureExceedsLimit):
        build_group(["(1 2)", "(1 2 3 4 5 6 7)"], limit=10)


def test_table_matches_direct_composition():
    G = symmetric(4)
    for i in range(G.order):
        for j in range(G.order):
            composed = tuple(G.perms[j][x] for x in G.perms[i])
            assert G.perms[G.mul(i, j)] == composed


def test_conjugacy_class_invariants():
    for expr in ("symmetric(4)", "dihedral(6)", "quaternion8"):
        G = catalog(expr)
        part = G.conjugacy_classes()
        assert sum(part.class_sizes) == G.order
        for size in part.class_sizes:
            assert G.order % size == 0
        # class_of constant on conjugates
        for x in range(G.order):
            for g in range(G.order):
                y = G.mul(G.mul(G.inverse(g), x), g)
                assert part.class_of[y] == part.class_of[x]


def test_direct_product_order_and_commuting_blocks():
    G = direct_product(quaternion8(), cyclic(2))
    assert G.order == 16
    G.validate()


def test_quotient_by_central_involution():
    q8 = quaternion8()
    minus_one = next(z for z in q8.center() if z != 0)
    Q = quotient_by_central(q8, [minus_one])
    assert Q.order == 4
    assert Q.conjugacy_classes().num_classes == 4  # Klein four group


def test_central_product_is_extraspecial_size():
    G = central_product_mod_diagonal_center(quaternion8(), quaternion8())
    assert G.order == 32
    assert G.conjugacy_classes().num_classes == 17
    G.validate()


def test_central_product_requires_unique_involution():
    # the Klein four group has three central involutions: ambiguous
    with pytest.raises(UnknownCatalogEntry):
        central_product_mod_diagonal_center(direct_product(cyclic(2), cyclic(2)), quaternion8())


def test_q8_power_family_orders():
    G1 = q8_power_family(1)
    assert G1.order == 16
    G2 = q8_power_family(2)
    assert G2.order == 64
    G2.validate()


def test_catalog_expressions():
    assert catalog("cyclic(6)").order == 6
    assert catalog("cyclic(6)").conjugacy_classes().num_classes == 6
    assert catalog("quaternion8").order == 8
    assert catalog("direct_product(quaternion8,cyclic(2))").order == 16
    with pytest.raises(UnknownCatalogEntry):
        catalog("frobnicate(3)")
    with pytest.raises(UnknownCatalogEntry):
        catalog("cyclic(x)")


def test_bundled_catalog_complete_and_small():
    cat = bundled_catalog()
    assert len(cat) >= 20
    for name, G in cat.items():
        assert G.order <= 64, name
    for required in ("quaternion8", "dihedral(4)", "symmetric(3)", "symmetric(4)",
                     "direct_product(quaternion8,cyclic(2))", "q8_power_family(1)"):
        assert required in cat
    # at least two extraspecial central products
    assert sum(1 for name in cat if name.startswith("central_product")) >= 2


def test_group_file_parsing():
    text = "# a comment\n(1 2 3 4)\n\n(1 3) # inline\n"
    assert parse_group_file(text) == ["(1 2 3 4)", "(1 3)"]


def test_validate_large_group_sampled():
    G = cyclic(500)  # order above the exhaustive threshold
    G.validate(sample_triples=2000)


@st.composite
def generator_maps(draw):
    n = draw(st.integers(1, 8))
    perms = draw(st.lists(st.permutations(range(n)), max_size=3))
    return [{i + 1: p[i] + 1 for i in range(n)} for p in perms]


@settings(max_examples=100, deadline=None)
@given(generator_maps(), st.sampled_from([24, 500, 2000]))
def test_closure_matches_tuple_bfs(gen_maps, limit):
    reference = tuple_bfs_reference(gen_maps, limit)
    if reference is None:
        with pytest.raises(ClosureExceedsLimit):
            build_group(gen_maps, limit=limit)
        return
    G = build_group(gen_maps, limit=limit)
    perms, table, gen_perms = reference
    assert G.perms == perms
    assert np.array_equal(G.table, table)
    assert G.generators == tuple(perm_to_cycles(g) for g in gen_perms)


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + ("symmetric(5)", "dihedral(60)",
                                                   "q8_power_family(3)"))
def test_conjugacy_classes_match_set_reference(expr):
    G = catalog(expr)
    part = _conjugacy_classes(G)
    assert (part.class_of, part.class_sizes, part.representatives) == set_classes_reference(G)


@pytest.mark.parametrize("expr,error", [
    ("direct_product(cyclic(50),cyclic(50))", ClosureExceedsLimit),
    ("central_product_mod_diagonal_center(q8_power_family(2),q8_power_family(2))",
     ClosureExceedsLimit),
    ("cyclic(2000000)", ClosureExceedsLimit),
    ("dihedral(1001)", ClosureExceedsLimit),
    ("symmetric(1000000000)", ClosureExceedsLimit),
    ("q8_power_family(5)", ClosureExceedsLimit),
    ("q8_power_family(10000000000)", ClosureExceedsLimit),
    ("cyclic(2,3)", UnknownCatalogEntry),
    ("quaternion8(2)", UnknownCatalogEntry),
    ("direct_product(cyclic(2))", UnknownCatalogEntry),
])
def test_catalog_rejects_before_building(expr, error):
    with pytest.raises(error):
        catalog(expr)


def test_catalog_builds_up_to_the_limit():
    assert catalog("cyclic(2000)").order == 2000
    assert catalog("dihedral(1000)").order == 2000
    assert catalog("symmetric(6)").order == 720
    assert catalog("q8_power_family(4)").order == 1024
