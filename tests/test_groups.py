import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smolab import groups
from smolab.errors import (ClosureExceedsLimit, InvalidPermutation,
                           UnknownCatalogEntry)
from smolab.groups import (BUNDLED_CATALOG, CATALOG_DEPTH_LIMIT, POINT_LIMIT, Q8_GENERATORS,
                           _plan, build_group, bundled_catalog, catalog,
                           central_product_mod_diagonal_center, cyclic, dihedral,
                           direct_product, parse_group_file, parse_permutation,
                           perm_to_cycles, q8_power_family, quaternion8,
                           quotient_by_central, symmetric)
from test_characters import WORKLOAD_GROUPS


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
    inverse = np.argmin(G.table, axis=1).tolist()  # g * inverse[g] is the identity 0
    while remaining:
        x = min(remaining)
        orbit = {G.mul(G.mul(inverse[g], x), g) for g in range(G.order)}
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
    inverse = np.argmin(G.table, axis=1).tolist()  # g * inverse[g] is the identity 0
    while remaining:
        x = min(remaining)
        orbit = {G.mul(G.mul(inverse[g], x), g) for g in range(G.order)}
        sizes.append(len(orbit))
        remaining -= orbit
    return sorted(sizes)


def _as_tuple(mapping, degree):
    images = list(range(degree))
    for a, b in mapping.items():
        images[a - 1] = b - 1
    return tuple(images)


def subgroup_closure_reference(G, gens):
    """Elements of the subgroup generated by ``gens``, by a set-based search."""
    members, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = G.mul(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return sorted(members)


def string_direct_product_reference(A, B, label=None):
    """Direct product closed from re-parsed cycle strings, the second factor's
    points shifted past the first's."""
    da = A.perms.shape[1] if A.order > 1 else 0
    gens = [parse_permutation(g) for g in A.generators]
    gens += [{a + da: b + da for a, b in parse_permutation(g).items()} for g in B.generators]
    return build_group(gens, limit=max(2000, A.order * B.order),
                       label=label or f"{A.label} x {B.label}")


def coset_loop_quotient_reference(G, central, label=None):
    """Central quotient by a Python coset loop: each coset numbered by its least
    element, and generator images found by scanning the element list."""
    Z = sorted(set(central) | {0})
    T = G.table
    coset_of, reps = [-1] * G.order, []
    for x in range(G.order):
        if coset_of[x] == -1:
            for z in Z:
                coset_of[int(T[x, z])] = len(reps)
            reps.append(x)
    perms = list(map(tuple, G.perms.tolist()))
    gens = []
    for g in G.generators:
        g_elem = perms.index(_as_tuple(parse_permutation(g), G.perms.shape[1]))
        gens.append({ci + 1: coset_of[int(T[rep, g_elem])] + 1 for ci, rep in enumerate(reps)})
    return build_group(gens, limit=max(2000, G.order), label=label)


def direct_power_q8_family_reference(m):
    """q8_power_family through the full direct power Q8^m, reduced modulo the
    subgroup identifying consecutive central involutions, times C2."""
    q8 = quaternion8()
    G = q8
    for _ in range(m - 1):
        G = string_direct_product_reference(G, q8)
    if m > 1:
        i_perm = _as_tuple(parse_permutation(Q8_GENERATORS[0]), 8)
        minus_one = tuple(i_perm[x] for x in i_perm)
        perms = list(map(tuple, G.perms.tolist()))
        z = [perms.index(tuple(range(8 * i)) + tuple(x + 8 * i for x in minus_one)
                         + tuple(range(8 * (i + 1), 8 * m))) for i in range(m)]
        kernel = subgroup_closure_reference(G, [G.mul(z[i], z[i + 1]) for i in range(m - 1)])
        G = coset_loop_quotient_reference(G, kernel)
    return string_direct_product_reference(G, cyclic(2))


def string_cyclic(n):
    """C_n closed from the parsed cycle string (1 2 ... n)."""
    if n == 1:
        return build_group([], label="C1")
    return build_group(["(" + " ".join(str(i) for i in range(1, n + 1)) + ")"], label=f"C{n}")


def string_dihedral(n):
    """D_n closed from the parsed rotation (1 2 ... n) and reflection i <-> n + 2 - i."""
    rot = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    pairs = [(i, n + 2 - i) for i in range(2, n // 2 + 2) if i < n + 2 - i]
    return build_group([rot, "".join(f"({a} {b})" for a, b in pairs)], label=f"D{n}")


def string_symmetric(n):
    """S_n closed from the parsed strings (1 2) and (1 2 ... n)."""
    cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return build_group(["(1 2)", cycle], label=f"S{n}")


def test_parse_cycles():
    assert parse_permutation("(1 2 3)(4 5)") == {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}
    assert parse_permutation("(1,2)") == {1: 2, 2: 1}
    assert parse_permutation("()") == {}
    assert parse_permutation("") == {}


@pytest.mark.parametrize("bad", ["(1 2", "1 2)", "(1 2)(2 3)", "(1 1)", "(a b)", "(0 1)",
                                 "(1 \u00b2)"])
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
            assert tuple(G.perms[G.mul(i, j)]) == composed


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
                y = G.mul(G.mul(int(np.argmin(G.table[g])), x), g)
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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_q8_power_family_matches_direct_power_reference(m):
    G = q8_power_family(m)
    R = direct_power_q8_family_reference(m)
    assert G.table.dtype == R.table.dtype
    assert G.table.tobytes() == R.table.tobytes()
    assert G.conjugacy_classes() == R.conjugacy_classes()


def test_quotient_by_central_matches_coset_loop():
    q8 = quaternion8()
    cases = [(q8, [next(z for z in q8.center() if z != 0)])]
    # product steps of central products, by the diagonal central involution
    for A, B in [("quaternion8", "quaternion8"), ("quaternion8", "dihedral(4)"),
                 ("dihedral(4)", "dihedral(4)")]:
        A, B = catalog(A), catalog(B)
        P = direct_product(A, B)
        (zA,), (zB,) = ([z for z in X.center() if z and X.mul(z, z) == 0] for X in (A, B))
        shifted = tuple(x + A.perms.shape[1] for x in B.perms[zB].tolist())
        perms = list(map(tuple, P.perms.tolist()))
        cases.append((P, [perms.index(tuple(A.perms[zA].tolist()) + shifted)]))
    for G, central in cases:
        Q = quotient_by_central(G, central, label="Q")
        R = coset_loop_quotient_reference(G, central, label="Q")
        assert np.array_equal(Q.perms, R.perms)
        assert Q.table.tobytes() == R.table.tobytes()
        assert Q.generators == R.generators


@pytest.mark.parametrize("expr", BUNDLED_CATALOG)
def test_center_matches_row_column_comparison(expr):
    G = catalog(expr)
    T = G.table
    assert G.center() == [z for z in range(G.order) if np.array_equal(T[z, :], T[:, z])]


def test_q8_power_family_builds_no_group_above_the_result(monkeypatch):
    orders = []
    close = groups._close

    def recording_close(*args, **kwargs):
        G = close(*args, **kwargs)
        orders.append(G.order)
        return G

    monkeypatch.setattr(groups, "_close", recording_close)
    assert catalog("q8_power_family(4)").order == 1024
    assert orders and max(orders) <= 1024


def test_generators_are_the_first_elements():
    for G in bundled_catalog().values():
        for k, g in enumerate(G.generators):
            assert perm_to_cycles(G.perms[k + 1].tolist()) == g


@pytest.mark.parametrize("text", ["(1 32768)", "(1 " + "9" * 5000 + ")",
                                  "(1 " + "0" * 5000 + "32768)"])
def test_points_above_the_int16_limit_are_rejected(text):
    with pytest.raises(InvalidPermutation):
        build_group([text])
    with pytest.raises(InvalidPermutation):
        build_group([{1: 2, 2: 1, 3: 3, POINT_LIMIT + 1: POINT_LIMIT + 1}])


def test_points_up_to_the_int16_limit_are_kept():
    G = build_group([f"(1 {POINT_LIMIT})", "(00002 0003)"])
    assert G.order == 4
    assert G.perms.dtype == np.int16 and G.perms.shape == (4, POINT_LIMIT)
    assert G.generators == (f"(1 {POINT_LIMIT})", "(2 3)")
    wide = build_group([f"(1 {POINT_LIMIT // 2 + 1})"])
    with pytest.raises(InvalidPermutation):
        direct_product(wide, wide)


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
    assert tuple(map(tuple, G.perms.tolist())) == perms
    assert np.array_equal(G.table, table)
    assert G.generators == tuple(perm_to_cycles(g) for g in gen_perms)


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + ("symmetric(5)", "dihedral(60)",
                                                   "q8_power_family(3)"))
def test_conjugacy_classes_match_set_reference(expr):
    G = catalog(expr)
    part = G.conjugacy_classes()
    assert (part.class_of, part.class_sizes, part.representatives) == set_classes_reference(G)


def _over(expr):
    return f"{expr} would build a group of order above 2000"


@pytest.mark.parametrize("expr,error,message", [
    ("direct_product(cyclic(50),cyclic(50))", ClosureExceedsLimit,
     _over("direct_product(cyclic(50),cyclic(50))")),
    ("central_product_mod_diagonal_center(q8_power_family(2),q8_power_family(2))",
     ClosureExceedsLimit,
     _over("central_product_mod_diagonal_center(q8_power_family(2),q8_power_family(2))")),
    ("cyclic(2000000)", ClosureExceedsLimit, _over("cyclic(2000000)")),
    ("dihedral(1001)", ClosureExceedsLimit, _over("dihedral(1001)")),
    ("symmetric(1000000000)", ClosureExceedsLimit, _over("symmetric(1000000000)")),
    ("q8_power_family(5)", ClosureExceedsLimit, _over("q8_power_family(5)")),
    ("q8_power_family(10000000000)", ClosureExceedsLimit, _over("q8_power_family(10000000000)")),
    # a negative factor passes the order rule: the product of orders is what counts
    ("direct_product(cyclic(-50),cyclic(-50))", ClosureExceedsLimit,
     _over("direct_product(cyclic(-50),cyclic(-50))")),
    ("direct_product(cyclic(2),cyclic(3000))", ClosureExceedsLimit, _over("cyclic(3000)")),
    ("cyclic(2,3)", UnknownCatalogEntry, "cyclic takes 1 argument(s), got 2 in 'cyclic(2,3)'"),
    ("quaternion8(2)", UnknownCatalogEntry,
     "quaternion8 takes 0 argument(s), got 1 in 'quaternion8(2)'"),
    ("direct_product(cyclic(2))", UnknownCatalogEntry,
     "direct_product takes 2 argument(s), got 1 in 'direct_product(cyclic(2))'"),
    ("frobnicate(3)", UnknownCatalogEntry, "unknown catalog entry 'frobnicate'"),
    ("cyclic(x)", UnknownCatalogEntry, "cyclic needs an integer argument in 'cyclic(x)'"),
    ("cyclic(", UnknownCatalogEntry, "cannot parse catalog expression 'cyclic('"),
    # arguments the order rules let through fail in the constructors
    ("cyclic(0)", UnknownCatalogEntry, "cyclic order must be >= 1"),
    ("dihedral(2)", UnknownCatalogEntry,
     "dihedral(n) needs n >= 3; use direct products below that"),
    ("symmetric(-3)", UnknownCatalogEntry, "symmetric(n) needs n >= 2"),
    ("q8_power_family(0)", UnknownCatalogEntry, "q8_power_family(m) needs m >= 1"),
    ("central_product_mod_diagonal_center(cyclic(2),cyclic(3))", UnknownCatalogEntry,
     "C3 has 0 central involutions; need exactly one"),
])
def test_catalog_rejection_messages(expr, error, message):
    with pytest.raises(error) as caught:
        catalog(expr)
    assert str(caught.value) == message


LONG_EXPRESSIONS = [
    # a 348-character line, and a 5000-digit integer called a non-integer: int()
    # refuses more than 4300 digits
    ("cyclic(" + "9" * 300 + ")", ClosureExceedsLimit,
     _over("cyclic(" + "9" * 53 + "...(308 characters)")),
    ("cyclic(" + "9" * 5000 + ")", ClosureExceedsLimit,
     _over("cyclic(" + "9" * 53 + "...(5008 characters)")),
    ("symmetric(-" + "9" * 5000 + ")", UnknownCatalogEntry, "symmetric(n) needs n >= 2"),
    ("direct_product(cyclic(-" + "9" * 5000 + "),cyclic(-2))", ClosureExceedsLimit,
     _over("direct_product(cyclic(-" + "9" * 37 + "...(5036 characters)")),
    ("a" * 400, UnknownCatalogEntry,
     "unknown catalog entry '" + "a" * 60 + "...(400 characters)'"),
    ("cyclic(x" + "9" * 400 + ")", UnknownCatalogEntry,
     "cyclic needs an integer argument in 'cyclic(x" + "9" * 52 + "...(409 characters)'"),
    ("cyclic(2," + "3" * 400 + ")", UnknownCatalogEntry,
     "cyclic takes 1 argument(s), got 2 in 'cyclic(2," + "3" * 51 + "...(410 characters)'"),
    ("cyclic(" + "9" * 400, UnknownCatalogEntry,
     "cannot parse catalog expression 'cyclic(" + "9" * 53 + "...(407 characters)'"),
]


@pytest.mark.parametrize("expr,error,message", LONG_EXPRESSIONS,
                         ids=[f"{expr[:12]}-{len(expr)}" for expr, _, _ in LONG_EXPRESSIONS])
def test_long_catalog_expressions_are_shown_bounded(expr, error, message):
    with pytest.raises(error) as caught:
        catalog(expr)
    assert str(caught.value) == message


def test_long_catalog_argument_with_leading_zeros_builds():
    assert catalog("q8_power_family(" + "0" * 5000 + "3)").order == 256


@pytest.mark.parametrize("digits", [1, 4, 20, 21, 300, 5000])
def test_long_catalog_arguments_keep_their_order_rules(digits):
    # past 20 digits an argument reads as its sign times 10**20, which every order
    # rule refuses or passes as it would the argument itself, alone or in a product
    sevens = 7 * (10**digits - 1) // 9
    for sign in (1, -1):
        n, arg = sign * sevens, ("-" if sign < 0 else "") + "7" * digits
        for entry, order in (("cyclic", n), ("dihedral", 2 * n),
                             ("q8_power_family", 4 ** (min(n, 11) + 1) if n >= 1 else 1)):
            for expr, refused in ((f"{entry}({arg})", order > 2000),
                                  (f"direct_product({entry}({arg}),cyclic(-3))",
                                   order > 2000 or -3 * order > 2000)):
                try:
                    _plan(expr)
                except ClosureExceedsLimit:
                    assert refused, (entry, sign, digits)
                else:
                    assert not refused, (entry, sign, digits)


@pytest.mark.parametrize("expr", [
    "direct_product(cyclic(40),direct_product(cyclic(7),cyclic(8)))",
    "central_product_mod_diagonal_center(q8_power_family(4),quaternion8)",
    "direct_product(cyclic(1)," * 1000 + "cyclic(2)" + ")" * 1000,
])
def test_catalog_refuses_before_any_closure(expr, monkeypatch):
    calls = []
    monkeypatch.setattr(groups, "_close", lambda *args: calls.append(args))
    with pytest.raises((ClosureExceedsLimit, UnknownCatalogEntry)):
        catalog(expr)
    assert calls == []


def test_catalog_nesting_bound():
    def nested(depth):
        return "direct_product(cyclic(1)," * depth + "cyclic(2)" + ")" * depth

    assert catalog(nested(CATALOG_DEPTH_LIMIT)).order == 2
    with pytest.raises(UnknownCatalogEntry) as caught:
        catalog(nested(CATALOG_DEPTH_LIMIT + 1))
    assert str(caught.value) == f"catalog nesting deeper than {CATALOG_DEPTH_LIMIT} levels"


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + WORKLOAD_GROUPS)
def test_planned_order_is_the_built_order(expr):
    order, build = _plan(expr)
    assert order == build().order == catalog(expr).order


@pytest.mark.parametrize("build,oracle,sizes", [
    (cyclic, string_cyclic, range(1, 121)),
    (dihedral, string_dihedral, [*range(3, 61), 999, 1000]),
    (symmetric, string_symmetric, range(2, 7)),
])
def test_row_built_entries_match_string_built(build, oracle, sizes):
    for n in sizes:
        G, R = build(n), oracle(n)
        assert G.perms.dtype == R.perms.dtype and np.array_equal(G.perms, R.perms), n
        assert G.table.dtype == R.table.dtype and G.table.tobytes() == R.table.tobytes(), n
        assert (G.generators, G.label) == (R.generators, R.label), n


def test_catalog_builds_up_to_the_limit():
    assert catalog("cyclic(2000)").order == 2000
    assert catalog("dihedral(1000)").order == 2000
    assert catalog("symmetric(6)").order == 720
    assert catalog("q8_power_family(4)").order == 1024


def orbit_classes_reference(G):
    """The former per-element orbit loop: each unassigned element's class is the
    sorted set of its conjugates by every element, classes ordered by (size, least)."""
    T = G.table
    inverse = np.argmin(T, axis=1)
    every = np.arange(G.order)
    assigned = np.full(G.order, -1)
    classes = []
    for x in range(G.order):
        if assigned[x] != -1:
            continue
        orbit = np.unique(T[T[inverse, x], every])
        assigned[orbit] = len(classes)
        classes.append(orbit)
    classes.sort(key=lambda c: (len(c), int(c[0])))
    class_of = np.empty(G.order, dtype=np.intp)
    for ci, members in enumerate(classes):
        class_of[members] = ci
    return (tuple(class_of.tolist()), tuple(len(c) for c in classes),
            tuple(int(c[0]) for c in classes))


# dihedral(999) takes the most rounds seen (258); cyclic(1) has no generators
@pytest.mark.parametrize("expr", BUNDLED_CATALOG + WORKLOAD_GROUPS + (
    "symmetric(5)", "dihedral(999)", "direct_product(cyclic(30),dihedral(15))", "cyclic(1)"))
def test_conjugacy_classes_match_orbit_loop(expr):
    G = catalog(expr)
    part = G.conjugacy_classes()
    assert (part.class_of, part.class_sizes, part.representatives) == orbit_classes_reference(G)


def test_file_group_with_a_repeated_generator_keeps_its_classes():
    G = build_group(parse_group_file("(1 2 3 4 5)\n(1 2)\n(1 2 3 4 5)\n()\n(1 2)\n"))
    assert (G.order, G.ngens, G.generators) == (120, 2, ("(1 2 3 4 5)", "(1 2)"))
    part = G.conjugacy_classes()
    assert (part.class_of, part.class_sizes, part.representatives) == orbit_classes_reference(G)


@pytest.mark.parametrize("expr", BUNDLED_CATALOG + WORKLOAD_GROUPS + ("cyclic(1)",))
def test_generators_are_the_cycle_strings_of_the_generator_rows(expr):
    G = catalog(expr)
    assert G.generators == tuple(perm_to_cycles(row) for row in G.perms[1:1 + G.ngens].tolist())


def test_unlabeled_groups_and_the_closure_limit_keep_their_text():
    assert build_group(["(1 2 3)", "(1 2)", "(1 2 3)", "()"]).label == "<(1 2 3), (1 2)>"
    assert build_group(["()"]).label == build_group([]).label == "trivial"
    with pytest.raises(ClosureExceedsLimit) as caught:
        build_group(["(1 2)", "(1 2 3 4 5 6 7)", "(1 2)", "()"], limit=10)
    assert str(caught.value) == "closure exceeds limit 10 (generators ['(1 2)', '(1 2 3 4 5 6 7)'])"
