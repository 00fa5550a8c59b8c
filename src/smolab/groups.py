"""Finite groups as permutation closures with explicit multiplication tables.

Elements are numbered 0..order-1 by breadth-first closure from the identity,
taking generators in the order given.  Permutations compose left-to-right:
``(a * b)(x) == b[a[x]]``, so the stored table satisfies T[i, j] = index of
perm_i * perm_j.  Everything is immutable after construction.

The closure runs a level at a time on integer arrays: one fancy-index
expression forms every product x * g of the current level, row by row in
(parent, generator) order, and the rows not seen before, in that order,
become the next level.  This numbers the elements exactly as a one-element
queue would.  The products give the generator columns of the table, and each
remaining column j = parent(j) * g is filled a level at a time from
i * j = (i * parent(j)) * g.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ClosureExceedsLimit, InvalidPermutation, UnknownCatalogEntry

ORDER_LIMIT = 2000

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str) -> dict[int, int]:
    """Parse cycle notation like ``(1 2 3)(4 5)`` into a 1-based point map.

    Points may be separated by spaces or commas.  ``()`` and the empty string
    denote the identity.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        return {}
    if not stripped.startswith("("):
        raise InvalidPermutation(f"expected cycle notation, got {text!r}")
    consumed = "".join(_CYCLE_RE.findall(stripped))
    plain = re.sub(r"[\s,()]", "", stripped)
    if re.sub(r"[\s,]", "", consumed) != plain:
        raise InvalidPermutation(f"malformed cycles in {text!r}")
    mapping: dict[int, int] = {}
    for cycle_text in _CYCLE_RE.findall(stripped):
        points: list[int] = []
        for token in re.split(r"[\s,]+", cycle_text.strip()):
            if not token:
                continue
            if not token.isdigit():
                raise InvalidPermutation(f"non-integer point {token!r} in {text!r}")
            points.append(int(token))
        if not points:
            continue
        if any(p < 1 for p in points):
            raise InvalidPermutation(f"points must be >= 1 in {text!r}")
        if len(set(points)) != len(points):
            raise InvalidPermutation(f"repeated point inside a cycle of {text!r}")
        for p in points:
            if p in mapping:
                raise InvalidPermutation(f"point {p} appears in two cycles of {text!r}")
        for a, b in zip(points, points[1:] + points[:1]):
            mapping[a] = b
    return mapping


def _as_tuple(mapping: dict[int, int], degree: int) -> tuple[int, ...]:
    # 0-based image tuple on points 0..degree-1
    images = list(range(degree))
    for a, b in mapping.items():
        images[a - 1] = b - 1
    return tuple(images)


def perm_to_cycles(perm: tuple[int, ...]) -> str:
    """Render a 0-based image tuple back to 1-based cycle notation."""
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen[x] = True
            x = perm[x]
        out.append("(" + " ".join(str(p + 1) for p in cycle) + ")")
    return "".join(out) if out else "()"


@dataclass(frozen=True)
class ConjugacyClassPartition:
    """Partition of element indices into conjugacy classes.

    Classes are ordered by (size, least element), so the identity class is
    always class 0.
    """

    class_of: tuple[int, ...]
    class_sizes: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """A finite group with elements 0..order-1 and a full multiplication table."""

    order: int
    table: np.ndarray
    perms: tuple[tuple[int, ...], ...]
    generators: tuple[str, ...]
    label: str
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self._inverses[a])

    @property
    def _inverses(self) -> np.ndarray:
        inv = self._cache.get("inverses")
        if inv is None:
            inv = np.argmin(self.table, axis=1)  # identity is element 0
            self._cache["inverses"] = inv
        return inv

    def conjugacy_classes(self) -> ConjugacyClassPartition:
        part = self._cache.get("classes")
        if part is None:
            part = _conjugacy_classes(self)
            self._cache["classes"] = part
        return part

    def center(self) -> list[int]:
        return [z for z in range(self.order)
                if bool(np.array_equal(self.table[z, :], self.table[:, z]))]

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def validate(self, sample_triples: int = 100_000, seed: int = 0) -> None:
        """Check identity, inverses and associativity.

        Associativity is checked exhaustively for order <= 256 and on
        ``sample_triples`` seeded random triples above that.
        """
        T = self.table
        n = self.order
        if not (np.array_equal(T[0, :], np.arange(n)) and np.array_equal(T[:, 0], np.arange(n))):
            raise AssertionError("element 0 is not a two-sided identity")
        inv = self._inverses
        if not np.array_equal(T[np.arange(n), inv], np.zeros(n, dtype=T.dtype)):
            raise AssertionError("missing two-sided inverses")
        if n <= 256:
            # (ab)c == a(bc) for all triples, fully vectorized
            ab_c = T[T, :]
            a_bc = T[:, T]
            if not np.array_equal(ab_c, a_bc):
                raise AssertionError("multiplication table is not associative")
        else:
            rng = random.Random(seed)
            for _ in range(sample_triples):
                a = rng.randrange(n)
                b = rng.randrange(n)
                c = rng.randrange(n)
                if T[T[a, b], c] != T[a, T[b, c]]:
                    raise AssertionError(f"associativity fails at ({a},{b},{c})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FiniteGroup({self.label!r}, order={self.order})"


def build_group(generators: Sequence[str] | Sequence[dict[int, int]],
                limit: int = ORDER_LIMIT,
                label: str | None = None) -> FiniteGroup:
    """Close a set of permutations (cycle notation) into a FiniteGroup.

    Raises ClosureExceedsLimit if the closure grows past ``limit`` and
    InvalidPermutation on malformed cycles.
    """
    maps = [parse_permutation(g) if isinstance(g, str) else dict(g) for g in generators]
    degree = max((max(m) for m in maps if m), default=0)
    gen_perms: list[tuple[int, ...]] = []
    identity = tuple(range(degree))
    for m in maps:
        perm = _as_tuple(m, degree)
        if sorted(perm) != list(range(degree)):
            raise InvalidPermutation("mapping is not a bijection")
        if perm != identity and perm not in gen_perms:
            gen_perms.append(perm)

    # level-wise breadth-first closure from the identity: row c of a level's
    # candidates is perm_(start + c // ngens) * gen_(c % ngens), so new elements
    # are numbered in (parent, generator) order
    ngens = len(gen_perms)
    gens = np.array(gen_perms, dtype=np.intp).reshape(ngens, degree)
    level = np.arange(degree, dtype=np.intp)[None, :]
    index = {level.tobytes(): 0}
    levels = [level]
    words: list[tuple[np.ndarray, np.ndarray]] = []  # (parents, generator nos.) per level
    right: list[np.ndarray] = []  # right[x, g] = index of perm_x * gen_g
    start = 0
    while ngens and len(level):
        cand = np.ascontiguousarray(gens[:, level].transpose(1, 0, 2)).reshape(-1, degree)
        col = np.empty(len(cand), dtype=np.intp)
        fresh: list[int] = []
        for c, key in enumerate(cand.view(f"V{cand.itemsize * degree}").ravel().tolist()):
            j = index.get(key)
            if j is None:
                if len(index) >= limit:
                    raise ClosureExceedsLimit(
                        f"closure exceeds limit {limit} (generators {list(generators)!r})")
                j = index[key] = len(index)
                fresh.append(c)
            col[c] = j
        right.append(col.reshape(-1, ngens))
        fresh_at = np.array(fresh, dtype=np.intp)
        words.append((start + fresh_at // ngens, fresh_at % ngens))
        start += len(level)
        level = cand[fresh_at]
        levels.append(level)

    order = len(index)
    dtype = np.int16 if order < 2**15 else np.int32
    table = np.zeros((order, order), dtype=dtype)
    table[:, 0] = np.arange(order, dtype=dtype)
    # every other column from its BFS word, a level at a time:
    # j = parent(j) * g  =>  i*j = (i*parent(j)) * g
    right_mul = np.concatenate(right) if right else None
    done = 1
    for parents, gen_nos in words:
        table[:, done:done + len(parents)] = right_mul[table[:, parents], gen_nos]
        done += len(parents)

    gen_strings = tuple(perm_to_cycles(p) for p in gen_perms)
    name = label or ("<" + ", ".join(gen_strings) + ">" if gen_strings else "trivial")
    perms = tuple(map(tuple, np.concatenate(levels).tolist()))
    return FiniteGroup(order=order, table=table, perms=perms,
                       generators=gen_strings, label=name)


def _conjugacy_classes(G: FiniteGroup) -> ConjugacyClassPartition:
    T = G.table
    inv = G._inverses
    n = G.order
    every = np.arange(n)
    assigned = np.full(n, -1)
    classes: list[np.ndarray] = []
    for x in range(n):
        if assigned[x] != -1:
            continue
        orbit = np.unique(T[T[inv, x], every])  # g^-1 x g over all g, sorted
        assigned[orbit] = len(classes)
        classes.append(orbit)
    classes.sort(key=lambda c: (len(c), int(c[0])))
    class_of = np.empty(n, dtype=np.intp)
    for ci, members in enumerate(classes):
        class_of[members] = ci
    return ConjugacyClassPartition(
        class_of=tuple(class_of.tolist()),
        class_sizes=tuple(len(c) for c in classes),
        representatives=tuple(int(c[0]) for c in classes),
    )


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClassPartition:
    return G.conjugacy_classes()


# -- derived constructions ----------------------------------------------------


def direct_product(A: FiniteGroup, B: FiniteGroup, label: str | None = None) -> FiniteGroup:
    """Direct product, realized on the disjoint union of the two point sets."""
    da = len(A.perms[0]) if A.order > 1 else 0
    gens: list[dict[int, int]] = []
    for g in A.generators:
        gens.append(parse_permutation(g))
    for g in B.generators:
        shifted = {a + da: b + da for a, b in parse_permutation(g).items()}
        gens.append(shifted)
    name = label or f"{A.label} x {B.label}"
    G = build_group(gens, limit=max(ORDER_LIMIT, A.order * B.order), label=name)
    if G.order != A.order * B.order:
        raise AssertionError("direct product closure has wrong order")
    return G


def quotient_by_central(G: FiniteGroup, central: Iterable[int],
                        label: str | None = None) -> FiniteGroup:
    """Quotient by a central subgroup, rebuilt from its action on cosets.

    The coset space carries the right-translation action of the generators;
    closing those permutations yields the quotient with canonical numbering.
    """
    Z = sorted(set(central) | {0})
    T = G.table
    for z in Z:
        if not np.array_equal(T[z, :], T[:, z]):
            raise UnknownCatalogEntry(f"element {z} is not central")
        if T[z, z] not in (0, *Z) or any(int(T[z, w]) not in Z for w in Z):
            raise UnknownCatalogEntry("central set is not a subgroup")
    coset_of = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] != -1:
            continue
        ci = len(reps)
        reps.append(x)
        for z in Z:
            coset_of[int(T[x, z])] = ci
    gens = []
    for g_str in G.generators:
        g_perm = parse_permutation(g_str)
        g_elem = G.perms.index(_as_tuple(g_perm, len(G.perms[0])))
        image = {ci + 1: coset_of[int(T[rep, g_elem])] + 1 for ci, rep in enumerate(reps)}
        gens.append(image)
    name = label or f"{G.label} / Z{len(Z)}"
    Q = build_group(gens, limit=max(ORDER_LIMIT, G.order), label=name)
    if Q.order != G.order // len(Z):
        raise AssertionError("central quotient has wrong order")
    return Q


def _unique_central_involution(G: FiniteGroup) -> int:
    invs = [z for z in G.center() if z != 0 and G.mul(z, z) == 0]
    if len(invs) != 1:
        raise UnknownCatalogEntry(
            f"{G.label} has {len(invs)} central involutions; need exactly one")
    return invs[0]


def central_product_mod_diagonal_center(A: FiniteGroup, B: FiniteGroup,
                                        label: str | None = None) -> FiniteGroup:
    """(A x B) / <(z_A, z_B)> with z the unique central involution of each factor."""
    zA = _unique_central_involution(A)
    zB = _unique_central_involution(B)
    P = direct_product(A, B)
    da = len(A.perms[0]) if A.order > 1 else 0
    za_perm = A.perms[zA]
    zb_perm = B.perms[zB] if B.order > 1 else ()
    joint = tuple(za_perm) + tuple(x + da for x in zb_perm)
    z_elem = P.perms.index(joint)
    name = label or f"{A.label} o {B.label}"
    return quotient_by_central(P, [z_elem], label=name)


# -- named catalog --------------------------------------------------------------

Q8_GENERATORS = ("(1 2 5 6)(3 4 7 8)", "(1 3 5 7)(2 8 6 4)")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownCatalogEntry("cyclic order must be >= 1")
    if n == 1:
        return build_group([], label="C1")
    gen = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return build_group([gen], label=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on an n-gon (n >= 3)."""
    if n < 3:
        raise UnknownCatalogEntry("dihedral(n) needs n >= 3; use direct products below that")
    rot = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    pairs = [(i, n + 2 - i) for i in range(2, n // 2 + 2) if i < n + 2 - i]
    refl = "".join(f"({a} {b})" for a, b in pairs)
    return build_group([rot, refl], label=f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    if n < 2:
        raise UnknownCatalogEntry("symmetric(n) needs n >= 2")
    cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return build_group(["(1 2)", cycle], label=f"S{n}")


def quaternion8() -> FiniteGroup:
    """Quaternion group of order 8 in its regular action on 8 points."""
    return build_group(list(Q8_GENERATORS), label="Q8")


def q8_power_family(m: int) -> FiniteGroup:
    """Central product of m quaternion factors, times an extra C2.

    The m-fold direct power is reduced modulo the subgroup identifying the
    central involutions of consecutive factors; the result has order
    2^(2m+2) and carries a pair of degree-2^m irreducibles whose agreement
    set is as large as the distinguishing bound allows.
    """
    if m < 1:
        raise UnknownCatalogEntry("q8_power_family(m) needs m >= 1")
    q8 = quaternion8()
    G = q8
    for _ in range(m - 1):
        G = direct_product(G, q8)
    if m > 1:
        i_perm = _as_tuple(parse_permutation(Q8_GENERATORS[0]), 8)
        minus_one = tuple(i_perm[x] for x in i_perm)  # i * i
        z_indices = []
        for i in range(m):
            block = tuple(range(8 * i)) + tuple(x + 8 * i for x in minus_one) \
                + tuple(range(8 * (i + 1), 8 * m))
            z_indices.append(G.perms.index(block))
        kernel_gens = [G.mul(z_indices[i], z_indices[i + 1]) for i in range(m - 1)]
        kernel = _subgroup_closure(G, kernel_gens)
        G = quotient_by_central(G, kernel, label=f"Q8^{m} central product")
    return direct_product(G, cyclic(2), label=f"q8_power_family({m})")


def _subgroup_closure(G: FiniteGroup, gens: Iterable[int]) -> list[int]:
    members = {0}
    frontier = [0]
    gen_list = [g for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gen_list:
            y = G.mul(x, g)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return sorted(members)


_CATALOG_RE = re.compile(r"^\s*([a-z0-9_]+)\s*(?:\((.*)\))?\s*$", re.IGNORECASE)


def _split_top_level(args: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in args:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    last = "".join(cur).strip()
    if last:
        parts.append(last)
    return parts


# catalog entry -> number of arguments
_ARITY = {"cyclic": 1, "dihedral": 1, "symmetric": 1, "quaternion8": 0, "q8_power_family": 1,
          "direct_product": 2, "central_product_mod_diagonal_center": 2}


def _parse_catalog(expr: str) -> tuple[str, list]:
    """Entry name and arguments: an int for one-argument entries, else sub-expressions."""
    match = _CATALOG_RE.match(expr)
    if not match:
        raise UnknownCatalogEntry(f"cannot parse catalog expression {expr!r}")
    name = match.group(1).lower()
    args = _split_top_level(match.group(2)) if match.group(2) else []
    if name not in _ARITY:
        raise UnknownCatalogEntry(f"unknown catalog entry {name!r}")
    if len(args) != _ARITY[name]:
        raise UnknownCatalogEntry(
            f"{name} takes {_ARITY[name]} argument(s), got {len(args)} in {expr!r}")
    if _ARITY[name] == 1:
        try:
            return name, [int(args[0])]
        except ValueError:
            raise UnknownCatalogEntry(f"{name} needs an integer argument in {expr!r}")
    return name, args


def _checked_order(expr: str) -> int:
    """Order of a catalog group, from its expression alone.

    Raises ClosureExceedsLimit when the group, or the direct product that a
    two-factor entry builds first, is larger than ORDER_LIMIT.  Arguments the
    constructors reject pass here and fail when built.
    """
    name, args = _parse_catalog(expr)
    if name == "cyclic":
        order = args[0]
    elif name == "dihedral":
        order = 2 * args[0]
    elif name == "symmetric":
        order = 1
        for k in range(2, args[0] + 1):  # stop once over the limit: no large factorial
            order *= k
            if order > ORDER_LIMIT:
                break
    elif name == "quaternion8":
        order = 8
    elif name == "q8_power_family":
        # 2^(2m+2); capping m at the limit's bit length keeps the result over it
        order = 4 ** (min(args[0], ORDER_LIMIT.bit_length()) + 1) if args[0] >= 1 else 1
    else:
        order = _checked_order(args[0]) * _checked_order(args[1])
    if order > ORDER_LIMIT:
        raise ClosureExceedsLimit(f"{expr} would build a group of order above {ORDER_LIMIT}")
    return order // 2 if name == "central_product_mod_diagonal_center" else order


def catalog(expr: str) -> FiniteGroup:
    """Build a named group from an expression like ``direct_product(quaternion8,cyclic(2))``.

    The order is checked against ORDER_LIMIT before any permutation is built.
    """
    _checked_order(expr)
    name, args = _parse_catalog(expr)
    if name == "cyclic":
        return cyclic(args[0])
    if name == "dihedral":
        return dihedral(args[0])
    if name == "symmetric":
        return symmetric(args[0])
    if name == "quaternion8":
        return quaternion8()
    if name == "q8_power_family":
        return q8_power_family(args[0])
    if name == "direct_product":
        return direct_product(catalog(args[0]), catalog(args[1]))
    return central_product_mod_diagonal_center(catalog(args[0]), catalog(args[1]))


BUNDLED_CATALOG: tuple[str, ...] = (
    "cyclic(2)",
    "cyclic(3)",
    "cyclic(4)",
    "cyclic(5)",
    "cyclic(6)",
    "cyclic(8)",
    "cyclic(12)",
    "direct_product(cyclic(2),cyclic(2))",
    "direct_product(cyclic(2),cyclic(4))",
    "symmetric(3)",
    "symmetric(4)",
    "dihedral(4)",
    "dihedral(5)",
    "dihedral(6)",
    "quaternion8",
    "direct_product(quaternion8,cyclic(2))",
    "direct_product(dihedral(4),cyclic(2))",
    "direct_product(symmetric(3),cyclic(2))",
    "q8_power_family(1)",
    "q8_power_family(2)",
    "central_product_mod_diagonal_center(quaternion8,quaternion8)",
    "central_product_mod_diagonal_center(quaternion8,dihedral(4))",
    "central_product_mod_diagonal_center(dihedral(4),dihedral(4))",
    "central_product_mod_diagonal_center(quaternion8,cyclic(4))",
)


def bundled_catalog() -> dict[str, FiniteGroup]:
    """Construct the full bundled catalog (all orders <= 64)."""
    return {expr: catalog(expr) for expr in BUNDLED_CATALOG}


def parse_group_file(text: str) -> list[str]:
    """Extract generator lines from a group spec file (one permutation per line)."""
    gens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            gens.append(line)
    return gens
