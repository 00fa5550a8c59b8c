"""Finite groups as permutation closures with explicit multiplication tables.

A permutation is one 0-based int16 row of images of the points
0..degree-1, from the parse boundary in ``build_group`` (group files and
tests) to the stored ``FiniteGroup.perms`` array, whose row i is element i;
cycle strings appear only in ``FiniteGroup.generators``, for display.
Points are capped at POINT_LIMIT, the largest int16.  Permutations compose
left-to-right: ``(a * b)(x) == b[a[x]]``, so the stored table satisfies
T[i, j] = index of perm_i * perm_j.  Everything is immutable after
construction.

Elements are numbered 0..order-1 by breadth-first closure from the identity,
taking the generators in the order given, with the identity and repeated
rows dropped: generator k is element k + 1.  The numbering depends only on
the abstract group and that ordered generator list, not on the points the
permutations act on, so the derived constructions (direct and central
products, central quotients) close generator rows read off their factors'
arrays and tables, and every table and class partition stays the same.

The closure runs a level at a time: one fancy-index expression forms every
product x * g of the current level, row by row in (parent, generator)
order, and the rows not seen before, in that order, become the next level.
This numbers the elements exactly as a one-element queue would.  The
products give the generator columns of the table, and each remaining
column j = parent(j) * g is filled a level at a time from
i * j = (i * parent(j)) * g.

The named catalog is one table, ``_CATALOG``, of each entry's argument
count, order rule and constructor.  ``catalog`` reads an expression in one
walk, ``_plan``, which refuses a group above ORDER_LIMIT before anything is
built.  ``cyclic``, ``dihedral`` and ``symmetric`` close generator rows.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ClosureExceedsLimit, InvalidPermutation, UnknownCatalogEntry

ORDER_LIMIT = 2000
POINT_LIMIT = 2**15 - 1  # points are int16 images, 0-based

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str) -> dict[int, int]:
    """Parse cycle notation like ``(1 2 3)(4 5)`` into a 1-based point map.

    Points may be separated by spaces or commas and lie in 1..POINT_LIMIT.
    ``()`` and the empty string denote the identity.
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
            if not (token.isascii() and token.isdigit()):
                raise InvalidPermutation(f"non-integer point {token!r} in {text!r}")
            digits = token.lstrip("0") or "0"
            # the digit count first: int() of a long token is slow, or refused
            if len(digits) > len(str(POINT_LIMIT)) or int(digits) > POINT_LIMIT:
                shown = digits if len(digits) <= 20 else f"{digits[:8]}...({len(digits)} digits)"
                raise InvalidPermutation(f"point {shown} is above {POINT_LIMIT}")
            points.append(int(digits))
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


def perm_to_cycles(perm: Sequence[int]) -> str:
    """Render a 0-based image row back to 1-based cycle notation."""
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
    perms: np.ndarray  # (order, degree) int16; row i is element i
    generators: tuple[str, ...]
    label: str

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    @cached_property
    def _inverses(self) -> np.ndarray:
        return np.argmin(self.table, axis=1)  # identity is element 0

    @cached_property
    def _classes(self) -> ConjugacyClassPartition:
        T = self.table
        inv = self._inverses
        n = self.order
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

    def conjugacy_classes(self) -> ConjugacyClassPartition:
        return self._classes

    def center(self) -> list[int]:
        T = self.table
        return np.flatnonzero((T == T.T).all(axis=1)).tolist()

    def validate(self, sample_triples: int = 100_000) -> None:
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
            rng = random.Random(0)
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
    """Close a set of permutations (cycle notation or 1-based point maps) into a FiniteGroup.

    Raises ClosureExceedsLimit if the closure grows past ``limit`` and
    InvalidPermutation on malformed cycles, points outside 1..POINT_LIMIT or
    maps that are not bijections.
    """
    maps = [parse_permutation(g) if isinstance(g, str) else g for g in generators]
    if any(not 1 <= p <= POINT_LIMIT for m in maps for p in (*m, *m.values())):
        raise InvalidPermutation(f"points must lie in 1..{POINT_LIMIT}")
    degree = max((max(m) for m in maps if m), default=0)
    rows = np.tile(np.arange(degree, dtype=np.int16), (len(maps), 1))
    for row, m in zip(rows, maps):
        row[np.fromiter(m, np.intp, len(m)) - 1] = np.fromiter(m.values(), np.intp, len(m)) - 1
    if (np.sort(rows, axis=1) != np.arange(degree)).any():
        raise InvalidPermutation("mapping is not a bijection")
    return _close(rows, limit, label)


def _close(gen_rows: np.ndarray, limit: int, label: str | None) -> FiniteGroup:
    """Close ``(n, degree)`` integer generator rows into a FiniteGroup.

    The identity and repeated rows are dropped first, so generator k of the
    result, ``generators[k]``, is element k + 1, the row ``perms[1 + k]``:
    the derived constructions read their factors' generators from there.
    """
    degree = gen_rows.shape[1]
    if degree > POINT_LIMIT:
        raise InvalidPermutation(f"{degree} points, above {POINT_LIMIT}")
    gen_rows = np.ascontiguousarray(gen_rows, dtype=np.int16)
    identity = np.arange(degree, dtype=np.int16)
    seen = {identity.tobytes()}
    kept = []
    for k, row in enumerate(gen_rows):
        if row.tobytes() not in seen:
            seen.add(row.tobytes())
            kept.append(k)
    gens = gen_rows[kept]
    gen_strings = tuple(perm_to_cycles(row) for row in gens.tolist())

    # level-wise breadth-first closure from the identity: row c of a level's
    # candidates is perm_(start + c // ngens) * gen_(c % ngens), so new elements
    # are numbered in (parent, generator) order
    ngens = len(gens)
    level = identity[None, :]
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
                        f"closure exceeds limit {limit} (generators {list(gen_strings)!r})")
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

    name = label or ("<" + ", ".join(gen_strings) + ">" if gen_strings else "trivial")
    return FiniteGroup(order=order, table=table, perms=np.concatenate(levels),
                       generators=gen_strings, label=name)


# -- derived constructions ----------------------------------------------------


def direct_product(A: FiniteGroup, B: FiniteGroup, label: str | None = None) -> FiniteGroup:
    """Direct product, realized on the disjoint union of the two point sets.

    Its generators are A's, then B's moved past A's points.
    """
    ka, kb = len(A.generators), len(B.generators)
    da, db = A.perms.shape[1], B.perms.shape[1]
    rows = np.tile(np.arange(da + db), (ka + kb, 1))
    rows[:ka, :da] = A.perms[1:1 + ka]
    rows[ka:, da:] = B.perms[1:1 + kb]
    rows[ka:, da:] += da
    name = label or f"{A.label} x {B.label}"
    G = _close(rows, max(ORDER_LIMIT, A.order * B.order), name)
    if G.order != A.order * B.order:
        raise AssertionError("direct product closure has wrong order")
    return G


def quotient_by_central(G: FiniteGroup, central: Iterable[int],
                        label: str | None = None) -> FiniteGroup:
    """Quotient by a central subgroup Z, closed from the generators' action on cosets.

    Each coset xZ is numbered by its least element, in increasing order, and
    generator k, element k + 1, acts on the cosets by right multiplication.
    """
    T = G.table
    Z = np.union1d(np.fromiter(central, np.intp), [0])
    noncentral = np.setdiff1d(Z, G.center())
    if len(noncentral):
        raise UnknownCatalogEntry(f"element {noncentral[0]} is not central")
    if not np.isin(T[np.ix_(Z, Z)], Z).all():
        raise UnknownCatalogEntry("central set is not a subgroup")
    reps, coset_of = np.unique(T[:, Z].min(axis=1), return_inverse=True)
    images = coset_of[T[reps, 1:len(G.generators) + 1]]  # (coset, generator)
    name = label or f"{G.label} / Z{len(Z)}"
    Q = _close(images.T, max(ORDER_LIMIT, G.order), name)
    if Q.order != G.order // len(Z):
        raise AssertionError("central quotient has wrong order")
    return Q


def _unique_central_involution(G: FiniteGroup) -> int:
    invs = [z for z in G.center() if z != 0 and G.mul(z, z) == 0]
    if len(invs) != 1:
        raise UnknownCatalogEntry(
            f"{G.label} has {len(invs)} central involutions; need exactly one")
    return invs[0]


def central_product_mod_diagonal_center(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """(A x B) / <(z_A, z_B)> with z the unique central involution of each factor."""
    zA = _unique_central_involution(A)
    zB = _unique_central_involution(B)
    P = direct_product(A, B)
    joint = np.concatenate([A.perms[zA], B.perms[zB] + A.perms.shape[1]])
    z = int(np.flatnonzero((P.perms == joint).all(axis=1))[0])
    return quotient_by_central(P, [z], label=f"{A.label} o {B.label}")


# -- named catalog --------------------------------------------------------------

Q8_GENERATORS = ("(1 2 5 6)(3 4 7 8)", "(1 3 5 7)(2 8 6 4)")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnknownCatalogEntry("cyclic order must be >= 1")
    rotation = np.roll(np.arange(n), -1)[None, :] if n > 1 else np.empty((0, 0))
    return _close(rotation, ORDER_LIMIT, f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on an n-gon (n >= 3)."""
    if n < 3:
        raise UnknownCatalogEntry("dihedral(n) needs n >= 3; use direct products below that")
    points = np.arange(n)
    return _close(np.stack([np.roll(points, -1), -points % n]), ORDER_LIMIT, f"D{n}")


def symmetric(n: int) -> FiniteGroup:
    if n < 2:
        raise UnknownCatalogEntry("symmetric(n) needs n >= 2")
    points = np.arange(n)
    return _close(np.stack([np.r_[1, 0, points[2:]], np.roll(points, -1)]), ORDER_LIMIT, f"S{n}")


def quaternion8() -> FiniteGroup:
    """Quaternion group of order 8 in its regular action on 8 points."""
    return build_group(list(Q8_GENERATORS), label="Q8")


def q8_power_family(m: int) -> FiniteGroup:
    """Central product of m quaternion factors, times an extra C2.

    The factors are joined one at a time, each step identifying the central
    involution of the product so far with that of the next Q8, so no group
    larger than the result is built.  The result has order 2^(2m+2) and
    carries a pair of degree-2^m irreducibles whose agreement set is as large
    as the distinguishing bound allows.
    """
    if m < 1:
        raise UnknownCatalogEntry("q8_power_family(m) needs m >= 1")
    q8 = quaternion8()
    G = q8
    for _ in range(m - 1):
        G = central_product_mod_diagonal_center(G, q8)
    return direct_product(G, cyclic(2), label=f"q8_power_family({m})")


_CATALOG_RE = re.compile(r"^\s*([a-z0-9_]+)\s*(?:\((.*)\))?\s*$", re.IGNORECASE)


def _split_top_level(args: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(args):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(args[start:i].strip())
            start = i + 1
    last = args[start:].strip()
    return parts + [last] if last else parts


def _shown(text: str) -> str:
    """``text`` for a message: whole up to 100 characters, else its first 60 and its length."""
    return text if len(text) <= 100 else f"{text[:60]}...({len(text)} characters)"


_INTEGER_RE = re.compile(r"([+-]?)0*([0-9]+)")  # decimal, leading zeros apart
# An argument of more digits stands for its sign times 10**_ARGUMENT_DIGITS: every
# order rule then refuses or passes it as it would the argument itself, through
# the at most CATALOG_DEPTH_LIMIT halvings of nested central products
_ARGUMENT_DIGITS = 20


def _parse_catalog(expr: str) -> tuple[str, list]:
    """Entry name and arguments: an int for one-argument entries, else sub-expressions."""
    match = _CATALOG_RE.match(expr)
    if not match:
        raise UnknownCatalogEntry(f"cannot parse catalog expression {_shown(expr)!r}")
    name = match.group(1).lower()
    args = _split_top_level(match.group(2)) if match.group(2) else []
    if name not in _CATALOG:
        raise UnknownCatalogEntry(f"unknown catalog entry {_shown(name)!r}")
    arity = _CATALOG[name][0]
    if len(args) != arity:
        raise UnknownCatalogEntry(
            f"{name} takes {arity} argument(s), got {len(args)} in {_shown(expr)!r}")
    if arity == 1:
        number = _INTEGER_RE.fullmatch(args[0])
        if number is None:
            raise UnknownCatalogEntry(f"{name} needs an integer argument in {_shown(expr)!r}")
        # the digit count first: int() of a long argument is slow, or refused
        sign, digits = number.groups()
        value = int(digits) if len(digits) <= _ARGUMENT_DIGITS else 10**_ARGUMENT_DIGITS
        return name, [-value if sign == "-" else value]
    return name, args


# entry -> (number of arguments, order rule, constructor).  A one-argument
# rule takes the entry's integer, a two-factor rule the orders of its factors.
# Arguments a constructor rejects pass the rule and fail when built.
_CATALOG = {
    "cyclic": (1, lambda n: n, cyclic),
    "dihedral": (1, lambda n: 2 * n, dihedral),
    # n! with n capped at the limit: over the limit, and no huge factorial
    "symmetric": (1, lambda n: math.factorial(min(max(n, 0), ORDER_LIMIT)), symmetric),
    "quaternion8": (0, lambda: 8, quaternion8),
    # 2^(2m+2); capping m at the limit's bit length keeps the result over it
    "q8_power_family": (1, lambda m: 4 ** (min(m, ORDER_LIMIT.bit_length()) + 1) if m >= 1 else 1,
                        q8_power_family),
    "direct_product": (2, lambda a, b: a * b, direct_product),
    "central_product_mod_diagonal_center": (2, lambda a, b: a * b // 2,
                                            central_product_mod_diagonal_center),
}

# Nontrivial factors nest at most ORDER_LIMIT.bit_length() deep, trivial ones
# without end; each level costs one stack frame in ``_plan`` and one in its
# build function, so the bound keeps both far below the recursion limit 1000.
CATALOG_DEPTH_LIMIT = 32


def _plan(expr: str, depth: int = 0) -> tuple[int, Callable[[], FiniteGroup]]:
    """Order of a catalog group, and a function that builds it.

    Refuses a group, or the direct product a two-factor entry builds first,
    above ORDER_LIMIT, and nesting past CATALOG_DEPTH_LIMIT.
    """
    if depth > CATALOG_DEPTH_LIMIT:
        raise UnknownCatalogEntry(f"catalog nesting deeper than {CATALOG_DEPTH_LIMIT} levels")
    name, args = _parse_catalog(expr)
    arity, order_rule, construct = _CATALOG[name]
    if arity == 2:
        (a, build_a), (b, build_b) = (_plan(arg, depth + 1) for arg in args)
        built, order = a * b, order_rule(a, b)
        build = lambda: construct(build_a(), build_b())
    else:
        built = order = order_rule(*args)
        build = lambda: construct(*args)
    if built > ORDER_LIMIT:
        raise ClosureExceedsLimit(
            f"{_shown(expr)} would build a group of order above {ORDER_LIMIT}")
    return order, build


def catalog(expr: str) -> FiniteGroup:
    """Build a named group from an expression like ``direct_product(quaternion8,cyclic(2))``.

    The order is checked against ORDER_LIMIT before any permutation is built.
    """
    return _plan(expr)[1]()


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
    lines = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return [line for line in lines if line]
