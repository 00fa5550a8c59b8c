"""Abelian number fields described by congruence data.

A field is the fixed field of a subgroup H of (Z/N)* inside the N-th
cyclotomic field; the class of an unramified prime in (Z/N)*/H plays the
role of its Frobenius, and its residue degree is the order of that class.
Primes dividing N are ramified and always excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LimitExceeded, ParseError, Ramified
from .sieve import prime_divisors, totient, unit_mask

# The coset and degree tables are int64 arrays of N entries.  The coset
# table takes about log2 |H| array steps per generator of H: at N = 999983
# it took 0.14 s for trivial H and 0.5 s for |H| = 499991, against 2.2 s and
# 0.8 s for the earlier Python loop over the units (2-vCPU x86-64 VM).  The
# closure of H = <3> there took 0.026 s, against 0.44 s for a Python search
# over its elements.  At N = 1e11 each table alone would take 745 GiB.
MODULUS_LIMIT = 10**6


def _power_mod(base: np.ndarray, e: int, N: int) -> np.ndarray:
    """base**e mod N elementwise, by square and multiply on int64.

    Residues stay below MODULUS_LIMIT = 1e6, so every product is below 1e12.
    """
    result = np.ones_like(base) % N
    while e:
        if e & 1:
            result = result * base % N
        e >>= 1
        if e:
            base = base * base % N
    return result


def _close_subgroup(N: int, generators: tuple[int, ...]) -> np.ndarray:
    """The elements of the subgroup of (Z/N)* generated by ``generators``, as
    an int64 array, 1 % N first.

    H is closed one generator at a time from the powers of g found by
    doubling: with S = H <g^0, ..., g^(2^k - 1)>, S g^(2^k) is the next
    2^k powers, and once it adds nothing S is closed under g^(2^k) and so
    under g.  Each generator takes about log2 |H| array steps, each over at
    most the elements found so far.
    """
    gens = [g % N for g in generators]
    for g in gens:
        if math.gcd(g, N) != 1:
            raise ParseError(f"subgroup generator {g} is not a unit mod {N}")
    members = np.array([1 % N], dtype=np.int64)
    seen = np.zeros(max(N, 1), dtype=bool)
    seen[members] = True
    for g in gens:
        step = g
        while True:
            moved = members * step % N
            new = moved[~seen[moved]]  # distinct: multiplying by a unit is injective
            if not len(new):
                break
            seen[new] = True
            members = np.concatenate((members, new))
            step = step * step % N
    return members


@dataclass(frozen=True)
class FieldSpec:
    """Congruence description (N, H) of an abelian field of degree [(Z/N)*:H]."""

    modulus: int
    subgroup_generators: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.modulus < 1:
            raise ParseError("modulus must be positive")
        if self.modulus > MODULUS_LIMIT:
            raise LimitExceeded(f"field modulus capped at {MODULUS_LIMIT}, got {self.modulus}")
        if not self.label:
            gens = ",".join(str(g) for g in self.subgroup_generators) or "1"
            object.__setattr__(self, "label", f"N={self.modulus};H=<{gens}>")

    @cached_property
    def subgroup(self) -> frozenset[int]:
        return frozenset(self._subgroup_array.tolist())

    @cached_property
    def _subgroup_array(self) -> np.ndarray:
        return _close_subgroup(self.modulus, self.subgroup_generators)

    @cached_property
    def unit_order(self) -> int:
        return totient(self.modulus)

    @cached_property
    def degree(self) -> int:
        d, rem = divmod(self.unit_order, len(self._subgroup_array))
        if rem:
            raise ParseError("subgroup size does not divide the unit group order")
        return d

    @cached_property
    def _coset_table(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """residue -> coset index (or -1), plus canonical coset representatives.

        A coset's representative is its least residue, min over h in H of
        r*h mod N; cosets are numbered in ascending order of it.  The minimum
        over H = <g_1, ..., g_k> is taken one generator at a time, over
        windows g^0..g^(|H|-1) that double in length, so each generator costs
        about log2 |H| array steps over the N residues.
        """
        N = self.modulus
        residues = np.arange(N, dtype=np.int64)
        least = residues
        size = len(self._subgroup_array)  # the order of every generator divides |H|
        for g in self.subgroup_generators:
            # least[r] = min over 0 <= i < span of the previous least[r * g**i]
            span, step = 1, g % N
            while 2 * span <= size:
                least = np.minimum(least, least[residues * step % N])
                span, step = 2 * span, step * step % N
            # [0, size) is [0, span) and [size - span, size)
            least = np.minimum(least, least[residues * pow(g, size - span, N) % N])
        units = unit_mask(N)
        reps, index = np.unique(least[units], return_inverse=True)
        table = np.full(max(N, 1), -1, dtype=np.int64)
        table[units] = index
        return table, tuple(reps.tolist())

    @cached_property
    def _degree_table(self) -> np.ndarray:
        """residue -> residue degree of primes in that class (0 if ramified).

        The degree of r is the order of its class in (Z/N)*/H, a divisor of
        m = |G/H|.  Starting from f = m, each prime q of m divides f while
        r**(f/q) still lands in H, for all units at once.
        """
        N = self.modulus
        out = np.zeros(max(N, 1), dtype=np.int64)
        in_h = np.zeros(max(N, 1), dtype=bool)
        in_h[self._subgroup_array] = True
        units = np.flatnonzero(unit_mask(N))
        f = np.full(len(units), self.degree, dtype=np.int64)
        for q in sorted(prime_divisors(self.degree)):
            todo = np.flatnonzero(f % q == 0)
            while len(todo):
                # f takes few values, all divisors of m: one power per value
                down = np.zeros(len(todo), dtype=bool)
                for e in np.unique(f[todo]).tolist():
                    at = f[todo] == e
                    down[at] = in_h[_power_mod(units[todo[at]], e // q, N)]
                todo = todo[down]
                f[todo] //= q
                todo = todo[f[todo] % q == 0]
        out[units] = f
        return out

    def residue_degree(self, p: int) -> int:
        if self.modulus == 1:
            return 1
        f = int(self._degree_table[p % self.modulus])
        if f == 0:
            raise Ramified(f"prime {p} divides modulus {self.modulus}")
        return f

    def places(self, p: int) -> tuple[int, int]:
        """(residue degree f, number of places above p) for unramified p."""
        f = self.residue_degree(p)
        return f, self.degree // f

    def residues_with_degree(self, j: int) -> frozenset[int]:
        table = self._degree_table
        return frozenset(int(r) for r in np.flatnonzero(table == j))

    def ramified_primes(self) -> frozenset[int]:
        return prime_divisors(self.modulus)


@dataclass(frozen=True)
class PrimeItem:
    """A place above a rational prime: norm q = p**f."""

    p: int
    f: int

    @property
    def q(self) -> int:
        return self.p**self.f


def residue_degree(fs: FieldSpec, p: int) -> int:
    return fs.residue_degree(p)


def parse_fieldspec(text: str, label: str = "") -> FieldSpec:
    """Parse ``N=<int>`` / ``H=<comma list of generators>`` lines."""
    N = None
    gens: tuple[int, ...] = ()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().upper()
        if key == "N":
            try:
                N = int(value.strip())
            except ValueError:
                raise ParseError(f"bad modulus {value!r}")
        elif key == "H":
            items = [v.strip() for v in value.split(",") if v.strip()]
            try:
                gens = tuple(int(v) for v in items)
            except ValueError:
                raise ParseError(f"bad subgroup generator list {value!r}")
        else:
            raise ParseError(f"unknown field-spec key {key!r}")
    if N is None:
        raise ParseError("field spec is missing N=<int>")
    fs = FieldSpec(modulus=N, subgroup_generators=gens, label=label)
    fs._subgroup_array  # validate generators eagerly
    return fs
