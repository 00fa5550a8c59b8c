"""Describable sets of rational primes, with norms for field-degree selectors.

Selectors are pure predicates over primes, vectorized over numpy arrays.
Ramified primes (dividing a defining modulus) are always excluded.  A
selector whose membership depends only on p mod N gives N as its
``congruence_modulus()``, and its exact analytic density is the share of the
units mod N its ``mask`` picks; arbitrary combinations fall back to None.

Selectors also name the primes a source or Euler product has data at:
``AllPrimes()``, or an ``ExplicitList`` whose ``largest_prime`` ends walks.
A density read above LIFT_MODULUS_LIMIT is refused before any mask is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import LimitExceeded, NonPrimeRow, ParseError
from .fields import FieldSpec, parse_fieldspec
from .sieve import PRIME_LIMIT, is_prime_array, prime_divisors, totient
from .sieve import residues as prime_residues

# ``mask`` indexes a table of ``modulus`` bytes on every call: at 1e9 it is
# lazily zeroed and costs 0.7 ms per sieve segment, while 1e12 bytes cannot be
# allocated at all.  Every prime a scan reaches lies below PRIME_LIMIT, so a
# larger modulus would only pick the listed residues themselves.
MODULUS_LIMIT = PRIME_LIMIT

# Densities but those of mod:, list: and not read ``mask`` on the units mod N,
# UNIT_CHUNK at a time: near the cap, "mod:10000000:1 and all" and
# "mod:2499997:1 or mod:4:1" took 0.09-0.14 s at 59-62 MiB peak RSS, the former
# byte-table lifts 0.02-0.04 s at 70-74 MiB; chunks of 2**22 and 2**24 took
# 105-240 MiB and were no faster (2-vCPU x86-64 VM, numpy 2.4.6).
LIFT_MODULUS_LIMIT = 10**7
UNIT_CHUNK = 2**20


class PrimeSelector:
    """Base selector: membership plus optional norm/density structure."""

    #: uniform exponent j with norm(p) = p**j, or None if not uniform
    norm_exponent: int | None = 1
    excluded: frozenset[int] = frozenset()
    #: the largest prime of a finite selector (0 when empty), None if unbounded
    largest_prime: int | None = None

    def contains(self, p: int) -> bool:
        return bool(self.mask(np.array([p], dtype=np.int64))[0])

    def mask(self, primes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def norms(self, primes: np.ndarray) -> np.ndarray:
        j = self.norm_exponent or 1
        return primes.astype(np.float64) ** j

    def place_multiplicity(self, primes: np.ndarray) -> np.ndarray:
        return np.ones(len(primes), dtype=np.int64)

    def max_prime_for_norm(self, norm_cutoff: float) -> int:
        j = self.norm_exponent or 1
        return int(math.floor(norm_cutoff ** (1.0 / j) + 1e-9))

    def congruence_modulus(self) -> int | None:
        """A modulus N such that membership depends only on p mod N, or None.

        For a unit a mod N (a = 0 when N = 1), ``mask([a])`` says whether the
        primes congruent to a mod N are picked, and ``mask`` picks no prime
        dividing N: ``sieve.class_sums`` and ``analytic_density`` rely on it."""
        return None

    def analytic_density(self) -> Fraction | None:
        """The share of the units mod ``congruence_modulus()`` that ``mask`` picks."""
        N = self.congruence_modulus()
        if N is None:
            return None
        if N > LIFT_MODULUS_LIMIT:
            raise LimitExceeded(f"compound congruence modulus capped at {LIFT_MODULUS_LIMIT}, "
                                f"got {N}")
        divisors = prime_divisors(N)
        picked = 0
        for start in range(0, N, UNIT_CHUNK):
            units = np.ones(min(UNIT_CHUNK, N - start), dtype=bool)
            for p in divisors:
                units[-start % p::p] = False
            picked += int(np.count_nonzero(self.mask(start + np.flatnonzero(units))))
        return Fraction(picked, totient(N))

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<selector {self.describe()}>"


@dataclass(frozen=True)
class AllPrimes(PrimeSelector):
    def mask(self, primes: np.ndarray) -> np.ndarray:
        return np.ones(len(primes), dtype=bool)

    def congruence_modulus(self):
        return 1

    def describe(self) -> str:
        return "all"


@dataclass(frozen=True)
class NoPrimes(PrimeSelector):
    def mask(self, primes: np.ndarray) -> np.ndarray:
        return np.zeros(len(primes), dtype=bool)

    def congruence_modulus(self):
        return 1

    def describe(self) -> str:
        return "none"


@dataclass(frozen=True)
class CongruenceSelector(PrimeSelector):
    """Primes p with p mod N in a fixed residue set (non-units dropped)."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.modulus < 1:
            raise ParseError(f"congruence modulus {self.modulus} must be a positive integer")
        if self.modulus > MODULUS_LIMIT:
            raise LimitExceeded(f"congruence modulus capped at {MODULUS_LIMIT}, got {self.modulus}")
        units = {r % self.modulus for r in self.residues
                 if math.gcd(r, self.modulus) == 1}
        object.__setattr__(self, "residues", frozenset(units))
        object.__setattr__(self, "excluded", prime_divisors(self.modulus))

    def mask(self, primes: np.ndarray) -> np.ndarray:
        table = np.zeros(self.modulus, dtype=bool)
        table[np.fromiter(self.residues, dtype=np.int64, count=len(self.residues))] = True
        return table[prime_residues(primes, self.modulus)]

    def congruence_modulus(self):
        return self.modulus

    def analytic_density(self) -> Fraction:
        # no residue walk: at a modulus near MODULUS_LIMIT it would read a billion units
        return Fraction(len(self.residues), totient(self.modulus))

    def describe(self) -> str:
        return f"mod:{self.modulus}:{','.join(str(r) for r in sorted(self.residues))}"


@dataclass(frozen=True)
class DegreeSelector(PrimeSelector):
    """Unramified primes of residue degree exactly j; norms are p**j.

    Each selected prime carries deg/j places of norm p**j, so sums over the
    selector weighted by ``place_multiplicity`` run over places of the field.
    """

    fieldspec: FieldSpec
    j: int

    def __post_init__(self):
        if self.j < 1 or self.fieldspec.degree % self.j:
            raise ParseError(
                f"residue degree {self.j} must divide the field degree {self.fieldspec.degree}")
        object.__setattr__(self, "norm_exponent", self.j)
        object.__setattr__(self, "excluded", self.fieldspec.ramified_primes())

    def mask(self, primes: np.ndarray) -> np.ndarray:
        return self.fieldspec.residue_degrees(primes) == self.j

    def place_multiplicity(self, primes: np.ndarray) -> np.ndarray:
        return np.full(len(primes), self.fieldspec.degree // self.j, dtype=np.int64)

    def congruence_modulus(self):
        return self.fieldspec.modulus

    def describe(self) -> str:
        return f"degree:{self.fieldspec.label}:{self.j}"


@dataclass(frozen=True)
class ExplicitList(PrimeSelector):
    primes: tuple[int, ...]
    _sorted: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # a sort and an adjacent compare: np.unique took 0.3 ms on 2262 primes (numpy 2.4.6)
        members = np.sort(np.array(self.primes, dtype=np.int64))
        first = np.ones(len(members), dtype=bool)
        first[1:] = members[1:] != members[:-1]
        object.__setattr__(self, "_sorted", members[first])
        object.__setattr__(self, "largest_prime", int(members[-1]) if len(members) else 0)

    def mask(self, primes: np.ndarray) -> np.ndarray:
        return np.isin(primes, self._sorted)

    def analytic_density(self) -> Fraction:
        return Fraction(0)

    def describe(self) -> str:
        return f"list:[{len(self._sorted)} primes]"


@dataclass(frozen=True)
class Complement(PrimeSelector):
    inner: PrimeSelector

    def __post_init__(self):
        object.__setattr__(self, "excluded", self.inner.excluded)

    def mask(self, primes: np.ndarray) -> np.ndarray:
        keep = ~self.inner.mask(primes)
        for p in self.inner.excluded:
            keep &= primes != p
        return keep

    def congruence_modulus(self):
        return self.inner.congruence_modulus()

    def analytic_density(self) -> Fraction | None:
        # the complement in the unit residues, with no residue walk of its own
        if self.inner.congruence_modulus() is None:
            return None
        return 1 - self.inner.analytic_density()

    def describe(self) -> str:
        return f"not {self.inner.describe()}"


@dataclass(frozen=True)
class _Pair(PrimeSelector):
    """``left`` and ``right`` joined by the ufunc ``_op``, named ``_word``,
    on their masks, with the lcm of their moduli."""

    left: PrimeSelector
    right: PrimeSelector

    def __post_init__(self):
        object.__setattr__(self, "excluded", self.left.excluded | self.right.excluded)
        if self.left.norm_exponent == self.right.norm_exponent:
            object.__setattr__(self, "norm_exponent", self.left.norm_exponent)
        else:
            object.__setattr__(self, "norm_exponent", None)

    def mask(self, primes: np.ndarray) -> np.ndarray:
        keep = self._op(self.left.mask(primes), self.right.mask(primes))
        for p in self.excluded:
            keep &= primes != p
        return keep

    def congruence_modulus(self):
        qa, qb = self.left.congruence_modulus(), self.right.congruence_modulus()
        return None if qa is None or qb is None else math.lcm(qa, qb)

    def describe(self) -> str:
        return f"({self.left.describe()} {self._word} {self.right.describe()})"


class Intersection(_Pair):
    _op, _word = np.logical_and, "and"


class Union(_Pair):
    _op, _word = np.logical_or, "or"


# -- command-line mini-language ---------------------------------------------
#
#   all | mod:N:r1,r2 | degree:<fieldspec path>:j | list:<path>
#   combinable with 'and' / 'or' / 'not'; 'or' binds loosest.


# Each '(' costs the parser four stack frames, each 'not', 'and' or 'or' one
# level of recursion; this many tokens keep both far below the limit of 1000.
SELECTOR_TOKEN_LIMIT = 256


def parse_selector(expr: str, base_dir: str | Path = ".") -> PrimeSelector:
    from .report import read  # here, so that import smolab loads no json or hashlib
    tokens = expr.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ParseError("empty selector expression")
    if len(tokens) > SELECTOR_TOKEN_LIMIT:
        raise ParseError(f"selector has {len(tokens)} tokens, above {SELECTOR_TOKEN_LIMIT}")
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_or() -> PrimeSelector:
        node = parse_and()
        while peek() == "or":
            take()
            node = Union(node, parse_and())
        return node

    def parse_and() -> PrimeSelector:
        node = parse_not()
        while peek() == "and":
            take()
            node = Intersection(node, parse_not())
        return node

    def parse_not() -> PrimeSelector:
        if peek() == "not":
            take()
            return Complement(parse_not())
        return parse_atom()

    def parse_atom() -> PrimeSelector:
        tok = peek()
        if tok is None:
            raise ParseError(f"unterminated selector expression {expr!r}")
        if tok == "(":
            take()
            node = parse_or()
            if peek() != ")":
                raise ParseError(f"missing ')' in {expr!r}")
            take()
            return node
        return atom_from_token(take())

    def atom_from_token(tok: str) -> PrimeSelector:
        if tok == "all":
            return AllPrimes()
        if tok == "none":
            return NoPrimes()
        parts = tok.split(":")
        if parts[0] == "mod" and len(parts) == 3:
            try:
                modulus = int(parts[1])
                residues = frozenset(int(r) for r in parts[2].split(","))
            except ValueError:
                raise ParseError(f"bad congruence selector {tok!r}")
            return CongruenceSelector(modulus, residues)
        if parts[0] == "degree" and len(parts) == 3:
            text = read(Path(base_dir) / parts[1])
            try:
                j = int(parts[2])
            except ValueError:
                raise ParseError(f"bad degree in selector {tok!r}")
            return DegreeSelector(parse_fieldspec(text, label=parts[1]), j)
        if parts[0] == "list" and len(parts) == 2:
            path = Path(base_dir) / parts[1]
            try:
                primes = tuple(int(line) for line in read(path).split())
            except ValueError:
                raise ParseError(f"non-integer entry in prime list {path}")
            if max(primes, default=0) > PRIME_LIMIT:
                raise LimitExceeded(f"entry {max(primes)} in prime list {path} is above "
                                    f"the prime cap {PRIME_LIMIT}")
            prime = is_prime_array(primes)
            if not prime.all():
                raise NonPrimeRow(f"entry {primes[int(np.argmin(prime))]} in prime list "
                                  f"{path} is not prime")
            return ExplicitList(primes)
        raise ParseError(f"unknown selector token {tok!r}")

    node = parse_or()
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in selector {expr!r}")
    return node
