"""Ordinary character tables and the same-degree distinguishing bound.

Tables are computed by the class-algebra eigenvector method.  The integer
structure constants of the class sums are held as one cell index per
(element, class) pair; each attempt sums a seeded random integer combination
of the class matrices in one exact ``bincount``, diagonalizes it in double
precision, and normalizes the common eigenvectors through the orthogonality
relations.

Character values are algebraic integers, and so are their complex
conjugates.  If the real part a of a value chi is rational, then
2a = chi + conj(chi) is a rational algebraic integer, that is an integer.
If the imaginary part b is rational, then (chi - conj(chi))^2 = -4b^2 is
one too, so the rational number 2b has an integer square and is an integer.
A rational real or imaginary part therefore lies in (1/2)Z.  Parts within
SNAP_TOL of (1/2)Z are snapped to it; every other part, such as
(-1 + sqrt 5)/2, is left as computed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import ClassMismatch, DegreeMismatch, LemmaViolation, NumericalDegeneracy
from .groups import ConjugacyClassPartition, FiniteGroup

VALUE_EQ_TOL = 1e-9
SNAP_TOL = 1e-7
EIG_SEPARATION_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-6
_MAX_ATTEMPTS = 8


@dataclass(frozen=True)
class Character:
    """One irreducible character: degree plus a value per conjugacy class."""

    degree: int
    values: tuple[complex, ...]
    partition: ConjugacyClassPartition
    group_label: str
    integer_values: tuple[int, ...] | None = None

    @property
    def is_integral(self) -> bool:
        return self.integer_values is not None


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    partition: ConjugacyClassPartition
    rows: tuple[Character, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.rows)

    def rows_of_degree(self, n: int) -> list[int]:
        return [i for i, r in enumerate(self.rows) if r.degree == n]


class Verdict(enum.Enum):
    FORCED_EQUAL = "ForcedEqual"
    BELOW_THRESHOLD = "BelowThreshold"


def distinguishing_threshold(n: int) -> Fraction:
    """Agreement fraction above which two degree-n irreducibles must coincide."""
    return 1 - Fraction(1, 2 * n * n)


def _class_cells(G: FiniteGroup) -> tuple[np.ndarray, ConjugacyClassPartition]:
    """Cell of every (x, k) in the class matrices, as an (|G|, r) index array.

    Class matrix i has entry (j, k) = #{x in C_i : x^{-1} * rep_k in C_j},
    the exact structure constant #{(x, y) in C_i x C_j : x*y = rep_k}.  Pair
    (x, k) counts in cell j*r + k of the matrix of class_of[x].
    """
    part = G.conjugacy_classes()
    r = part.num_classes
    class_of = np.array(part.class_of)
    reps = np.array(part.representatives, dtype=np.intp)
    return class_of[G.table[np.ix_(G._inverses, reps)]] * r + np.arange(r), part


def _class_matrix(cells: np.ndarray, class_of: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] * (class matrix i) in one bincount.

    Every entry is an integer of at most max(coeffs) * |G| < 2**53, so the
    float sum is exact in any order.
    """
    r = len(coeffs)
    weights = np.broadcast_to(coeffs[class_of][:, None], cells.shape)
    return np.bincount(cells.ravel(), weights=weights.ravel(), minlength=r * r).reshape(r, r)


def _attempt_coeffs(order: int, r: int, attempt: int) -> np.ndarray:
    rng = random.Random(f"class-algebra:{order}:{r}:{attempt}")
    return np.array([rng.randrange(1, 1000) for _ in range(r)], dtype=float)


def _snap_half_integers(x: np.ndarray) -> np.ndarray:
    """Each entry within SNAP_TOL of (1/2)Z, replaced by that point; -0.0 becomes 0.0."""
    h = np.round(2 * x) / 2 + 0.0
    return np.where(np.abs(x - h) <= SNAP_TOL, h, x)


def _try_table(G: FiniteGroup, cells: np.ndarray, part: ConjugacyClassPartition,
               attempt: int) -> CharacterTable | None:
    r = part.num_classes
    order = G.order
    sizes = np.array(part.class_sizes, dtype=float)
    coeffs = _attempt_coeffs(order, r, attempt)
    M = _class_matrix(cells, np.array(part.class_of), coeffs)
    eigvals, eigvecs = np.linalg.eig(M)
    scale = max(1.0, float(np.max(np.abs(eigvals))))
    gaps = np.abs(eigvals[:, None] - eigvals[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.any(gaps <= EIG_SEPARATION_TOL * scale):
        return None  # coincident eigenvalues: combination failed to split
    order_idx = np.lexsort((eigvals.imag, eigvals.real))
    eigvecs = eigvecs[:, order_idx]

    rows: list[Character] = []
    sum_sq = 0
    for t in range(r):
        v = eigvecs[:, t]
        if abs(v[0]) < 1e-12:
            return None
        omega = v / v[0]  # identity-class entry of the eigenvector is 1
        norm = float(np.sum(np.abs(omega) ** 2 / sizes))
        deg_f = (order / norm) ** 0.5
        degree = int(round(deg_f))
        if degree < 1 or abs(deg_f - degree) > 1e-6:
            return None
        sum_sq += degree * degree
        raw = omega * degree / sizes
        values = np.empty(r, dtype=complex)
        # part by part: a + 1j * b would turn an imaginary -0.0 into +0.0
        values.real = _snap_half_integers(raw.real)
        values.imag = _snap_half_integers(raw.imag)
        if abs(values[0] - degree) > VALUE_EQ_TOL or np.any(np.abs(values) > degree + 1e-6):
            return None
        ints = np.round(values.real)
        integral = bool(np.all(np.abs(values.imag) <= VALUE_EQ_TOL)
                        and np.all(np.abs(values.real - ints) <= VALUE_EQ_TOL))
        rows.append(Character(degree=degree, values=tuple(values.tolist()), partition=part,
                              group_label=G.label,
                              integer_values=tuple(map(int, ints)) if integral else None))
    if sum_sq != order:
        return None
    # by degree, then by descending (real, imag) value pairs class by class,
    # which puts the trivial character first; lexsort's last key is primary
    vals = np.array([row.values for row in rows])
    keys = np.empty((2 * r, r))
    keys[0::2] = -vals.real.T
    keys[1::2] = -vals.imag.T
    ranked = np.lexsort(np.vstack([keys[::-1], [[row.degree for row in rows]]]))
    table = CharacterTable(group=G, partition=part, rows=tuple(rows[i] for i in ranked))
    if not _orthogonality_ok(table):
        return None
    return table


def _orthogonality_ok(table: CharacterTable) -> bool:
    order = table.group.order
    sizes = np.array(table.partition.class_sizes, dtype=float)
    vals = np.array([r.values for r in table.rows])
    gram = (vals * sizes) @ vals.conj().T
    target = order * np.eye(len(table.rows))
    return bool(np.max(np.abs(gram - target)) <= ORTHOGONALITY_TOL * order)


def character_table(G: FiniteGroup) -> CharacterTable:
    """Full table of irreducible characters, deterministic across runs."""
    cached = G._cache.get("character_table")
    if cached is not None:
        return cached
    cells, part = _class_cells(G)
    for attempt in range(_MAX_ATTEMPTS):
        table = _try_table(G, cells, part, attempt)
        if table is not None:
            G._cache["character_table"] = table
            return table
    raise NumericalDegeneracy(
        f"eigenvector separation failed for {G.label} after {_MAX_ATTEMPTS} attempts")


def _check_compatible(chi: Character, chi2: Character, G: FiniteGroup) -> None:
    part = G.conjugacy_classes()
    if chi.partition is not part and chi.partition != part:
        raise ClassMismatch(f"{chi.group_label} character used with group {G.label}")
    if chi2.partition is not part and chi2.partition != part:
        raise ClassMismatch(f"{chi2.group_label} character used with group {G.label}")


def inner_product(chi: Character, chi2: Character, G: FiniteGroup) -> complex:
    """(1/|G|) sum_g chi(g) conj(chi2(g)), evaluated classwise."""
    _check_compatible(chi, chi2, G)
    sizes = G.conjugacy_classes().class_sizes
    total = sum(s * a * b.conjugate() for s, a, b in zip(sizes, chi.values, chi2.values))
    return total / G.order


def agreement_fraction(chi: Character, chi2: Character, G: FiniteGroup) -> Fraction:
    """Exact fraction of group elements on which the two characters agree."""
    _check_compatible(chi, chi2, G)
    sizes = G.conjugacy_classes().class_sizes
    if chi.is_integral and chi2.is_integral:
        agree = sum(s for s, a, b in zip(sizes, chi.integer_values, chi2.integer_values)
                    if a == b)
    else:
        agree = sum(s for s, a, b in zip(sizes, chi.values, chi2.values)
                    if abs(a - b) <= VALUE_EQ_TOL)
    return Fraction(agree, G.order)


def characters_equal(chi: Character, chi2: Character) -> bool:
    return (chi.degree == chi2.degree
            and len(chi.values) == len(chi2.values)
            and all(abs(a - b) <= VALUE_EQ_TOL for a, b in zip(chi.values, chi2.values)))


def lemma_check(chi: Character, chi2: Character, G: FiniteGroup) -> Verdict:
    """Classify an irreducible pair of equal degree by its agreement fraction.

    Agreement strictly above 1 - 1/(2 n^2) forces equality; if the values
    disagree anyway, something is broken and LemmaViolation is raised.
    """
    if chi.degree != chi2.degree:
        raise DegreeMismatch(f"degrees {chi.degree} != {chi2.degree}")
    frac = agreement_fraction(chi, chi2, G)
    if frac > distinguishing_threshold(chi.degree):
        if not characters_equal(chi, chi2):
            raise LemmaViolation(
                f"agreement {frac} above threshold yet characters differ on {G.label}")
        return Verdict.FORCED_EQUAL
    return Verdict.BELOW_THRESHOLD


@dataclass(frozen=True)
class ExtremalResult:
    fraction: Fraction
    pair: tuple[int, int]
    degree: int


def extremal_search(G: FiniteGroup, n: int) -> ExtremalResult | None:
    """Maximum agreement over unordered pairs of distinct degree-n irreducibles.

    Returns None when the table has fewer than two rows of degree n.  Ties
    are broken toward the lexicographically first row-index pair.
    """
    table = character_table(G)
    rows = table.rows_of_degree(n)
    if len(rows) < 2:
        return None
    best: ExtremalResult | None = None
    for i, j in combinations(rows, 2):
        frac = agreement_fraction(table.rows[i], table.rows[j], G)
        if best is None or frac > best.fraction:
            best = ExtremalResult(fraction=frac, pair=(i, j), degree=n)
    return best
